import random
from fractions import Fraction as F

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from oracles import (det_unimodular, feasible_nonneg_combination, in_cone_hull,
                     invert, kernel_basis_snf, smith_normal_form, solve_affine_oracle,
                     solve_unique)
from toricgit.linalg import (Matrix, abs_det, dot, elementary_divisors, hermite_normal_form,
                             kernel_basis, rank, solve_affine)

ALPHA_W2 = Matrix([[0, 0, 1, -1, 0], [0, 0, 0, 1, -1]])
PI_2 = Matrix([[0, -1, 1, 1, 1], [1, -1, 0, 0, 0], [0, 1, 0, 0, 0]])


def is_hnf(h: Matrix) -> bool:
    pivots = []
    for row in h.entries:
        nz = [j for j, x in enumerate(row) if x != 0]
        if not nz:
            continue
        if pivots and nz[0] <= pivots[-1][1]:
            return False
        pivots.append((row[nz[0]], nz[0]))
        if row[nz[0]] <= 0:
            return False
    for i, (p, c) in enumerate(pivots):
        for k in range(i):
            if not 0 <= h.entries[k][c] < p:
                return False
    return True


def test_hnf_identity():
    ident = Matrix.identity(3)
    h, u = hermite_normal_form(ident)
    assert h == ident and u == ident


def test_hnf_small():
    m = Matrix([[2, 4], [1, 3]])
    h, u = hermite_normal_form(m)
    assert (u @ m) == h
    assert abs(det_unimodular(u)) == 1
    assert is_hnf(h)


def test_hnf_alpha_rank():
    h, u = hermite_normal_form(ALPHA_W2)
    assert (u @ ALPHA_W2) == h
    nonzero_rows = [r for r in h.entries if any(x != 0 for x in r)]
    assert len(nonzero_rows) == 2


def test_snf_diag():
    m = Matrix([[2, 0], [0, 3]])
    d, u, v = smith_normal_form(m)
    assert [int(d.entries[i][i]) for i in range(2)] == [1, 6]
    assert (u @ m @ v) == d


def test_snf_zero():
    d, u, v = smith_normal_form(Matrix([[0, 0], [0, 0]]))
    assert all(x == 0 for row in d.entries for x in row)


def test_snf_pi_surjective():
    d, u, v = smith_normal_form(PI_2)
    assert [int(d.entries[i][i]) for i in range(3)] == [1, 1, 1]


def test_kernel_alpha_w2():
    assert kernel_basis(ALPHA_W2) == [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 1, 1)]


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(4)) == []


def test_kernel_ones_row():
    for n in (2, 3, 5):
        kb = kernel_basis(Matrix([[1] * (n + 1)]))
        expected = []
        for i in range(n):
            v = [0] * (n + 1)
            v[i] = 1
            v[n] = -1
            expected.append(tuple(v))
        assert kb == expected
        d = elementary_divisors(Matrix(kb))
        assert all(x == 1 for x in d)


def test_solve_affine_identity():
    assert solve_affine(Matrix.identity(3), (5, -2, F(1, 3))) == (F(5), F(-2), F(1, 3))


def test_solve_affine_alpha_shift():
    x = solve_affine(ALPHA_W2, (F(-2, 3), F(-4, 3)))
    assert x is not None and (ALPHA_W2 @ x) == (F(-2, 3), F(-4, 3))
    # the free columns 0, 1 and 4 are set to 0
    assert x == (0, 0, -2, F(-4, 3), 0)


def test_solve_affine_line():
    # the free second coordinate is 0
    assert solve_affine(Matrix([[1, 1]]), (1,)) == (F(1), F(0))


def test_solve_affine_inconsistent():
    assert solve_affine(Matrix([[1, 1], [1, 1]]), (0, 1)) is None


def _with_zero_lines(rng, nr, nc):
    """An nr × nc integer matrix whose rows and columns are each zero with
    probability 1/4, the rest of its entries drawn from [-9, 9]."""
    rows = [rng.random() < 0.25 for _ in range(nr)]
    cols = [rng.random() < 0.25 for _ in range(nc)]
    return Matrix([[0 if zr or zc else rng.randint(-9, 9) for zc in cols] for zr in rows])


def test_random_contracts():
    rng = random.Random(20240817)
    shapes = [(0, 0), (3, 0)] + [(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(150)]
    for nr, nc in shapes:
        m = _with_zero_lines(rng, nr, nc)
        h, u = hermite_normal_form(m)
        assert (u @ m) == h and abs(det_unimodular(u)) == 1 and is_hnf(h)
        d, uu, vv = smith_normal_form(m)
        assert (uu @ m @ vv) == d
        assert abs(det_unimodular(uu)) == 1 and abs(det_unimodular(vv)) == 1
        divs = [abs(int(d.entries[i][i])) for i in range(min(nr, nc))]
        nz = [x for x in divs if x != 0]
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
        assert elementary_divisors(m) == nz
        kb = kernel_basis(m)
        for k in kb:
            assert all(x == 0 for x in (m @ k))
        if kb:
            assert all(x == 1 for x in elementary_divisors(Matrix(kb)))
        target = tuple(rng.randint(-5, 5) for _ in range(nr))
        x = solve_affine(m, target)
        if x is not None:
            assert (m @ x) == tuple(map(F, target))


def test_lp_feasibility():
    assert feasible_nonneg_combination([(1, 0), (0, 1), (1, 1)], (2, 3)) is not None
    assert feasible_nonneg_combination([(1, 0), (0, 1)], (-1, 0)) is None
    assert in_cone_hull((F(1, 2), F(1, 2)), [(0, 0), (1, 0)], [(0, 1)])
    assert not in_cone_hull((2, -1), [(0, 0), (1, 0)], [(0, 1)])


def rank_oracle(rows):
    """Rank over Q by Gaussian elimination in Fraction (the test oracle)."""
    mat = [[F(x) for x in r] for r in rows]
    if not mat:
        return 0
    m, n = len(mat), len(mat[0])
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        pv = mat[r][c]
        for i in range(r + 1, m):
            if mat[i][c] != 0:
                f = mat[i][c] / pv
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == m:
            break
    return r


def _random_rows(rng, nr, nc):
    """Random int rows with zero rows, duplicate rows and low-rank products
    mixed in."""
    entry = lambda: rng.randint(-6, 6)
    kind = rng.randrange(4)
    if kind == 0 and nr and nc:  # rank <= k by construction
        k = rng.randint(0, min(nr, nc))
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
        right = [[entry() for _ in range(nc)] for _ in range(k)]
        return [[sum(a * b for a, b in zip(lr, [row[j] for row in right]))
                 for j in range(nc)] for lr in left]
    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    for i in range(nr):
        if kind == 1 and rng.random() < 0.3:
            rows[i] = [0] * nc
        elif kind == 2 and i and rng.random() < 0.4:
            rows[i] = list(rows[rng.randrange(i)])
    return rows


def test_rank_matches_fraction_oracle():
    rng = random.Random(1968)
    for nr in range(9):
        for nc in range(9):
            for _ in range(12):
                rows = _random_rows(rng, nr, nc)
                expected = rank_oracle(rows)
                assert rank(rows) == expected, rows
                assert Matrix(rows).rank() == expected


def test_abs_det_matches_fraction_oracle():
    # the last Bareiss pivot is ±det, whatever rows the pivoting swapped
    rng = random.Random(1968)
    seen = set()
    for n in range(1, 7):
        for _ in range(40):
            rows = _random_rows(rng, n, n)
            want = abs(det_unimodular(Matrix(rows)))
            assert abs_det(rows) == want, rows
            seen.add(bool(want))
    assert abs_det([]) == 1
    assert seen == {False, True}


def test_rank_small_cases():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[3, 2], [6, 4]]) == 1
    assert rank([[0, 1, 0], [0, 0, 1], [0, 1, 1]]) == 2
    assert rank([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 3


def _operand(rng, nr, nc, kind):
    """Random nr x nc rows of one kind, with all-zero rows mixed in."""
    if kind == "int":
        entry = lambda: rng.randint(-7, 7)
    elif kind == "sign":  # 0/±1, mostly one nonzero per row as in a permutation
        entry = lambda: rng.choice((0, 0, 0, 1, -1))
    elif kind == "mixed":
        entry = lambda: rng.choice((rng.randint(-7, 7), F(rng.randint(-7, 7), rng.randint(1, 4))))
    else:
        entry = lambda: F(rng.randint(-7, 7), rng.choice((1, 1, 3)))
    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    if kind == "sign" and nc:  # a row of no entries has no nonzero to place
        for row in rows:
            if rng.random() < 0.6:
                row[:] = [0] * nc
                row[rng.randrange(nc)] = rng.choice((1, -1))
    for row in rows:
        if rng.random() < 0.2:
            row[:] = [0] * nc
    return rows


def test_matrix_rejects_entries_that_are_not_int():
    # integrality is decided where data is read (jsonio), not in Matrix
    for bad in (F(4, 2), F(1, 3), "6/3", "2", True, 2.0):
        with pytest.raises(TypeError):
            Matrix([[1, bad]])
        with pytest.raises(TypeError):
            Matrix.from_columns([(1,), (bad,)])
    rng = random.Random(2718)
    for kind in ("int", "sign"):
        for _ in range(25):
            rows = _operand(rng, rng.randint(0, 4), rng.randint(1, 4), kind)
            m = Matrix(rows)
            assert m.entries == tuple(tuple(r) for r in rows)
            assert m.transpose().entries == tuple(zip(*rows))
    with pytest.raises(AttributeError):
        m.entries = ((1,),)


def test_matmul_matches_fraction_reference():
    # int matrices times int matrices, and times int or rational vectors; the
    # fixed shapes first: no rows (a matrix with no rows has no columns), no
    # columns, and a left factor of all-zero rows
    rng = random.Random(4711)
    kinds = ("int", "sign", "mixed", "rational")
    shapes = [(0, 0, 0), (3, 0, 0), (2, 3, 0), (3, 2, 4)]
    for left in kinds[:2]:
        for right in kinds:
            for t in range(len(shapes) + 15):
                nr, nk, nc = shapes[t] if t < len(shapes) else [rng.randint(1, 5) for _ in "rkc"]
                a = _operand(rng, nr, nk, left)
                if t == len(shapes) - 1:
                    a = [[0] * nk for _ in range(nr)]
                v = _operand(rng, 1, nk, right)[0]
                if right in kinds[:2]:
                    b = _operand(rng, nk, nc, right)
                    prod = Matrix(a) @ Matrix(b)
                    assert prod.entries == tuple(
                        tuple(sum(a[i][k] * b[k][j] for k in range(nk)) for j in range(nc))
                        for i in range(nr))
                    assert all(type(x) is int for r in prod.entries for x in r)
                assert Matrix(a) @ v == tuple(sum((a[i][k] * v[k] for k in range(nk)), F(0))
                                              for i in range(nr))
    with pytest.raises(ValueError):
        Matrix([[1, 2]]) @ (1, 2, 3)
    with pytest.raises(ValueError):
        Matrix([[1, 2]]) @ Matrix([[1, 2]])


def _no_float(xs):
    return not any(isinstance(x, float) for x in xs)


def test_solve_on_integer_input_matches_fraction_oracle():
    rng = random.Random(1801)
    for _ in range(120):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        m = Matrix(_random_rows(rng, nr, nc))
        if rng.random() < 0.5:  # consistent by construction
            target = m @ [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(nc)]
        else:
            target = tuple(rng.randint(-5, 5) for _ in range(nr))
        got = solve_affine(m, target)
        expected = solve_affine_oracle(m, target)
        if expected is None:
            assert got is None
            continue
        assert _no_float(got) and got == expected[0]


def test_solve_unique_and_invert_on_integer_input():
    rng = random.Random(1802)
    checked = 0
    while checked < 40:
        n = rng.randint(1, 5)
        m = Matrix([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
        if m.rank() < n:
            continue
        checked += 1
        x = tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n))
        sol = solve_unique(m, m @ x)
        assert sol == x and _no_float(sol)
        inv = invert(m)
        assert _no_float(y for r in inv for y in r)
        assert inv == list(zip(*(solve_affine_oracle(m, e)[0]
                                 for e in Matrix.identity(n).entries)))
        assert [tuple(dot(r, c) for c in m.columns()) for r in inv] == \
            list(Matrix.identity(n).entries)
    with pytest.raises(ValueError):
        solve_unique(Matrix([[1, 1]]), (1,))


def _rank_at_most(rng, nr, nc, k):
    left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
    right = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(k)]
    return Matrix(left) @ Matrix(right) if k else Matrix([[0] * nc] * nr)


def test_kernel_basis_matches_snf_route():
    rng = random.Random(1969)
    seen = set()
    for nr in range(1, 7):
        for nc in range(1, 7):
            for k in range(min(nr, nc) + 1):
                for _ in range(3):
                    m = _rank_at_most(rng, nr, nc, k)
                    seen.add(nc - m.rank())
                    assert kernel_basis(m) == kernel_basis_snf(m)
    assert {0, 1, 2} <= seen  # injective, and kernels of dimension 1 and 2


def test_kernel_basis_of_injective_matrix_skips_snf(monkeypatch):
    import toricgit.linalg as linalg
    hnf_calls = []
    real_hnf = linalg.hermite_normal_form

    def spy_hnf(m):
        hnf_calls.append(m)
        return real_hnf(m)

    monkeypatch.setattr(linalg, "hermite_normal_form", spy_hnf)
    assert kernel_basis(Matrix([[1, 2], [3, 4], [5, 6]])) == []
    assert kernel_basis(Matrix.identity(3)) == []
    assert hnf_calls == []  # the injective shortcut runs no normal form
    # positive control: a kernel of dimension 2, from the HNF of mᵀ and the
    # HNF of the kernel rows of its transform
    assert kernel_basis(Matrix([[1, 2, 3], [2, 4, 6]])) == [(1, 1, -1), (0, 3, -2)]
    assert len(hnf_calls) == 2


def test_elementary_divisors_builds_no_transform(monkeypatch):
    import toricgit.linalg as linalg
    transforms = []
    real_hnf = linalg._hnf_inplace

    def spy_hnf(a, u):
        real_hnf(a, u)
        transforms.append(u)

    monkeypatch.setattr(linalg, "_hnf_inplace", spy_hnf)
    m = Matrix([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert elementary_divisors(m) == [2, 6, 12]
    assert len(transforms) >= 2  # the matrix and its transpose, at least
    assert all(u == [[]] * 3 for u in transforms)
    # positive control: hermite_normal_form runs the same routine on the identity
    transforms.clear()
    _, u = hermite_normal_form(m)
    assert transforms == [[list(r) for r in u.entries]] and u != Matrix([[]] * 3)


# -- properties of the normal forms, the kernel and the solve ------------------


@st.composite
def low_rank_systems(draw, rational: bool):
    """(m, target): the integer m = left @ right of rank at most k, and a
    target that is m @ x for a rational x (consistent) or drawn freely,
    integer or rational (consistent or not)."""
    nr, nc = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    k = draw(st.integers(0, min(nr, nc)))
    ints = st.integers(-4, 4)
    entry = st.builds(F, ints, st.sampled_from((2, 3, 4))) if rational else ints
    left = draw(st.lists(st.lists(ints, min_size=k, max_size=k), min_size=nr, max_size=nr))
    right = draw(st.lists(st.lists(ints, min_size=nc, max_size=nc), min_size=k, max_size=k))
    m = Matrix(left) @ Matrix(right) if k else Matrix([[0] * nc] * nr)
    if draw(st.booleans()):
        target = m @ draw(st.lists(st.fractions(-5, 5, max_denominator=3),
                                   min_size=nc, max_size=nc))
    else:
        target = tuple(draw(st.lists(entry, min_size=nr, max_size=nr)))
    event(f"rank deficit {min(nr, nc) - m.rank()}")
    return m, target


@st.composite
def zero_padded_matrices(draw):
    """An integer matrix of ``low_rank_systems``, at most 5 × 5, with up to
    three zero rows and three zero columns inserted: shapes up to 8 × 8."""
    m, _ = draw(low_rank_systems(rational=False))
    rows = [list(r) for r in m.entries]
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, len(rows[0])))
        for r in rows:
            r.insert(j, 0)
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), [0] * len(rows[0]))
    return Matrix(rows)


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(m=zero_padded_matrices())
@example(m=Matrix([]))
@example(m=Matrix([[], []]))
def test_normal_form_and_kernel_contracts(m):
    h, u = hermite_normal_form(m)
    assert u @ m == h and abs(det_unimodular(u)) == 1 and is_hnf(h)
    assert all(not any(r) for r in h.entries[m.rank():])  # zero rows at the bottom
    d, uu, vv = smith_normal_form(m)
    assert uu @ m @ vv == d
    assert abs(det_unimodular(uu)) == 1 and abs(det_unimodular(vv)) == 1
    assert all(d.entries[i][j] == 0 for i in range(d.rows) for j in range(d.cols) if i != j)
    diag = [d.entries[i][i] for i in range(min(d.rows, d.cols))]
    assert all(x >= 0 for x in diag)
    assert all(b % a == 0 if a else b == 0 for a, b in zip(diag, diag[1:]))
    assert elementary_divisors(m) == [x for x in diag if x]  # with no transform built
    kb = kernel_basis(m)
    assert kb == kernel_basis_snf(m)
    assert all(not any(m @ k) for k in kb)
    event(f"kernel dimension {len(kb)}")


@pytest.mark.parametrize("rational", (False, True))
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(data=st.data())
def test_solve_affine_matches_oracle_on_rank_deficient_systems(rational, data):
    m, target = data.draw(low_rank_systems(rational))
    got = solve_affine(m, target)
    expected = solve_affine_oracle(m, target)
    kind = "rational target" if rational else "integer target"
    if expected is None:
        event(f"{kind}, inconsistent")
        assert got is None
        return
    event(f"{kind}, consistent")
    assert got == expected[0] and all(type(x) is F for x in got)
    assert m @ got == tuple(map(F, target))
