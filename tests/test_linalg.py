import random
from fractions import Fraction as F

import pytest

from toricgit.linalg import (Matrix, det_unimodular, elementary_divisors,
                             feasible_nonneg_combination, hermite_normal_form,
                             in_cone_hull, kernel_basis, rank, smith_normal_form,
                             solve_affine)

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
    s = solve_affine(Matrix.identity(3), (5, -2, F(1, 3)))
    assert s.point == (F(5), F(-2), F(1, 3))
    assert s.kernel == []


def test_solve_affine_alpha_shift():
    s = solve_affine(ALPHA_W2, (F(-2, 3), F(-4, 3)))
    assert s is not None and len(s.kernel) == 3
    assert (ALPHA_W2 @ s.point) == (F(-2, 3), F(-4, 3))


def test_solve_affine_line():
    s = solve_affine(Matrix([[1, 1]]), (1,))
    assert s.point == (F(1), F(0))
    assert len(s.kernel) == 1
    k = s.kernel[0]
    # spans the same line as (1, -1)
    assert k[0] * (-1) - k[1] * 1 == 0 and k != (0, 0)


def test_solve_affine_inconsistent():
    assert solve_affine(Matrix([[1, 1], [1, 1]]), (0, 1)) is None


def test_random_contracts():
    rng = random.Random(20240817)
    for _ in range(150):
        nr = rng.randint(1, 8)
        nc = rng.randint(1, 8)
        m = Matrix([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        h, u = hermite_normal_form(m)
        assert (u @ m) == h and abs(det_unimodular(u)) == 1 and is_hnf(h)
        d, uu, vv = smith_normal_form(m)
        assert (uu @ m @ vv) == d
        assert abs(det_unimodular(uu)) == 1 and abs(det_unimodular(vv)) == 1
        divs = [abs(int(d.entries[i][i])) for i in range(min(nr, nc))]
        nz = [x for x in divs if x != 0]
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
        kb = kernel_basis(m)
        for k in kb:
            assert all(x == 0 for x in (m @ k))
        if kb:
            assert all(x == 1 for x in elementary_divisors(Matrix(kb)))
        target = tuple(rng.randint(-5, 5) for _ in range(nr))
        s = solve_affine(m, target)
        if s is not None:
            assert (m @ s.point) == tuple(map(F, target))
            for k in s.kernel:
                assert all(x == 0 for x in (m @ k))


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


def _random_rows(rng, nr, nc, rational):
    """Random rows with zero rows, duplicate rows and low-rank products mixed in."""
    entry = (lambda: F(rng.randint(-6, 6), rng.randint(1, 5))) if rational else \
        (lambda: rng.randint(-6, 6))
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
            for rational in (False, True):
                for _ in range(6):
                    rows = _random_rows(rng, nr, nc, rational)
                    expected = rank_oracle(rows)
                    assert rank(rows) == expected, rows
                    assert Matrix(rows).rank() == expected


def test_rank_small_cases():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[F(1, 2), F(1, 3)], [3, 2]]) == 1
    assert rank([[0, 1, 0], [0, 0, 1], [0, 1, 1]]) == 2
    assert rank([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 3


def test_matmul_matches_fraction_reference():
    rng = random.Random(4711)
    for _ in range(60):
        nr, nk, nc = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[F(rng.randint(-7, 7), rng.randint(1, 4)) for _ in range(nk)] for _ in range(nr)]
        b = [[F(rng.randint(-7, 7), rng.choice((1, 1, 3))) for _ in range(nc)]
             for _ in range(nk)]
        v = [rng.choice((rng.randint(-5, 5), F(rng.randint(-5, 5), 6))) for _ in range(nk)]
        assert (Matrix(a) @ Matrix(b)).entries == tuple(
            tuple(sum((a[i][k] * b[k][j] for k in range(nk)), F(0)) for j in range(nc))
            for i in range(nr))
        assert Matrix(a) @ v == tuple(sum((a[i][k] * v[k] for k in range(nk)), F(0))
                                      for i in range(nr))
    with pytest.raises(ValueError):
        Matrix([[1, 2]]) @ (1, 2, 3)
    with pytest.raises(ValueError):
        Matrix([[1, 2]]) @ Matrix([[1, 2]])
