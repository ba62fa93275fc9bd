"""Slow independent oracles for the exact linear algebra, shared by the tests.

Each one is the straightforward ``Fraction`` (or Smith-normal-form) route
that an optimised path in ``toricgit`` replaced; the tests check that the
fast path agrees with it on seeded inputs.
"""

from fractions import Fraction

from toricgit.linalg import (Matrix, hermite_normal_form, is_zero_vec, rank,
                             scaled_primitive, smith_normal_form)


def det_unimodular(m: Matrix) -> int:
    """Determinant of a square integer matrix (exact, via Q-elimination)."""
    a = [list(map(Fraction, r)) for r in m.int_rows()]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    assert det.denominator == 1
    return int(det)


def rref(rows, ncols):
    """Reduced row echelon form over Q in Fraction: (rows, pivot columns)."""
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def solve_affine_oracle(m: Matrix, target):
    """(point, kernel) of m @ x = target with the free variables set to 0, or
    None when inconsistent; the kernel vectors are e_c minus the pivot
    column values, one per free column c."""
    a, pivots = rref([list(r) + [t] for r, t in zip(m.entries, target)], m.cols)
    if any(row[m.cols] != 0 for row in a[len(pivots):]):
        return None
    point = [Fraction(0)] * m.cols
    for row, c in zip(a, pivots):
        point[c] = row[m.cols]
    kernel = []
    for c in range(m.cols):
        if c not in pivots:
            k = [Fraction(0)] * m.cols
            k[c] = Fraction(1)
            for row, pc in zip(a, pivots):
                k[pc] = -row[c]
            kernel.append(tuple(k))
    return tuple(point), kernel


def kernel_basis_snf(m: Matrix):
    """Saturated integer kernel in row-HNF by the Smith normal form route."""
    if m.rows == 0 or m.cols == 0:
        return [tuple(1 if i == j else 0 for j in range(m.cols)) for i in range(m.cols)]
    d, _, v = smith_normal_form(m)
    r = sum(1 for i in range(min(d.rows, d.cols)) if d.entries[i][i] != 0)
    cols = v.columns()[r:]
    if not cols:
        return []
    h, _ = hermite_normal_form(Matrix(cols))
    return [tuple(row) for row in h.entries if not is_zero_vec(row)]


def cone_rays_fraction(cone):
    """Extreme rays of a cone modulo its lineality, reducing each generator by
    Fraction elimination against the HNF lineality basis."""
    lin = cone.lineality_basis
    reduced = []
    for g in cone.generators:
        x = list(map(Fraction, g))
        for row in lin:
            pc = next(j for j, v in enumerate(row) if v != 0)
            if x[pc] != 0:
                f = x[pc] / row[pc]
                x = [a - f * b for a, b in zip(x, row)]
        if any(v != 0 for v in x):
            reduced.append(scaled_primitive(x))
    rays = set()
    for g in dict.fromkeys(reduced):
        act = [f for f in cone.facets if sum(a * b for a, b in zip(f, g)) == 0]
        if rank(list(cone.equations) + act) == cone.ambient_rank - len(lin) - 1:
            rays.add(g)
    return tuple(sorted(rays))
