"""Exact rational and integer linear algebra.

Everything here is built on Python's arbitrary-precision ``int`` and
``fractions.Fraction``; no floating point is used anywhere in the package.
Vectors are plain tuples, matrices are small immutable wrappers around
tuples of row tuples.  The normal forms fix canonical representatives:

* ``hermite_normal_form`` returns the row-style HNF with nonnegative pivots
  and entries above each pivot reduced into ``[0, pivot)``, together with a
  unimodular transform ``u`` such that ``u @ m == h``.
* ``smith_normal_form`` returns ``(d, u, v)`` with ``u @ m @ v == d`` diagonal
  and ``d_1 | d_2 | ...``.
* ``kernel_basis`` returns the saturated integer kernel in row-HNF, so equal
  lattices always get bit-identical bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def frac(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction (exact)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise ValueError("dimension mismatch in dot product")
    return sum(x * y for x, y in zip(a, b))


def vadd(a: Sequence, b: Sequence) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a: Sequence) -> tuple:
    return tuple(c * x for x in a)


def is_zero_vec(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        return tuple(int(x) for x in v)
    return tuple(int(x) // g for x in v)


def clear_denominators(v: Sequence[Fraction]) -> tuple[IntVec, int]:
    """Return (d*v as ints, d) for the least common denominator d >= 1."""
    xs = [x if type(x) is int else frac(x) for x in v]
    d = 1
    for x in xs:
        if x.denominator != 1:
            d = lcm(d, x.denominator)
    return tuple(x.numerator * (d // x.denominator) for x in xs), d


def scaled_primitive(v: Sequence) -> IntVec:
    """Primitive integer vector spanning the same ray as the rational v."""
    w, _ = clear_denominators(v)
    return primitive(w)


class Matrix:
    """Immutable dense matrix with exact entries.

    Entries are Fractions in general; for lattice maps they are checked to be
    integers on demand.  Row-major, ``m.entries[i][j]``.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable]):
        rows = tuple(vec(row) for row in entries)
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged matrix")
        else:
            w = 0
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", w)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(r: int, c: int) -> "Matrix":
        return Matrix([[0] * c for _ in range(r)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Matrix":
        cols = [vec(c) for c in cols]
        if not cols:
            return Matrix([])
        return Matrix([[c[i] for c in cols] for i in range(len(cols[0]))])

    def column(self, j: int) -> Vec:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.cols)]

    def row(self, i: int) -> Vec:
        return self.entries[i]

    def transpose(self) -> "Matrix":
        return Matrix([[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def __matmul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matmul")
            return Matrix(self._products([clear_denominators(c) for c in zip(*other.entries)]))
        # matrix @ vector
        v = clear_denominators(other)
        if self.cols != len(v[0]):
            raise ValueError("shape mismatch in matvec")
        return tuple(row[0] for row in self._products([v]))

    def _products(self, right: list[tuple[IntVec, int]]) -> list[list[Fraction]]:
        """Row-by-column products with integer-scaled columns (w, d): each row
        is scaled by its common denominator too, so the sums run in int."""
        return [[Fraction(sum(a * b for a, b in zip(r, w)), dr * d) for w, d in right]
                for r, dr in map(clear_denominators, self.entries)]

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.entries]})"

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for r in self.entries for x in r)

    def int_rows(self) -> list[IntVec]:
        if not self.is_integral():
            raise ValueError("matrix is not integral")
        return [tuple(int(x) for x in r) for r in self.entries]

    def rank(self) -> int:
        return rank(self.entries)


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q by Bareiss fraction-free elimination, entirely in int.

    Integer rows are used as they are; a row with non-integral entries is
    first scaled by its common denominator (``clear_denominators``), which
    does not change the rank.  Each elimination step divides exactly by the
    previous pivot (Bareiss 1968), so entries stay minors of the input.
    """
    mat = [list(r) if all(type(x) is int for x in r) else list(clear_denominators(r)[0])
           for r in rows]
    if not mat:
        return 0
    m, n = len(mat), len(mat[0])
    r = 0
    prev = 1
    for c in range(n):
        piv = next((i for i in range(r, m) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = mat[r]
        pv = top[c]
        for i in range(r + 1, m):
            row = mat[i]
            f = row[c]
            if f:
                mat[i] = [(pv * a - f * b) // prev for a, b in zip(row, top)]
            elif pv != prev:
                mat[i] = [pv * a // prev for a in row]
        prev = pv
        r += 1
        if r == m:
            break
    return r


# ---------------------------------------------------------------------------
# Integer normal forms


def _int_rows(m: Matrix) -> list[list[int]]:
    return [list(r) for r in m.int_rows()]


def hermite_normal_form(m: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular, u @ m == h, pivots positive, entries
    above each pivot reduced into [0, pivot), and zero rows at the bottom.
    """
    a = _int_rows(m)
    nr, nc = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    r = 0
    for c in range(nc):
        # gcd-reduce column c below row r by extended Euclid on row pairs
        piv = None
        for i in range(r, nr):
            if a[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        u[r], u[piv] = u[piv], u[r]
        for i in range(r + 1, nr):
            while a[i][c] != 0:
                q = a[r][c] // a[i][c]
                a[r] = [x - q * y for x, y in zip(a[r], a[i])]
                u[r] = [x - q * y for x, y in zip(u[r], u[i])]
                a[r], a[i] = a[i], a[r]
                u[r], u[i] = u[i], u[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == nr:
            break
    return Matrix(a), Matrix(u)


def _snf_inplace(a: list[list[int]], u: list[list[int]], v: list[list[int]]) -> None:
    # minimal-pivot strategy: each retry strictly shrinks |pivot|, so this
    # terminates without the sign-cycling the naive row/column sweep can hit
    nr, nc = len(a), len(a[0]) if a else 0
    t = 0
    while t < min(nr, nc):
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i, j = best
        if i != t:
            a[t], a[i] = a[i], a[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            for vr in v:
                vr[t], vr[j] = vr[j], vr[t]
        p = a[t][t]
        dirty = False
        for i in range(t + 1, nr):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            if a[i][t] != 0:
                dirty = True
        for j in range(t + 1, nc):
            q = a[t][j] // p
            if q:
                for row in a:
                    row[j] -= q * row[t]
                for vr in v:
                    vr[j] -= q * vr[t]
            if a[t][j] != 0:
                dirty = True
        if dirty:
            continue
        # divisibility: fold a violating row into row t and retry
        viol = None
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % p != 0:
                    viol = i
                    break
            if viol is not None:
                break
        if viol is not None:
            a[t] = [x + y for x, y in zip(a[t], a[viol])]
            u[t] = [x + y for x, y in zip(u[t], u[viol])]
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form: (d, u, v) with u @ m @ v == d, d_1 | d_2 | ..."""
    a = _int_rows(m)
    nr, nc = m.rows, m.cols
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]
    if nr and nc:
        _snf_inplace(a, u, v)
    return Matrix(a), Matrix(u), Matrix(v)


def elementary_divisors(m: Matrix) -> list[int]:
    d, _, _ = smith_normal_form(m)
    out = []
    for i in range(min(d.rows, d.cols)):
        x = int(d.entries[i][i])
        if x != 0:
            out.append(abs(x))
    return out


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


def kernel_basis(m: Matrix) -> list[IntVec]:
    """Basis of the saturated integer kernel ker(m) ∩ Z^cols, in row-HNF.

    The input must have integer entries.  The result is canonical: the rows
    of the returned basis are the Hermite normal form of any kernel basis.
    """
    if m.rows == 0 or m.cols == 0:
        basis = [tuple(1 if i == j else 0 for j in range(m.cols)) for i in range(m.cols)]
        return basis
    d, _, v = smith_normal_form(m)
    r = sum(1 for i in range(min(d.rows, d.cols)) if d.entries[i][i] != 0)
    cols = v.columns()[r:]
    if not cols:
        return []
    h, _ = hermite_normal_form(Matrix([[int(x) for x in c] for c in cols]))
    return [tuple(int(x) for x in row) for row in h.entries if not is_zero_vec(row)]


class AffineSolution:
    """A particular solution plus a basis of the rational kernel."""

    __slots__ = ("point", "kernel")

    def __init__(self, point: Vec, kernel: list[Vec]):
        self.point = point
        self.kernel = kernel


def solve_affine(m: Matrix, target: Sequence) -> Optional[AffineSolution]:
    """Solve m @ x = target over Q.

    Returns None when the system is inconsistent.  The particular solution is
    canonical: free (non-pivot) variables are set to 0 and pivots are solved
    by back-substitution, so repeated runs are bit-identical.
    """
    t = vec(target)
    if len(t) != m.rows:
        raise ValueError("target length must equal row count")
    a = [list(r) + [t[i]] for i, r in enumerate(m.entries)]
    nr, nc = m.rows, m.cols
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append((r, c))
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if a[i][nc] != 0:
            return None
    pivot_cols = {c for _, c in pivots}
    point = [Fraction(0)] * nc
    for i, c in pivots:
        point[c] = a[i][nc]
    kernel: list[Vec] = []
    for c in range(nc):
        if c in pivot_cols:
            continue
        k = [Fraction(0)] * nc
        k[c] = Fraction(1)
        for i, pc in pivots:
            k[pc] = -a[i][c]
        kernel.append(tuple(k))
    return AffineSolution(tuple(point), kernel)


def invert(m: Matrix) -> Matrix:
    """Inverse of a square rational matrix (exact); raises on singular."""
    n = m.rows
    if n != m.cols:
        raise ValueError("not square")
    a = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
         for i, r in enumerate(m.entries)]
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[c], a[piv] = a[piv], a[c]
        pv = a[c][c]
        a[c] = [x / pv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return Matrix([row[n:] for row in a])


def solve_unique(m: Matrix, target: Sequence) -> Vec:
    """Solve m @ x = target when m has full column rank; raises otherwise."""
    sol = solve_affine(m, target)
    if sol is None:
        raise ValueError("inconsistent system")
    if sol.kernel:
        raise ValueError("solution not unique")
    return sol.point


# ---------------------------------------------------------------------------
# Exact feasibility LP (phase-1 simplex with Bland's rule)


def feasible_nonneg_combination(columns: Sequence[Sequence], target: Sequence) -> Optional[list[Fraction]]:
    """Find λ >= 0 with Σ λ_i columns[i] = target, or None.

    Small dense phase-1 simplex over Q; Bland's rule guarantees termination.
    Used as the independent cross-check for cone/polyhedron membership.
    """
    tgt = [frac(x) for x in target]
    cols = [vec(c) for c in columns]
    m = len(tgt)
    n = len(cols)
    if any(len(c) != m for c in cols):
        raise ValueError("column length mismatch")
    # orient rows so the artificial basis starts feasible
    sign = [1 if tgt[i] >= 0 else -1 for i in range(m)]
    # tableau rows: for each constraint, coefficients of n real + m artificial
    a = [[sign[i] * cols[j][i] for j in range(n)] + [Fraction(1) if k == i else Fraction(0) for k in range(m)]
         for i in range(m)]
    b = [sign[i] * tgt[i] for i in range(m)]
    basis = [n + i for i in range(m)]
    # cost row: sum of artificial rows (phase-1 objective)
    cost = [sum(a[i][j] for i in range(m)) for j in range(n + m)]
    z = sum(b)
    while True:
        enter = next((j for j in range(n) if cost[j] > 0), None)
        if enter is None:
            break
        ratio = None
        leave = None
        for i in range(m):
            if a[i][enter] > 0:
                r = b[i] / a[i][enter]
                if ratio is None or r < ratio or (r == ratio and basis[i] < basis[leave]):
                    ratio = r
                    leave = i
        if leave is None:
            break  # unbounded phase-1 cannot happen, but stay safe
        pv = a[leave][enter]
        a[leave] = [x / pv for x in a[leave]]
        b[leave] /= pv
        for i in range(m):
            if i != leave and a[i][enter] != 0:
                f = a[i][enter]
                a[i] = [x - f * y for x, y in zip(a[i], a[leave])]
                b[i] -= f * b[leave]
        f = cost[enter]
        cost = [x - f * y for x, y in zip(cost, a[leave])]
        z -= f * b[leave]
        basis[leave] = enter
    if z != 0:
        return None
    lam = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            lam[bi] = b[i]
        elif b[i] != 0:
            return None  # artificial stuck at positive level (z==0 excludes this)
    return lam


def in_cone_hull(point: Sequence, vertices: Sequence[Sequence], rays: Sequence[Sequence]) -> bool:
    """Is point ∈ conv(vertices) + cone(rays)?  LP cross-check route."""
    pt = vec(point)
    if not vertices:
        return False
    d = len(pt)
    cols = [tuple(v) + (Fraction(1),) for v in (vec(v) for v in vertices)]
    cols += [tuple(r) + (Fraction(0),) for r in (vec(r) for r in rays)]
    tgt = pt + (Fraction(1),)
    if any(len(c) != d + 1 for c in cols):
        raise ValueError("dimension mismatch")
    return feasible_nonneg_combination(cols, tgt) is not None
