"""Exact rational and integer linear algebra.

Everything here is built on Python's arbitrary-precision ``int`` and
``fractions.Fraction``; no floating point is used anywhere in the package.
Vectors are plain tuples of ``int`` or ``Fraction``; matrices are small
immutable wrappers around tuples of ``int`` row tuples.  One fraction-free
integer elimination (Bareiss) gives both ``rank`` and the canonical solution
of ``solve_affine``.  The normal forms fix canonical representatives:

* ``hermite_normal_form`` returns the row-style HNF with nonnegative pivots
  and entries above each pivot reduced into ``[0, pivot)``, together with a
  unimodular transform ``u`` such that ``u @ m == h``.
* ``elementary_divisors`` returns the nonzero diagonal ``d_1 | d_2 | ...``
  of the Smith normal form, with no transform built: the HNF alternates on
  the matrix and its transpose until it is diagonal, and ``divisor_chain``
  folds the diagonal into a divisibility chain.
* ``kernel_basis`` returns the saturated integer kernel in row-HNF, read off
  the HNF transform of the transpose, so equal lattices always get
  bit-identical bases.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Callable, Iterable, Optional, Sequence

Vec = tuple[Fraction, ...]
IntVec = tuple[int, ...]


def frac(x) -> Fraction:
    """Coerce ints/strings/Fractions to Fraction (exact)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def vec(entries: Iterable) -> Vec:
    return tuple(frac(x) for x in entries)


def dot(a: Sequence, b: Sequence):
    if len(a) != len(b):
        raise ValueError("dimension mismatch in dot product")
    return sum(map(mul, a, b))


def primitive(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (0 stays 0)."""
    g = gcd(*v)
    return tuple(v) if g < 2 else tuple(x // g for x in v)


def clear_denominators(v: Sequence[Fraction]) -> tuple[IntVec, int]:
    """Return (d*v as ints, d) for the least common denominator d >= 1."""
    xs = [x if type(x) is int else frac(x) for x in v]
    d = lcm(*(x.denominator for x in xs))
    return tuple(x.numerator * (d // x.denominator) for x in xs), d


def scaled_primitive(v: Sequence) -> IntVec:
    """Primitive integer vector spanning the same ray as the rational v."""
    try:
        return primitive(v)
    except TypeError:  # a Fraction entry: gcd takes integers only
        return primitive(clear_denominators(v)[0])


class Matrix:
    """Immutable dense integer matrix, row-major, ``m.entries[i][j]``.

    Every entry is an ``int``: the toric data (character maps, cube maps,
    basis changes, reflections and relation matrices) is integral, and the
    normal forms are defined over Z only.  Whether input data is integral is
    decided where it is read (``jsonio.matrix_from_json``); rational data
    lives in vectors (points, targets, shifts, solutions).
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Iterable[Iterable[int]]):
        rows = tuple(map(tuple, entries))
        for row in rows:
            if not all(type(x) is int for x in row):
                raise TypeError(f"matrix entries must be int: {row!r}")
        w = len(rows[0]) if rows else 0
        if any(len(r) != w for r in rows):
            raise ValueError("ragged matrix")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", w)

    def __setattr__(self, *a):  # immutability
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Matrix":
        cols = list(cols)
        if any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("ragged matrix")
        return Matrix(zip(*cols))

    def columns(self) -> list[tuple]:
        return list(zip(*self.entries))

    def transpose(self) -> "Matrix":
        return Matrix(zip(*self.entries))

    def __matmul__(self, other):
        """Exact product with an int matrix, which ``left_action`` forms row
        by row, or with an int or rational vector, a plain sum of products."""
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("shape mismatch in matmul")
            return Matrix(left_action(self)(other.entries))
        if self.cols != len(other):
            raise ValueError("shape mismatch in matvec")
        return tuple(sum(map(mul, row, other)) for row in self.entries)

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"Matrix({[list(map(str, r)) for r in self.entries]})"

    def rank(self) -> int:
        return rank(self.entries)


def left_action(g: Matrix) -> Callable[[tuple], tuple]:
    """M -> g·M for M a tuple of row tuples, with the work split off once per
    g: row i of g·M is the sum of g_ij·M_j over the nonzero g_ij, a 1-entry
    taking the row as it is, a unit row of g taking M's row itself, and a
    zero row of g gives a zero row as wide as M (a matrix with no rows has
    no columns).  A g that permutes coordinates (of two or more) only
    reorders the rows."""
    terms = [[(j, a) for j, a in enumerate(r) if a] for r in g.entries]
    units = [t[0][0] if len(t) == 1 and t[0][1] == 1 else None for t in terms]
    if g.rows > 1 and None not in units:
        return itemgetter(*units)  # a tuple, as there are two or more
    return lambda m: tuple(m[u] if u is not None else
                           tuple(map(sum, zip(*(m[j] if a == 1 else [a * x for x in m[j]]
                                                for j, a in t)))) if t
                           else (0,) * len(m and m[0]) for u, t in zip(units, terms))


def _echelon(mat: list[list[int]], ncols: int) -> list[int]:
    """Bareiss fraction-free elimination (Bareiss 1968), in place on the int
    rows ``mat``, pivoting on the first ``ncols`` columns only.  Each step
    divides exactly by the previous pivot, so every entry, in the trailing
    columns too, stays a minor of the input.  Returns the pivot columns: row
    i holds the pivot of the i-th of them, and the rows past the last pivot
    are 0 on the first ``ncols`` columns."""
    m = len(mat)
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        for piv in range(r, m):
            if mat[piv][c]:
                break
        else:
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
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of int rows by ``_echelon``."""
    mat = [list(r) for r in rows]
    return len(_echelon(mat, len(mat[0]))) if mat else 0


def abs_det(rows: Sequence[Sequence[int]]) -> int:
    """|det| of a square int matrix by ``_echelon``: its last Bareiss pivot
    is ±det when the rows are independent, and the matrix is singular
    otherwise."""
    mat = [list(r) for r in rows]
    if not mat:
        return 1
    return abs(mat[-1][-1]) if len(_echelon(mat, len(mat))) == len(mat) else 0


# ---------------------------------------------------------------------------
# Integer normal forms


def _hnf_inplace(a: list[list[int]], u: list[list[int]]) -> None:
    """Row-style Hermite normal form in place: ``a`` becomes the HNF, its row
    operations repeated on the rows of ``u``, so u·m = h when u starts as the
    identity.  Empty rows for u build no transform."""
    nr, nc = len(a), len(a[0]) if a else 0
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


def hermite_normal_form(m: Matrix) -> tuple[Matrix, Matrix]:
    """Row-style Hermite normal form.

    Returns (h, u) with u unimodular, u @ m == h, pivots positive, entries
    above each pivot reduced into [0, pivot), and zero rows at the bottom.
    """
    a = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(m.rows)] for i in range(m.rows)]
    _hnf_inplace(a, u)
    return Matrix(a), Matrix(u)


def divisor_chain(orders: Iterable[int]) -> list[int]:
    """The invariant factors d_1 | d_2 | ... (each > 1) of the product of the
    cyclic groups Z/m, m >= 1, one per order, folded in one at a time by
    Z/a ⊕ Z/b ≅ Z/gcd(a, b) ⊕ Z/lcm(a, b)."""
    factors: list[int] = []
    for m in orders:
        for i in reversed(range(len(factors))):
            factors[i], m = lcm(factors[i], m), gcd(factors[i], m)
        if m > 1:
            factors.insert(0, m)
    return factors


def elementary_divisors(m: Matrix) -> list[int]:
    """The nonzero diagonal d_1 | d_2 | ... of the Smith normal form, with no
    transform built.  The row HNF, with empty transform rows, alternates on
    the matrix and its transpose until every row holds at most one nonzero,
    which the HNF makes positive and puts in a column of its own (Kannan &
    Bachem 1979): each pass shrinks the leading pivot or clears its row and
    column.  The diagonal left, up to order, is equivalent to the SNF, so its
    entries folded by ``divisor_chain`` and padded with 1s up to the rank are
    the elementary divisors."""
    a = [list(r) for r in m.entries]
    while True:
        _hnf_inplace(a, [[]] * len(a))
        if all(len(row) - row.count(0) < 2 for row in a):
            break
        a = [list(col) for col in zip(*a)]
    diagonal = [x for row in a for x in row if x]
    chain = divisor_chain(diagonal)
    return [1] * (len(diagonal) - len(chain)) + chain


def kernel_basis(m: Matrix) -> list[IntVec]:
    """Basis of the saturated integer kernel ker(m) ∩ Z^cols, in row-HNF.

    With u @ mᵀ == h the row-HNF of mᵀ (``hermite_normal_form``), the rows
    of u past the rank r map to the zero rows of h, so they lie in the
    kernel; u is unimodular, so they span its saturation (Cohen, GTM 138,
    §2.4).  Their own HNF is the result, so equal lattices always get
    bit-identical bases.
    """
    if m.rows == 0 or m.cols == 0:
        return [tuple(1 if i == j else 0 for j in range(m.cols)) for i in range(m.cols)]
    r = rank(m.entries)
    if r == m.cols:
        return []  # injective, e.g. the facet normals of a pointed cone
    _, u = hermite_normal_form(m.transpose())
    h, _ = hermite_normal_form(Matrix(u.entries[r:]))
    return list(h.entries)


def solve_affine(m: Matrix, target: Sequence) -> Optional[Vec]:
    """A solution of m @ x = target over Q, or None when the system is
    inconsistent.  The rows [m | target], each scaled to int by
    ``clear_denominators``, go through ``_echelon``; the solution is
    canonical: free (non-pivot) variables are 0 and the pivot variables are
    back-substituted in Fraction, so repeated runs are bit-identical."""
    t = vec(target)
    if len(t) != m.rows:
        raise ValueError("target length must equal row count")
    nc = m.cols
    a = [list(clear_denominators(r + (x,))[0]) for r, x in zip(m.entries, t)]
    pivots = _echelon(a, nc)
    if any(row[nc] for row in a[len(pivots):]):
        return None
    point = [Fraction(0)] * nc
    for row, c in reversed(list(zip(a, pivots))):
        # Fraction first: int / int would give a float
        point[c] = (row[nc] - sum(map(mul, row[c + 1:nc], point[c + 1:]))) / Fraction(row[c])
    return tuple(point)
