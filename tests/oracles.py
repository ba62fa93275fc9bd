"""Independent oracles and test-only constructions, shared by the tests.

The linear-algebra oracles are the straightforward ``Fraction`` (or
Smith-normal-form) routes that an optimised path in ``toricgit`` replaced;
the tests check that the fast path agrees with them on seeded inputs.  So
is the quotient route that ``git`` replaced: the slice in ambient
coordinates, mapped to ker(α) by one unique solve per vertex and ray, and
σ̄^∨ from its own double description.  The
rest is code that only the tests run: an exact feasibility LP for
membership, polyhedron and cone membership read off the facets, cone and fan
predicates, linear images and Minkowski sums, the support constants of a
polyhedron read off its facets and by a scan of every candidate point, two
routes to the slice of a cube image (the slice of the hulled image, and the
sum of the images of the slices of the connected blocks of any sparsity
pattern, hulled after each block, with a corner lookup), P_b from the
certificate run on every braid chamber, the closed-form slice vertices as
one product L·v per permutation, the orbit of a point under the
permutations of its head, the product cone by one double description with
its facet offsets from dense products Lᵀv, the family recession cone and
polyhedron, σ and σ^∨ by the double descriptions of their displayed
generators (the base cone's, all 2^n cube images, σ's 2^n rays), the
normal fan by one double description per vertex, the extremeness test by the rank of
the active facets, the orbit fan by one double description per cone, the
permutohedron and the resolution polyhedron double-described from their n!
points, the facet certificate over all of a polyhedron's points that the orbit
certificate replaced, the ``Fraction`` and vertex-scan routes that the slice checks
replaced (the closed-form slice vertices and their quotient images in
``Fraction``, and each margin as the least value of a ray over the vertices
of P_b), the dual cone double-described from the facet normals, a bounded
very-ampleness certificate, chart invariant monomials, two oracles for the
stabilizer pipeline (the toric chart-gluing test and the instantiation of
formal generators), the fan text as one ``dumps`` of the cone entries
that the per-ray encoding replaced, the slot-ratio predicates that the
ratio classes replaced (a ratio of 1, and a permutation all of whose forced
ratios are 1),
the three routes the stabilizer search replaced (the shift-group order over
``Fraction`` roots, the image tables from one slot-ratio test per slot pair,
and the chart coordinates as unit values, encoded into prefix sums
afterwards), the random configuration drawn record by record in ``Fraction``
that the orbits-first draw replaced, the two invariant-factor routes the
package replaced (trial division of cyclic orders, and the peel of a group
table), the weight-lattice reflections and identity-vertex edge matrix
of the symmetric model, and the argparse reading of the command line that
the CLI's table replaced.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import compress, permutations, product
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence

from toricgit import dd
from toricgit.cones import Cone, column_dots, image_cone
from toricgit.degeneration import (_bundle, _cayley_walk, _pb, ambient_reflections,
                                   chamber_cone, family_cube_map, permutation_matrices,
                                   product_cone_dual_columns, product_cube_map,
                                   product_rec_dual_columns, slice_vertex)
from toricgit.git import EmptyQuotientError, Linearization, RayDatum, support_constants
from toricgit.groups import FiniteAbelianGroup, NonabelianQuotientError, Perm, identity
from toricgit.jsonio import dumps, rational_str
from toricgit.linalg import (IntVec, Matrix, clear_denominators, dot,
                             elementary_divisors, frac, hermite_normal_form, primitive,
                             rank, scaled_primitive, vec)
from toricgit.polyhedra import (FacetCertificateError, Fan, InnerCertificateError,
                                LatticePolyhedron, cube_image_slice)
from toricgit.stab_backends import QuotientPoint
from toricgit.stabilizers import (CycleConfiguration, PointRecord, UnitValue,
                                  _layout_component, _shift_orders, fiber_degrees)


def vadd(a: Sequence, b: Sequence) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Sequence, b: Sequence) -> tuple:
    return tuple(x - y for x, y in zip(a, b))


def det_unimodular(m: Matrix) -> int:
    """Determinant of a square integer matrix (exact, via Q-elimination)."""
    a = [list(map(Fraction, r)) for r in m.entries]
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


def solve_unique(m: Matrix, target) -> tuple:
    """Solve m @ x = target when m has full column rank; raises otherwise."""
    sol = solve_affine_oracle(m, vec(target))
    if sol is None:
        raise ValueError("inconsistent system")
    if sol[1]:
        raise ValueError("solution not unique")
    return sol[0]


def smith_normal_form(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form with its transforms: (d, u, v) with u @ m @ v == d,
    d_1 | d_2 | ..., by the minimal-pivot elimination, independent of the
    package's alternating HNF.  Row operations on ``a`` are repeated on the
    rows of ``u``, column operations on the columns of the rows of ``v``."""
    a = [list(r) for r in m.entries]
    u = [[int(i == j) for j in range(m.rows)] for i in range(m.rows)]
    v = [[int(i == j) for j in range(m.cols)] for i in range(m.cols)]
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
    return Matrix(a), Matrix(u), Matrix(v)


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
    return [tuple(row) for row in h.entries if any(row)]


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
    reduced = list(dict.fromkeys(reduced))
    idx = extreme_generators_by_rank(reduced, cone.ambient_rank - len(lin),
                                     cone.equations, cone.facets)
    return tuple(sorted(reduced[i] for i in idx))


def extreme_generators_by_rank(generators: Sequence[Sequence[int]], ambient: int,
                               equations: Sequence, facets: Sequence) -> list[int]:
    """Indices of generators that are extreme rays of the cone.

    ``ambient`` is the dimension of the space modulo the cone's lineality:
    the ambient rank minus dim(lineality), so that for a pointed cone it is
    the ambient rank itself.  A nonzero generator is extreme iff the minimal
    face containing it is one-dimensional modulo the lineality, i.e. iff the
    facet normals active at it together with all equations have rank
    ambient - 1.  The rank is the integer (Bareiss) ``linalg.rank``; the
    normals are integer vectors, so no Fraction is built.
    """
    out = []
    for idx, g in enumerate(generators):
        if all(x == 0 for x in g):
            continue
        act = [f for f in facets if sum(a * b for a, b in zip(f, g)) == 0]
        if rank(list(equations) + act) == ambient - 1:
            out.append(idx)
    return out


# ---------------------------------------------------------------------------
# exact feasibility LP (phase-1 simplex with Bland's rule) and inversion


def invert(m: Matrix) -> list[tuple[Fraction, ...]]:
    """Rows of the inverse of a square integer matrix (exact ``Fraction``);
    raises on singular."""
    n = m.rows
    if n != m.cols:
        raise ValueError("not square")
    a = [list(vec(r)) + [Fraction(1) if i == j else Fraction(0) for j in range(n)]
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
    return [tuple(row[n:]) for row in a]


def feasible_nonneg_combination(columns: Sequence[Sequence], target: Sequence) -> Optional[list[Fraction]]:
    """Find λ >= 0 with Σ λ_i columns[i] = target, or None.

    Small phase-1 simplex over Q; Bland's rule guarantees termination.
    Used as the independent cross-check for cone/polyhedron membership.
    Each tableau row is held as ints over its own positive denominator, so a
    pivot only gives the pivot row a new denominator and rewrites only the
    rows whose entering entry is nonzero; the arithmetic stays exact, so the
    pivots and λ are those of a ``Fraction`` tableau.
    """
    tgt = [frac(x) for x in target]
    cols = [vec(c) for c in columns]
    m = len(tgt)
    n = len(cols)
    if any(len(c) != m for c in cols):
        raise ValueError("column length mismatch")
    rows, dens = [], []
    for i in range(m):
        # orient the row so the artificial basis starts feasible; its entries
        # are n real and m artificial coefficients, then the right-hand side
        sign = 1 if tgt[i] >= 0 else -1
        entries = [sign * c[i] for c in cols] + [Fraction(int(k == i)) for k in range(m)] \
            + [sign * tgt[i]]
        den = lcm(*(x.denominator for x in entries))
        rows.append([x.numerator * (den // x.denominator) for x in entries])
        dens.append(den)
    basis = [n + i for i in range(m)]
    # cost row: sum of the artificial rows (phase-1 objective); its last entry is z
    cden = lcm(*dens)
    cost = [sum(r[j] * (cden // d) for r, d in zip(rows, dens)) for j in range(n + m + 1)]

    def reduced(row: list[int], den: int) -> tuple[list[int], int]:
        g = gcd(den, *row)
        return ([x // g for x in row], den // g) if g > 1 else (row, den)

    while True:
        enter = next((j for j in range(n) if cost[j] > 0), None)
        if enter is None:
            break
        leave = None
        for i in range(m):
            a = rows[i][enter]
            if a <= 0:
                continue
            if leave is None:
                leave = i
                continue
            # Bland: the least ratio b/a, ties to the least basic index (a
            # row's denominator cancels in its ratio)
            lhs, rhs = rows[i][-1] * rows[leave][enter], rows[leave][-1] * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                leave = i
        if leave is None:
            break  # unbounded phase-1 cannot happen, but stay safe
        row, p = reduced(rows[leave], rows[leave][enter])
        rows[leave], dens[leave] = row, p
        for i in range(m):
            f = rows[i][enter]
            if i != leave and f:
                rows[i], dens[i] = reduced([x * p - f * y for x, y in zip(rows[i], row)],
                                           dens[i] * p)
        f = cost[enter]
        cost, cden = reduced([x * p - f * y for x, y in zip(cost, row)], cden * p)
        basis[leave] = enter
    if cost[-1] != 0:
        return None
    lam = [Fraction(0)] * n
    for i, bi in enumerate(basis):
        if bi < n:
            lam[bi] = Fraction(rows[i][-1], dens[i])
        elif rows[i][-1] != 0:
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


# ---------------------------------------------------------------------------
# cone and fan predicates


def positive_orthant(d: int) -> Cone:
    return Cone(d, [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)])


def intersection(c: Cone, other: Cone) -> Cone:
    if c.ambient_rank != other.ambient_rank:
        raise ValueError("dimension mismatch")
    cons = list(c.facets) + list(other.facets)
    for e in list(c.equations) + list(other.equations):
        cons.append(e)
        cons.append(tuple(-x for x in e))
    lin, rays = dd.cone_from_inequalities(cons, c.ambient_rank)
    return Cone(c.ambient_rank, list(rays) + list(lin) +
                [tuple(-x for x in l) for l in lin])


def facet_subcones(c: Cone) -> list[Cone]:
    """The codimension-1 faces of c, as cones (for fan support checks)."""
    out = []
    for f in c.facets:
        gens = [r for r in c.rays if dot(f, r) == 0]
        gens += list(c.lineality_basis)
        gens += [tuple(-x for x in l) for l in c.lineality_basis]
        out.append(Cone(c.ambient_rank, gens))
    return out


def cone_contains(c: Cone, v: Sequence) -> bool:
    """Is v in the cone c: every equation of c vanishes at v and every facet
    normal is >= 0 there?"""
    if len(v) != c.ambient_rank:
        raise ValueError("dimension mismatch")
    return all(dot(e, v) == 0 for e in c.equations) and all(dot(f, v) >= 0 for f in c.facets)


def cone_relint_contains(c: Cone, v: Sequence) -> bool:
    """Is v in the relative interior of c: every equation of c vanishes at v
    and every facet normal is > 0 there?"""
    if len(v) != c.ambient_rank:
        raise ValueError("dimension mismatch")
    return all(dot(e, v) == 0 for e in c.equations) and all(dot(f, v) > 0 for f in c.facets)


def is_face_of(c: Cone, other: Cone) -> bool:
    """Is the cone c a face of `other`?"""
    if c.ambient_rank != other.ambient_rank:
        return False
    gens = list(c.rays) + list(c.lineality_basis)
    if not all(cone_contains(other, g) for g in gens) or \
       not all(cone_contains(other, tuple(-x for x in l)) for l in c.lineality_basis):
        return False
    # normals of `other` vanishing on all of c cut out the face
    active = [f for f in other.facets if all(dot(f, g) == 0 for g in gens)]
    face_gens = [r for r in other.rays if all(dot(f, r) == 0 for f in active)]
    face_gens += list(other.lineality_basis)
    face_gens += [tuple(-x for x in l) for l in other.lineality_basis]
    return Cone(c.ambient_rank, face_gens) == c


def fan_rays(fan: Fan) -> list[tuple[int, ...]]:
    """The sorted distinct rays of the fan's maximal cones."""
    return sorted({r for c in fan.maximal_cones for r in c.rays})


def validate_pairwise_faces(fan: Fan) -> Optional[tuple[Cone, Cone]]:
    """None if every pairwise intersection is a face of both; else a witness pair."""
    cones = fan.maximal_cones
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            inter = intersection(cones[i], cones[j])
            if not (is_face_of(inter, cones[i]) and is_face_of(inter, cones[j])):
                return (cones[i], cones[j])
    return None


def validate_support_cover(fan: Fan) -> Optional[str]:
    """Check that the union of the fan's maximal cones is exactly its support.

    Criterion: every maximal cone lies inside the support, and every
    facet of every maximal cone is either shared with another maximal
    cone or lies inside a facet of the support.  Together with closedness
    this forces the union to fill the support.  Returns None on success
    or a description of the violation.
    """
    sup = fan.support
    for c in fan.maximal_cones:
        for g in list(c.rays) + list(c.lineality_basis):
            if not cone_contains(sup, g):
                return f"cone ray {g} outside support"
    for c in fan.maximal_cones:
        for facet in facet_subcones(c):
            shared = any(other is not c and is_face_of(facet, other)
                         for other in fan.maximal_cones)
            if shared:
                continue
            on_boundary = any(all(dot(f, r) == 0 for r in facet.rays)
                              for f in sup.facets)
            if not on_boundary:
                return f"unmatched interior facet with rays {facet.rays}"
    return None


# ---------------------------------------------------------------------------
# polyhedra: linear images, Minkowski sums, cone-over, bounded very-ampleness


def linear_image(f: Matrix, p: LatticePolyhedron) -> LatticePolyhedron:
    """f(p), canonicalized: the images of the candidate points and of the
    recession generators."""
    if f.cols != p.ambient_rank:
        raise ValueError("rank mismatch")
    if p.is_empty():
        return LatticePolyhedron(f.rows).canonicalize()
    pts = [f @ v for v in p.vertex_candidates]
    rec = Cone(f.rows, [f @ g for g in p.recession.generators])
    return LatticePolyhedron(f.rows, pts, rec).canonicalize()


def minkowski_sum(p: LatticePolyhedron, q: LatticePolyhedron) -> LatticePolyhedron:
    """Pairwise candidate sums + sum of recession cones, canonicalized."""
    if p.ambient_rank != q.ambient_rank:
        raise ValueError("rank mismatch")
    if p.is_empty() or q.is_empty():
        return LatticePolyhedron(p.ambient_rank).canonicalize()
    pts = [tuple(x + y for x, y in zip(a, b))
           for a in p.vertex_candidates for b in q.vertex_candidates]
    rec = Cone(p.ambient_rank, list(p.recession.generators) + list(q.recession.generators))
    return LatticePolyhedron(p.ambient_rank, pts, rec).canonicalize()


def contains(p: LatticePolyhedron, point: Sequence) -> bool:
    """Is the point in p?  Read off the H-representation of p."""
    x = vec(point)
    if len(x) != p.ambient_rank:
        raise ValueError("dimension mismatch")
    if p.is_empty():
        return False
    return all(dot(n, x) == o for n, o in p.hull_equations) and \
           all(dot(n, x) >= o for n, o in p.facet_rep)


def ambient_slice(p: LatticePolyhedron, f: Matrix, target: Sequence) -> LatticePolyhedron:
    """p ∩ {x : f·x = target}, canonical, in the ambient coordinates of p.

    The route ``polyhedra.affine_slice`` replaced: the facets are cut in the
    coordinates of the rational kernel of f from Gauss-Jordan
    (``solve_affine_oracle``), each vertex and ray is mapped back to the
    ambient space, and a slice through a single point is a membership test."""
    if f.cols != p.ambient_rank:
        raise ValueError("rank mismatch")
    d = p.ambient_rank
    empty = LatticePolyhedron(d).canonicalize()
    sol = None if p.is_empty() else solve_affine_oracle(f, vec(target))
    if sol is None:
        return empty
    x0, kern = sol
    if not kern:
        return LatticePolyhedron(d, [x0]).canonicalize() if contains(p, x0) else empty
    k = len(kern)

    def row(n, o):
        return clear_denominators([dot(n, b) for b in kern] + [dot(n, x0) - o])[0]

    cons = [row(n, o) for n, o in p.facet_rep]
    for n, o in p.hull_equations:
        r = row(n, o)
        cons += [r, tuple(-x for x in r)]
    cons.append(tuple([0] * k + [1]))
    lin, rays = dd.cone_from_inequalities(cons, k + 1)
    if lin:
        raise ValueError("the slice contains a line")
    verts, rec = [], []
    for r in rays:
        y = [Fraction(x, r[k]) for x in r[:k]] if r[k] > 0 else r[:k]
        x = tuple(sum(c * b[i] for c, b in zip(y, kern)) for i in range(d))
        if r[k] > 0:
            verts.append(vadd(x0, x))
        else:
            rec.append(scaled_primitive(x))
    if not verts:
        return empty
    return LatticePolyhedron(d, verts, Cone(d, rec)).canonicalize()


def ambient_quotient_slice(p: LatticePolyhedron, lin: Linearization) -> LatticePolyhedron:
    """The slice P ∩ (α⊗R)^{-1}(-b), in the ambient coordinates of P."""
    return ambient_slice(p, lin.alpha, [-x for x in lin.b])


def to_kernel_coords(lin: Linearization, q: LatticePolyhedron) -> LatticePolyhedron:
    """An ambient polyhedron inside the slice of ``lin``, rewritten in the
    ker(α) coordinates y of base_point + Σ y_i k_i by one unique solve per
    vertex and per ray."""
    kern = lin.kernel()
    k = len(kern)
    if q.is_empty():
        return LatticePolyhedron(k).canonicalize()
    kmat = Matrix(kern).transpose()
    x0 = solve_affine_oracle(lin.alpha, [-x for x in lin.b])[0]
    verts = [solve_unique(kmat, vsub(v, x0)) for v in q.vertex_candidates]
    rays = [scaled_primitive(solve_unique(kmat, r)) for r in q.recession.rays]
    return LatticePolyhedron(k, verts, Cone(k, rays)).canonicalize()


def quotient_by_ambient_slice(p: LatticePolyhedron, lin: Linearization) -> LatticePolyhedron:
    """``git.quotient_polyhedron`` by the ambient slice and a solve per vertex."""
    return to_kernel_coords(lin, ambient_quotient_slice(p, lin))


def split_by_ambient_slice(p: LatticePolyhedron, lin: Linearization
                           ) -> tuple[LatticePolyhedron, Cone]:
    """(P_b, σ̄^∨) by independent routes: P_b (empty allowed) by the ambient
    slice of the polytopal part, and σ̄^∨ from the dual of rec(P) restricted
    to ker(α), by its own double description.  Whether they split the
    quotient is the caller's ``minkowski_sum`` to decide."""
    pb = ambient_quotient_slice(LatticePolyhedron(p.ambient_rank, p.vertex_candidates), lin)
    kern = lin.kernel()
    rec_dual = p.recession.dual()
    cons = [tuple(dot(v, b) for b in kern) for v in rec_dual.rays]
    for v in rec_dual.lineality_basis:
        row = tuple(dot(v, b) for b in kern)
        cons += [row, tuple(-x for x in row)]
    lin_b, rays = dd.cone_from_inequalities(cons, len(kern))
    if lin_b:
        raise ValueError("rec(P) ∩ ker(α) contains a line")
    return to_kernel_coords(lin, pb), Cone(len(kern), rays)


def cube_slice_oracle(L: Matrix, f: Matrix, target) -> LatticePolyhedron:
    """The slice of the image of the whole cube, along the general route."""
    cube = LatticePolyhedron(L.cols, product((0, 1), repeat=L.cols)).canonicalize()
    return ambient_slice(linear_image(L, cube), f, target)


def cube_blocks(m: Matrix) -> list[tuple[list[int], list[int]]]:
    """(columns, rows) of each connected component of the nonzero pattern of m.

    Two columns are joined when some row reads both.  A column that no row
    reads is a block of its own with no rows; rows that read no column
    belong to no block.  Blocks are ordered by their first column."""
    parent = list(range(m.cols))

    def find(j):
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        return j

    support = [[j for j, x in enumerate(r) if x != 0] for r in m.entries]
    for cols in support:
        for j in cols[1:]:
            parent[find(j)] = find(cols[0])
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for j in range(m.cols):
        blocks.setdefault(find(j), ([], []))[0].append(j)
    for i, cols in enumerate(support):
        if cols:
            blocks[find(cols[0])][1].append(i)
    return sorted(blocks.values())


def slice_polyhedron(d: int, images: Sequence[IntVec], h: int) -> LatticePolyhedron:
    """The canonical polyhedron whose vertices are the sorted integer points
    h·w that ``polyhedra.cube_image_slice`` returns, over h."""
    return LatticePolyhedron(d, [tuple(Fraction(x, h) for x in v) for v in images],
                             _canonical=True)


def product_side_by_dd(n: int) -> tuple[Cone, tuple]:
    """(the product cone, the product polyhedron's facet rows) by the route
    that ``degeneration._product_cone`` and ``cones.column_dots`` replaced:
    the dual of the displayed recession columns by one double description of
    rank 2n + 1, and each offset the sum of the negative entries of the
    dense product Lᵀv."""
    cone = Cone(2 * n + 1, product_rec_dual_columns(n)).dual()
    lt = product_cube_map(n).transpose()
    return cone, tuple((v, sum(min(x, 0) for x in lt @ v)) for v in cone.rays)


def base_cone_columns(n: int) -> list[tuple[int, ...]]:
    """Generators (0; e_j), (1; e_j) of the base-change cone, 2(n+1) of them;
    at n = 1 the 4-ray cone over a square (the conifold cone)."""
    return [(a,) + tuple(int(i == j) for i in range(n + 1)) for j in range(n + 1) for a in (0, 1)]


def family_side_by_dd(n: int) -> tuple[Cone, LatticePolyhedron]:
    """(the family recession cone, the family polyhedron) by the routes that
    ``degeneration._product_cone`` and ``degeneration._staircase`` replaced:
    the dual of the base cone from its displayed generators by one double
    description of rank n + 2, and the polyhedron by one double description
    over all 2^n cube images and that cone's rays."""
    rec, lx = Cone(n + 2, base_cone_columns(n)).dual(), family_cube_map(n)
    return rec, LatticePolyhedron(n + 2, [lx @ c for c in product((0, 1), repeat=n)],
                                  rec).canonicalize()


def sigma_by_dd(n: int) -> tuple[Cone, Cone]:
    """σ and its dual, each double-described from its displayed generators:
    σ's 2^n, (1; e_I; 0) and (0; -e_I; 1) for I ⊆ {1..n-1}, which
    ``degeneration.product_cone_ambient`` listed, and the 2n of
    ``product_cone_dual_columns``."""
    cube = list(product((0, 1), repeat=n - 1))
    gens = [(1,) + e + (0,) for e in cube] + [(0,) + tuple(-x for x in e) + (1,) for e in cube]
    return Cone(n + 1, gens), Cone(n + 1, product_cone_dual_columns(n))


def head_orbit(n: int, v: Sequence) -> list[tuple]:
    """The sorted orbit of v under the permutations of its first n
    coordinates, the rest fixed."""
    return sorted({tuple(v[j] for j in p) + tuple(v[n:]) for p in permutations(range(n))})


def pb_polyhedron(n: int) -> LatticePolyhedron:
    """P_b of ``degeneration._pb`` as a polyhedron: the orbit of its vertex
    h·w_id, over h."""
    w, h, _ = _pb(n)
    return slice_polyhedron(2 * n + 1, head_orbit(n, w), h)


def braid_chambers(n: int) -> list[list[tuple[int, ...]]]:
    """The n! maximal chains (e_{σ(1)}; 0), (e_{σ(1)σ(2)}; 0), ... of the
    braid fan on the first n of 2n + 1 coordinates, one per σ."""
    tail = (0,) * (n + 1)
    # pos[j] is j's place in σ, so e_{σ(1..k)} is pos < k
    return [[tuple(int(p < k) for p in pos) + tail for k in range(1, n)]
            for pos in permutations(range(n))]


def cube_image_slice_by_chambers(L: Matrix, f: Matrix, target: Sequence,
                                 chambers: Iterable[Sequence[IntVec]],
                                 lineality: Sequence[IntVec],
                                 pairs: Sequence[tuple[int, int]]) -> tuple:
    """The slice of ``polyhedra.cube_image_slice`` from every chamber:
    its certificate once per chamber, and the sorted distinct vertices h·w,
    h and the support function, or ([], 1, None) if empty.  The chambers
    plus span(lineality) must cover the space.  This is the chamber-by-
    chamber route that ``degeneration._pb`` replaced by one chamber and the
    symmetry."""
    found, h, support = set(), 1, None
    for chamber in chambers:
        w, h, support = cube_image_slice(L, f, target, chamber, lineality, pairs)
        if w is None:
            return [], 1, None
        found.add(w)
    return sorted(found), h, support


def slice_vertex_points(n: int) -> list[tuple[int, ...]]:
    """The slice-polytope vertices m_s = L(s w_1; ...; s w_n), s in S_n, as
    the int (n+1)·m_s, (s w)_j = w_p(j) for p = s⁻¹, which runs over S_n
    too: one product L·v per permutation, the route that
    ``degeneration.identity_slice_vertex`` and the symmetry replaced."""
    L = product_cube_map(n)
    ws = [slice_vertex(n, i) for i in range(1, n + 1)]
    return [L @ [w[k] for w in ws for k in p] for p in permutations(range(n))]


def slice_vertex_by_fractions(n: int, s: Sequence[int]) -> tuple[Fraction, ...]:
    """m_s = L(s w_1; ...; s w_n) in ``Fraction``, (s w)_j = w_{s⁻¹(j)}, with
    w_i = (1, ..., 1, (n-i+1)/(n+1), 0, ..., 0), i - 1 leading ones."""
    ws = [[1] * (i - 1) + [Fraction(n - i + 1, n + 1)] + [0] * (n - i)
          for i in range(1, n + 1)]
    return product_cube_map(n) @ [w[s.index(j)] for w in ws for j in range(n)]


def slice_vertex_points_by_fractions(n: int) -> list[tuple[Fraction, ...]]:
    """m_s for the s in S_n."""
    return [slice_vertex_by_fractions(n, s) for s in permutations(range(n))]


def quotient_images_by_fractions(n: int, points: Sequence[Sequence[Fraction]]
                                 ) -> set[tuple[Fraction, ...]]:
    """(n+1)/(n+2) Q'(m - u, 0) for the ``points`` m, in ``Fraction``, u the
    head of the identity's slice vertex: for the slice vertices m_s, the
    images that the quotient theorem says are the vertices of the
    resolution polyhedron."""
    u, q = slice_vertex_by_fractions(n, range(n))[:n], _bundle(n).basis_change
    return {tuple(x * (n + 1) / (n + 2) for x in q @ ([a - b for a, b in zip(m, u)] + [0]))
            for m in points}


def dual_by_generator_dd(c: Cone) -> Cone:
    """The dual of c generated by its facet normals and ± its equations, and
    double-described from them, whatever the shape of c."""
    return Cone(c.ambient_rank, list(c.facets) + list(c.equations) +
                [tuple(-x for x in e) for e in c.equations])


def unstable_rays_by_vertices(facets: Iterable[tuple], pb: LatticePolyhedron
                              ) -> list[RayDatum]:
    """``git.unstable_rays`` along the route it replaced: each margin is the
    least value of the ray over the vertices of P_b, ``column_dots`` over
    the vertices scaled to int over one common denominator."""
    if pb.is_empty():
        raise EmptyQuotientError("empty quotient")
    consts = sorted(support_constants(facets).items())
    pts, d = pb.vertex_candidates, pb.ambient_rank
    flat, den = clear_denominators([x for p in pts for x in p])
    cols = [flat[j::d] for j in range(d)]
    lows = [Fraction(min(column_dots(v, cols, len(pts))), den) for v, _ in consts]
    return [RayDatum(ray=v, support_constant=dv, margin=low - dv, unstable=low > dv)
            for (v, dv), low in zip(consts, lows)]


def cube_image_slice_by_sums(L: Matrix, f: Matrix, target: Sequence,
                             corners: Iterable[Sequence[int]]) -> LatticePolyhedron:
    """conv(L(corners)) ∩ {x : f·x = target}, canonical, for 0/1 points
    ``corners`` of the cube [0,1]^cols(L); InnerCertificateError when the
    certificate below fails.

    The slice of L(cube) is L of the cube's slice by (f·L)·c = target.
    That slice is the product of the slices of the cube blocks
    (``cube_blocks`` of f·L), each cut with ``ambient_slice``, so its image is
    the Minkowski sum of the block images.  Summed block by block, in int
    over one common denominator and hulled after each block, each vertex of
    the sum keeps its unique decomposition into block vertices, which gives
    it a preimage c in the cube; the last hull is the result's
    homogenization.

    L(cube) only bounds conv(L(corners)) from outside, so each vertex L(c)
    is certified from inside: L maps every corner of the smallest cube face
    containing c (the coordinates of c strictly between 0 and 1 set to 0 or
    1) into L(corners).  Then L(c) lies in their hull, every vertex of the
    outer bound lies in conv(L(corners)), and the two slices are equal.

    The 2^k corners of each block are listed, so blocks must be small.  This
    is the route ``polyhedra.cube_image_slice`` replaced: every partial sum is
    double-described, and the inner certificate looks up a set of corners."""
    d = L.rows
    if f.cols != d:
        raise ValueError("rank mismatch")
    t = vec(target)
    empty = LatticePolyhedron(d).canonicalize()
    m = f @ L
    if any(not any(r) and x != 0 for r, x in zip(m.entries, t)):
        return empty
    slices = []
    for cols, rows in cube_blocks(m):
        k = len(cols)
        facets = [(tuple(s if i == j else 0 for i in range(k)), Fraction(min(s, 0)))
                  for j in range(k) for s in (1, -1)]
        sl = LatticePolyhedron(k, product((0, 1), repeat=k),
                               _facets=tuple(sorted(facets)))
        if rows:
            sl = ambient_slice(sl, Matrix([[m.entries[i][j] for j in cols] for i in rows]),
                               [t[i] for i in rows])
            if sl.is_empty():
                return empty
        slices.append((cols, sl.vertex_candidates))
    # L and the slice points scaled to int by common denominators dl and dy,
    # so the sums below hold h·x for h = dl·dy
    flat, dl = clear_denominators([x for r in L.entries for x in r])
    rows_l = [flat[i * L.cols:(i + 1) * L.cols] for i in range(d)]
    dy = lcm(*(x.denominator for _, ys in slices for y in ys for x in y))
    h = dl * dy
    acc, cone = {(0,) * d: ()}, None
    for cols, ys in slices:
        image = {}
        for y in ys:
            yi = [(x.numerator * (dy // x.denominator), j) for x, j in zip(y, cols)]
            image.setdefault(tuple(sum(c * r[j] for c, j in yi) for r in rows_l),
                             tuple(zip(cols, y)))
        image = _int_hull(image, h)[1]
        sums = {vadd(a, v): da + dv for a, da in acc.items() for v, dv in image.items()}
        cone = None
        if len(acc) > 1 and len(image) > 1:
            cone, sums = _int_hull(sums, h)
        acc = sums
    if cone is None:  # the last sum is a translate of one hull
        cone, acc = _int_hull(acc, h)
    images = {tuple(sum(compress(r, c)) for r in rows_l) for c in corners}
    for v, c in acc.items():
        face = {tuple(sum(r[j] for j, y in c if y == 1) for r in rows_l)}
        for j, y in c:
            if 0 < y < 1:
                face |= {tuple(a + r[j] for a, r in zip(p, rows_l)) for p in face}
        if not face <= images:
            raise InnerCertificateError(
                f"a corner of the cube face through the preimage of {v} / {h} maps "
                "outside L(corners)")
    return LatticePolyhedron(d, [tuple(Fraction(x, h) for x in v) for v in acc],
                             _cone=cone).canonicalize()


def _int_hull(points: dict[IntVec, tuple], h: int) -> tuple[Cone, dict[IntVec, tuple]]:
    """The homogenization of conv(points) / h, generated by the integer
    (p, h), and the points that are its vertices, with their values."""
    d = len(next(iter(points)))
    cone = Cone(d + 1, [p + (h,) for p in points])
    return cone, {v: points[v] for v in
                  (tuple(x * (h // r[d]) for x in r[:d]) for r in cone.rays)}


def orbit_fan_by_cone_dd(n: int) -> list[Cone]:
    """The cones ρ(s)·C of the S_n-orbit fan of the chamber C, in the order of
    s, each double-described from the images of C's generators."""
    chamber = chamber_cone(n)
    mats = permutation_matrices(n, ambient_reflections(n))
    return [Cone(n + 1, [m @ g for g in chamber.generators]) for _, m in sorted(mats.items())]


def orbit_walk_pairs(sym) -> list[tuple[tuple[IntVec, ...], IntVec]]:
    """(the sorted rays of ρ(s)·C, ρ(s)⁻ᵀy₀) for s in S_n, the identity
    first: the paired walk that ``symmetric_orbit`` replaced, one
    ``_cayley_walk`` moving a cone's indices among the sorted facet normals
    by one ``bytes.translate`` by g_k's permutation of them, and y by g_kᵀ."""
    normals = sorted(nu for nu, _ in sym.facets)
    index, pad = {nu: i for i, nu in enumerate(normals)}, bytes(range(len(normals), 256))

    def move(g):
        table, gt = bytes(index[g @ nu] for nu in normals) + pad, g.transpose()
        return lambda at: (at[0].translate(table), gt @ at[1])

    start = (bytes(index[r] for r in sym.chamber.rays), sym.base_point)
    walk = _cayley_walk(len(sym.generators) + 1, [move(g) for g in sym.generators], start)
    return [(tuple(normals[i] for i in sorted(c)), y) for c, y in walk.values()]


def orbit_polyhedron(orbit: Sequence[IntVec], facets: Sequence, recession: Cone
                     ) -> LatticePolyhedron:
    """P = conv(orbit) + recession, canonical, in the coordinates (y - y₀) / 2,
    from what ``orbit_certificate`` certified at y₀ = orbit[0], the facets as
    the seed: the walked orbit's points, sorted once with repeats dropped."""
    y0 = orbit[0]
    verts = sorted(set(zip(*[[(a - b) // 2 for a in col] for col, b in zip(zip(*orbit), y0)])))
    return LatticePolyhedron(len(y0), verts, recession, _facets=facets, _canonical=True)


def symmetric_polyhedra_by_dd(n: int) -> tuple[LatticePolyhedron, LatticePolyhedron]:
    """The permutohedron and the resolution polyhedron of the symmetric model,
    each canonicalized by one double description of its points and recession
    cone instead of from certified facets."""
    perm = LatticePolyhedron(n - 1, permutohedron_points(n)).canonicalize()
    iota_pts = [(Fraction(0),) + v + (Fraction(0),) for v in perm.vertex_candidates]
    rec = Cone(n + 1, product_cone_dual_columns(n))
    return perm, LatticePolyhedron(n + 1, iota_pts, rec).canonicalize()


def permutohedron_points(n: int) -> list[tuple[int, ...]]:
    """The n! points (s_i - i)_{i < n} for the permutations s of 1..n."""
    return [tuple(s[i] - (i + 1) for i in range(n - 1)) for s in permutations(range(1, n + 1))]


def _argmins(vals: list[int]) -> tuple[int, list[int]]:
    """The least value and its positions, found by C-level scans."""
    low, hits, k = min(vals), [], -1
    for _ in range(vals.count(low)):
        k = vals.index(low, k + 1)
        hits.append(k)
    return low, hits


def certified_polyhedron(d: int, points: Sequence[Sequence], recession: Optional[Cone],
                         normals: Iterable[Sequence[int]]) -> LatticePolyhedron:
    """P = conv(points) + recession, canonical, with its facets taken from
    the candidate inward ``normals`` (up to positive multiples) instead of
    a double description of the points; FacetCertificateError when the
    certificate below fails.  The explicit route over every point, which
    the orbit certificate ``polyhedra.orbit_certificate`` replaced in the
    symmetric model; the tests hold the two routes equal.

    Each normal ν must be >= 0 on the recession cone.  One ``column_dots``
    pass over the points gives its offset o_ν, the minimum of <ν, v>, and
    the points that reach it, so <ν, x> >= o_ν is valid on P and
    supporting: P ⊆ Q, the polyhedron the candidates cut out.  With the
    recession rays r ⊥ ν (and t >= 0 when rec is full-dimensional) that is
    Q's incidence with the generators (v, 1), (r, 0) of P's homogenization,
    and the points W it calls extreme (``dd.extreme_generators``) are the
    candidate vertices.  The certificate checks, for each w in W and its
    tight set T(w):

    (a) |T(w)| = d;
    (b) for each f in T(w), the ridge T(w) \\ {f} is tight at another
        extreme generator g_f: some (w', 1) or a recession ray (r, 0).

    Then T(w) is independent, with no rank taken.  The extremeness read off
    the same masks says that w's face, the AND of the masks of T(w), is
    {w}; g_f is on every facet of T(w) but f and is not w, so it is not on
    f.  Set e_f = w' - w for a point and e_f = r for a ray: then <ν_i, e_f>
    = 0 for i ≠ f and <ν_f, e_f> > 0, so N·E, with the normals of T(w) as
    the rows of N and the e_f as the columns of E, is diagonal and
    positive, and N has rank d.  So w is a simple vertex of Q, and the
    ridge T(w) \\ {f} cuts out the edge of Q from w that leaves f: its other
    end is w', a vertex of Q as w is, or it is w + R≥0 r.

    So W is a nonempty set of vertices of Q closed under the bounded edges
    of Q.  The vertices and bounded edges of a pointed polyhedron form a
    connected graph (Ziegler, *Lectures on Polytopes*, §3.5), so W is every
    vertex of Q.  Each extreme ray of rec(Q) is the direction of an
    unbounded edge, which (b) puts in the recession cone, so Q = conv(W) +
    rec(Q) ⊆ P and Q = P.  A lower-dimensional Q, or a rec with lineality
    (every ν is normal to it), has no vertex on d independent normals, so
    (a) or (b) fails.  So P is full-dimensional, each of its facets is a
    candidate, and a redundant candidate, supporting P in a face that
    contains a vertex, would put that vertex on d + 1 inequalities, which
    (a) rejects.  The facet list is exact, and so is the extremeness read
    from its incidence; the result keeps the facets as its seed, with no
    homogenization.  Walking from a simple vertex to its neighbours through
    its ridges is the pivot step of reverse search (Avis & Fukuda, *DCG* 8,
    1992)."""
    if not points:
        raise FacetCertificateError("no points")
    p = LatticePolyhedron(d, points, recession)
    pts, rec = p.vertex_candidates, p.recession.canonical_form()
    m, rays = len(pts), rec.rays
    flat, den = clear_denominators([x for v in pts for x in v])
    cols = [flat[j::d] for j in range(d)]
    seed, on = [], []  # per candidate, (ν, o_ν) and the generators on it
    tight: list[list[int]] = [[] for _ in pts]  # per point, the candidates through it
    for nu in dict.fromkeys(primitive(nu) for nu in normals):
        if any(dot(nu, g) < 0 for g in rec.generators):
            raise FacetCertificateError(f"the normal {nu} is negative on the recession cone")
        low, hits = _argmins(column_dots(nu, cols, m))
        for k in hits:
            tight[k].append(len(on))
        # <ν, x> >= low / den, kept in int as <den·ν, x> >= low
        seed.append((nu if den == 1 else tuple(den * x for x in nu), low))
        on.append(sum(map((1).__lshift__, hits)) + sum(1 << m + k for k, r in enumerate(rays)
                                                        if not dot(nu, r)))
    if rec.dim() == d:  # then t >= 0 is a facet, on the recession rays
        on.append((1 << m + len(rays)) - (1 << m))
    extreme = dd.extreme_generators(pts + rays, on)
    keep, verts = sum(1 << i for i in extreme), [k for k in extreme if k < m]
    if not verts:
        raise FacetCertificateError("no point is a vertex of the candidate facets")
    for k in verts:
        t = tight[k]
        if len(t) != d:
            raise FacetCertificateError(f"the vertex ray {scaled_primitive(pts[k] + (1,))} is "
                                        f"on {len(t)} facets, not on {d}")
        # ridge f is the AND of the masks of T(w) but f: suffix ANDs, then prefix
        after = [-1] * d
        for j in range(d - 1, 0, -1):
            after[j - 1] = after[j] & on[t[j]]
        ridge = keep & ~(1 << k)
        for f, rest in zip(t, after):
            if not ridge & rest:
                raise FacetCertificateError(
                    f"the edge from the vertex ray {scaled_primitive(pts[k] + (1,))} leaving the "
                    f"facet {primitive(seed[f][0] + (-seed[f][1],))} has no other end "
                    "and no recession ray")
            ridge &= on[f]
    return LatticePolyhedron(d, sorted(pts[k] for k in verts), rec, _facets=seed,
                             _canonical=True)


def polyhedron_support_constants(p: LatticePolyhedron) -> dict[tuple[int, ...], Fraction]:
    """d_v = min(0, min over p of <v, x>), per recession-dual extreme ray v,
    read off the offset of the facet of p with normal v
    (``git.support_constants`` of those rows); ValueError unless rec(p) is
    full-dimensional.  A seeded H-representation is read as given: no cone
    over the points is built."""
    rec = p.recession
    if rec.dim() != p.ambient_rank:
        raise ValueError("support constants need a full-dimensional recession cone")
    rays = sorted(rec.facets)
    if p.is_empty():  # the minimum over no point is +inf
        return dict.fromkeys(rays, Fraction(0))
    offsets = {}
    for n, o in p.facet_rep:
        g = gcd(*n)
        offsets[tuple(x // g for x in n)] = Fraction(o, g)  # o is an int
    return support_constants((v, offsets[v]) for v in rays)


def support_constants_by_scan(p: LatticePolyhedron) -> dict[tuple[int, ...], Fraction]:
    """d_v = min(0, min over candidate points of <v, point>), per recession-dual
    extreme ray v, by a scan of every candidate point for every ray.  The
    minimum of a linear functional over the hull equals the minimum over any
    generating point set, so p need not be canonicalized.

    The points are scaled once to integer vectors over one common
    denominator, so every inner product is an int; only the minimum becomes
    a Fraction."""
    d = p.ambient_rank
    flat, den = clear_denominators([x for pt in p.vertex_candidates for x in pt])
    pts = [flat[i * d:(i + 1) * d] for i in range(len(p.vertex_candidates))]
    out = {}
    for v in p.recession.dual().rays:
        m = min((sum(a * b for a, b in zip(v, pt)) for pt in pts), default=0)
        out[v] = Fraction(min(0, m), den)
    return out


def cone_over(p: LatticePolyhedron) -> Cone:
    """Cone in rank+1 generated by (v,1) and (r,0); slicing at height 1 gives p back."""
    if p.is_empty():
        return Cone(p.ambient_rank + 1, [])
    q = p.canonicalize()
    gens = [scaled_primitive(tuple(v) + (Fraction(1),)) for v in q.vertex_candidates]
    gens += [tuple(r) + (0,) for r in q.recession.rays]
    return Cone(p.ambient_rank + 1, gens)


def normal_fan_by_vertex_dd(p: LatticePolyhedron) -> Fan:
    """Inner normal fan: one maximal cone per vertex, the dual of cone(P - v),
    double-described at each vertex."""
    q = p.canonicalize()
    if q.is_empty():
        raise ValueError("empty polyhedron has no normal fan")
    verts = q.vertex_candidates
    cones = []
    for v in verts:
        gens = [scaled_primitive(vsub(w, v)) for w in verts if w != v]
        gens += list(q.recession.rays)
        lin, rays = dd.cone_from_inequalities([g for g in gens if any(g)], q.ambient_rank)
        cones.append(Cone(q.ambient_rank, list(rays) + list(lin) +
                          [tuple(-x for x in l) for l in lin]))
    return Fan(q.ambient_rank, cones, q.recession.dual())


def embedding_monomials(affine_cols, section_points) -> tuple[tuple[int, ...], ...]:
    """Monomials generating every vertex chart of the blown-up family.

    The affine coordinates are global functions and enter untranslated, so
    alongside the section points themselves the products (affine coordinate)
    × (section) are needed: the chart at a vertex section χ^v is generated by
    the affine coordinates and the ratios χ^{m'-v}, i.e. by the translates of
    this closure.
    """
    affine = [tuple(int(x) for x in c) for c in affine_cols]
    sections = [tuple(int(x) for x in p) for p in section_points]
    out = dict.fromkeys(affine)
    for s in sections:
        out.setdefault(s, None)
        for a in affine:
            out.setdefault(tuple(x + y for x, y in zip(a, s)), None)
    return tuple(out)


def check_semigroup_generation(p: LatticePolyhedron, extra_monomials: Sequence[Sequence],
                               degree_bound: int) -> list[bool]:
    """Bounded very-ampleness certificate, one verdict per canonical vertex.

    For each vertex v the set {m - v} (m over extra_monomials) must generate,
    as a semigroup, every lattice point of cone(P - v) whose degree under the
    canonical grading is at most degree_bound * max generator degree.  The
    grading is the sum of the active primitive facet normals at v, which is
    strictly positive on cone(P - v) minus the origin.  This is a bounded
    certificate, not a proof for unbounded degrees.
    """
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    q = p.canonicalize()
    if q.is_empty():
        return []
    d = q.ambient_rank
    mono = [vec(m) for m in extra_monomials]
    verdicts = []
    for v in q.vertex_candidates:
        active = [n for n, o in q.facet_rep if dot(n, v) == o]
        eqs = [n for n, _ in q.hull_equations]
        grading = tuple(sum(col) for col in zip(*active)) if active else tuple([0] * d)
        gens = []
        for m in mono:
            g = vsub(m, v)
            if not any(g):
                continue
            if any(x.denominator != 1 for x in g):
                raise ValueError("monomial generators must be lattice points")
            g = tuple(int(x) for x in g)
            # translated generators must lie in the vertex cone (they do for
            # points of the polyhedron); the sum-DP below relies on it
            if any(dot(e, g) != 0 for e in eqs) or any(dot(a, g) < 0 for a in active):
                raise ValueError(f"generator {g} lies outside the vertex cone at {v}")
            gens.append(g)
        degs = [dot(grading, g) for g in gens]
        bound = degree_bound * min(degs, default=1)
        pts = _lattice_points_in_vertex_cone(active, eqs, grading, d, bound)
        origin = tuple([0] * d)
        reachable = {origin}
        for pt in sorted(pts, key=lambda x: dot(grading, x)):
            if pt == origin:
                continue
            if any(tuple(a - b for a, b in zip(pt, g)) in reachable for g in gens):
                reachable.add(pt)
        verdicts.append(all(pt in reachable for pt in pts))
    return verdicts


def _lattice_points_in_vertex_cone(active, eqs, grading, d, bound) -> list[tuple[int, ...]]:
    """Integer points x with active·x >= 0, eqs·x = 0, <grading, x> <= bound."""
    lin_rays, rays = dd.cone_from_inequalities(
        list(active) + [e for pair in ((e, tuple(-x for x in e)) for e in eqs) for e in pair], d)
    assert not lin_rays, "vertex cone must be pointed"
    degs = []
    for r in rays:
        dg = dot(grading, r)
        if dg <= 0:
            raise ValueError("grading not positive on the vertex cone")
        degs.append(int(dg))
    # smooth cone: lattice points are exactly the N-combinations of the rays
    if rays and len(rays) == rank(rays) and \
            all(x == 1 for x in elementary_divisors(Matrix(rays))):
        ranges = [range(bound // dg + 1) for dg in degs]
        out = []
        for y in product(*ranges):
            if sum(c * dg for c, dg in zip(y, degs)) > bound:
                continue
            out.append(tuple(sum(c * r[i] for c, r in zip(y, rays)) for i in range(d)))
        return out
    # general pointed cone: bounding box of the grade-truncated cone
    corners = [tuple([Fraction(0)] * d)]
    for r, dg in zip(rays, degs):
        corners.append(tuple(Fraction(bound * x, dg) for x in r))
    los = [min(c[i] for c in corners) for i in range(d)]
    his = [max(c[i] for c in corners) for i in range(d)]
    ranges = [range(int(lo.__floor__()), int(hi.__ceil__()) + 1)
              for lo, hi in zip(los, his)]
    out = []
    for x in product(*ranges):
        if dot(grading, x) > bound:
            continue
        if any(dot(e, x) != 0 for e in eqs):
            continue
        if all(dot(a, x) >= 0 for a in active):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# chart invariants, groups, JSON


def chart_invariants(chart_dual: Cone, proj: Matrix
                     ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Invariant monomials of an affine chart under the subtorus action.

    ``chart_dual`` is the monomial cone of the chart (inside M); ``proj`` is
    the quotient projection on the dual side N -> N'.  The generators of the
    image cone's dual are lifted through proj^T into M and expressed in the
    chart's coordinate monomials.  Returns [(exponent vector in M, exponent
    vector over chart coordinates)], ordered by the canonical (sorted) ray
    order of the quotient chart cone's dual.
    """
    chart = chart_dual.dual()
    if proj.cols != chart.ambient_rank:
        raise ValueError("projection source must match chart ambient rank")
    image = image_cone(proj, chart)
    gens = image.dual().rays
    # chart coordinates: the given monomial generators must form a lattice
    # basis so that exponents are unique integers (exponents in their order)
    wmat = Matrix.from_columns(chart_dual.generators)
    if wmat.rows != wmat.cols or wmat.rank() != wmat.rows:
        raise ValueError("chart monomial cone must be simplicial of full rank")
    winv = invert(wmat)
    out = []
    pt = proj.transpose()
    for g in gens:
        m = pt @ g
        expo = [dot(r, m) for r in winv]
        if any(x.denominator != 1 or x < 0 for x in expo):
            raise ValueError(f"lift {m} is not in the chart semigroup")
        out.append((tuple(int(x) for x in m), tuple(int(x) for x in expo)))
    return out


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def from_cycles(n: int, cycs: Sequence[Sequence[int]]) -> Perm:
    """Permutation from 1-based cycles."""
    out = list(range(n))
    for c in cycs:
        for a, b in zip(c, c[1:] + type(c)([c[0]])):
            out[a - 1] = b - 1
    return tuple(out)


def is_trivial(g: FiniteAbelianGroup) -> bool:
    return not g.invariant_factors


def invariant_factors(cyclic_orders: Iterable[int]) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of a product of cyclic groups."""
    powers: dict[int, list[int]] = {}
    for m in cyclic_orders:
        if m < 1:
            raise ValueError("cyclic order must be positive")
        d = 2
        while d * d <= m:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if e:
                powers.setdefault(d, []).append(e)
            d += 1
        if m > 1:
            powers.setdefault(m, []).append(1)
    if not powers:
        return ()
    k = max(len(v) for v in powers.values())
    factors = [1] * k
    for p, exps in powers.items():
        exps = sorted(exps, reverse=True)
        for i, e in enumerate(exps):
            factors[i] *= p ** e
    factors = [f for f in factors if f > 1]
    return tuple(sorted(factors))


def abelian_invariant_factors_by_peeling(elements: Sequence, mul: Callable,
                                         ident) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group given by its multiplication.

    Classical peeling: an element of maximal order spans a direct summand;
    recurse on the quotient, taking minima over cosets as canonical
    representatives.  Raises NonabelianQuotientError on a nonabelian input:
    walking the sorted elements, each one outside the span of the earlier
    generators becomes a generator and must commute with them, and the span
    is closed under it.  Commuting generators span an abelian group, so
    this checks O(|Q|·k) products for k generators instead of every pair.
    """
    elems = sorted(elements)
    gens: list = []
    span = {ident}
    for g in elems:
        if g in span:
            continue
        for h in gens:
            if mul(g, h) != mul(h, g):
                raise NonabelianQuotientError(f"non-commuting classes {h} and {g}")
        gens.append(g)
        grown = list(span)
        while grown:
            grown = [y for y in (mul(x, g) for x in grown) if y not in span]
            span.update(grown)

    def peel(elems, mul, ident):
        if len(elems) == 1:
            return []

        def order_of(x):
            k, acc = 1, x
            while acc != ident:
                acc = mul(acc, x)
                k += 1
            return k

        orders = {x: order_of(x) for x in elems}
        exponent = 1
        for o in orders.values():
            exponent = exponent * o // gcd(exponent, o)
        gen = next(x for x in elems if orders[x] == exponent)
        sub = [ident]
        acc = gen
        while acc != ident:
            sub.append(acc)
            acc = mul(acc, gen)
        reps, covered = [], set()  # the least element of each coset g·sub
        for g in elems:
            if g not in covered:
                coset = [mul(g, h) for h in sub]
                covered.update(coset)
                reps.append(min(coset))
        reps.sort()
        qident = min(sub)

        def qmul(a, b):
            return min(mul(mul(a, b), h) for h in sub)

        return peel(reps, qmul, qident) + [exponent]

    factors = peel(elems, mul, ident)
    total = 1
    for f in factors:
        total *= f
    assert total == len(elems), "invariant factor product must equal group order"
    return tuple(f for f in factors if f > 1)


def matrix_to_json(m: Matrix) -> dict:
    return {"rows": m.rows, "cols": m.cols,
            "entries": [[rational_str(x) for x in row] for row in m.entries]}


def str_rows(vs, strs: dict) -> list[list[str]]:
    """Integer vectors as lists of strings, each converted once into ``strs``."""
    return [strs[v] if v in strs else strs.setdefault(v, [str(x) for x in v]) for v in vs]


def fan_text_by_one_dumps(rank: int, cones) -> str:
    """The fan route that ``jsonio.fan_to_json`` replaced: each cone's entry
    as ``cone_to_json`` writes a pointed cone with no facets, its rows from
    ``str_rows`` with one cache for the fan, and one ``dumps`` of the list."""
    strs = {}
    return dumps([{"ambient_rank": rank, "rays": str_rows(rays, strs), "lineality": []}
                  for rays in cones])


# ---------------------------------------------------------------------------
# stabilizer oracles


def unit(root=0, generic: Sequence[int] = ()) -> UnitValue:
    return UnitValue(root=Fraction(root), generic=tuple(generic))


def random_configuration_by_fractions(n: int, rng: random.Random) -> CycleConfiguration:
    """``stabilizers.random_configuration`` as it was before it drew the
    orbits first: each record built as it is drawn, its root a sum of
    ``Fraction``s and its generic vector as long as the orbits so far, padded
    by the constructor.  The draw and the RNG stream must stay the same."""
    pool = [i for i in range(1, n + 2)]
    k = rng.randrange(0, n + 2)
    I_t = tuple(sorted(rng.sample(pool, k))) if k else ()
    degs = fiber_degrees(n, I_t)
    gen_count = 0
    pts: list[PointRecord] = []
    labels = ["a", "b", "c", "d"]
    for comp, d in enumerate(degs):
        if d == 0:
            continue
        rs = [r for r in (1, 2, 3, 4) if d % r == 0]
        r = rng.choice(rs)
        remaining = d // r
        while remaining > 0:
            mult = rng.randrange(1, remaining + 1)
            base_root = Fraction(rng.randrange(0, 12), 12)
            label = rng.choice(labels)
            g = tuple(1 if i == gen_count else 0 for i in range(gen_count + 1))
            gen_count += 1
            for j in range(r):
                pts.append(PointRecord(
                    component=comp,
                    position=UnitValue(root=base_root + Fraction(j, r), generic=g),
                    a1_label=label, multiplicity=mult))
            remaining -= mult
    return CycleConfiguration(n=n, I_t=I_t, points=tuple(pts))


def instantiate(c: CycleConfiguration, seed: int,
                prime: int = 2147483647) -> CycleConfiguration:
    """Replace formal generic generators by random elements of Z/prime ⊂ Q/Z.

    A second oracle for the whole pipeline: with overwhelming probability no
    accidental relation is introduced, so every stabilizer computation must
    come out the same as with formal generators.
    """
    rng = random.Random(seed)
    vals = [rng.randrange(1, prime) for _ in c.points[0].position.generic]
    pts = []
    for p in c.points:
        shift = Fraction(sum(x * v for x, v in zip(p.position.generic, vals)) % prime, prime)
        pts.append(PointRecord(component=p.component,
                               position=UnitValue(root=p.position.root + shift),
                               a1_label=p.a1_label, multiplicity=p.multiplicity))
    return CycleConfiguration(n=c.n, I_t=c.I_t, points=tuple(pts))


def component_shift_order_by_fractions(records: Sequence[PointRecord]) -> int:
    """The shift-group order of one component with ``Fraction`` roots: every
    candidate shift ρ (a root minus the least root of the smallest class) is
    tested by adding it to every root modulo 1, as ``stabilizers`` did before
    it scaled the roots to ints."""
    classes: dict[tuple, set[Fraction]] = {}
    for p in records:
        key = (p.position.generic, p.a1_label, p.multiplicity)
        classes.setdefault(key, set()).add(p.position.root)
    smallest = min(classes.values(), key=len)
    base = min(smallest)
    valid = [rho for rho in sorted({(r - base) % 1 for r in smallest})
             if all({(r + rho) % 1 for r in roots} == roots for roots in classes.values())]
    order = len(valid)
    assert valid == [Fraction(k, order) for k in range(order)]
    return order


def ratio_is_one(q: QuotientPoint, a: int, b: int) -> bool:
    """Is R(a, b) the unit 1?  (0-based slots; requires no zero in between.)"""
    lo, hi = (a, b) if a <= b else (b, a)
    if q.zero_count[hi] != q.zero_count[lo]:
        return False
    if (q.prefix_root[hi] - q.prefix_root[lo]) % q.denom != 0:
        return False
    return q.prefix_gen[hi] == q.prefix_gen[lo]


def trivial_angle(q: QuotientPoint, p: Perm) -> bool:
    """All forced slot ratios equal 1 (membership is assumed separately)."""
    return all(p[i] == i or ratio_is_one(q, i, p[i]) for i in range(q.n))


def unit_matches(enc: QuotientPoint, k: int, a: int, b: int) -> bool:
    """Does f_k equal the slot ratio R(a, b)?  Slots a, b are 0-based here."""
    lo, hi = (a, b) if a <= b else (b, a)
    nozero = enc.zero_count[hi] == enc.zero_count[lo]
    if enc.zero[k]:
        return a < b and not nozero
    if not nozero:
        return False
    sign = 1 if a <= b else -1
    dr = (sign * (enc.prefix_root[hi] - enc.prefix_root[lo])) % enc.denom
    # f_k's own encoding, recovered from the prefixes (f_k is not zero here)
    fr = (enc.prefix_root[k] - enc.prefix_root[k - 1]) % enc.denom
    fg = tuple(x - y for x, y in zip(enc.prefix_gen[k], enc.prefix_gen[k - 1]))
    dg = tuple(sign * (x - y) for x, y in zip(enc.prefix_gen[hi], enc.prefix_gen[lo]))
    return dr == fr and dg == fg


def image_tables_by_pairs(enc: QuotientPoint) -> tuple[list[int], list[list[list[int]]]]:
    """The admissible images that ``stab_backends._image_lookup`` gives: of
    slot 0 (``first``), and of slot i >= 1 when slot i-1 maps to a
    (``follow[i][a]``, ``follow[0]`` unused), one ``unit_matches`` call per
    (slot, image of the slot before, image) triple."""
    n = enc.n
    a1 = enc.a1_codes

    def fits(i: int, x: int) -> bool:
        if a1[x] != a1[i]:
            return False
        return i < n - 1 or enc.zero[n] or ratio_is_one(enc, x, n - 1)

    first = [x for x in range(n)
             if fits(0, x) and (enc.zero[0] or ratio_is_one(enc, 0, x))]
    follow = [[]] + [[[x for x in range(n) if fits(i, x) and unit_matches(enc, i, a, x)]
                      for a in range(n)]
                     for i in range(1, n)]
    return first, follow


def weight_reflections(n: int) -> list[Matrix]:
    """Matrices of the simple reflections (k k+1) on the weight lattice Z^{n-1}."""
    mats = []
    for k in range(1, n - 1):
        rows = [[1 if i == j else 0 for j in range(n - 1)] for i in range(n - 1)]
        rows[k - 1][k - 1] = rows[k][k] = 0
        rows[k - 1][k] = rows[k][k - 1] = 1
        mats.append(Matrix(rows))
    last = [[1 if i == j else 0 for j in range(n - 1)] for i in range(n - 1)]
    for i in range(n - 1):
        last[i][n - 2] = -1
    mats.append(Matrix(last))
    return mats


def edge_matrix(n: int) -> Matrix:
    """Edge directions of the permutohedron at the identity vertex, as columns."""
    cols = []
    for k in range(1, n - 1):
        c = [0] * (n - 1)
        c[k - 1] = 1
        c[k] = -1
        cols.append(c)
    c = [0] * (n - 1)
    c[n - 2] = 1
    cols.append(c)
    return Matrix.from_columns(cols)


@cache
def _ambient_permutation_matrices(n: int) -> dict:
    """ρ(s) on Z^{n+1} for all s in S_n, built once per n for the repeated
    calls of toric_fixed_points (read-only)."""
    return permutation_matrices(n, ambient_reflections(n))


def unit_combination(terms) -> tuple[Fraction, tuple[int, ...]]:
    """Σ k·v over the (k, v) in ``terms``, v a unit value of (Q/Z) ⊕ Z^m
    written additively: the root part mod 1 and the generic part, the
    shorter generic parts padded with zeros."""
    m = max((len(v.generic) for _, v in terms), default=0)
    root, generic = Fraction(0), [0] * m
    for k, v in terms:
        root += k * v.root
        for t, x in enumerate(v.generic):
            generic[t] += k * x
    return root % 1, tuple(generic)


@dataclass(frozen=True)
class ChartPoint:
    """Chart coordinates (f_0, ..., f_n), None for the zero value, and the
    per-slot affine labels."""

    n: int
    values: tuple[Optional[UnitValue], ...]
    a1: tuple[str, ...]


def chart_values(c: CycleConfiguration, orders: Optional[Sequence[int]] = None
                 ) -> ChartPoint:
    """The chart coordinates of ``stabilizers.project_to_quotient`` as unit
    values: the slots in the layout of the given shift orders (default: each
    component's own), f_0 the unit of the first end generator unless
    1 ∈ I_t, f_k the ratio of slots k and k+1 or zero across a node, and f_n
    the last slot's position times the second end generator unless
    n+1 ∈ I_t.  The two end generators are two extra generic coordinates."""
    comps = c.components()
    if orders is None:
        orders = _shift_orders(comps)
    n, m = c.n, len(c.points[0].position.generic) + 2  # padded to one length
    denom = lcm(*(p.position.root.denominator for p in c.points))
    slots = []
    for l, records in enumerate(comps):
        if records:
            for root, generic, label, mult in _layout_component(records, orders[l], denom):
                slots += [(l, Fraction(root, denom),
                           generic + (0,) * (m - len(generic)), label)] * mult
    values = [None if 1 in c.I_t else UnitValue(generic=(0,) * (m - 2) + (1, 0))]
    for (la, ra, ga, _), (lb, rb, gb, _) in zip(slots, slots[1:]):
        values.append(UnitValue(ra - rb, vsub(ga, gb)) if la == lb else None)
    _, root, generic, _ = slots[-1]
    values.append(None if n + 1 in c.I_t else
                  UnitValue(root, generic[:-1] + (generic[-1] + 1,)))
    return ChartPoint(n, tuple(values), tuple(s[3] for s in slots))


def encode_chart_values(chart: ChartPoint) -> QuotientPoint:
    """The chart coordinates summed into integer prefix data, over the lcm of
    the denominators of f_1 .. f_{n-1} and with the end generators' two
    coordinates kept."""
    n, values = chart.n, chart.values
    denom = lcm(*(v.root.denominator for v in values[1:n] if v is not None))
    m = max((len(v.generic) for v in values if v is not None), default=0)
    pr, pg, zc = [0], [(0,) * m], [0]
    for v in values[1:n]:
        if v is None:
            pr.append(pr[-1])
            pg.append(pg[-1])
            zc.append(zc[-1] + 1)
        else:
            pr.append((pr[-1] + v.root.numerator * (denom // v.root.denominator)) % denom)
            pg.append(vadd(pg[-1], v.generic + (0,) * (m - len(v.generic))))
            zc.append(zc[-1])
    codes: dict[str, int] = {}
    a1 = tuple(codes.setdefault(lbl, len(codes)) for lbl in chart.a1)
    return QuotientPoint(n=n, denom=denom, zero=tuple(v is None for v in values),
                         prefix_root=tuple(pr), prefix_gen=tuple(pg),
                         zero_count=tuple(zc), a1_codes=a1)


def toric_fixed_points(q: ChartPoint) -> set[Perm]:
    """Chart-gluing oracle for the stabilizer, via the toric model.

    The quotient point lives on the toric variety of the orbit fan; it is the
    pair (orbit cone τ, group homomorphism λ on M ∩ τ⊥).  A permutation fixes
    it iff its lattice matrix preserves τ and λ pulls back to itself on a
    basis of M ∩ τ⊥, and the affine labels are invariant.  Independent of the
    prefix-sum membership criterion; intended for n <= 5.
    """
    n = q.n
    if n < 2:
        return {identity(n)}
    mats = _ambient_permutation_matrices(n)
    rays = []
    for k in range(1, n + 1):
        rays.append(tuple(1 if i < k else 0 for i in range(n)) + (0,))
    rays.append(tuple([0] * n) + (1,))
    raymat = Matrix.from_columns(rays)
    dual_basis = invert(raymat)  # row i pairs with ray i
    zero_idx = {i for i, v in enumerate(q.values) if v is None}
    unit_idx = [i for i in range(n + 1) if i not in zero_idx]
    tau = {rays[i] for i in zero_idx}
    out = set()
    for s, mat in mats.items():
        img = {tuple(int(x) for x in (mat @ r)) for r in tau}
        if img != tau:
            continue
        if any(q.a1[s[i]] != q.a1[i] for i in range(n)):
            continue
        good = True
        for i in unit_idx:
            mi = dual_basis[i]
            terms = [(-1, q.values[i])]
            for j in unit_idx:
                cj = sum(a * b for a, b in zip(mi, (mat @ rays[j])))
                if cj != 0:
                    terms.append((int(cj), q.values[j]))
            root, generic = unit_combination(terms)
            if root or any(generic):
                good = False
                break
        if good:
            out.add(s)
    return out


# ---------------------------------------------------------------------------
# command-line oracle


@cache
def _argparse_parser():
    """The argparse parser of ``toricgit`` that ``cli.read_args`` replaced,
    built once, with the same readers."""
    import argparse
    from toricgit import cli

    def typed(reader):  # a reader's ValueError as argparse's "argument --n: ..." line
        def read(s):
            try:
                return reader(s)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return read

    parser = argparse.ArgumentParser(prog="toricgit")
    parser.add_argument("--version", action="version", version=cli.__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_build = sub.add_parser("build")
    p_build.add_argument("--n", type=typed(cli._int_option), required=True)
    p_build.add_argument("--object", required=True, choices=cli.BUILD_OBJECTS)
    p_build.add_argument("--out", type=typed(cli._out_path), default="-")
    p_verify = sub.add_parser("verify")
    p_verify.add_argument("--n", type=typed(cli._int_option), required=True)
    p_verify.add_argument("--check", default=None)
    p_verify.add_argument("--all", action="store_true")
    p_quot = sub.add_parser("quotient")
    for name in ("polyhedron", "alpha", "b"):
        p_quot.add_argument(name)
    p_stab = sub.add_parser("stab")
    p_stab.add_argument("config")
    p_stab.add_argument("--brute-force-max", type=typed(cli._bound),
                        default=cli.DEFAULT_BRUTE_FORCE_MAX)
    return parser


def argparse_oracle(argv):
    """The argparse reading of ``argv`` that ``cli.read_args`` replaced: the
    namespace, or argparse's ``SystemExit`` (0 for the help and --version, 2
    for a usage error).  argparse reads a word that starts with "-" as an
    option unless it is an int or a decimal, so a "--" goes before a
    quotient's first negative word, as the CLI did, and then every later
    word is a positional."""
    argv = list(argv)
    neg = [i for i, a in enumerate(argv) if a[:1] == "-" and (a[1:2].isdigit() or a[1:2] == ".")]
    if argv[:1] == ["quotient"] and neg and "--" not in argv:
        argv.insert(neg[0], "--")
    return _argparse_parser().parse_args(argv)
