"""Lattice polyhedra P = conv(points) + recession cone, and fans.

Every representation of P is read off one cone, its homogenization over
P × {1}: the facets (n, -o) through some (v, 1) give the facets <n, x> >= o,
the equations (n, -o) the affine hull, and the rays at height > 0 the
vertices.  The normal cone at a vertex is spanned by the normals of the
facets through it and ± the hull normals (Ziegler, *Lectures on
Polytopes*, §7.1), so normal fans come from the same facets.

Only polyhedra with strongly convex recession cones are supported (every
recession cone in this package is a dual cone of a full-dimensional cone of
monomials); the empty polyhedron is a first-class value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import ceil, floor, lcm
from operator import sub
from typing import Callable, Iterable, Optional, Sequence

from . import dd
from .cones import Cone, column_dots, sparse_incidence
from .linalg import (IntVec, Matrix, _exact, clear_denominators, dot, frac, is_zero_vec,
                     primitive, rank, row_reduce, scaled_primitive, vadd, vec, vsub)

Facet = tuple[tuple[int, ...], Fraction]  # (inward normal, offset): <n, x> >= o
Equation = tuple[tuple[int, ...], Fraction]  # <n, x> == o


class LatticePolyhedron:
    """conv(vertex_candidates) + recession, a view on ``homogenization()``.

    ``vertex_candidates`` may be any finite generating set; ``canonicalize``
    reduces it to the true vertex set.  An empty candidate list is the empty
    polyhedron.  A caller that knows the H-representation of a
    full-dimensional P passes it as ``_facets`` and ``_equations``; it
    becomes the homogenization's, so no double description runs.
    """

    __slots__ = ("ambient_rank", "vertex_candidates", "recession",
                 "_seed", "_cone", "_canonical")

    def __init__(self, ambient_rank: int, vertex_candidates: Iterable[Sequence] = (),
                 recession: Optional[Cone] = None,
                 _facets=None, _equations=None, _cone=None, _canonical=False):
        pts = []
        for p in vertex_candidates:
            p = tuple(p)
            if not all(type(x) is int for x in p):
                p = tuple(map(_exact, p))
            if len(p) != ambient_rank:
                raise ValueError("point has wrong dimension")
            pts.append(p)
        if recession is None:
            recession = Cone(ambient_rank, [])
        if recession.ambient_rank != ambient_rank:
            raise ValueError("recession cone has wrong dimension")
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "vertex_candidates", tuple(dict.fromkeys(pts)))
        object.__setattr__(self, "recession", recession)
        # a seed is kept as the homogenization's sorted primitive rows (n, -o)
        object.__setattr__(self, "_seed", None if _facets is None or not pts else tuple(
            tuple(sorted(scaled_primitive(tuple(n) + (-o,)) for n, o in rows))
            for rows in (_facets, _equations)))
        object.__setattr__(self, "_cone", _cone)
        object.__setattr__(self, "_canonical", _canonical)

    def __setattr__(self, *a):
        raise AttributeError("LatticePolyhedron is immutable")

    def is_empty(self) -> bool:
        return not self.vertex_candidates

    def __repr__(self):
        return (f"LatticePolyhedron(rank={self.ambient_rank}, "
                f"points={len(self.vertex_candidates)}, canonical={self._canonical})")

    # -- the homogenization and the H-representation read off it -------------

    def homogenization(self) -> Cone:
        """The cone over P × {1}, built on first use: generated by (v, 1) for
        the candidates v and (r, 0) for the recession cone; 0 when P is empty."""
        if self._cone is None:
            d, rec = self.ambient_rank, self.recession
            gens, facets, eqs = [], None, None
            if not self.is_empty():
                gens = [p + (1,) for p in self.vertex_candidates]
                gens += [r + (0,) for r in rec.rays]
                gens += [tuple(s * x for x in l) + (0,)
                         for l in rec.lineality_basis for s in (1, -1)]
                if self._seed is not None:
                    facets, eqs = self._seed
                    if rec.dim() == d - len(eqs):  # t >= 0 is a facet iff dim rec = dim P
                        facets = tuple(sorted(facets + ((0,) * d + (1,),)))
            object.__setattr__(self, "_cone",
                               Cone(d + 1, gens, _facets=facets, _equations=eqs))
        return self._cone

    def _read_off(self, rows) -> tuple:
        """(n, -c) for each row (n, c) of the homogenization.  The rows are
        sorted and no two share an n, so the result is sorted."""
        d = self.ambient_rank
        return tuple((r[:d], Fraction(-r[d])) for r in rows)

    @property
    def facet_rep(self) -> tuple[Facet, ...]:
        """Inequalities <n, x> >= o; affine-hull equations are listed separately.

        Every nonempty face of P has a candidate point, so only the face at
        infinity rec × {0} of the homogenization has no (v, 1).  It is a
        facet iff dim rec = dim P, and then the only one vanishing on rec.
        A seeded H-representation is read as given, without the cone."""
        if self._seed is not None:
            return self._read_off(self._seed[0])
        c, d, rec = self.homogenization(), self.ambient_rank, self.recession
        facets = c.facets
        if rec.dim() == d - len(c.equations):
            gens = [g + (0,) for g in rec.generators]
            facets = [f for f in facets if any(dot(f, g) for g in gens)]
        return self._read_off(facets)

    @property
    def hull_equations(self) -> tuple[Equation, ...]:
        if self._seed is not None:
            return self._read_off(self._seed[1])
        return () if self.is_empty() else self._read_off(self.homogenization().equations)

    def contains(self, point: Sequence) -> bool:
        p = vec(point)
        if len(p) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        if self.is_empty():
            return False
        return all(dot(n, p) == o for n, o in self.hull_equations) and \
               all(dot(n, p) >= o for n, o in self.facet_rep)

    # -- canonicalization ----------------------------------------------------

    def canonicalize(self) -> "LatticePolyhedron":
        """The vertices, read off the rays at height > 0 of the canonical
        homogenization, which the result keeps."""
        if self._canonical:
            return self
        d = self.ambient_rank
        if self.is_empty():
            return LatticePolyhedron(d, _canonical=True)
        rec = self.recession.canonical_form()
        if not rec.is_pointed():
            raise ValueError("polyhedra with lineality in the recession cone are unsupported")
        cone = self.homogenization().canonical_form()
        verts = sorted(r[:d] if r[d] == 1 else tuple(Fraction(x, r[d]) for x in r[:d])
                       for r in cone.rays if r[d] > 0)
        return LatticePolyhedron(d, verts, rec, _cone=cone, _canonical=True)

    def key(self) -> tuple:
        p = self.canonicalize()
        return (p.ambient_rank, p.vertex_candidates, p.recession.key())

    def __eq__(self, other):
        return isinstance(other, LatticePolyhedron) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    # -- derived objects ------------------------------------------------------

    def polytopal_part(self) -> "LatticePolyhedron":
        """conv of the stored candidate points, with trivial recession."""
        return LatticePolyhedron(self.ambient_rank, self.vertex_candidates)


def affine_slice(p: LatticePolyhedron, x0: Sequence, basis: Sequence[Sequence]
                 ) -> LatticePolyhedron:
    """p ∩ (x0 + span basis), canonical, in the coordinates y of the point
    x0 + Σ y_i b_i (empty is a value); ``basis`` must be independent.

    Only the H-representation of p is read, so p need not be canonical.  Each
    facet or hull row (n, o) of p becomes the integer row of
    (<n, b_1>, ..., <n, b_k>, <n, x0> - o) on (y, t), and with t >= 0 one
    double description gives the vertices (t > 0) and the recession rays
    (t = 0) of the slice."""
    k = len(basis)
    if p.is_empty():
        return LatticePolyhedron(k).canonicalize()

    def row(n, o):
        return clear_denominators([dot(n, b) for b in basis] + [dot(n, x0) - o])[0]

    cons = [row(n, o) for n, o in p.facet_rep]
    for n, o in p.hull_equations:
        r = row(n, o)
        cons += [r, tuple(-x for x in r)]
    cons.append((0,) * k + (1,))
    lin, rays, _ = dd.cone_from_inequalities(cons, k + 1)
    if lin:
        raise ValueError("affine_slice needs a pointed recession cone: the slice "
                         "contains a line")
    verts = [tuple(Fraction(x, r[k]) for x in r[:k]) for r in rays if r[k] > 0]
    return LatticePolyhedron(k, verts, Cone(k, [r[:k] for r in rays if r[k] == 0])
                             ).canonicalize()


def point_minima(points: Sequence[Sequence], normals: Iterable[IntVec]) -> list[Fraction]:
    """min of <ν, x> over the nonempty ``points``, for each integer ν in
    ``normals``.  The points are scaled once to integers over one common
    denominator and the dots taken column by column (``column_dots``), so
    each minimum is taken in int and only it becomes a Fraction."""
    d = len(points[0])
    flat, den = clear_denominators([x for p in points for x in p])
    cols = [flat[j::d] for j in range(d)]
    return [Fraction(min(column_dots(nu, cols, len(points))), den) for nu in normals]


class FacetCertificateError(ValueError):
    """Candidate facet normals are not shown to be the facets of a polyhedron."""


def certified_polyhedron(d: int, points: Sequence[Sequence], recession: Optional[Cone],
                         normals: Iterable[Sequence[int]]) -> LatticePolyhedron:
    """P = conv(points) + recession, canonical, with its facets taken from
    the candidate inward ``normals`` (up to positive multiples) instead of
    a double description of the points; FacetCertificateError when the
    certificate below fails.

    Each normal ν must be >= 0 on the recession generators, and its offset
    o_ν is the minimum of <ν, v> over the points, so <ν, x> >= o_ν is valid
    on P and supporting: P ⊆ Q, the polyhedron the candidates cut out.  Q
    is seeded as the homogenization's H-representation, whose rays at
    height 1 are then the points W that the seeded incidence calls extreme.
    The certificate checks, for each w in W and its tight set T(w):

    (a) |T(w)| = d and T(w) has rank d, so w is a simple vertex of Q;
    (b) for each f in T(w), the ridge T(w) \\ {f}, which cuts out the edge
        of Q from w that leaves f, is tight at another ray: at some (w', 1),
        and then w', a vertex of Q by (a), is the edge's other end, or at a
        recession ray (r, 0), and then the edge is w + R≥0 r.

    So W is a nonempty set of vertices of Q closed under the bounded edges
    of Q.  The vertices and bounded edges of a pointed polyhedron form a
    connected graph (Ziegler, *Lectures on Polytopes*, §3.5), so W is every
    vertex of Q.  Each extreme ray of rec(Q) is the direction of an
    unbounded edge, which (b) puts in the recession cone, so Q = conv(W) +
    rec(Q) ⊆ P and Q = P.  A lower-dimensional Q fails (a): its implicit
    equations are tight at every w and linearly dependent.  So P is
    full-dimensional, each of its facets is a candidate, and a redundant
    candidate, supporting P in a face that contains a vertex, would put
    that vertex on d + 1 inequalities, which (a) rejects.  The facet list
    is exact, and so is the extremeness read from its incidence.  Walking
    from a simple vertex to its neighbours through its ridges is the pivot
    step of reverse search (Avis & Fukuda, *DCG* 8, 1992).
    """
    rec = recession if recession is not None else Cone(d, [])
    if not points:
        raise FacetCertificateError("no points")
    nus = list(dict.fromkeys(primitive(nu) for nu in normals))
    for nu in nus:
        if any(dot(nu, g) < 0 for g in rec.generators):
            raise FacetCertificateError(f"the normal {nu} is negative on the recession cone")
    seed = tuple(zip(nus, point_minima(points, nus)))
    q = LatticePolyhedron(d, points, rec, _facets=seed, _equations=()).canonicalize()
    c = q.homogenization()
    rays, facets = c.rays, c.facets
    on = sparse_incidence(facets, rays)  # per facet, the rays on it
    tight: list[list[int]] = [[] for _ in rays]  # per ray, the facets through it
    for i, m in enumerate(on):
        for k in dd.set_bits(m):
            tight[k].append(i)
    verts = sum(1 << k for k, r in enumerate(rays) if r[d] > 0)
    if not verts:
        raise FacetCertificateError("no point is a vertex of the candidate facets")
    for k in dd.set_bits(verts):
        t = tight[k]
        if len(t) != d or rank([facets[i] for i in t]) != d:
            raise FacetCertificateError(f"the vertex ray {rays[k]} is on {len(t)} facets, "
                                        f"not on {d} independent ones")
        for f in t:
            ridge = (1 << len(rays)) - 1 & ~(1 << k)
            for i in t:
                if i != f:
                    ridge &= on[i]
            if not ridge:
                raise FacetCertificateError(f"the edge from the vertex ray {rays[k]} leaving "
                                            f"the facet {facets[f]} has no other end "
                                            "and no recession ray")
    return q


class InnerCertificateError(ValueError):
    """A vertex of the cube-image slice is not shown to lie in conv(L(corners))."""


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


def cube_slice_vertices(k: int, m: Sequence[Sequence], t: Sequence) -> list[tuple]:
    """The vertices of {y ∈ [0,1]^k : m·y = t}, sorted; [] when it is empty.

    Let r be the rank of m.  A point of the slice is a vertex iff its
    coordinates strictly between 0 and 1 index independent columns of m
    (Ziegler, *Lectures on Polytopes*, §2-3).  Extend those to r
    independent columns J: the other coordinates are 0 or 1, and they fix
    y_J.  So the vertices are the solutions in [0,1]^J of
    m_J y_J = t - m_rest c, one for each nonsingular r-set J and each 0/1
    point c off J: the points where the r-faces of the cube meet the cut.
    Dependent rows are dropped and inconsistent ones give []; each
    solution is taken in int over one common denominator per J."""
    a = [[frac(x) for x in row] + [frac(x)] for row, x in zip(m, t)]
    r = len(row_reduce(a, range(k)))
    if any(row[k] for row in a[r:]):
        return []
    out = set()
    for cols in combinations(range(k), r):
        b = a[:r]  # row_reduce rebinds rows, so a keeps its own
        if len(row_reduce(b, cols)) < r:
            continue
        rest = [j for j in range(k) if j not in cols]
        # y_cols = (rhs - sum of the rest columns that c sets to 1) / q
        flat, q = clear_denominators([x for row in b for x in row])
        rows = [flat[i * (k + 1):(i + 1) * (k + 1)] for i in range(r)]
        rhs = [row[k] for row in rows]
        rest_cols = [[row[j] for row in rows] for j in rest]
        for c in product((0, 1), repeat=len(rest)):
            y = rhs
            for cj, col in zip(c, rest_cols):
                if cj:
                    y = list(map(sub, y, col))
            if all(0 <= v <= q for v in y):
                pt = dict(zip(rest, c))
                pt.update((j, Fraction(v, q)) for j, v in zip(cols, y))
                out.add(tuple(pt[j] for j in range(k)))
    return sorted(out)


def cube_image_slice(L: Matrix, f: Matrix, target: Sequence, normals: Iterable[Sequence[int]],
                     corner_box: Callable[[IntVec, IntVec], bool]) -> LatticePolyhedron:
    """conv(L(corners)) ∩ {x : f·x = target}, canonical, for the 0/1 points
    of the cube [0,1]^cols(L) that ``corner_box(lo, hi)`` tells apart: is
    every 0/1 point between lo and hi a corner?  The inward ``normals`` must
    include the facet normals; FacetCertificateError or InnerCertificateError
    when the certificate fails.

    The slice of L(cube) is the Minkowski sum of the images of the cube
    blocks' slices (``cube_blocks`` of f·L, the vertices of each from
    ``cube_slice_vertices``), in int over one common denominator h, and
    support functions add over a Minkowski sum (Schneider, *Convex Bodies*,
    §1.7).  With the minima as
    offsets the normals cut out Q ⊇ slice; one double description on the
    affine hull gives its vertices.  Q must be bounded, and at each vertex
    w: (a) the normals through w have rank dim Q, so their sum c is interior
    to the normal cone of Q at w; (b) the argmin of c is w, so w is in the
    slice and Q = slice; (c) ``corner_box`` holds on the cube face through
    w's preimage (its coordinates in (0, 1) set to 0 or 1), so w is in
    conv(L(corners)), which L(cube) bounds from outside.  Blocks must be
    small: a block of k columns and rank r tries C(k, r) 2^(k-r) points."""
    d = L.rows
    if f.cols != d:
        raise ValueError("rank mismatch")
    t = vec(target)
    empty = LatticePolyhedron(d).canonicalize()
    m = f @ L
    if any(is_zero_vec(r) and x != 0 for r, x in zip(m.entries, t)):
        return empty
    slices = []
    for cols, rows in cube_blocks(m):
        ys = cube_slice_vertices(len(cols), [[m.entries[i][j] for j in cols] for i in rows],
                                 [t[i] for i in rows])
        if not ys:
            return empty
        slices.append((cols, ys))
    # L and the slice points in int over dl and dy: the images hold h·x, h = dl·dy
    flat, dl = clear_denominators([x for r in L.entries for x in r])
    rows_l = [flat[i * L.cols:(i + 1) * L.cols] for i in range(d)]
    dy = lcm(*(x.denominator for _, ys in slices for y in ys for x in y))
    h = dl * dy
    # per block: its image points, their columns and their preimages; the
    # oracle gives min of <c, h·x> over the slice, an argmin and its preimage
    blocks = []
    for cols, ys in slices:
        image = {}
        for y in ys:
            yi = [(x.numerator * (dy // x.denominator), j) for x, j in zip(y, cols)]
            image.setdefault(tuple(sum(c * r[j] for c, j in yi) for r in rows_l),
                             tuple(zip(cols, y)))
        blocks.append((list(image), list(zip(*image)), list(image.values())))

    def oracle(c):
        low, arg, pre = 0, (0,) * d, {}
        for pts, cols, ys in blocks:
            vals = column_dots(c, cols, len(pts))
            i = vals.index(min(vals))
            low, arg = low + vals[i], vadd(arg, pts[i])
            pre.update(ys[i])
        return low, arg, pre

    base = oracle(())[1]  # the sum of the first image points
    basis: list[IntVec] = []
    for v in (vsub(p, pts[0]) for pts, _, _ in blocks for p in pts[1:]):
        if rank(basis + [v]) > len(basis):
            basis.append(v)
    k = len(basis)
    nus = list(dict.fromkeys(primitive(nu) for nu in normals))
    rows = [primitive([dot(nu, b) for b in basis] + [dot(nu, base) - oracle(nu)[0]])
            for nu in nus]
    lin, rays, incidence = dd.cone_from_inequalities(rows + [(0,) * k + (1,)], k + 1)
    if lin or any(r[k] == 0 for r in rays):
        raise FacetCertificateError("the candidate facets do not bound the slice")
    verts = []
    for r, mask in zip(rays, incidence):
        tight = dd.set_bits(mask)
        if rank([rows[i] for i in tight]) != k:
            raise FacetCertificateError(f"the candidates through {r} do not have rank {k}")
        _, arg, pre = oracle(tuple(map(sum, zip(*(nus[i] for i in tight)))))
        w = [r[k] * x + sum(y * b[i] for y, b in zip(r, basis)) for i, x in enumerate(base)]
        if [r[k] * x for x in arg] != w:
            raise FacetCertificateError(f"the candidate vertex {r} is not in the slice")
        lo, hi = (tuple(rnd(pre[j]) for j in range(L.cols)) for rnd in (floor, ceil))
        if not corner_box(lo, hi):
            raise InnerCertificateError(f"the cube face through the preimage of {arg} / {h} "
                                        "has a point that is not a corner")
        verts.append(tuple(Fraction(x, h) for x in arg))
    return LatticePolyhedron(d, sorted(verts), _canonical=True)


class Fan:
    """A collection of maximal cones with common support."""

    __slots__ = ("ambient_rank", "maximal_cones", "support")

    def __init__(self, ambient_rank: int, maximal_cones: Iterable[Cone], support: Cone):
        object.__setattr__(self, "ambient_rank", ambient_rank)
        cones = tuple(dict.fromkeys(c.canonical_form() for c in maximal_cones))
        object.__setattr__(self, "maximal_cones", cones)
        object.__setattr__(self, "support", support.canonical_form())

    def __setattr__(self, *a):
        raise AttributeError("Fan is immutable")

    def key(self) -> tuple:
        return (self.ambient_rank,
                tuple(sorted(c.key() for c in self.maximal_cones)),
                self.support.key())

    def __eq__(self, other):
        return isinstance(other, Fan) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def rays(self) -> list[tuple[int, ...]]:
        out = []
        for c in self.maximal_cones:
            out.extend(c.rays)
        return sorted(set(out))


def normal_fan(p: LatticePolyhedron) -> Fan:
    """Inner normal fan: one maximal cone per vertex v, spanned by the
    normals of the facets through v and ± the affine-hull normals.

    The facets through v are the facets of the homogenization that vanish on
    its ray (v, 1), so only the canonical forms in ``Fan`` double-describe."""
    q = p.canonicalize()
    if q.is_empty():
        raise ValueError("empty polyhedron has no normal fan")
    c, d = q.homogenization(), q.ambient_rank
    hull = [e[:d] for e in c.equations]
    hull += [tuple(-x for x in e) for e in hull]
    cones = [Cone(d, [f[:d] for f in c.facets if dot(f, r) == 0] + hull)
             for r in c.rays if r[d] > 0]
    return Fan(d, cones, q.recession.dual())
