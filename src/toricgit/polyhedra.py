"""Lattice polyhedra P = conv(points) + recession cone, and fans.

The canonical form of a polyhedron is its true vertex set together with the
canonical recession cone and a cached facet representation.  Everything is
computed through one homogenization: the cone over the polyhedron in rank+1,
whose H-representation comes from the double description method.

Only polyhedra with strongly convex recession cones are supported (every
recession cone in this package is a dual cone of a full-dimensional cone of
monomials); the empty polyhedron is a first-class value.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, product
from typing import Iterable, Optional, Sequence

from . import dd
from .cones import Cone
from .linalg import (Matrix, clear_denominators, dot, is_zero_vec,
                     scaled_primitive, solve_affine, vadd, vec, vsub)

Facet = tuple[tuple[int, ...], Fraction]  # (inward normal, offset): <n, x> >= o
Equation = tuple[tuple[int, ...], Fraction]  # <n, x> == o


class LatticePolyhedron:
    """conv(vertex_candidates) + recession.

    ``vertex_candidates`` may be any finite generating set; ``canonicalize``
    reduces it to the true vertex set.  An empty candidate list is the empty
    polyhedron.
    """

    __slots__ = ("ambient_rank", "vertex_candidates", "recession",
                 "_facets", "_equations", "_canonical", "_polytopal")

    def __init__(self, ambient_rank: int, vertex_candidates: Iterable[Sequence] = (),
                 recession: Optional[Cone] = None,
                 _facets=None, _equations=None, _canonical=False):
        pts = []
        for p in vertex_candidates:
            p = vec(p)
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
        object.__setattr__(self, "_facets", _facets)
        object.__setattr__(self, "_equations", _equations)
        object.__setattr__(self, "_canonical", _canonical)
        object.__setattr__(self, "_polytopal", None)

    def __setattr__(self, *a):
        raise AttributeError("LatticePolyhedron is immutable")

    def is_empty(self) -> bool:
        return not self.vertex_candidates

    def __repr__(self):
        return (f"LatticePolyhedron(rank={self.ambient_rank}, "
                f"points={len(self.vertex_candidates)}, canonical={self._canonical})")

    # -- H-representation ----------------------------------------------------

    def _homogenized_generators(self) -> list[tuple[int, ...]]:
        gens = [scaled_primitive(tuple(p) + (Fraction(1),)) for p in self.vertex_candidates]
        for r in self.recession.rays:
            gens.append(tuple(r) + (0,))
        for l in self.recession.lineality_basis:
            gens.append(tuple(l) + (0,))
            gens.append(tuple(-x for x in l) + (0,))
        return gens

    def _compute_h_rep(self) -> None:
        if self._facets is not None and self._equations is not None:
            return
        if self.is_empty():
            object.__setattr__(self, "_facets", ())
            object.__setattr__(self, "_equations", ())
            return
        d = self.ambient_rank
        eqs_h, facets_h = dd.dual_rays(self._homogenized_generators(), d + 1)
        facets: list[Facet] = []
        for f in facets_h:
            normal, c = f[:d], f[d]
            if is_zero_vec(normal):
                continue  # the height facet t >= 0
            facets.append((normal, Fraction(-c)))
        eqs: list[Equation] = []
        for e in eqs_h:
            normal, c = e[:d], e[d]
            if is_zero_vec(normal):
                raise ValueError("inconsistent homogenization")  # cannot happen when nonempty
            eqs.append((normal, Fraction(-c)))
        object.__setattr__(self, "_facets", tuple(sorted(facets)))
        object.__setattr__(self, "_equations", tuple(sorted(eqs)))

    @property
    def facet_rep(self) -> tuple[Facet, ...]:
        """Inequalities <n, x> >= o; affine-hull equations are listed separately."""
        self._compute_h_rep()
        return self._facets

    @property
    def hull_equations(self) -> tuple[Equation, ...]:
        self._compute_h_rep()
        return self._equations

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
        if self._canonical:
            return self
        if self.is_empty():
            return LatticePolyhedron(self.ambient_rank, (), Cone(self.ambient_rank, []),
                                     _facets=(), _equations=(), _canonical=True)
        rec = self.recession.canonical_form()
        if not rec.is_pointed():
            raise ValueError("polyhedra with lineality in the recession cone are unsupported")
        d = self.ambient_rank
        self._compute_h_rep()
        # extreme generators of the homogenized cone, via facet activity rank
        gens = [scaled_primitive(tuple(p) + (Fraction(1),)) for p in self.vertex_candidates]
        gens += [tuple(r) + (0,) for r in rec.rays]
        facets_h = []
        for n, o in self._facets:
            row, _ = clear_denominators(tuple(map(Fraction, n)) + (-o,))
            facets_h.append(row)
        facets_h.append(tuple([0] * d + [1]))  # height >= 0
        eqs_h = []
        for n, o in self._equations:
            row, _ = clear_denominators(tuple(map(Fraction, n)) + (-o,))
            eqs_h.append(row)
        idx = dd.extreme_generators(gens, d + 1, eqs_h, facets_h)
        verts = sorted({tuple(Fraction(x, g[d]) for x in g[:d])
                        for g in (gens[i] for i in idx) if g[d] > 0})
        return LatticePolyhedron(d, verts, rec, _facets=self._facets,
                                 _equations=self._equations, _canonical=True)

    def key(self) -> tuple:
        p = self.canonicalize()
        return (p.ambient_rank, p.vertex_candidates, p.recession.key())

    def __eq__(self, other):
        return isinstance(other, LatticePolyhedron) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    # -- derived objects ------------------------------------------------------

    def polytopal_part(self) -> "LatticePolyhedron":
        """conv of the stored candidate points, with trivial recession.

        Memoised on the instance, so its lazily computed H-representation is
        shared by every caller that slices it."""
        if self._polytopal is None:
            object.__setattr__(self, "_polytopal",
                               LatticePolyhedron(self.ambient_rank, self.vertex_candidates))
        return self._polytopal


def linear_image(f: Matrix, p: LatticePolyhedron) -> LatticePolyhedron:
    if f.cols != p.ambient_rank:
        raise ValueError("rank mismatch")
    if p.is_empty():
        return LatticePolyhedron(f.rows).canonicalize()
    pts = [f @ v for v in p.vertex_candidates]
    gens = [f @ g for g in p.recession.generators]
    rec = Cone(f.rows, [g for g in gens if not is_zero_vec(g)])
    return LatticePolyhedron(f.rows, pts, rec).canonicalize()


def affine_slice(p: LatticePolyhedron, f: Matrix, target: Sequence) -> LatticePolyhedron:
    """p ∩ {x : f·x = target}, in ambient coordinates (empty is a value).

    Only the H-representation of p is read, so p need not be canonical; the
    result is."""
    if f.cols != p.ambient_rank:
        raise ValueError("rank mismatch")
    d = p.ambient_rank
    empty = lambda: LatticePolyhedron(d).canonicalize()
    if p.is_empty():
        return empty()
    sol = solve_affine(f, target)
    if sol is None:
        return empty()
    x0, kern = sol.point, sol.kernel
    if not kern:
        return LatticePolyhedron(d, [x0]).canonicalize() if p.contains(x0) else empty()
    k = len(kern)
    # constraints on slice coordinates y, homogenized: rows over (y, t)
    rows = []
    for n, o in p.facet_rep:
        coeffs = [dot(n, b) for b in kern]
        rows.append((tuple(coeffs) + (dot(n, x0) - o,), False))
    for n, o in p.hull_equations:
        coeffs = [dot(n, b) for b in kern]
        rows.append((tuple(coeffs) + (dot(n, x0) - o,), True))
    cons = []
    for row, is_eq in rows:
        r, _ = clear_denominators(row)
        cons.append(r)
        if is_eq:
            cons.append(tuple(-x for x in r))
    cons.append(tuple([0] * k + [1]))
    lin, rays = dd.cone_from_inequalities(cons, k + 1)
    if lin:
        raise ValueError("affine_slice needs a pointed recession cone: the slice "
                         "contains a line")
    verts = []
    rec_rays = []
    for r in rays:
        if r[k] > 0:
            y = [Fraction(x, r[k]) for x in r[:k]]
            pt = tuple(x + sum(c * b[i] for c, b in zip(y, kern)) for i, x in enumerate(x0))
            verts.append(pt)
        else:
            y = r[:k]
            direction = tuple(sum(c * b[i] for c, b in zip(y, kern)) for i in range(d))
            rec_rays.append(scaled_primitive(direction))
    if not verts:
        return empty()
    return LatticePolyhedron(d, verts, Cone(d, rec_rays)).canonicalize()


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


def cube_image_slice(L: Matrix, f: Matrix, target: Sequence,
                     corners: Iterable[Sequence[int]]) -> LatticePolyhedron:
    """conv(L(corners)) ∩ {x : f·x = target}, canonical, for 0/1 points
    ``corners`` of the cube [0,1]^cols(L); InnerCertificateError when the
    certificate below fails.

    The slice of L(cube) is L of the cube's slice by (f·L)·c = target.
    That slice is the product of the slices of the cube blocks
    (``cube_blocks`` of f·L), each cut with ``affine_slice``, so its image is
    the Minkowski sum of the block images.  Summed block by block, each
    vertex of the sum keeps its unique decomposition into block vertices,
    which gives it a preimage c in the cube.

    L(cube) only bounds conv(L(corners)) from outside, so each vertex L(c)
    is certified from inside: L maps every corner of the smallest cube face
    containing c (the coordinates of c strictly between 0 and 1 set to 0 or
    1) into L(corners).  Then L(c) lies in their hull, every vertex of the
    outer bound lies in conv(L(corners)), and the two slices are equal.

    The 2^k corners of each block are listed, so blocks must be small."""
    d = L.rows
    if f.cols != d:
        raise ValueError("rank mismatch")
    t = vec(target)
    empty = LatticePolyhedron(d).canonicalize()
    m = f @ L
    if any(is_zero_vec(r) and x != 0 for r, x in zip(m.entries, t)):
        return empty
    acc: dict[tuple, tuple] = {tuple([Fraction(0)] * d): ()}
    for cols, rows in cube_blocks(m):
        k = len(cols)
        facets = [(tuple(s if i == j else 0 for i in range(k)), Fraction(min(s, 0)))
                  for j in range(k) for s in (1, -1)]
        sl = LatticePolyhedron(k, product((0, 1), repeat=k),
                               _facets=tuple(sorted(facets)), _equations=())
        if rows:
            sl = affine_slice(sl, Matrix([[m.entries[i][j] for j in cols] for i in rows]),
                              [t[i] for i in rows])
            if sl.is_empty():
                return empty
        lb = Matrix.from_columns([L.column(j) for j in cols])
        preimage = {}
        for y in sl.vertex_candidates:
            preimage.setdefault(lb @ y, tuple(zip(cols, y)))
        image = linear_image(lb, sl).vertex_candidates
        sums = {vadd(a, v): da + preimage[v] for a, da in acc.items() for v in image}
        if len(acc) > 1 and len(image) > 1:
            sums = {v: sums[v] for v in
                    LatticePolyhedron(d, sums).canonicalize().vertex_candidates}
        acc = sums
    # L scaled to int by one common denominator, which the lookups share
    flat, _ = clear_denominators([x for r in L.entries for x in r])
    rows_l = [flat[i * L.cols:(i + 1) * L.cols] for i in range(d)]
    images = {tuple(sum(compress(r, c)) for r in rows_l) for c in corners}
    for v, c in acc.items():
        face = {tuple(sum(r[j] for j, y in c if y == 1) for r in rows_l)}
        for j, y in c:
            if 0 < y < 1:
                face |= {tuple(a + r[j] for a, r in zip(p, rows_l)) for p in face}
        if not face <= images:
            raise InnerCertificateError(
                f"a corner of the cube face through the preimage of {v} maps "
                "outside L(corners)")
    return LatticePolyhedron(d, acc).canonicalize()


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
    """Inner normal fan: one maximal cone per vertex, the dual of cone(P - v)."""
    q = p.canonicalize()
    if q.is_empty():
        raise ValueError("empty polyhedron has no normal fan")
    verts = q.vertex_candidates
    cones = []
    for v in verts:
        gens = [scaled_primitive(vsub(w, v)) for w in verts if w != v]
        gens += list(q.recession.rays)
        lin, rays = dd.dual_rays([g for g in gens if not is_zero_vec(g)], q.ambient_rank)
        cones.append(Cone(q.ambient_rank, list(rays) + list(lin) +
                          [tuple(-x for x in l) for l in lin]))
    return Fan(q.ambient_rank, cones, q.recession.dual())
