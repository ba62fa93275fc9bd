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
from typing import Iterable, Optional, Sequence

from . import dd
from .cones import Cone
from .linalg import (Matrix, clear_denominators, dot, is_zero_vec, rank,
                     scaled_primitive, solve_affine, vec, vsub)

Facet = tuple[tuple[int, ...], Fraction]  # (inward normal, offset): <n, x> >= o
Equation = tuple[tuple[int, ...], Fraction]  # <n, x> == o


class LatticePolyhedron:
    """conv(vertex_candidates) + recession.

    ``vertex_candidates`` may be any finite generating set; ``canonicalize``
    reduces it to the true vertex set.  An empty candidate list is the empty
    polyhedron.
    """

    __slots__ = ("ambient_rank", "vertex_candidates", "recession",
                 "_facets", "_equations", "_canonical")

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
        """conv of the stored candidate points, with trivial recession."""
        return LatticePolyhedron(self.ambient_rank, self.vertex_candidates)

    def translate(self, t: Sequence) -> "LatticePolyhedron":
        t = vec(t)
        return LatticePolyhedron(self.ambient_rank,
                                 [tuple(x + y for x, y in zip(p, t)) for p in self.vertex_candidates],
                                 self.recession)


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
    """p ∩ {x : f·x = target}, in ambient coordinates (empty is a value)."""
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
    assert not lin, "slice of a pointed polyhedron is pointed"
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


def cone_over(p: LatticePolyhedron) -> Cone:
    """Cone in rank+1 generated by (v,1) and (r,0); slicing at height 1 gives p back."""
    if p.is_empty():
        return Cone(p.ambient_rank + 1, [])
    q = p.canonicalize()
    gens = [scaled_primitive(tuple(v) + (Fraction(1),)) for v in q.vertex_candidates]
    gens += [tuple(r) + (0,) for r in q.recession.rays]
    return Cone(p.ambient_rank + 1, gens)


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

    def validate_pairwise_faces(self) -> Optional[tuple[Cone, Cone]]:
        """None if every pairwise intersection is a face of both; else a witness pair."""
        cones = self.maximal_cones
        for i in range(len(cones)):
            for j in range(i + 1, len(cones)):
                inter = cones[i].intersection(cones[j])
                if not (inter.is_face_of(cones[i]) and inter.is_face_of(cones[j])):
                    return (cones[i], cones[j])
        return None

    def validate_support_cover(self) -> Optional[str]:
        """Check that the union of the maximal cones is exactly the support.

        Criterion: every maximal cone lies inside the support, and every
        facet of every maximal cone is either shared with another maximal
        cone or lies inside a facet of the support.  Together with closedness
        this forces the union to fill the support.  Returns None on success
        or a description of the violation.
        """
        sup = self.support
        for c in self.maximal_cones:
            for g in list(c.rays) + list(c.lineality_basis):
                if not sup.contains(g):
                    return f"cone ray {g} outside support"
        for c in self.maximal_cones:
            for facet in c.facet_subcones():
                shared = any(other is not c and facet.is_face_of(other)
                             for other in self.maximal_cones)
                if shared:
                    continue
                on_boundary = any(all(dot(f, r) == 0 for r in facet.rays)
                                  for f in sup.facets)
                if not on_boundary:
                    return f"unmatched interior facet with rays {facet.rays}"
        return None


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
            if is_zero_vec(g):
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
    from itertools import product
    from .linalg import Matrix, elementary_divisors

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
