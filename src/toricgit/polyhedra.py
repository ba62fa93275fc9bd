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
from math import lcm
from operator import lt, mul, sub
from typing import Iterable, Optional, Sequence

from . import dd
from .cones import Cone, column_dots
from .linalg import (IntVec, Matrix, clear_denominators, dot, frac, left_action,
                     primitive, scaled_primitive, vec)

Facet = tuple[tuple[int, ...], int]  # (inward normal, offset): <n, x> >= o
Equation = tuple[tuple[int, ...], int]  # <n, x> == o


def _exact(x):
    """A coordinate as ``int`` when it is integral, else as ``Fraction``."""
    if type(x) is int:
        return x
    x = frac(x)
    return x.numerator if x.denominator == 1 else x


class LatticePolyhedron:
    """conv(vertex_candidates) + recession, a view on ``homogenization()``.

    ``vertex_candidates`` may be any finite generating set; ``canonicalize`` reduces
    it to the true vertex set.  An empty candidate list is the empty polyhedron.  A
    caller that knows the facets of a full-dimensional P passes them as ``_facets``;
    they become the homogenization's, so no double description runs.  Sorted
    vertices passed with ``_canonical=True`` are kept unchecked.
    """

    __slots__ = ("ambient_rank", "vertex_candidates", "recession",
                 "_seed", "_cone", "_canonical")

    def __init__(self, ambient_rank: int, vertex_candidates: Iterable[Sequence] = (),
                 recession: Optional[Cone] = None,
                 _facets=None, _cone=None, _canonical=False):
        pts = vertex_candidates
        if not _canonical:
            pts = {}  # distinct, in order
            for p in vertex_candidates:
                p = tuple(p)
                if not all(type(x) is int for x in p):
                    p = tuple(map(_exact, p))
                if len(p) != ambient_rank:
                    raise ValueError("point has wrong dimension")
                pts[p] = None
        if recession is None:
            recession = Cone(ambient_rank, [])
        if recession.ambient_rank != ambient_rank:
            raise ValueError("recession cone has wrong dimension")
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "vertex_candidates", tuple(pts))
        object.__setattr__(self, "recession", recession)
        # a seed is kept as the homogenization's sorted primitive rows (n, -o)
        object.__setattr__(self, "_seed", None if _facets is None or not pts else tuple(
            sorted(scaled_primitive(tuple(n) + (-o,)) for n, o in _facets)))
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
                    facets, eqs = self._seed, ()
                    if rec.dim() == d:  # t >= 0 is a facet iff dim rec = dim P
                        facets = tuple(sorted(facets + ((0,) * d + (1,),)))
            object.__setattr__(self, "_cone",
                               Cone(d + 1, gens, _facets=facets, _equations=eqs))
        return self._cone

    def _read_off(self, rows) -> tuple:
        """(n, -c) for each row (n, c) of the homogenization.  The rows are
        primitive integer vectors, so every offset is an ``int``.  They are
        sorted and no two share an n, so the result is sorted."""
        d = self.ambient_rank
        return tuple((r[:d], -r[d]) for r in rows)

    @property
    def facet_rep(self) -> tuple[Facet, ...]:
        """Inequalities <n, x> >= o; affine-hull equations are listed separately.

        Every nonempty face of P has a candidate point, so only the face at
        infinity rec × {0} of the homogenization has no (v, 1).  It is a
        facet iff dim rec = dim P, and then the only one vanishing on rec.
        Seeded facets are read as given, without the cone."""
        if self._seed is not None:
            return self._read_off(self._seed)
        c, d, rec = self.homogenization(), self.ambient_rank, self.recession
        facets = c.facets
        if rec.dim() == d - len(c.equations):
            gens = [g + (0,) for g in rec.generators]
            facets = [f for f in facets if any(dot(f, g) for g in gens)]
        return self._read_off(facets)

    @property
    def hull_equations(self) -> tuple[Equation, ...]:
        if self._seed is not None or self.is_empty():  # a seeded P is full-dimensional
            return ()
        return self._read_off(self.homogenization().equations)

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
        verts = sorted(r[:d] if r[d] == 1 else tuple(_exact(Fraction(x, r[d])) for x in r[:d])
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
    lin, rays = dd.cone_from_inequalities(cons, k + 1)
    if lin:
        raise ValueError("affine_slice needs a pointed recession cone: the slice "
                         "contains a line")
    verts = [tuple(Fraction(x, r[k]) for x in r[:k]) for r in rays if r[k] > 0]
    return LatticePolyhedron(k, verts, Cone(k, [r[:k] for r in rays if r[k] == 0])
                             ).canonicalize()


class FacetCertificateError(ValueError):
    """Candidate facet normals are not shown to be the facets of a polyhedron."""


def orbit_certificate(y0: IntVec, gens: Sequence[Matrix], offsets: dict[IntVec, int],
                      recession: Optional[Cone]) -> tuple[tuple[Facet, ...], Cone]:
    """The facets and the canonical recession cone of P = conv(W) + C, W the
    orbit of the point y₀ under the group G the integer ``gens`` generate,
    acting by y ↦ gᵀy on points and ν ↦ gν on normals (<gν, y> = <ν, gᵀy>):
    the candidates <ν, y> >= c_ν of ``offsets``, certified at y₀ alone, with
    no point of W listed; FacetCertificateError when the certificate fails.
    P is taken in the coordinates x = (y - y₀) / 2 of its points y, given
    doubled and centred so that G acts on them linearly, so each facet
    comes back as (ν, (c_ν - <ν, y₀>) / 2).  Q is the polyhedron the
    candidates cut out, C the recession cone, which must be pointed.  The
    checks:

    (1) each g permutes the normals with c_gν = c_ν, each gᵀ the rays of C,
        and gᵀy₀ - y₀ is even;
    (2) y₀ satisfies every candidate and is on exactly d, the set T, whose
        normals are >= 0 on C;
    (3) for each f in T, the ridge T \\ {f} holds a neighbour gᵀy₀, or a ray
        of C, off f;
    (4) every candidate is in the G-orbit of T.

    By (1), gᵀQ ⊆ Q, as <ν, gᵀy> = <gν, y> >= c_ν.  With e_f = gᵀy₀ - y₀
    (gᵀy₀ is in Q) or e_f = r, <ν_i, e_f> = 0 for i ≠ f and <ν_f, e_f> > 0:
    N·E, the normals of T as rows of N and the e_f as columns of E, is
    diagonal and positive, so N has rank d with no rank taken, y₀ is a
    simple vertex of Q, and the ridge T \\ {f} cuts out the edge from y₀
    that ends at gᵀy₀ or is y₀ + R≥0 r.  The normals span and g permutes
    them, so g is invertible, gᵀQ = Q, and the finite G acts on Q by
    automorphisms: each aᵀy₀ in W is a vertex, on the independent a⁻¹T,
    and its edges, images of those at y₀, end in W or run along aᵀr, a ray
    of C by (1).  The vertices and bounded edges of a pointed polyhedron
    form a connected graph (Ziegler, *Lectures on Polytopes*, §3.5), so W
    is every vertex of Q, and each extreme ray of rec(Q), an unbounded
    edge's direction, is in C.  By (4) a candidate is aν, ν in T, and
    <aν, r> = <ν, aᵀr> >= 0 on C, so rec(Q) = C and Q = conv(W) + C = P.
    Each ν in T cuts out a facet at the simple y₀, which (a⁻¹)ᵀ maps to the
    facet of aν: by (4) every candidate is a facet, no two the same one, as
    the d at a vertex are independent.  A redundant candidate is tight at
    y₀, which (2) rejects, or outside the orbit of T, which (4) rejects.  By
    (1), gᵀy - y₀ = gᵀ(y - y₀) + (gᵀy₀ - y₀) is even for y in W, so x and the
    offsets are in int.  This is representation conversion up to symmetry
    by adjacency decomposition (Bremner, Dutour Sikirić & Schürmann, 2009)
    on one orbit of simple vertices, whose representative's neighbours are
    the gᵀy₀, so no adjacency is searched."""
    y0, d = tuple(y0), len(y0)
    rec = (recession or Cone(d, [])).canonical_form()
    if rec.lineality_basis:
        raise FacetCertificateError("the recession cone has lineality")
    rays, normals, c = rec.rays, list(offsets), list(offsets.values())
    index = {nu: i for i, nu in enumerate(normals)}
    cols = tuple(zip(*normals))
    perms, steps = [], []  # per generator, its permutation of the normals and gᵀy₀ - y₀
    for k, g in enumerate(gens):
        perm = [index.get(nu, -1) for nu in zip(*left_action(g)(cols))]
        if -1 in perm or len(set(perm)) < len(perm):
            raise FacetCertificateError(f"the generator {k} does not permute the normals")
        if any(c[j] != x for j, x in zip(perm, c)):
            raise FacetCertificateError(f"the offsets are not invariant under the generator {k}")
        y1, *moved = zip(*left_action(g.transpose())(tuple(zip(y0, *rays))))
        if sorted(moved) != list(rays):
            raise FacetCertificateError(f"the generator {k} does not permute the recession rays")
        steps.append(tuple(map(sub, y1, y0)))
        if any(x % 2 for x in steps[-1]):
            raise FacetCertificateError(f"the generator {k} moves the base point off the lattice")
        perms.append(perm)
    vals = column_dots(y0, cols, len(normals))
    if any(map(lt, vals, c)):
        raise FacetCertificateError("the base point violates a candidate")
    tight = [i for i, (v, x) in enumerate(zip(vals, c)) if v == x]
    if len(tight) != d:
        raise FacetCertificateError(f"the base point is on {len(tight)} facets, not on {d}")
    at = [normals[i] for i in tight]
    if any(dot(nu, r) < 0 for nu in at for r in rays):
        raise FacetCertificateError("a facet at the base point is negative on the recession cone")
    ends = set()
    for e in steps + list(rays):
        off = [i for i, nu in enumerate(at) if dot(nu, e)]
        if len(off) == 1:
            ends.update(off)
    if len(ends) < d:
        f = min(set(range(d)) - ends)
        raise FacetCertificateError(f"the edge from the base point leaving the facet {at[f]} "
                                    "has no other end and no recession ray")
    reached, seen = list(tight), set(tight)
    for i in reached:  # the list grows as it is read: the orbit of T
        for j in {perm[i] for perm in perms} - seen:
            seen.add(j)
            reached.append(j)
    if len(seen) < len(normals):
        nu = normals[min(set(range(len(normals))) - seen)]
        raise FacetCertificateError(f"the normal {nu} is in no orbit of a facet at the base point")
    return tuple((nu, (x - v) // 2) for nu, v, x in zip(normals, vals, c)), rec


class InnerCertificateError(ValueError):
    """A vertex of the cube-image slice is not shown to lie in conv(L(corners))."""


class ChamberCertificateError(ValueError):
    """A chamber of normals is not shown to lie in the normal cone of one vertex."""


def cube_image_slice(L: Matrix, f: Matrix, target: Sequence, chamber: Sequence[IntVec],
                     lineality: Iterable[IntVec], pairs: Iterable[tuple[int, int]]) -> tuple:
    """(h·w, h, support) in int, w the vertex of conv(L(K)) ∩ {f·x = target}
    that ``chamber``, a list of integer normals, exposes, K the 0/1 points c
    of the cube [0,1]^cols(L) with c_a <= c_b for each pair (a, b), a ≠ b,
    in ``pairs``, and support(c) = h·min <c, x>; (None, 1, None) if empty,
    ChamberCertificateError or InnerCertificateError if the certificate fails.

    f·L must cut the cube in hypersimplex blocks: row i reads its own
    nonempty set B_i of columns, all with one coefficient a_i, and every
    column is read; ValueError otherwise.  The cube's slice is then the
    product of the slices {y ∈ [0,1]^B_i : Σ y = s_i}, s_i = target_i / a_i,
    empty unless 0 <= s_i <= |B_i|, and its image under L is the Minkowski
    sum of their images, whose support function is the sum of theirs
    (Schneider, *Convex Bodies*, §1.7).  A functional is least on a
    hypersimplex slice at the greedy point (Edmonds, 1970): weight 1 on the
    ⌊s_i⌋ columns of B_i with least value, ties broken by column, and the
    fractional part of s_i on the next one.  So the oracle takes Lᵀc once,
    sorts each block, and gives the minimum of c and the preimage of an
    argmin in int over one common denominator h.  The argmin is the only
    one iff in every block the columns tied in value across a change of
    weight are equal columns of L.  The certificate: (1) each lineality
    direction ℓ is constant on the slice, min ℓ = -min(-ℓ); (2) the
    chamber's sum has a unique argmin w, an exposed vertex; (3) each normal
    of the chamber is tight at w, so the chamber plus span(lineality) lies
    in the normal cone N(w); (4) the cube face through w's preimage (its
    coordinates in (0, 1) set to 0 or 1), a box [lo, hi], lies in K: hi_a <=
    lo_b for each pair.  So w, in conv(L(K)) and in its outer bound L(cube),
    is a vertex of both slices, whose support functions agree once every
    vertex passes (4); which chambers cover the space is the caller's."""
    d, nc = L.rows, L.cols
    if f.cols != d:
        raise ValueError("rank mismatch")
    blocks, read = [], set()
    for r, x in zip((f @ L).entries, vec(target)):
        cols = [j for j, a in enumerate(r) if a != 0]
        if not cols or len({r[j] for j in cols}) > 1 or read.intersection(cols):
            raise ValueError("each row of f·L must read its own columns with one coefficient")
        read.update(cols)
        blocks.append((cols, x / r[cols[0]]))
    if len(read) != nc:
        raise ValueError("every column of L must be read by a row of f·L")
    if not all(0 <= s <= len(cols) for cols, s in blocks):
        return None, 1, None
    # the slice in int over h, so the images hold h·x
    rows_l = L.entries
    columns = list(zip(*rows_l))
    h = lcm(*(s.denominator for _, s in blocks))
    # s_i·h = whole·h + part: weight h on ``whole`` columns, part on one more
    cuts = [(cols, *divmod(s.numerator * (h // s.denominator), h)) for cols, s in blocks]

    def oracle(c):
        """min of <c, h·x> over the slice, the preimage of an argmin times
        h, and whether that argmin is the only one."""
        vals = column_dots(c, rows_l, nc)
        y = [0] * nc
        unique = True
        for cols, whole, part in cuts:
            order = sorted(cols, key=vals.__getitem__)  # stable: ties by column
            for j in order[:whole]:
                y[j] = h
            if part:
                y[order[whole]] = part
            for a, b in zip(order, order[1:]):
                if y[a] != y[b] and vals[a] == vals[b]:
                    unique &= len({columns[j] for j in cols if vals[j] == vals[a]}) == 1
        return sum(map(mul, vals, y)), y, unique

    for l in lineality:
        if oracle(l)[0] != -oracle([-x for x in l])[0]:
            raise ChamberCertificateError(f"the lineality direction {l} is not constant")
    _, pre, unique = oracle([sum(x) for x in zip(*chamber)])
    if not unique:
        raise ChamberCertificateError(f"the chamber {chamber} has no unique minimum")
    arg = tuple(sum(map(mul, r, pre)) for r in rows_l)
    for nu in chamber:
        if dot(nu, arg) != oracle(nu)[0]:
            raise ChamberCertificateError(f"the normal {nu} of {chamber} is not tight")
    if any(-(-pre[a] // h) > pre[b] // h for a, b in pairs):  # hi_a > lo_b
        raise InnerCertificateError(f"the cube face through the preimage of {arg} / {h} "
                                    "has a point that is not a corner")
    return arg, h, lambda c: oracle(c)[0]


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


def normal_fan(p: LatticePolyhedron) -> Fan:
    """Inner normal fan: one maximal cone per vertex v, spanned by the
    normals of the facets through v and ± the affine-hull normals
    (Ziegler, *Lectures on Polytopes*, §7.1).

    Only ``facet_rep``, ``hull_equations`` and the vertices are read, so a
    seeded polyhedron builds no homogenization.  One ``column_dots`` pass
    per facet finds the vertices on it: P is pointed, so every facet holds
    a vertex and its offset is its least value over the vertices.  When P
    is full-dimensional, N(v) is the dual of the tangent cone of P at v, a
    full-dimensional pointed cone whose facets are the facets of P through
    v, so their primitive normals are exactly the rays of N(v), whether v
    is simple or not, and no double description runs.  A lower-dimensional
    P adds ± the hull normals, a lineality space, and its cones are
    double-described from their generators.  ``verify`` decides the
    symmetric model's normal fan at its chamber instead, so this n!-wide
    route is the tests' oracle."""
    q = p.canonicalize()
    if q.is_empty():
        raise ValueError("empty polyhedron has no normal fan")
    d, verts = q.ambient_rank, q.vertex_candidates
    hull = [n for n, _ in q.hull_equations]
    hull += [tuple(-x for x in e) for e in hull]
    flat, _ = clear_denominators([x for v in verts for x in v])
    cols = [flat[j::d] for j in range(d)]
    through: list[list[IntVec]] = [[] for _ in verts]  # per vertex, the facets on it
    for n, _ in q.facet_rep:
        n = primitive(n)
        vals = column_dots(n, cols, len(verts))
        low = min(vals)
        for k, v in enumerate(vals):
            if v == low:
                through[k].append(n)
    if hull:
        cones = [Cone(d, t + hull) for t in through]
    else:
        cones = [Cone(d, _rays=tuple(sorted(t)), _lineality=()) for t in through]
    return Fan(d, cones, q.recession.dual())
