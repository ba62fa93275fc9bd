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
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

from . import dd
from .cones import Cone, column_dots
from .linalg import (IntVec, Matrix, _exact, clear_denominators, dot, primitive,
                     scaled_primitive, vec)

Facet = tuple[tuple[int, ...], Fraction]  # (inward normal, offset): <n, x> >= o
Equation = tuple[tuple[int, ...], Fraction]  # <n, x> == o


class LatticePolyhedron:
    """conv(vertex_candidates) + recession, a view on ``homogenization()``.

    ``vertex_candidates`` may be any finite generating set; ``canonicalize`` reduces
    it to the true vertex set.  An empty candidate list is the empty polyhedron.  A
    caller that knows the H-representation of a full-dimensional P passes it as
    ``_facets`` and ``_equations``; it becomes the homogenization's, so no double
    description runs.  Sorted vertices passed with ``_canonical=True`` are kept unchecked.
    """

    __slots__ = ("ambient_rank", "vertex_candidates", "recession",
                 "_seed", "_cone", "_canonical")

    def __init__(self, ambient_rank: int, vertex_candidates: Iterable[Sequence] = (),
                 recession: Optional[Cone] = None,
                 _facets=None, _equations=None, _cone=None, _canonical=False):
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
    lin, rays, _ = dd.cone_from_inequalities(cons, k + 1)
    if lin:
        raise ValueError("affine_slice needs a pointed recession cone: the slice "
                         "contains a line")
    verts = [tuple(Fraction(x, r[k]) for x in r[:k]) for r in rays if r[k] > 0]
    return LatticePolyhedron(k, verts, Cone(k, [r[:k] for r in rays if r[k] == 0])
                             ).canonicalize()


def _argmins(vals: list[int]) -> tuple[int, list[int]]:
    """The least value and its positions, found by C-level scans."""
    low, hits, k = min(vals), [], -1
    for _ in range(vals.count(low)):
        k = vals.index(low, k + 1)
        hits.append(k)
    return low, hits


class FacetCertificateError(ValueError):
    """Candidate facet normals are not shown to be the facets of a polyhedron."""


def certified_polyhedron(d: int, points: Sequence[Sequence], recession: Optional[Cone],
                         normals: Iterable[Sequence[int]]) -> LatticePolyhedron:
    """P = conv(points) + recession, canonical, with its facets taken from
    the candidate inward ``normals`` (up to positive multiples) instead of
    a double description of the points; FacetCertificateError when the
    certificate below fails.

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
        seed.append((nu, Fraction(low, den)))
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
                    f"facet {scaled_primitive(seed[f][0] + (-seed[f][1],))} has no other end "
                    "and no recession ray")
            ridge &= on[f]
    return LatticePolyhedron(d, sorted(pts[k] for k in verts), rec, _facets=seed,
                             _equations=(), _canonical=True)


class InnerCertificateError(ValueError):
    """A vertex of the cube-image slice is not shown to lie in conv(L(corners))."""


class ChamberCertificateError(ValueError):
    """A chamber of normals is not shown to lie in the normal cone of one vertex."""


def cube_image_slice(L: Matrix, f: Matrix, target: Sequence,
                     chambers: Iterable[Sequence[IntVec]], lineality: Iterable[IntVec],
                     corner_box: Callable[[IntVec, IntVec], bool]) -> tuple:
    """conv(L(corners)) ∩ {x : f·x = target} in int, for the 0/1 points of
    the cube [0,1]^cols(L) that ``corner_box(lo, hi)`` tells apart: is every
    0/1 point between lo and hi a corner?  Returns the sorted vertices w as
    int points h·w, h, and support(c) = h·min <c, x> for integer c, or ([],
    1, None) if empty.  The chambers, lists of integer normals as tuples,
    plus span(``lineality``) must cover the space, which is the caller's to
    know: a missing chamber can lose a vertex.  A failed certificate raises
    ChamberCertificateError or InnerCertificateError.

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
    direction ℓ is constant on the slice, min ℓ = -min(-ℓ); (2) each
    chamber's sum has a unique argmin w, so w is an exposed vertex; (3)
    each normal of the chamber is tight at w (its minimum is taken once per
    distinct normal), so the chamber plus span(lineality) lies in the
    normal cone N(w); (4) a functional interior to N(v), v a vertex, lies
    in some chamber, whose w is then v: the distinct w are every vertex,
    with no double description and no rank.  Last, ``corner_box`` holds on
    the cube face through each vertex's preimage (its coordinates in (0, 1)
    set to 0 or 1), so the vertex is in conv(L(corners)), which L(cube)
    bounds from outside."""
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
        return [], 1, None
    # L in int over dl, the slice in int over ds: the images hold h·x, h = dl·ds
    flat, dl = clear_denominators([x for r in L.entries for x in r])
    rows_l = [flat[i * nc:(i + 1) * nc] for i in range(d)]
    columns = list(zip(*rows_l))
    ds = lcm(*(s.denominator for _, s in blocks))
    h = dl * ds
    # s_i·ds = whole·ds + part: weight ds on ``whole`` columns, part on one more
    cuts = [(cols, *divmod(s.numerator * (ds // s.denominator), ds)) for cols, s in blocks]

    def oracle(c):
        """min of <c, h·x> over the slice, the preimage of an argmin times
        ds, and whether that argmin is the only one."""
        vals = column_dots(c, rows_l, nc)
        y = [0] * nc
        unique = True
        for cols, whole, part in cuts:
            order = sorted(cols, key=vals.__getitem__)  # stable: ties by column
            for j in order[:whole]:
                y[j] = ds
            if part:
                y[order[whole]] = part
            for a, b in zip(order, order[1:]):
                if y[a] != y[b] and vals[a] == vals[b]:
                    unique &= len({columns[j] for j in cols if vals[j] == vals[a]}) == 1
        return sum(map(mul, vals, y)), y, unique

    for l in lineality:
        if oracle(l)[0] != -oracle([-x for x in l])[0]:
            raise ChamberCertificateError(f"the lineality direction {l} is not constant")
    low: dict[tuple, int] = {}  # the minimum of each chamber normal
    found: dict[tuple, list[int]] = {}  # h·w -> its preimage
    for chamber in chambers:
        _, pre, unique = oracle([sum(x) for x in zip(*chamber)])
        if not unique:
            raise ChamberCertificateError(f"the chamber {chamber} has no unique minimum")
        arg = tuple(sum(map(mul, r, pre)) for r in rows_l)
        for nu in chamber:
            if nu not in low:
                low[nu] = oracle(nu)[0]
            if dot(nu, arg) != low[nu]:
                raise ChamberCertificateError(f"the normal {nu} of {chamber} is not tight")
        found.setdefault(arg, pre)
    for arg, pre in found.items():
        if not corner_box(tuple(y // ds for y in pre), tuple(-(-y // ds) for y in pre)):
            raise InnerCertificateError(f"the cube face through the preimage of {arg} / {h} "
                                        "has a point that is not a corner")
    return sorted(found), h, lambda c: oracle(c)[0]


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
    double-described from their generators."""
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
        for k in _argmins(column_dots(n, cols, len(verts)))[1]:
            through[k].append(n)
    if hull:
        cones = [Cone(d, t + hull) for t in through]
    else:
        cones = [Cone(d, _rays=tuple(sorted(t)), _lineality=()) for t in through]
    return Fan(d, cones, q.recession.dual())
