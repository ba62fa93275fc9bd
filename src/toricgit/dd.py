"""Double description method over exact integer arithmetic.

``cone_from_inequalities`` computes the minimal V-representation
(lineality basis + extreme rays) of ``{x : <a, x> >= 0 for all a}``.
Constraints are inserted one at a time in a fixed (lexicographic) order, so
results are deterministic.  Adjacency of rays is decided by the standard
combinatorial test on active sets, kept as int bitmasks (Fukuda & Prodon,
"Double description method revisited", 1996).  A pair is first prefiltered
by the necessary condition that two adjacent rays share at least
``ambient - dim(lineality) - 2`` active constraints (the codimension of the
2-face they span); only pairs that pass it pay for the containment scan over
all other rays.  The prefilter rejects only non-adjacent pairs, so it changes
no output.  The active sets stay exact (a new ray vanishes on a constraint
iff both its parents do) and live only inside the method: it returns the
lineality basis and the rays, nothing else.

``extreme_generators`` decides which generators of a cone are extreme from a
facet-generator incidence alone; the caller (``cones.Cone``) builds that
incidence.

All vectors are integer tuples; new rays are reduced to primitive vectors
immediately, which keeps coefficient growth under control.
"""

from __future__ import annotations

from itertools import compress
from operator import mul
from typing import Sequence

from .linalg import IntVec, primitive


def cone_from_inequalities(constraints: Sequence[Sequence[int]], ambient: int
                           ) -> tuple[list[IntVec], list[IntVec]]:
    """Minimal V-rep of the cone cut out by homogeneous inequalities.

    Returns (lineality_basis, extreme_rays).  The lineality basis spans
    C ∩ -C; the rays are primitive, pairwise non-proportional, sorted, and
    extreme modulo the lineality space.  Repeated constraints count once, and
    a zero constraint cuts nothing.  For ambient == 0 the cone is R^0 = {0},
    with no lineality and no ray: the result is ([], []).
    """
    cons = sorted({tuple(map(int, c)) for c in constraints})

    lineality: list[IntVec] = [tuple(1 if i == j else 0 for j in range(ambient))
                               for i in range(ambient)]
    rays: list[IntVec] = []
    active: list[int] = []  # bitmask over processed constraint indices

    for nproc, a in enumerate(cons):
        bit = 1 << nproc
        vals_lin = [sum(map(mul, a, l)) for l in lineality]
        pivot = next((i for i, v in enumerate(vals_lin) if v != 0), None)
        if pivot is not None:
            # the constraint cuts the lineality space: split off the ray l0, on
            # which all earlier constraints vanish, and project the rest to a = 0
            l0, v0 = lineality[pivot], vals_lin[pivot]
            if v0 < 0:
                l0, v0 = tuple(-x for x in l0), -v0
            lineality = [l if v == 0 else primitive(tuple(v0 * x - v * y for x, y in zip(l, l0)))
                         for i, (l, v) in enumerate(zip(lineality, vals_lin)) if i != pivot]
            rays = [r if v == 0 else primitive(tuple(v0 * x - v * y for x, y in zip(r, l0)))
                    for r, v in ((r, sum(map(mul, a, r))) for r in rays)] + [l0]
            active = [m | bit for m in active] + [bit - 1]
            continue

        vals = [sum(map(mul, a, r)) for r in rays]
        if all(v >= 0 for v in vals):
            active = [m | bit if v == 0 else m for m, v in zip(active, vals)]
            continue

        pos = [i for i, v in enumerate(vals) if v > 0]
        zer = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        keep_rays = [rays[i] for i in pos + zer]
        keep_active = [active[i] for i in pos] + [active[i] | bit for i in zer]
        need = ambient - len(lineality) - 2
        for ip in pos:
            for im in neg:
                common = active[ip] & active[im]
                if common.bit_count() < need:
                    continue
                # combinatorial adjacency: no third ray's active set contains 'common'
                for k, mk in enumerate(active):
                    if (common & ~mk) == 0 and k != ip and k != im:
                        break
                else:
                    vp, vm = vals[ip], vals[im]
                    keep_rays.append(primitive(tuple(vp * x - vm * y
                                                     for x, y in zip(rays[im], rays[ip]))))
                    keep_active.append(common | bit)
        rays, active = keep_rays, keep_active

    return lineality, sorted(rays)


def extreme_generators(generators: Sequence[Sequence[int]],
                       incidence: Sequence[int]) -> list[int]:
    """Indices of the generators that are extreme rays of the cone they span.

    ``generators`` are nonzero and pairwise distinct modulo the cone's
    lineality, none in it; ``incidence`` lists, for each facet, the bitmask
    of the generators on it.  The minimal face through g_i is the
    intersection of the facets containing g_i (Ziegler, *Lectures on
    Polytopes*, §2), and a face is spanned by the generators it contains, so
    g_i spans a ray of the cone iff the AND of those facets' masks is
    exactly {i}.  No dot product and no rank is taken.
    """
    face = [(1 << len(generators)) - 1] * len(generators)
    for m in incidence:
        for i in set_bits(m):
            face[i] &= m
    return [i for i, f in enumerate(face) if f == 1 << i]


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def set_bits(m: int) -> list[int]:
    """The indices of the set bits of m, ascending: m's binary digits, low
    first, as 0/1 bytes select from the indices."""
    digits = bin(m)[:1:-1].encode().translate(_BIT_BYTES)
    return list(compress(range(len(digits)), digits))
