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
no output.

All vectors are integer tuples; new rays are reduced to primitive vectors
immediately, which keeps coefficient growth under control.
"""

from __future__ import annotations

from typing import Sequence

from .linalg import IntVec, primitive, rank


def _as_int_vec(v: Sequence) -> IntVec:
    return tuple(int(x) for x in v)


def cone_from_inequalities(constraints: Sequence[Sequence[int]], ambient: int,
                           sort_constraints: bool = True) -> tuple[list[IntVec], list[IntVec]]:
    """Minimal V-rep of the cone cut out by homogeneous inequalities.

    Returns (lineality_basis, extreme_rays).  The lineality basis spans
    C ∩ -C; the rays are primitive, pairwise non-proportional, and extreme
    modulo the lineality space.  For ambient == 0 returns ([], []).
    """
    cons = [_as_int_vec(c) for c in constraints if any(x != 0 for x in c)]
    if sort_constraints:
        cons = sorted(set(cons))
    if ambient == 0:
        return [], []

    lineality: list[IntVec] = [tuple(1 if i == j else 0 for j in range(ambient))
                               for i in range(ambient)]
    rays: list[IntVec] = []
    active: list[int] = []  # bitmask over processed constraint indices
    nproc = 0

    for a in cons:
        vals_lin = [sum(x * y for x, y in zip(a, l)) for l in lineality]
        pivot = next((i for i, v in enumerate(vals_lin) if v != 0), None)
        if pivot is not None:
            # constraint cuts the lineality space: split off one ray
            l0 = lineality[pivot]
            v0 = vals_lin[pivot]
            if v0 < 0:
                l0 = tuple(-x for x in l0)
                v0 = -v0
            new_lin = []
            for i, l in enumerate(lineality):
                if i == pivot:
                    continue
                vl = vals_lin[i]
                if vl == 0:
                    new_lin.append(l)
                else:
                    new_lin.append(primitive(tuple(v0 * x - vl * y for x, y in zip(l, l0))))
            new_rays = []
            new_active = []
            for r, msk in zip(rays, active):
                vr = sum(x * y for x, y in zip(a, r))
                if vr == 0:
                    new_rays.append(r)
                else:
                    new_rays.append(primitive(tuple(v0 * x - vr * y for x, y in zip(r, l0))))
                new_active.append(msk | (1 << nproc))  # projected rays lie on a = 0
            lineality = new_lin
            rays = new_rays
            active = new_active
            # previous constraints vanish on l0, so the new ray is active on all of them
            rays.append(l0)
            active.append((1 << nproc) - 1)
            nproc += 1
            continue

        vals = [sum(x * y for x, y in zip(a, r)) for r in rays]
        if all(v >= 0 for v in vals):
            for i, v in enumerate(vals):
                if v == 0:
                    active[i] |= 1 << nproc
            nproc += 1
            continue

        pos = [i for i, v in enumerate(vals) if v > 0]
        zer = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]

        keep_rays = [rays[i] for i in pos + zer]
        keep_active = [active[i] for i in pos] + [active[i] | (1 << nproc) for i in zer]

        # candidate adjacent (pos, neg) pairs
        all_masks = active
        need = ambient - len(lineality) - 2
        for ip in pos:
            mi = active[ip]
            for im in neg:
                common = mi & active[im]
                if common.bit_count() < need:
                    continue
                # combinatorial adjacency: no third ray's active set contains 'common'
                adjacent = True
                for k, mk in enumerate(all_masks):
                    if k != ip and k != im and (common & ~mk) == 0:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                vp, vm = vals[ip], vals[im]
                new_r = primitive(tuple(vp * x - vm * y
                                        for x, y in zip(rays[im], rays[ip])))
                keep_rays.append(new_r)
                keep_active.append(common | (1 << nproc))
        rays = keep_rays
        active = keep_active
        nproc += 1

    rays_sorted = sorted(set(rays))
    return lineality, rays_sorted


def dual_rays(generators: Sequence[Sequence[int]], ambient: int) -> tuple[list[IntVec], list[IntVec]]:
    """V-rep of the dual cone {φ : <φ, g> >= 0 for all generators g}.

    Read the other way round it is the H-rep of cone(generators): the
    lineality basis spans the equations of its linear hull, and the rays are
    its inward facet normals.
    """
    return cone_from_inequalities(generators, ambient)


def extreme_generators(generators: Sequence[Sequence[int]], ambient: int,
                       equations: Sequence[IntVec], facets: Sequence[IntVec]) -> list[int]:
    """Indices of generators that are extreme rays of the cone.

    Assumes the cone is pointed (no lineality).  A nonzero generator is
    extreme iff the minimal face containing it is one-dimensional, i.e. iff
    the facet normals active at it together with all equations have rank
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
