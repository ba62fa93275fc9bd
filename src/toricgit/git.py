"""Subtorus actions on semi-projective toric data: fractional linearizations,
quotient polyhedra, divisor support constants and unstable rays.

The quotient of the polyhedron P by the linearization (α, b) is the slice
P ∩ (α ⊗ R)^{-1}(-b), expressed in the HNF-reduced lattice basis of ker(α)
relative to the canonical particular solution of α·x = -b.  Fractional b is
handled directly on rational polyhedra; no Veronese truncation is ever
materialized, since slicing is scale-compatible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import dd
from .cones import Cone
from .linalg import (Matrix, Vec, dot, kernel_basis, scaled_primitive, solve_affine,
                     solve_unique, vec, vsub)
from .polyhedra import Facet, LatticePolyhedron, affine_slice, point_minima


class EmptyQuotientError(ValueError):
    """The polytope slice P_b is empty, so the quotient does not split."""


class Linearization:
    """A subtorus projection α: M -> M_G plus a fractional shift b in M_G⊗Q."""

    __slots__ = ("alpha", "b")

    def __init__(self, alpha: Matrix, b: Sequence):
        if not alpha.is_integral():
            raise ValueError("alpha must be an integer matrix")
        if alpha.rank() != alpha.rows:
            raise ValueError("alpha must be surjective over Q")
        bb = vec(b)
        if len(bb) != alpha.rows:
            raise ValueError("b must live in the target of alpha")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "b", bb)

    def __setattr__(self, *a):
        raise AttributeError("Linearization is immutable")

    def source_rank(self) -> int:
        return self.alpha.cols

    def kernel(self) -> list[tuple[int, ...]]:
        """HNF-reduced lattice basis of ker(alpha)."""
        return kernel_basis(self.alpha)

    def base_point(self) -> Optional[Vec]:
        """Canonical rational solution of alpha·x = -b (None if inconsistent)."""
        sol = solve_affine(self.alpha, [-x for x in self.b])
        return None if sol is None else sol.point


@dataclass(frozen=True)
class RayDatum:
    """Stability data of one recession-dual extreme ray."""

    ray: tuple[int, ...]
    support_constant: Fraction
    margin: Fraction
    unstable: bool


def _to_kernel_coords(lin: Linearization, ambient_poly: LatticePolyhedron) -> LatticePolyhedron:
    """Rewrite a polyhedron inside the slice in ker(alpha) coordinates."""
    if ambient_poly.is_empty():
        return LatticePolyhedron(len(lin.kernel())).canonicalize()
    kern = lin.kernel()
    k = len(kern)
    kmat = Matrix(kern).transpose()  # columns = kernel basis
    x0 = lin.base_point()
    if x0 is None:
        raise AssertionError("a nonempty slice must have a base point")
    verts = [solve_unique(kmat, vsub(v, x0)) for v in ambient_poly.vertex_candidates]
    rays = [scaled_primitive(solve_unique(kmat, r)) for r in ambient_poly.recession.rays]
    return LatticePolyhedron(k, verts, Cone(k, rays)).canonicalize()


def quotient_slice(p: LatticePolyhedron, lin: Linearization) -> LatticePolyhedron:
    """The slice P ∩ (α⊗R)^{-1}(-b), in ambient coordinates."""
    if lin.source_rank() != p.ambient_rank:
        raise ValueError("alpha source rank must match the polyhedron ambient rank")
    return affine_slice(p, lin.alpha, [-x for x in lin.b])


def quotient_polyhedron(p: LatticePolyhedron, lin: Linearization) -> LatticePolyhedron:
    """GIT quotient polyhedron in ker(alpha) coordinates (empty allowed)."""
    return _to_kernel_coords(lin, quotient_slice(p, lin))


def kernel_cone(p: LatticePolyhedron, lin: Linearization) -> Cone:
    """σ̄^∨ = rec(P)^... the recession dual-side cone rec(P) ∩ ker(α)⊗R,
    in ker(alpha) coordinates."""
    kern = lin.kernel()
    k = len(kern)
    # rec(P) = {x : <v, x> >= 0 for v in dual generators}; restrict to x = K·y
    rec_dual = p.recession.dual()
    cons = []
    for v in list(rec_dual.rays) + list(rec_dual.lineality_basis):
        row = tuple(dot(v, b) for b in kern)
        cons.append(tuple(int(x) for x in row))
        if v in rec_dual.lineality_basis:
            cons.append(tuple(-int(x) for x in row))
    lin_b, rays, _ = dd.cone_from_inequalities(cons, k)
    return Cone(k, list(rays) + list(lin_b) + [tuple(-x for x in l) for l in lin_b])


def split_quotient(p: LatticePolyhedron, lin: Linearization
                   ) -> tuple[LatticePolyhedron, Cone]:
    """(P_b, σ̄^∨): the polytope slice and the kernel part of the recession.

    P_b = conv(candidate points of p) ∩ (α⊗R)^{-1}(-b) and
    σ̄^∨ = rec(p) ∩ ker(α)⊗R, both in ker(alpha) coordinates.  Their
    Minkowski sum must reproduce quotient_polyhedron(p, lin); the two sides
    are computed along independent routes, so the identity is a real check.
    The split is a theorem about this package's families, not about every
    input: when conv(points) misses the slice, EmptyQuotientError is raised
    even if the quotient itself is non-empty.

    P_b is sliced from the memoised ``p.polytopal_part()`` as it stands:
    the slice reads only its H-representation, so its vertices are never
    enumerated, and the one double description is shared with every other
    slice of the same polytope.
    """
    poly_slice = quotient_slice(p.polytopal_part(), lin)
    if poly_slice.is_empty():
        raise EmptyQuotientError("empty quotient")
    return _to_kernel_coords(lin, poly_slice), kernel_cone(p, lin)


def support_constants(facets: Iterable[Facet]) -> dict[tuple[int, ...], Fraction]:
    """d_v = min(0, o_v) for each facet row (v, o_v), v primitive.

    For a polyhedron p with a full-dimensional recession cone, the face of p
    minimising a recession-dual extreme ray v has recession cone rec ∩ v^⊥,
    a facet of rec, so it is a facet of p with normal v and offset
    o_v = min over p of <v, x>.  Given those rows, d_v = min(0, o_v) is read
    off them: no point of p is visited (``build_bundle`` keeps the product
    polyhedron's rows and lists none of its chart vertices)."""
    return {v: min(Fraction(0), o) for v, o in facets}


def unstable_rays(facets: Iterable[Facet], pb: LatticePolyhedron) -> list[RayDatum]:
    """Margins min_{m in P_b} <v, m> - d_v for every facet row (v, o_v) of a
    polyhedron p whose normals v are the recession-dual extreme rays of p
    (``support_constants``), where ``pb`` is the polytope slice P_b of p (as
    from ``quotient_slice(p.polytopal_part(), lin)``), in ambient
    coordinates.

    The margin is computed over the candidate points of P_b only; this is
    valid because d_v <= 0 and <v, ·> >= 0 on the kernel cone, so the
    recession part of the quotient cannot lower the minimum.

    The minima over the points of P_b are taken in int (``point_minima``).
    """
    if pb.is_empty():
        raise EmptyQuotientError("empty quotient")
    consts = sorted(support_constants(facets).items())
    if any(len(v) != pb.ambient_rank for v, _ in consts):
        raise ValueError("P_b must live in the ambient space of the polyhedron")
    lows = point_minima(pb.vertex_candidates, [v for v, _ in consts])
    return [RayDatum(ray=v, support_constant=dv, margin=low - dv, unstable=low > dv)
            for (v, dv), low in zip(consts, lows)]
