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
from typing import Callable, Iterable, Optional, Sequence

from .cones import Cone
from .linalg import Matrix, Vec, kernel_basis, solve_affine, vec
from .polyhedra import Facet, LatticePolyhedron, affine_slice


class EmptyQuotientError(ValueError):
    """The polytope slice P_b is empty, so the quotient does not split."""


class Linearization:
    """A subtorus projection α: M -> M_G plus a fractional shift b in M_G⊗Q."""

    __slots__ = ("alpha", "b", "_kernel", "_base")

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
        object.__setattr__(self, "_kernel", tuple(kernel_basis(alpha)))
        object.__setattr__(self, "_base", solve_affine(alpha, [-x for x in bb]))

    def __setattr__(self, *a):
        raise AttributeError("Linearization is immutable")

    def source_rank(self) -> int:
        return self.alpha.cols

    def kernel(self) -> list[tuple[int, ...]]:
        """HNF-reduced lattice basis of ker(alpha), computed once."""
        return list(self._kernel)

    def base_point(self) -> Vec:
        """Canonical rational solution of alpha·x = -b, computed once; alpha
        is surjective, so there is one."""
        return self._base


@dataclass(frozen=True)
class RayDatum:
    """Stability data of one recession-dual extreme ray."""

    ray: tuple[int, ...]
    support_constant: Fraction
    margin: Fraction
    unstable: bool


def quotient_slice(p: LatticePolyhedron, lin: Linearization) -> LatticePolyhedron:
    """The slice P ∩ (α⊗R)^{-1}(-b), in ker(alpha) coordinates: the point
    y stands for base_point() + Σ y_i k_i over the kernel basis k."""
    if lin.source_rank() != p.ambient_rank:
        raise ValueError("alpha source rank must match the polyhedron ambient rank")
    return affine_slice(p, lin.base_point(), lin.kernel())


def quotient_polyhedron(p: LatticePolyhedron, lin: Linearization) -> LatticePolyhedron:
    """GIT quotient polyhedron in ker(alpha) coordinates (empty allowed)."""
    return quotient_slice(p, lin)


def kernel_cone(p: LatticePolyhedron, lin: Linearization) -> Cone:
    """σ̄^∨ = rec(P) ∩ ker(α)⊗R, the recession cone of P in the kernel
    directions, in ker(alpha) coordinates: the recession cone of the slice
    of rec(P), as a polyhedron, through 0."""
    d = p.ambient_rank
    rec = LatticePolyhedron(d, [(0,) * d], p.recession)
    return affine_slice(rec, (0,) * d, lin.kernel()).recession


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

    P_b is sliced from ``p.polytopal_part()`` as it stands: the slice reads
    only its H-representation, so the candidate points are double-described
    once, and no vertex of the polytope is enumerated first.
    """
    pb = quotient_slice(p.polytopal_part(), lin)
    if pb.is_empty():
        raise EmptyQuotientError("empty quotient")
    return pb, kernel_cone(p, lin)


def support_constants(facets: Iterable[Facet]) -> dict[tuple[int, ...], Fraction]:
    """d_v = min(0, o_v) for each facet row (v, o_v), v primitive.

    For a polyhedron p with a full-dimensional recession cone, the face of p
    minimising a recession-dual extreme ray v has recession cone rec ∩ v^⊥,
    a facet of rec, so it is a facet of p with normal v and offset
    o_v = min over p of <v, x>.  Given those rows, d_v = min(0, o_v) is read
    off them: no point of p is visited (``build_bundle`` keeps the product
    polyhedron's rows and lists none of its chart vertices)."""
    return {v: min(Fraction(0), o) for v, o in facets}


def unstable_rays(facets: Iterable[Facet], support: Optional[Callable], h: int) -> list[RayDatum]:
    """Margins min_{m in P_b} <v, m> - d_v for every facet row (v, o_v) of a
    polyhedron p whose normals v are the recession-dual extreme rays of p
    (``support_constants``).  P_b = conv(points of p) ∩ (α⊗R)^{-1}(-b), in
    the ambient coordinates of p, is given by its support function in int,
    support(v) = h·min <v, m> over P_b (None if P_b is empty), as
    ``polyhedra.cube_image_slice`` returns it.  The minimum over P_b is the
    margin because d_v <= 0 and <v, ·> >= 0 on the kernel cone.  Each margin
    is one support call, with no vertex of P_b visited, and for d_v = p/q it
    is (q·support(v) - p·h) / (q·h), the only Fraction built."""
    if support is None:
        raise EmptyQuotientError("empty quotient")
    out = []
    for v, dv in sorted(support_constants(facets).items()):
        num = support(v) * dv.denominator - dv.numerator * h
        out.append(RayDatum(ray=v, support_constant=dv, margin=Fraction(num, dv.denominator * h),
                            unstable=num > 0))
    return out
