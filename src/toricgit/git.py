"""Subtorus actions on semi-projective toric data: fractional linearizations,
quotient polyhedra Q and their split Q = P_b + σ̄^∨, checked (σ̄^∨ is read off
Q), divisor support constants and unstable rays.

The quotient of the polyhedron P by the linearization (α, b) is the slice
P ∩ (α ⊗ R)^{-1}(-b), expressed in the HNF-reduced lattice basis of ker(α)
relative to the canonical particular solution of α·x = -b.  Fractional b is
handled directly on rational polyhedra; no Veronese truncation is ever
materialized, since slicing is scale-compatible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .cones import Cone
from .linalg import Matrix, Vec, kernel_basis, solve_affine, vec
from .polyhedra import Facet, LatticePolyhedron, affine_slice


class EmptyQuotientError(ValueError):
    """The slice polytope P_b is empty, so ``unstable_rays`` has no margin."""


class Linearization:
    """A subtorus projection α: M -> M_G, an integer ``Matrix``, plus a
    fractional shift b in M_G⊗Q."""

    __slots__ = ("alpha", "b", "_kernel", "_base")

    def __init__(self, alpha: Matrix, b: Sequence):
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


class RayDatum(NamedTuple):
    """Stability data of one recession-dual extreme ray."""

    ray: tuple[int, ...]
    support_constant: int
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


def split_quotient(p: LatticePolyhedron, lin: Linearization, q: LatticePolyhedron
                   ) -> Optional[tuple[LatticePolyhedron, Cone]]:
    """(P_b, σ̄^∨) when Q = P_b + σ̄^∨, as on this package's families, else None.

    Q = quotient_polyhedron(p, lin) ≠ ∅ and P_b = conv(candidate points of p)
    ∩ (α⊗R)^{-1}(-b), sliced from ``p.polytopal_part()``, in ker(alpha)
    coordinates.  P_b ⊆ Q, as conv(points) ⊆ P, and rec Q = rec P ∩ ker α =
    σ̄^∨ as Q ≠ ∅ (Rockafellar, *Convex Analysis*, Cor. 8.3.3).  A vertex
    v = x + r of P_b + rec Q (x ∈ P_b, r ∈ rec Q) has r = 0, else it is the
    midpoint of x and v + r; and Q = conv(vert Q) + rec Q.  So Q = P_b + σ̄^∨
    iff vert Q ⊆ P_b iff vert Q ⊆ vert P_b: a set containment of canonical
    vertex lists in one basis.  An empty P_b gives None.
    """
    pb = quotient_slice(p.polytopal_part(), lin)
    if pb.is_empty() or not set(q.vertex_candidates) <= set(pb.vertex_candidates):
        return None
    return pb, q.recession


def support_constants(facets: Iterable[Facet]) -> dict[tuple[int, ...], int]:
    """d_v = min(0, o_v) for each facet row (v, o_v), v primitive.

    For a polyhedron p with a full-dimensional recession cone, the face of p
    minimising a recession-dual extreme ray v has recession cone rec ∩ v^⊥,
    a facet of rec, so it is a facet of p with normal v and offset
    o_v = min over p of <v, x>.  So d_v = min(0, o_v) is read off those rows,
    and no point of p is visited."""
    return {v: min(0, o) for v, o in facets}


def unstable_rays(facets: Iterable[Facet], support: Optional[Callable], h: int) -> list[RayDatum]:
    """Margins min_{m in P_b} <v, m> - d_v for every facet row (v, o_v) of a
    polyhedron p whose normals v are the recession-dual extreme rays of p
    (``support_constants``).  P_b = conv(points of p) ∩ (α⊗R)^{-1}(-b), in
    the ambient coordinates of p, is given by its support function in int,
    support(v) = h·min <v, m> over P_b (None if P_b is empty), as
    ``polyhedra.cube_image_slice`` returns it.  The minimum over P_b is the
    margin because d_v <= 0 and <v, ·> >= 0 on the kernel cone.  Each margin
    is one support call, with no vertex of P_b visited: it is
    (support(v) - d_v·h) / h, the only Fraction built, and exact for a
    rational d_v too."""
    if support is None:
        raise EmptyQuotientError("empty quotient")
    out = []
    for v, dv in sorted(support_constants(facets).items()):
        margin = Fraction(support(v) - dv * h, h)
        out.append(RayDatum(ray=v, support_constant=dv, margin=margin, unstable=margin > 0))
    return out
