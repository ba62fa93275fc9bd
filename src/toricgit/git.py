"""Subtorus actions on semi-projective toric data: fractional linearizations,
quotient polyhedra, divisor support constants, unstable rays, and chart-level
invariant monomials.

The quotient of the polyhedron P by the linearization (α, b) is the slice
P ∩ (α ⊗ R)^{-1}(-b), expressed in the HNF-reduced lattice basis of ker(α)
relative to the canonical particular solution of α·x = -b.  Fractional b is
handled directly on rational polyhedra; no Veronese truncation is ever
materialized, since slicing is scale-compatible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import dd
from .cones import Cone, image_cone
from .linalg import (Matrix, Vec, clear_denominators, dot, invert, kernel_basis,
                     scaled_primitive, solve_affine, solve_unique, vec, vsub)
from .polyhedra import LatticePolyhedron, affine_slice


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
    assert x0 is not None
    verts = [solve_unique(kmat, vsub(v, x0)) for v in ambient_poly.vertex_candidates]
    rays = [scaled_primitive(solve_unique(kmat, r)) for r in ambient_poly.recession.rays]
    out = LatticePolyhedron(k, verts, Cone(k, rays))
    return out.canonicalize()


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
    lin_b, rays = dd.cone_from_inequalities(cons, k)
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
    """
    poly_slice = quotient_slice(p.polytopal_part().canonicalize(), lin)
    if poly_slice.is_empty():
        raise EmptyQuotientError("empty quotient")
    return _to_kernel_coords(lin, poly_slice), kernel_cone(p, lin)


def support_constants(p: LatticePolyhedron) -> dict[tuple[int, ...], Fraction]:
    """d_v = min(0, min over candidate points of <v, point>), per recession-dual
    extreme ray v.  The minimum of a linear functional over the hull equals the
    minimum over any generating point set, so p need not be canonicalized.

    The points are scaled once to integer vectors over one common
    denominator, so every inner product is an int; only the minimum becomes
    a Fraction."""
    n = len(p.vertex_candidates)
    flat, den = clear_denominators([x for pt in p.vertex_candidates for x in pt])
    d = p.ambient_rank
    pts = [flat[i * d:(i + 1) * d] for i in range(n)]
    out = {}
    for v in p.recession.dual().rays:
        m = min((sum(a * b for a, b in zip(v, pt)) for pt in pts), default=0)
        out[v] = Fraction(min(0, m), den)
    return out


def unstable_rays(p: LatticePolyhedron, lin: Linearization) -> list[RayDatum]:
    """Margins min_{m in P_b} <v, m> - d_v for every recession-dual extreme ray.

    The margin is computed over the vertices of the polytope slice P_b only;
    this is valid because d_v <= 0 and <v, ·> >= 0 on the kernel cone, so the
    recession part of the quotient cannot lower the minimum.
    """
    poly_slice = quotient_slice(p.polytopal_part().canonicalize(), lin)
    if poly_slice.is_empty():
        raise EmptyQuotientError("empty quotient")
    consts = support_constants(p)
    out = []
    for v, dv in sorted(consts.items()):
        margin = min(dot(v, m) for m in poly_slice.vertex_candidates) - dv
        out.append(RayDatum(ray=v, support_constant=dv, margin=margin,
                            unstable=margin > 0))
    return out


def chart_invariants(chart_dual: Cone, proj: Matrix
                     ) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Invariant monomials of an affine chart under the subtorus action.

    ``chart_dual`` is the monomial cone of the chart (inside M); ``proj`` is
    the quotient projection on the dual side N -> N'.  The generators of the
    image cone's dual are lifted through proj^T into M and expressed in the
    chart's coordinate monomials.  Returns [(exponent vector in M, exponent
    vector over chart coordinates)], ordered by the canonical (sorted) ray
    order of the quotient chart cone's dual.
    """
    chart = chart_dual.dual()
    if proj.cols != chart.ambient_rank:
        raise ValueError("projection source must match chart ambient rank")
    image = image_cone(proj, chart)
    gens = image.dual().rays
    # chart coordinates: the given monomial generators must form a lattice
    # basis so that exponents are unique integers (exponents in their order)
    wmat = Matrix.from_columns(chart_dual.generators)
    if wmat.rows != wmat.cols or wmat.rank() != wmat.rows:
        raise ValueError("chart monomial cone must be simplicial of full rank")
    winv = invert(wmat)
    out = []
    pt = proj.transpose()
    for g in gens:
        m = pt @ g
        expo = winv @ m
        if any(x.denominator != 1 or x < 0 for x in expo):
            raise ValueError(f"lift {m} is not in the chart semigroup")
        out.append((tuple(int(x) for x in m), tuple(int(x) for x in expo)))
    return out
