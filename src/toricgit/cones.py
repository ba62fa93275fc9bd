"""Rational polyhedral cones with canonical V- and H-representations.

A `Cone` is stored by integer generators; the canonical form (lineality
basis in row-HNF, sorted primitive extreme rays, sorted facet normals) is
computed once through the double description method and cached.  Cones are
immutable values; equality means equality of canonical forms.

Non-strongly-convex cones are supported: the lineality space is split off
first and extreme rays are canonical representatives modulo it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from . import dd
from .linalg import (IntVec, Matrix, dot, elementary_divisors, is_zero_vec,
                     kernel_basis, rank, scaled_primitive)


class Cone:
    """Finitely generated rational polyhedral cone."""

    __slots__ = ("ambient_rank", "generators", "_lineality", "_rays", "_facets",
                 "_equations", "_canonical")

    def __init__(self, ambient_rank: int, generators: Iterable[Sequence] = (),
                 _facets=None, _lineality=None, _rays=None, _equations=None):
        gens = []
        for g in generators:
            g = scaled_primitive(g)
            if len(g) != ambient_rank:
                raise ValueError("generator has wrong dimension")
            if not is_zero_vec(g):
                gens.append(g)
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "generators", tuple(dict.fromkeys(gens)))
        object.__setattr__(self, "_facets", _facets)
        object.__setattr__(self, "_lineality", _lineality)
        object.__setattr__(self, "_rays", _rays)
        object.__setattr__(self, "_equations", _equations)
        object.__setattr__(self, "_canonical", None)

    def __setattr__(self, *a):
        raise AttributeError("Cone is immutable")

    # -- representations ----------------------------------------------------

    def _compute_h_rep(self) -> None:
        if self._facets is not None and self._equations is not None:
            return
        eqs, facets = dd.dual_rays(self.generators, self.ambient_rank)
        object.__setattr__(self, "_equations", tuple(sorted(eqs)))
        object.__setattr__(self, "_facets", tuple(sorted(facets)))

    @property
    def facets(self) -> tuple[IntVec, ...]:
        """Inward facet normals: x ∈ cone iff all <f,x> >= 0 and equations vanish."""
        self._compute_h_rep()
        return self._facets

    @property
    def equations(self) -> tuple[IntVec, ...]:
        """Normals of the affine hull: <e,x> = 0 on the cone."""
        self._compute_h_rep()
        return self._equations

    def _compute_v_rep(self) -> None:
        if self._lineality is not None and self._rays is not None:
            return
        self._compute_h_rep()
        lin = kernel_basis(Matrix(list(self._facets) + list(self._equations))) \
            if (self._facets or self._equations) else \
            kernel_basis(Matrix.zero(1, self.ambient_rank))
        d = self.ambient_rank
        if not self.generators:
            object.__setattr__(self, "_lineality", ())
            object.__setattr__(self, "_rays", ())
            return
        # reduce generators modulo the lineality space, canonically via HNF pivots
        reduced = []
        lin_rows = [tuple(map(Fraction, l)) for l in lin]
        pivots = []
        for row in lin_rows:
            pc = next(j for j, x in enumerate(row) if x != 0)
            pivots.append(pc)
        for g in self.generators:
            x = list(map(Fraction, g))
            for row, pc in zip(lin_rows, pivots):
                if x[pc] != 0:
                    f = x[pc] / row[pc]
                    x = [a - f * b for a, b in zip(x, row)]
            if any(v != 0 for v in x):
                reduced.append(scaled_primitive(x))
        reduced = list(dict.fromkeys(reduced))
        # extremeness: the minimal face containing g must be 1-dim mod lineality,
        # i.e. the active normals cut down to dimension len(lin) + 1
        rays = []
        for g in reduced:
            act = [f for f in self._facets if dot(f, g) == 0]
            if rank(list(self._equations) + act) == d - len(lin) - 1:
                rays.append(g)
        object.__setattr__(self, "_lineality", tuple(lin))
        object.__setattr__(self, "_rays", tuple(sorted(set(rays))))

    @property
    def lineality_basis(self) -> tuple[IntVec, ...]:
        self._compute_v_rep()
        return self._lineality

    @property
    def rays(self) -> tuple[IntVec, ...]:
        """Canonical extreme rays (modulo lineality), sorted."""
        self._compute_v_rep()
        return self._rays

    # -- operations ----------------------------------------------------------

    def canonical_form(self) -> "Cone":
        """Cone regenerated from its canonical minimal generator set."""
        gens = list(self.rays) + [l for l in self.lineality_basis] + \
               [tuple(-x for x in l) for l in self.lineality_basis]
        c = Cone(self.ambient_rank, gens)
        object.__setattr__(c, "_lineality", self.lineality_basis)
        object.__setattr__(c, "_rays", self.rays)
        object.__setattr__(c, "_facets", self.facets)
        object.__setattr__(c, "_equations", self.equations)
        return c

    def key(self) -> tuple:
        """Canonical equality key."""
        return (self.ambient_rank, self.rays, self.lineality_basis)

    def __eq__(self, other):
        return isinstance(other, Cone) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Cone(rank={self.ambient_rank}, rays={len(self.rays)}, lin={len(self.lineality_basis)})"

    def dual(self) -> "Cone":
        """{m : <m, v> >= 0 for every v in the cone}."""
        lin, rays = dd.dual_rays(self.generators, self.ambient_rank)
        gens = list(rays) + list(lin) + [tuple(-x for x in l) for l in lin]
        return Cone(self.ambient_rank, gens)

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        return all(dot(e, v) == 0 for e in self.equations) and \
               all(dot(f, v) >= 0 for f in self.facets)

    def relint_contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_rank:
            raise ValueError("dimension mismatch")
        return all(dot(e, v) == 0 for e in self.equations) and \
               all(dot(f, v) > 0 for f in self.facets)

    def is_pointed(self) -> bool:
        return not self.lineality_basis

    def dim(self) -> int:
        return self.ambient_rank - len(self.equations)

    def is_smooth(self) -> bool:
        """Extreme rays extend to a Z-basis (general case via SNF)."""
        if not self.is_pointed():
            raise ValueError("smoothness is defined for strongly convex cones")
        rays = self.rays
        if not rays:
            return True
        if rank(rays) != len(rays):
            return False  # not simplicial
        return all(d == 1 for d in elementary_divisors(Matrix(rays)))

    def intersection(self, other: "Cone") -> "Cone":
        if self.ambient_rank != other.ambient_rank:
            raise ValueError("dimension mismatch")
        cons = list(self.facets) + list(other.facets)
        for e in list(self.equations) + list(other.equations):
            cons.append(e)
            cons.append(tuple(-x for x in e))
        lin, rays = dd.cone_from_inequalities(cons, self.ambient_rank)
        return Cone(self.ambient_rank, list(rays) + list(lin) +
                    [tuple(-x for x in l) for l in lin])

    def facet_subcones(self) -> list["Cone"]:
        """The codimension-1 faces, as cones (for fan support checks)."""
        out = []
        for f in self.facets:
            gens = [r for r in self.rays if dot(f, r) == 0]
            gens += list(self.lineality_basis)
            gens += [tuple(-x for x in l) for l in self.lineality_basis]
            out.append(Cone(self.ambient_rank, gens))
        return out

    def is_face_of(self, other: "Cone") -> bool:
        """Is this cone a face of `other`?"""
        if self.ambient_rank != other.ambient_rank:
            return False
        gens = list(self.rays) + list(self.lineality_basis)
        if not all(other.contains(g) for g in gens) or \
           not all(other.contains(tuple(-x for x in l)) for l in self.lineality_basis):
            return False
        # normals of `other` vanishing on all of self cut out the face
        active = [f for f in other.facets if all(dot(f, g) == 0 for g in gens)]
        face_gens = [r for r in other.rays if all(dot(f, r) == 0 for f in active)]
        face_gens += list(other.lineality_basis)
        face_gens += [tuple(-x for x in l) for l in other.lineality_basis]
        return Cone(self.ambient_rank, face_gens) == self


def image_cone(f: Matrix, c: Cone) -> Cone:
    """Image of a cone under a lattice map, canonicalized."""
    if f.cols != c.ambient_rank:
        raise ValueError("dimension mismatch")
    gens = [f @ g for g in c.generators]
    gens += [f @ l for l in c.lineality_basis]
    gens += [tuple(-x for x in (f @ l)) for l in c.lineality_basis]
    return Cone(f.rows, [scaled_primitive(g) for g in gens if not is_zero_vec(g)])


def positive_orthant(d: int) -> Cone:
    return Cone(d, [tuple(1 if i == j else 0 for j in range(d)) for i in range(d)])
