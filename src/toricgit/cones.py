"""Rational polyhedral cones with canonical V- and H-representations.

A `Cone` is stored by integer generators; the canonical form (lineality
basis in row-HNF, sorted primitive extreme rays, sorted facet normals) is
computed once through the double description method and cached, the extreme
rays read off its facet-generator incidence.  Cones are immutable values;
equality means equality of canonical forms.

Non-strongly-convex cones are supported: the lineality space is split off
first and extreme rays are canonical representatives modulo it.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable, Optional, Sequence

from . import dd
from .linalg import (IntVec, Matrix, abs_det, dot, elementary_divisors, kernel_basis,
                     primitive, rank, scaled_primitive)


class Cone:
    """Finitely generated rational polyhedral cone."""

    __slots__ = ("ambient_rank", "generators", "_lineality", "_rays", "_facets",
                 "_equations", "_incidence")

    def __init__(self, ambient_rank: int, generators: Optional[Iterable[Sequence]] = None,
                 _facets=None, _lineality=None, _rays=None, _equations=None):
        # given by ``_rays`` alone, which are primitive, distinct and sorted: the generators
        gens = _rays or ()
        if generators is not None:
            gens = {}  # distinct, in order
            for g in generators:
                g = scaled_primitive(g)
                if len(g) != ambient_rank:
                    raise ValueError("generator has wrong dimension")
                if any(g):
                    gens[g] = None
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_facets", _facets)
        object.__setattr__(self, "_lineality", _lineality)
        object.__setattr__(self, "_rays", _rays)
        object.__setattr__(self, "_equations", _equations)
        object.__setattr__(self, "_incidence", None)

    def __setattr__(self, *a):
        raise AttributeError("Cone is immutable")

    # -- representations ----------------------------------------------------

    def _compute_h_rep(self) -> None:
        if self._facets is not None and self._equations is not None:
            return
        # the dual cone's lineality spans the equations, its rays are the
        # facets, and the generators on each are kept until _compute_v_rep
        d = self.ambient_rank
        if self.generators:
            eqs, facets, incidence = dd.cone_from_inequalities(self.generators, d)
        else:  # {0}: no facets, and every unit vector is an equation
            eqs = [tuple(int(i == j) for j in range(d)) for i in range(d)]
            facets, incidence = [], []
        object.__setattr__(self, "_equations", tuple(sorted(eqs)))
        object.__setattr__(self, "_facets", tuple(facets))
        object.__setattr__(self, "_incidence", incidence)

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
        d = self.ambient_rank
        lin = kernel_basis(Matrix(self._facets + self._equations or [[0] * d]))
        # reduce generators modulo the lineality space, canonically via HNF
        # pivots, in int: x <- p*x - x[pc]*row with the pivot p > 0 keeps the ray
        reduced = []
        pivots = [next(j for j, x in enumerate(row) if x != 0) for row in lin]
        for g in self.generators:
            x = g
            for row, pc in zip(lin, pivots):
                c = x[pc]
                if c != 0:
                    p = row[pc]
                    x = [p * a - c * b for a, b in zip(x, row)]
            if any(v != 0 for v in x):  # without lineality x is g, primitive already
                reduced.append(primitive(x) if lin else x)
        reduced = list(dict.fromkeys(reduced))
        # without lineality the reduced generators are the generators
        incidence = self._incidence
        if incidence is None or lin:  # per facet, the bitmask of the generators on it
            cols = list(zip(*reduced))
            incidence = [sum(1 << i for i, v in enumerate(column_dots(f, cols, len(reduced)))
                             if v == 0) for f in self._facets]
        idx = dd.extreme_generators(reduced, incidence)
        object.__setattr__(self, "_incidence", None)
        object.__setattr__(self, "_lineality", tuple(lin))
        object.__setattr__(self, "_rays", tuple(sorted(reduced[i] for i in idx)))

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
        """Cone regenerated from its canonical minimal generator set; the cone
        itself when it has no lineality and its generators are its rays."""
        if not self.lineality_basis and self.generators == self.rays:
            return self
        gens = list(self.rays) + [l for l in self.lineality_basis] + \
               [tuple(-x for x in l) for l in self.lineality_basis]
        return Cone(self.ambient_rank, gens, _facets=self.facets,
                    _lineality=self.lineality_basis, _rays=self.rays,
                    _equations=self.equations)

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
        """{m : <m, v> >= 0 on the cone}; for a full-dimensional pointed cone its rays are
        the facets and its facets the rays (polarity: Ziegler, *Lectures on Polytopes*,
        §2.3), else it is double-described from the facet normals and ± the equations."""
        if not self.equations and not self.lineality_basis:
            return Cone(self.ambient_rank, _rays=tuple(sorted(self.facets)), _lineality=(),
                        _facets=self.rays, _equations=())
        gens = list(self.facets) + list(self.equations) + \
            [tuple(-x for x in e) for e in self.equations]
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
        """Extreme rays extend to a Z-basis: d rays iff their determinant is
        ±1, fewer iff they are independent with elementary divisors 1."""
        if not self.is_pointed():
            raise ValueError("smoothness is defined for strongly convex cones")
        rays = self.rays
        if not rays:
            return True
        if len(rays) == self.ambient_rank:
            return abs_det(rays) == 1
        if rank(rays) != len(rays):
            return False  # not simplicial
        return all(d == 1 for d in elementary_divisors(Matrix(rays)))


def column_dots(f: Sequence[int], cols: Sequence[Sequence[int]], count: int) -> list[int]:
    """<f, g> for the ``count`` integer vectors g whose columns are ``cols``,
    summed column by column over the nonzeros of f."""
    vals = [0] * count
    for c, col in zip(f, cols):
        if c == -1:
            vals = list(map(sub, vals, col))
        elif c:
            vals = list(map(add, vals, col if c == 1 else [c * x for x in col]))
    return vals


def image_cone(f: Matrix, c: Cone) -> Cone:
    """Image of a cone under a lattice map, canonicalized."""
    if f.cols != c.ambient_rank:
        raise ValueError("dimension mismatch")
    gens = [f @ g for g in c.generators]
    gens += [f @ l for l in c.lineality_basis]
    gens += [tuple(-x for x in (f @ l)) for l in c.lineality_basis]
    return Cone(f.rows, gens)
