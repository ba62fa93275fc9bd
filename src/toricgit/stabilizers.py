"""Combinatorics of semistable point configurations on degenerate fibers.

A configuration is a weighted 0-cycle on a chain fiber times an affine line:
every point sits on the punctured part of one chain component (a copy of C*),
with a position recorded exactly in the abelian group (Q/Z) ⊕ Z^m — a root of
unity times formal "generic" generators — an affine-line label compared only
for equality, and a positive multiplicity.  No floating point is used
anywhere; genericity is literal.

The three computations:

* ``torus_stabilizer``: the residual-torus stabilizer, a product of cyclic
  shift groups, one per interior chain component;
* ``project_to_quotient`` + ``sym_stabilizers``: the image point in the
  quotient chart, built in ``int`` from the slot rows over one common
  denominator, its symmetric-group stabilizer, the trivial-angle (Young)
  subgroup, and the quotient in invariant-factor form;
* ``verify_comparison``: the two sides must agree — this is the machine check
  of the stabilizer comparison underlying the isomorphism of the two
  degeneration models.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .groups import (CosetUnion, FiniteAbelianGroup, YoungSubgroup,
                     abelian_invariant_factors_of_group, compose, identity)
from .stab_backends import QuotientPoint, quotient_point, search_stabilizer


# ---------------------------------------------------------------------------
# values and configurations


@dataclass(frozen=True)
class UnitValue:
    """An element of the abelian group (Q/Z) ⊕ Z^m written additively.

    The root part k/r stands for the root of unity exp(2πik/r); the generic
    part is an exponent vector over formal generators with no relations.
    """

    root: Fraction = Fraction(0)            # reduced, in [0, 1)
    generic: tuple[int, ...] = ()

    def __post_init__(self):
        root = self.root
        if not isinstance(root, Fraction):
            if not isinstance(root, int):
                raise TypeError("a root must be an int or a Fraction, "
                                f"not {type(root).__name__}")
            root = Fraction(root)
        if not 0 <= root.numerator < root.denominator:
            root %= 1
        if root is not self.root:
            object.__setattr__(self, "root", root)


@dataclass(frozen=True)
class PointRecord:
    component: int          # index into the chain: 0, 1, ..., r
    position: UnitValue     # C*-coordinate on the punctured component
    a1_label: str           # affine-line coordinate, compared for equality only
    multiplicity: int

    def __post_init__(self):
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")


@dataclass(frozen=True)
class CycleConfiguration:
    """A semistable degree-n cycle on the fiber chain over a base point with
    zero set I_t: the multiplicities on each component sum to its fiber
    degree, which the constructor enforces, so no consumer checks it again.

    Every generic vector is padded with zeros to the longest one, so a
    position has one spelling and the duplicate check, which compares roots
    as (numerator, denominator), sees it."""

    n: int
    I_t: tuple[int, ...]
    points: tuple[PointRecord, ...]

    def __post_init__(self):
        m = max((len(p.position.generic) for p in self.points), default=0)
        if any(len(p.position.generic) < m for p in self.points):
            object.__setattr__(self, "points", tuple(
                PointRecord(p.component,
                            UnitValue(p.position.root,
                                      p.position.generic + (0,) * (m - len(p.position.generic))),
                            p.a1_label, p.multiplicity)
                for p in self.points))
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if list(self.I_t) != sorted(set(self.I_t)) or \
                any(not 1 <= i <= self.n + 1 for i in self.I_t):
            raise ValueError("I_t must be a strictly increasing subset of 1..n+1")
        points = self.points
        keys = {(p.component, p.position.root.numerator, p.position.root.denominator,
                 p.position.generic, p.a1_label) for p in points}
        if len(keys) < len(points):
            raise ValueError("duplicate (component, position, a1) record")
        r = len(self.I_t)
        if any(not 0 <= p.component <= r for p in points):
            raise ValueError("component index out of range for this I_t")
        totals = [0] * (r + 1)
        for p in points:
            totals[p.component] += p.multiplicity
        if totals != _degrees(self.n, self.I_t):  # they sum to n
            raise ValueError("configuration is not semistable: per-component "
                             "multiplicities must equal the fiber degrees")

    def components(self) -> list[list[PointRecord]]:
        r = len(self.I_t)
        out: list[list[PointRecord]] = [[] for _ in range(r + 1)]
        for p in self.points:
            out[p.component].append(p)
        return out


def fiber_degrees(n: int, I_t: Sequence[int]) -> list[int]:
    """Required cycle degree on each chain component.

    With I_t = {i_1 < ... < i_r} and the conventions i_0 = 1, i_{r+1} = n+1,
    the head component carries i_1 - 1 points and the component at i_l
    carries i_{l+1} - i_l.  The degrees always sum to n.
    """
    idx = sorted(set(I_t))
    if any(not 1 <= i <= n + 1 for i in idx):
        raise ValueError("I_t must be a subset of 1..n+1")
    return _degrees(n, idx)


def _degrees(n: int, idx: Sequence[int]) -> list[int]:
    """``fiber_degrees`` of an I_t already known to be strictly increasing
    inside 1..n+1."""
    ext = [1, *idx, n + 1]
    return [ext[1] - 1] + [b - a for a, b in zip(ext[1:], ext[2:])]


# ---------------------------------------------------------------------------
# torus side


def _component_shift_order(records: Sequence[PointRecord]) -> int:
    """Order of the cyclic group of shifts preserving the record multiset.

    A shift ρ ∈ Q/Z acts by adding ρ to every position's root part; it must
    permute the (position, a1, multiplicity) records.  A valid shift moves one
    root onto another, so it lies in (1/d)Z/Z for d the lcm of the root
    denominators: the roots and shifts are scaled by d and compared as ints
    modulo d.  The valid shifts form a finite cyclic subgroup of Q/Z; its
    order is returned.  A class with one root is fixed by the zero shift
    alone, so its component's order is 1.
    """
    if not records:
        raise ValueError("component carries no points")
    by_key: dict[tuple, list[Fraction]] = {}
    for p in records:
        by_key.setdefault((p.position.generic, p.a1_label, p.multiplicity),
                          []).append(p.position.root)
    if min(map(len, by_key.values())) == 1:
        return 1
    d = lcm(*(p.position.root.denominator for p in records))
    classes = [{root.numerator * (d // root.denominator) for root in roots}
               for roots in by_key.values()]
    smallest = min(classes, key=len)
    base = min(smallest)
    valid = [k for k in sorted((r - base) % d for r in smallest)
             if all({(r + k) % d for r in roots} == roots for roots in classes)]
    order = len(valid)
    if d % order or valid != list(range(0, d, d // order)):
        raise AssertionError("valid shifts must form a cyclic subgroup of Q/Z")
    return order


def _shift_orders(components: Sequence[Sequence[PointRecord]]) -> list[int]:
    """``_component_shift_order`` of each component, 1 for an empty one."""
    return [_component_shift_order(records) if records else 1 for records in components]


def torus_stabilizer(c: CycleConfiguration) -> FiniteAbelianGroup:
    """Product of the per-component shift groups over the interior components.

    Only the components strictly between the two ends contribute; the end
    components carry the affine-line structure and no residual torus factor.
    """
    return FiniteAbelianGroup.from_cyclic_orders(_shift_orders(c.components()[1:-1]))


# ---------------------------------------------------------------------------
# projection to the quotient chart


def _layout_component(records: list[PointRecord], order: int, denom: int
                      ) -> list[tuple[int, tuple[int, ...], str, int]]:
    """Slot order inside one component whose shift group has order ``order``,
    as one (root·denom, generic, a1 label, multiplicity) row per record;
    ``denom`` is a common denominator of the roots.

    Multiplicity classes descending, rows sorted inside each.  With order > 1
    this is the comparison-theorem layout: each class is split into
    shift-orbits, each orbit listed as base, base+ρ, base+2ρ, ... for
    ρ = 1/order, which scales to the int denom/order; repeated points of one
    record stay adjacent.  Order 1 keeps the sorted rows, which still keeps
    component blocks and descending multiplicity (any such order yields a
    conjugate stabilizer; tests assert that).
    """
    by_mult: dict[int, list[tuple]] = {}
    for p in records:
        root = p.position.root
        by_mult.setdefault(p.multiplicity, []).append(
            (root.numerator * (denom // root.denominator), p.position.generic,
             p.a1_label, p.multiplicity))
    step = denom // order
    out = []
    for mult in sorted(by_mult, reverse=True):
        cls = sorted(by_mult[mult])
        if order == 1:
            out += cls
            continue
        unplaced = {row[:3]: row for row in cls}
        for root, generic, label, _ in cls:
            if (root, generic, label) not in unplaced:
                continue
            for k in range(order):
                key = ((root + k * step) % denom, generic, label)
                if key not in unplaced:
                    raise AssertionError("shift orbit is not closed")
                out.append(unplaced.pop(key))
    return out


def project_to_quotient(c: CycleConfiguration) -> QuotientPoint:
    """Order the cycle into chart slots and return its quotient-chart point.

    Slots run through the components in chain order, each component laid out
    by its shift orbits (``_layout_component``).  f_0 vanishes iff the first
    base coordinate does (1 ∈ I_t); f_k for 0 < k < n is the position ratio
    of slots k and k+1, and vanishes iff a node separates them; f_n vanishes
    iff n+1 ∈ I_t, and otherwise is the last slot's position times a fresh
    generic unit (the last base coordinate).
    """
    comps = c.components()
    return _project(c, comps, _shift_orders(comps))


def _project(c: CycleConfiguration, comps: list[list[PointRecord]],
             orders: list[int]) -> QuotientPoint:
    """``project_to_quotient`` with each component's layout order given: one
    (component, root·denom, generic, a1 label) row per slot, with denom the
    lcm of all root denominators, handed to ``quotient_point``."""
    denom = lcm(*(p.position.root.denominator for p in c.points))
    slots: list[tuple[int, int, tuple[int, ...], str]] = []
    for l, records in enumerate(comps):
        if not records:
            continue
        for root, generic, label, mult in _layout_component(records, orders[l], denom):
            slots += [(l, root, generic, label)] * mult
    return quotient_point(slots, denom, 1 in c.I_t, c.n + 1 in c.I_t)


# ---------------------------------------------------------------------------
# symmetric-group side


@dataclass(frozen=True)
class SymStabilizers:
    stab: CosetUnion
    stab0: CosetUnion
    stab0_young: YoungSubgroup
    quotient: FiniteAbelianGroup


def sym_stabilizers(q: QuotientPoint) -> SymStabilizers:
    """Stabilizer of the quotient point in S_n, its trivial-angle part, and
    the quotient group in invariant-factor form.

    ``search_stabilizer`` gives Stab as cosets r∘Y, one representative r each,
    where Y, the Young subgroup of the slots' ratio classes, is the
    trivial-angle part Stab0 by construction.  The m ratio classes are Y's
    blocks and the fixed slots.  Each representative r is read as the
    permutation k ↦ class(r(first slot of k)) of the classes, in one pass:

    * Y is normal iff each r maps every block of Y into one class, that is,
      conjugates Y's generators into Y (else AssertionError);
    * then r permutes the classes, and Stab acts on them with kernel Stab0,
      so distinct cosets must act distinctly (else ValueError: Stab0 would
      be more than Y).

    The quotient group is then these permutations of m <= n points, under
    plain composition.  Stab and Stab0 are returned as ``CosetUnion``s,
    never as lists of elements.

    Raises NonabelianQuotientError if the quotient is not abelian (it always
    is when the comparison theorem holds; we check rather than assume).
    """
    n = q.n
    stab = search_stabilizer(q)
    young = stab.young
    blocks = young.blocks
    in_block = {i for b in blocks for i in b}
    classes = blocks + tuple((i,) for i in range(n) if i not in in_block)
    class_of = [0] * n
    for k, cls in enumerate(classes):
        for i in cls:
            class_of[i] = k
    actions = []
    for r in stab.reps:
        for b in blocks:
            k = class_of[r[b[0]]]
            if any(class_of[r[i]] != k for i in b):
                raise AssertionError("trivial-angle subgroup is not normal")
        actions.append(tuple(class_of[r[cls[0]]] for cls in classes))
    if len(set(actions)) != len(actions):
        raise ValueError("two cosets of Stab0 act alike on the ratio classes")
    factors = abelian_invariant_factors_of_group(actions, compose, identity(len(classes)))
    return SymStabilizers(stab=stab, stab0=CosetUnion((identity(n),), young),
                          stab0_young=young,
                          quotient=FiniteAbelianGroup(factors))


@dataclass(frozen=True)
class ComparisonReport:
    n: int
    torus_side: FiniteAbelianGroup
    sym_side: FiniteAbelianGroup
    stab_order: int
    stab0_order: int
    passed: bool
    sym: SymStabilizers  # the whole S_n side, as ``toricgit stab`` prints it


def verify_comparison(c: CycleConfiguration) -> ComparisonReport:
    """PASS iff the torus stabilizer and the quotient stabilizer agree.

    Each component's shift group is found once: its order is a torus factor
    (interior components) and sets the component's slot layout.
    """
    comps = c.components()
    orders = _shift_orders(comps)
    torus = FiniteAbelianGroup.from_cyclic_orders(orders[1:-1])
    sym = sym_stabilizers(_project(c, comps, orders))
    return ComparisonReport(
        n=c.n, torus_side=torus, sym_side=sym.quotient,
        stab_order=sym.stab.order(), stab0_order=sym.stab0.order(),
        passed=torus.invariant_factors == sym.quotient.invariant_factors, sym=sym)


# ---------------------------------------------------------------------------
# randomized stable configurations (fuzzing)


# the roots of a draw: base/12 + j/r with r | 12 is a twelfth
_TWELFTHS = tuple(Fraction(k, 12) for k in range(12))


def random_configuration(n: int, rng: random.Random) -> CycleConfiguration:
    """A random semistable configuration with a known-by-construction
    stabilizer structure: for each occupied component, a shift order r is
    chosen with r | degree, and the points split into fresh-generic orbits of
    exactly r points each, so the component's shift group is Z/r on the nose.

    The orbits are drawn first, so that each record is built once at its
    final shape: orbit g's generic vector is e_g among all the orbits.
    """
    k = rng.randrange(0, n + 2)
    I_t = tuple(sorted(rng.sample(range(1, n + 2), k))) if k else ()
    labels = ["a", "b", "c", "d"]
    orbits = []         # (component, r, multiplicity, base twelfth, label)
    for comp, d in enumerate(fiber_degrees(n, I_t)):
        if d == 0:
            continue
        r = rng.choice([r for r in (1, 2, 3, 4) if d % r == 0])
        remaining = d // r
        while remaining > 0:
            mult = rng.randrange(1, remaining + 1)
            base = rng.randrange(0, 12)
            orbits.append((comp, r, mult, base, rng.choice(labels)))
            remaining -= mult
    width = len(orbits)
    pts = []
    for g, (comp, r, mult, base, label) in enumerate(orbits):
        generic = (0,) * g + (1,) + (0,) * (width - g - 1)
        step = 12 // r
        pts += [PointRecord(comp, UnitValue(_TWELFTHS[(base + j * step) % 12], generic),
                            label, mult) for j in range(r)]
    return CycleConfiguration(n=n, I_t=I_t, points=tuple(pts))
