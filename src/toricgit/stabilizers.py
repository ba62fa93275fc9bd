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
  quotient chart, its symmetric-group stabilizer, the trivial-angle (Young)
  subgroup, and the quotient in invariant-factor form;
* ``verify_comparison``: the two sides must agree — this is the machine check
  of the stabilizer comparison underlying the isomorphism of the two
  degeneration models.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

from .groups import (FiniteAbelianGroup, Perm, YoungSubgroup,
                     abelian_invariant_factors_of_group, compose, identity,
                     inverse, young_subgroup_of)
from .stab_backends import (EncodedPoint, encode_point, search_stabilizer,
                            trivial_angle)

DEFAULT_BRUTE_FORCE_MAX = 9


# ---------------------------------------------------------------------------
# values and configurations


@dataclass(frozen=True)
class UnitValue:
    """Zero, or an element of the abelian group (Q/Z) ⊕ Z^m written additively.

    The root part k/r stands for the root of unity exp(2πik/r); the generic
    part is an exponent vector over formal generators with no relations.
    """

    kind: str = "unit"                      # "unit" | "zero"
    root: Fraction = Fraction(0)            # reduced, in [0, 1)
    generic: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("unit", "zero"):
            raise ValueError("kind must be 'unit' or 'zero'")
        if self.kind == "unit":
            object.__setattr__(self, "root", self.root % 1)

    def is_zero(self) -> bool:
        return self.kind == "zero"

    def __add__(self, other: "UnitValue") -> "UnitValue":
        if self.is_zero() or other.is_zero():
            raise ValueError("zero values are not invertible group elements")
        m = max(len(self.generic), len(other.generic))
        a = self.generic + (0,) * (m - len(self.generic))
        b = other.generic + (0,) * (m - len(other.generic))
        return UnitValue(root=self.root + other.root,
                         generic=tuple(x + y for x, y in zip(a, b)))

    def __neg__(self) -> "UnitValue":
        if self.is_zero():
            raise ValueError("zero values are not invertible group elements")
        return UnitValue(root=-self.root, generic=tuple(-x for x in self.generic))

    def __sub__(self, other: "UnitValue") -> "UnitValue":
        return self + (-other)

    def padded(self, m: int) -> "UnitValue":
        if self.is_zero():
            return self
        return UnitValue(root=self.root,
                         generic=self.generic + (0,) * (m - len(self.generic)))


ZERO = UnitValue(kind="zero")


def unit(root=0, generic: Sequence[int] = ()) -> UnitValue:
    return UnitValue(root=Fraction(root), generic=tuple(generic))


def root_of_unity(k: int, r: int) -> UnitValue:
    return UnitValue(root=Fraction(k, r))


@dataclass(frozen=True)
class PointRecord:
    component: int          # index into the chain: 0, 1, ..., r
    position: UnitValue     # C*-coordinate on the punctured component
    a1_label: str           # affine-line coordinate, compared for equality only
    multiplicity: int

    def __post_init__(self):
        if self.position.is_zero():
            raise ValueError("positions must be unit values")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be positive")

    def sort_key(self):
        return (self.position.root, self.position.generic, self.a1_label)


@dataclass(frozen=True)
class CycleConfiguration:
    """A degree-n cycle on the fiber chain over a base point with zero set I_t."""

    n: int
    I_t: tuple[int, ...]
    points: tuple[PointRecord, ...]

    def __post_init__(self):
        if list(self.I_t) != sorted(set(self.I_t)) or \
                any(not 1 <= i <= self.n + 1 for i in self.I_t):
            raise ValueError("I_t must be a strictly increasing subset of 1..n+1")
        if sum(p.multiplicity for p in self.points) != self.n:
            raise ValueError("multiplicities must sum to n")
        seen = set()
        for p in self.points:
            key = (p.component, p.position.root, p.position.generic, p.a1_label)
            if key in seen:
                raise ValueError("duplicate (component, position, a1) record")
            seen.add(key)
        r = len(self.I_t)
        if any(not 0 <= p.component <= r for p in self.points):
            raise ValueError("component index out of range for this I_t")

    def generic_dim(self) -> int:
        return max((len(p.position.generic) for p in self.points), default=0)

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
    ext = [1] + idx + [n + 1]
    degs = [ext[1] - 1] + [ext[l + 1] - ext[l] for l in range(1, len(idx) + 1)]
    assert sum(degs) == n
    return degs


def check_stability(c: CycleConfiguration) -> bool:
    """Per-component multiplicity totals must match the fiber degrees."""
    degs = fiber_degrees(c.n, c.I_t)
    totals = [0] * len(degs)
    for p in c.points:
        totals[p.component] += p.multiplicity
    return totals == degs


# ---------------------------------------------------------------------------
# torus side


def _component_shift_order(records: Sequence[PointRecord]) -> int:
    """Order of the cyclic group of shifts preserving the record multiset.

    A shift ρ ∈ Q/Z acts by adding ρ to every position's root part; it must
    permute the (position, a1, multiplicity) records.  The valid shifts form
    a finite cyclic subgroup of Q/Z; its order is returned.
    """
    if not records:
        raise ValueError("component carries no points")
    classes: dict[tuple, set[Fraction]] = {}
    for p in records:
        key = (p.position.generic, p.a1_label, p.multiplicity)
        classes.setdefault(key, set()).add(p.position.root)
    smallest = min(classes.values(), key=len)
    base = min(smallest)
    candidates = {(r - base) % 1 for r in smallest}
    valid = []
    for rho in sorted(candidates):
        if all({(r + rho) % 1 for r in roots} == roots for roots in classes.values()):
            valid.append(rho)
    order = len(valid)
    assert sorted(valid) == [Fraction(k, order) for k in range(order)], \
        "valid shifts must form a cyclic subgroup of Q/Z"
    return order


def torus_stabilizer(c: CycleConfiguration) -> FiniteAbelianGroup:
    """Product of the per-component shift groups over the interior components.

    Only the components strictly between the two ends contribute; the end
    components carry the affine-line structure and no residual torus factor.
    """
    if not check_stability(c):
        raise ValueError("configuration is not semistable")
    comps = c.components()
    r = len(c.I_t)
    orders = []
    for l in range(1, r):
        orders.append(_component_shift_order(comps[l]))
    return FiniteAbelianGroup.from_cyclic_orders(orders)


# ---------------------------------------------------------------------------
# projection to the quotient chart


@dataclass(frozen=True)
class QuotientPoint:
    """Chart coordinates (f_0, ..., f_n) plus the per-slot affine labels."""

    n: int
    values: tuple[UnitValue, ...]
    a1: tuple[str, ...]
    slot_components: tuple[int, ...]

    def encode(self) -> EncodedPoint:
        return encode_point(self.n, self.values, self.a1)


def _layout_component(records: list[PointRecord], orbit_major: bool
                      ) -> list[PointRecord]:
    """Slot order inside one component.

    ``orbit_major`` follows the comparison-theorem layout: multiplicity
    classes descending, each class split into shift-orbits, each orbit listed
    as base, base+ρ, base+2ρ, ...; repeated points of one record stay
    adjacent.  The alternative layout just sorts records inside multiplicity
    classes, which still keeps component blocks and descending multiplicity
    (any such order yields a conjugate stabilizer; tests assert that).
    """
    order = _component_shift_order(records)
    rho = Fraction(1, order)
    by_mult: dict[int, list[PointRecord]] = {}
    for p in records:
        by_mult.setdefault(p.multiplicity, []).append(p)
    out = []
    for mult in sorted(by_mult, reverse=True):
        cls = sorted(by_mult[mult], key=lambda p: p.sort_key())
        if not orbit_major or order == 1:
            out.extend(cls)
            continue
        index = {(p.position.root, p.position.generic, p.a1_label): p for p in cls}
        used = set()
        for p in cls:
            k0 = (p.position.root, p.position.generic, p.a1_label)
            if k0 in used:
                continue
            orbit = []
            for k in range(order):
                key = ((p.position.root + k * rho) % 1, p.position.generic, p.a1_label)
                if key not in index:
                    raise AssertionError("shift orbit is not closed")
                orbit.append(index[key])
                used.add(key)
            out.extend(orbit)
    return out


def project_to_quotient(c: CycleConfiguration, orbit_major: bool = True,
                        ) -> QuotientPoint:
    """Order the cycle into chart slots and read off the chart coordinates.

    Slots run through the components in chain order.  f_0 vanishes iff the
    first base coordinate does (1 ∈ I_t); f_k for 0 < k < n is the position
    ratio of slots k and k+1, and vanishes iff a node separates them; f_n
    vanishes iff n+1 ∈ I_t, and otherwise is the last slot's position times a
    fresh generic unit (the last base coordinate).
    """
    if not check_stability(c):
        raise ValueError("configuration is not semistable")
    n = c.n
    m = c.generic_dim()
    slots: list[tuple[int, UnitValue, str]] = []
    for l, records in enumerate(c.components()):
        if not records:
            continue
        for p in _layout_component(records, orbit_major):
            for _ in range(p.multiplicity):
                slots.append((l, p.position.padded(m + 2), p.a1_label))
    assert len(slots) == n
    aux_head = UnitValue(root=Fraction(0),
                         generic=tuple(1 if i == m else 0 for i in range(m + 2)))
    aux_tail = UnitValue(root=Fraction(0),
                         generic=tuple(1 if i == m + 1 else 0 for i in range(m + 2)))
    values: list[UnitValue] = []
    values.append(ZERO if 1 in c.I_t else aux_head)
    for k in range(1, n):
        (la, pa, _), (lb, pb, _) = slots[k - 1], slots[k]
        values.append(pa - pb if la == lb else ZERO)
    values.append(ZERO if (n + 1) in c.I_t else slots[n - 1][1] + aux_tail)
    return QuotientPoint(n=n, values=tuple(values),
                         a1=tuple(s[2] for s in slots),
                         slot_components=tuple(s[0] for s in slots))


# ---------------------------------------------------------------------------
# symmetric-group side


@dataclass(frozen=True)
class SymStabilizers:
    stab: tuple[Perm, ...]
    stab0: tuple[Perm, ...]
    stab0_young: YoungSubgroup
    quotient: FiniteAbelianGroup


def sym_stabilizers(q: QuotientPoint, brute_force_max: int = DEFAULT_BRUTE_FORCE_MAX
                    ) -> SymStabilizers:
    """Brute-force stabilizer of the quotient point, with its trivial-angle
    part and the quotient group in invariant-factor form.

    Raises NonabelianQuotientError if the quotient is not abelian (it always
    is when the comparison theorem holds; we check rather than assume).
    """
    n = q.n
    if n > brute_force_max:
        raise ValueError(f"n={n} exceeds the brute-force bound {brute_force_max}")
    enc = q.encode()
    stab = search_stabilizer(enc)
    ident = identity(n)
    assert ident in set(stab)
    stab0 = sorted(p for p in stab if trivial_angle(enc, p))
    young = young_subgroup_of(stab0, n)
    blocks = young.blocks
    stab0_set = set(stab0)
    # normality: conjugating the Young generators (adjacent transpositions
    # inside blocks) suffices
    gens0 = []
    for b in blocks:
        for i in range(len(b) - 1):
            t = list(range(n))
            t[b[i]], t[b[i + 1]] = t[b[i + 1]], t[b[i]]
            gens0.append(tuple(t))
    for s in stab:
        si = inverse(s)
        for h in gens0:
            if compose(compose(s, h), si) not in stab0_set:
                raise AssertionError("trivial-angle subgroup is not normal")

    def rep(p: Perm) -> Perm:
        # canonical representative of p·stab0: within each block the images
        # can be re-distributed freely, so sort them into the block positions
        out = list(p)
        for b in blocks:
            vals = sorted(out[i] for i in b)
            for i, v in zip(b, vals):
                out[i] = v
        return tuple(out)

    reps = sorted({rep(s) for s in stab})

    def qmul(a: Perm, b: Perm) -> Perm:
        return rep(compose(a, b))

    factors = abelian_invariant_factors_of_group(reps, qmul, rep(ident))
    return SymStabilizers(stab=tuple(stab), stab0=tuple(stab0),
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


def verify_comparison(c: CycleConfiguration,
                      brute_force_max: int = DEFAULT_BRUTE_FORCE_MAX
                      ) -> ComparisonReport:
    """PASS iff the torus stabilizer and the quotient stabilizer agree."""
    torus = torus_stabilizer(c)
    sym = sym_stabilizers(project_to_quotient(c), brute_force_max=brute_force_max)
    return ComparisonReport(
        n=c.n, torus_side=torus, sym_side=sym.quotient,
        stab_order=len(sym.stab), stab0_order=len(sym.stab0),
        passed=torus.invariant_factors == sym.quotient.invariant_factors)


# ---------------------------------------------------------------------------
# independent oracles


def instantiate(c: CycleConfiguration, seed: int,
                prime: int = 2147483647) -> CycleConfiguration:
    """Replace formal generic generators by random elements of Z/prime ⊂ Q/Z.

    A second oracle for the whole pipeline: with overwhelming probability no
    accidental relation is introduced, so every stabilizer computation must
    come out the same as with formal generators.
    """
    rng = random.Random(seed)
    m = c.generic_dim()
    vals = [rng.randrange(1, prime) for _ in range(m)]
    pts = []
    for p in c.points:
        g = p.position.generic + (0,) * (m - len(p.position.generic))
        shift = Fraction(sum(x * v for x, v in zip(g, vals)) % prime, prime)
        pts.append(PointRecord(component=p.component,
                               position=UnitValue(root=p.position.root + shift),
                               a1_label=p.a1_label, multiplicity=p.multiplicity))
    return CycleConfiguration(n=c.n, I_t=c.I_t, points=tuple(pts))


@cache
def _ambient_permutation_matrices(n: int) -> dict:
    """ρ(s) on Z^{n+1} for all s in S_n, built once per n for the repeated
    calls of toric_fixed_points (read-only).  Not shared with
    build_symmetric: a cached copy there would keep the n! matrices alive
    through the JSON output of `build --object symmetric` (+1.7 MB peak RSS
    at n=6)."""
    from .degeneration import ambient_reflections, permutation_matrices
    return permutation_matrices(n, ambient_reflections(n))


def toric_fixed_points(q: QuotientPoint) -> set[Perm]:
    """Chart-gluing oracle for the stabilizer, via the toric model.

    The quotient point lives on the toric variety of the orbit fan; it is the
    pair (orbit cone τ, group homomorphism λ on M ∩ τ⊥).  A permutation fixes
    it iff its lattice matrix preserves τ and λ pulls back to itself on a
    basis of M ∩ τ⊥, and the affine labels are invariant.  Independent of the
    prefix-sum membership criterion; intended for n <= 5.
    """
    from .linalg import Matrix

    n = q.n
    if n < 2:
        return {identity(n)}
    mats = _ambient_permutation_matrices(n)
    rays = []
    for k in range(1, n + 1):
        rays.append(tuple(1 if i < k else 0 for i in range(n)) + (0,))
    rays.append(tuple([0] * n) + (1,))
    raymat = Matrix.from_columns(rays)
    from .linalg import invert
    dual_basis = invert(raymat).entries  # row i pairs with ray i
    zero_idx = {i for i, v in enumerate(q.values) if v.is_zero()}
    unit_idx = [i for i in range(n + 1) if i not in zero_idx]
    tau = {rays[i] for i in zero_idx}
    out = set()
    for s, mat in mats.items():
        img = {tuple(int(x) for x in (mat @ r)) for r in tau}
        if img != tau:
            continue
        if any(q.a1[s[i]] != q.a1[i] for i in range(n)):
            continue
        good = True
        for i in unit_idx:
            mi = dual_basis[i]
            total = None
            for j in unit_idx:
                cj = sum(a * b for a, b in zip(mi, (mat @ rays[j])))
                if cj == 0:
                    continue
                term = q.values[j]
                acc = term
                k = int(cj)
                piece = acc if k > 0 else -acc
                for _ in range(abs(k) - 1):
                    piece = piece + (acc if k > 0 else -acc)
                total = piece if total is None else total + piece
            if total is None:
                total = UnitValue(root=Fraction(0), generic=(0,) * len(q.values[i].generic))
            if (total - q.values[i]).root % 1 != 0 or \
                    any(x != 0 for x in (total - q.values[i]).generic):
                good = False
                break
        if good:
            out.add(s)
    return out


# ---------------------------------------------------------------------------
# randomized stable configurations (fuzzing)


def random_configuration(n: int, rng: random.Random) -> CycleConfiguration:
    """A random semistable configuration with a known-by-construction
    stabilizer structure: for each occupied component, a shift order r is
    chosen with r | degree, and the points split into fresh-generic orbits of
    exactly r points each, so the component's shift group is Z/r on the nose.
    """
    pool = [i for i in range(1, n + 2)]
    k = rng.randrange(0, n + 2)
    I_t = tuple(sorted(rng.sample(pool, k))) if k else ()
    degs = fiber_degrees(n, I_t)
    gen_count = 0
    pts: list[PointRecord] = []
    labels = ["a", "b", "c", "d"]
    for comp, d in enumerate(degs):
        if d == 0:
            continue
        rs = [r for r in (1, 2, 3, 4) if d % r == 0]
        r = rng.choice(rs)
        remaining = d // r
        while remaining > 0:
            mult = rng.randrange(1, remaining + 1)
            base_root = Fraction(rng.randrange(0, 12), 12)
            label = rng.choice(labels)
            g = tuple(1 if i == gen_count else 0 for i in range(gen_count + 1))
            gen_count += 1
            for j in range(r):
                pts.append(PointRecord(
                    component=comp,
                    position=UnitValue(root=base_root + Fraction(j, r), generic=g),
                    a1_label=label, multiplicity=mult))
            remaining -= mult
    m = max(len(p.position.generic) for p in pts)
    pts = [PointRecord(p.component, p.position.padded(m), p.a1_label, p.multiplicity)
           for p in pts]
    return CycleConfiguration(n=n, I_t=I_t, points=tuple(pts))
