import dataclasses
import json
import random
import sys
from collections import Counter
from fractions import Fraction as F
from functools import cache
from itertools import permutations, product
from math import ceil, log2, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (_ambient_permutation_matrices, abelian_invariant_factors_by_peeling,
                     chart_values, component_shift_order_by_fractions, encode_chart_values,
                     from_cycles, image_tables_by_pairs, instantiate, invariant_factors,
                     inverse, is_trivial, random_configuration_by_fractions,
                     ratio_is_one, toric_fixed_points, trivial_angle, unit, unit_matches)
from toricgit import cli, groups, jsonio, stab_backends, stabilizers
from toricgit.groups import (CosetUnion, FiniteAbelianGroup, NonabelianQuotientError,
                             YoungSubgroup, abelian_invariant_factors_of_group, compose,
                             cycle_notation, identity, young_subgroup_of)
from toricgit.stab_backends import QuotientPoint, _image_lookup, search_stabilizer
from toricgit.stabilizers import (CycleConfiguration, PointRecord, UnitValue,
                                  fiber_degrees, project_to_quotient,
                                  random_configuration, sym_stabilizers,
                                  torus_stabilizer, verify_comparison)


def example_one():
    """Nine points: two orbit-triples on the first interior component and one
    on the second, all multiplicity one, orbit phases a third apart."""
    pts = []
    for comp, gen, lbl in [(1, (1, 0, 0), "a"), (1, (0, 1, 0), "b"), (2, (0, 0, 1), "c")]:
        for j in range(3):
            pts.append(PointRecord(component=comp,
                                   position=UnitValue(root=F(j, 3), generic=gen),
                                   a1_label=lbl, multiplicity=1))
    return CycleConfiguration(n=9, I_t=(1, 7, 10), points=tuple(pts))


def example_two():
    """Three double points in one orbit-triple on the single interior component."""
    pts = [PointRecord(component=1, position=UnitValue(root=F(j, 3), generic=(1,)),
                       a1_label="a", multiplicity=2) for j in range(3)]
    return CycleConfiguration(n=6, I_t=(1, 7), points=tuple(pts))


def degenerate_fiber(mults):
    """One component, one generic point per multiplicity: Stab is the Young
    subgroup of the multiplicities."""
    pts = tuple(PointRecord(0, unit(0, tuple(int(i == j) for j in range(len(mults)))),
                            "a", m) for i, m in enumerate(mults))
    return CycleConfiguration(n=sum(mults), I_t=(), points=pts)


def shared_position():
    """Two double points at one position with different affine labels: their
    slots have ratio 1, but swapping an "a" slot with a "b" slot moves a label."""
    pts = (PointRecord(1, unit(0, (1,)), "a", 2), PointRecord(1, unit(0, (1,)), "b", 2),
           PointRecord(1, unit(F(1, 2), (1,)), "a", 1))
    return CycleConfiguration(n=5, I_t=(1, 6), points=pts)


def mixed_shifts():
    """Label "a" at 0 and 1/2 is kept by the shift 1/2, label "b" at 0, 1/4
    and 1/2 is not: only the identity shift keeps every label class."""
    pts = tuple(PointRecord(1, unit(r, (1,)), lbl, 1)
                for lbl, roots in (("a", (0, F(1, 2))), ("b", (0, F(1, 4), F(1, 2))))
                for r in roots)
    return CycleConfiguration(n=5, I_t=(1, 6), points=pts)


def is_member(enc: QuotientPoint, p) -> bool:
    """Full membership test for one permutation, condition by condition."""
    n = enc.n
    for i in range(n):
        if enc.a1_codes[p[i]] != enc.a1_codes[i]:
            return False
    if not enc.zero[0] and not ratio_is_one(enc, 0, p[0]):
        return False
    if not enc.zero[n] and not ratio_is_one(enc, p[n - 1], n - 1):
        return False
    for k in range(1, n):
        if not unit_matches(enc, k, p[k - 1], p[k]):
            return False
    return True


@cache
def full_enumeration(enc: QuotientPoint):
    """Reference stabilizer: every permutation of S_n, tested one by one, in
    lexicographic order (cached per point: callers must not mutate it)."""
    return [p for p in permutations(range(enc.n)) if is_member(enc, p)]


@dataclasses.dataclass(frozen=True)
class OracleStabilizers:
    stab: list
    stab0: list
    young: YoungSubgroup
    quotient: FiniteAbelianGroup


def sym_stabilizers_oracle(q) -> OracleStabilizers:
    """The element-by-element pipeline: Stab from the full enumeration, Stab0
    as its trivial-angle elements, Young and normal checked element by element,
    and the quotient peeled from the sorted coset representatives."""
    n = q.n
    stab = full_enumeration(q)
    stab0 = sorted(p for p in stab if trivial_angle(q, p))
    young = young_subgroup_of(stab0, n)
    # normality: conjugating the Young generators (adjacent transpositions
    # inside blocks) suffices
    stab0_set = set(stab0)
    gens0 = []
    for b in young.blocks:
        for i in range(len(b) - 1):
            t = list(range(n))
            t[b[i]], t[b[i + 1]] = t[b[i + 1]], t[b[i]]
            gens0.append(tuple(t))
    for s in stab:
        si = inverse(s)
        for h in gens0:
            assert compose(compose(s, h), si) in stab0_set

    def rep(p):
        out = list(p)
        for b in young.blocks:
            for i, v in zip(b, sorted(out[i] for i in b)):
                out[i] = v
        return tuple(out)

    reps = sorted({rep(s) for s in stab})
    factors = abelian_invariant_factors_by_peeling(
        reps, lambda a, b: rep(compose(a, b)), identity(n))
    return OracleStabilizers(stab, stab0, young, FiniteAbelianGroup(factors))


def ratio_class_blocks(enc: QuotientPoint):
    """The slots partitioned by a slot ratio of 1 and equal labels: the blocks
    of size >= 2, in the order of their first slots."""
    parts: list[list[int]] = []
    for x in range(enc.n):
        part = next((b for b in parts if enc.a1_codes[b[0]] == enc.a1_codes[x]
                     and ratio_is_one(enc, b[0], x)), None)
        if part is None:
            parts.append([x])
        else:
            part.append(x)
    return tuple(tuple(b) for b in parts if len(b) >= 2)


def oracle_configurations(degenerate=True):
    rng = random.Random(101)
    configs = [random_configuration(n, rng) for n in range(1, 8) for _ in range(6)]
    configs += [example_one(), example_two(), shared_position()]
    if degenerate:
        configs += [degenerate_fiber(m) for m in ((8,), (7, 1), (4, 4), (5, 4))]
    return configs


# ---------------------------------------------------------------------------
# groups


def test_invariant_factors():
    for orders, factors in (([3, 3], (3, 3)), ([2, 3], (6,)), ([4, 6], (2, 12)),
                            ([], ()), ([12, 8, 6], (2, 12, 24))):
        assert invariant_factors(orders) == factors
        assert FiniteAbelianGroup.from_cyclic_orders(orders).invariant_factors == factors
    assert is_trivial(FiniteAbelianGroup.from_cyclic_orders([1, 1]))
    with pytest.raises(ValueError, match="positive"):
        FiniteAbelianGroup.from_cyclic_orders([2, 0])


def test_young_subgroup():
    perms = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)]
    y = young_subgroup_of(perms, 4)
    assert y.blocks == ((0, 1), (2, 3))
    assert y.order() == 4
    with pytest.raises(ValueError):
        young_subgroup_of([(0, 1, 2, 3), (1, 2, 0, 3)], 4)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(st.lists(st.integers(1, 10 ** 6), max_size=8))
def test_cyclic_orders_merge_matches_trial_division(orders):
    assert FiniteAbelianGroup.from_cyclic_orders(orders).invariant_factors == \
        invariant_factors(orders)


# the peel takes the order of every element at each level, so the examples are
# few (|Q| reaches 960)
@settings(derandomize=True, database=None, deadline=None, max_examples=20)
@given(st.lists(st.integers(1, 12), max_size=3), st.data())
def test_group_table_routes_agree(orders, data):
    """Z/a_1 × ... × Z/a_k with its elements relabelled by a random bijection:
    the generator route, the peel and the cyclic-order merge agree."""
    elems = list(product(*(range(a) for a in orders)))
    labels = data.draw(st.permutations(range(len(elems))))
    label = dict(zip(elems, labels))
    elem = dict(zip(labels, elems))

    def mul(x, y):
        return label[tuple((a + b) % m for a, b, m in zip(elem[x], elem[y], orders))]

    ident = label[(0,) * len(orders)]
    factors = abelian_invariant_factors_of_group(labels, mul, ident)
    assert factors == abelian_invariant_factors_by_peeling(labels, mul, ident)
    assert factors == FiniteAbelianGroup.from_cyclic_orders(orders).invariant_factors


def test_abelian_invariants_of_klein_group():
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mul = lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)
    assert abelian_invariant_factors_of_group(elems, mul, (0, 0)) == (2, 2)


def test_invariant_factor_product_is_enforced(monkeypatch):
    # the factors must multiply to |Q|: drop one, and the check raises
    real = groups.elementary_divisors
    monkeypatch.setattr(groups, "elementary_divisors", lambda m: real(m)[1:])
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mul = lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)
    with pytest.raises(AssertionError, match="group order"):
        abelian_invariant_factors_of_group(elems, mul, (0, 0))


def dihedral_group_of_order_8():
    """The symmetries of the square on its corners 0, 1, 2, 3."""
    r, f = (1, 2, 3, 0), (0, 3, 2, 1)
    out = {identity(4)}
    while True:
        grown = out | {compose(p, g) for p in out for g in (r, f)}
        if grown == out:
            return sorted(out)
        out = grown


def test_nonabelian_detection():
    for elems in (list(permutations(range(3))), dihedral_group_of_order_8()):
        n = len(elems[0])
        with pytest.raises(NonabelianQuotientError):
            abelian_invariant_factors_of_group(elems, compose, identity(n))
        with pytest.raises(NonabelianQuotientError):
            abelian_invariant_factors_by_peeling(elems, compose, identity(n))


def test_unclosed_elements_are_rejected():
    for elems in ([0, 1, 2], [0, 2, 3], [0, 2]):
        with pytest.raises(ValueError, match="not closed"):
            abelian_invariant_factors_of_group(elems, lambda a, b: (a + b) % 6, 0)


def test_quotient_multiplications_are_few(monkeypatch):
    """An n = 30 draw with |Q| = 768: the quotient takes at most
    |Q|·(⌈log₂|Q|⌉ + 2) multiplications (the all-pairs peel takes 1.5 M)."""
    rng = random.Random(5)
    for _ in range(19):
        c = random_configuration(30, rng)
    calls = 0
    real = stabilizers.abelian_invariant_factors_of_group

    def counting(elements, mul, ident):
        def counted(a, b):
            nonlocal calls
            calls += 1
            return mul(a, b)
        return real(elements, counted, ident)

    monkeypatch.setattr(stabilizers, "abelian_invariant_factors_of_group", counting)
    rep = verify_comparison(c)
    q = rep.stab_order // rep.stab0_order
    assert rep.passed and rep.sym_side.invariant_factors == (2, 2, 2, 2, 2, 2, 12)
    assert q == prod(rep.sym_side.invariant_factors) == 768
    assert calls <= q * (ceil(log2(q)) + 2)


# ---------------------------------------------------------------------------
# degrees and stability


def test_fiber_degrees_examples():
    assert fiber_degrees(9, (1, 7, 10)) == [0, 6, 3, 0]
    assert fiber_degrees(3, ()) == [3]
    assert fiber_degrees(4, (3,)) == [2, 2]


def test_semistability_is_enforced():
    # the constructor raises, not an assert, so python -O keeps the rule:
    # fiber_degrees(2, (1, 3)) == [0, 2, 0] takes both points on component 1
    CycleConfiguration(n=2, I_t=(1, 3), points=(
        PointRecord(1, unit(0, (1,)), "a", 1),
        PointRecord(1, unit(F(1, 2), (1,)), "a", 1)))
    with pytest.raises(ValueError, match="not semistable"):
        CycleConfiguration(n=2, I_t=(1, 3), points=(
            PointRecord(1, unit(0, (1,)), "a", 1),
            PointRecord(2, unit(F(1, 2), (1,)), "a", 1)))
    with pytest.raises(ValueError, match="not semistable"):  # degree 2, not n = 3
        CycleConfiguration(n=3, I_t=(), points=(PointRecord(0, unit(0, (1,)), "a", 2),))


# ---------------------------------------------------------------------------
# torus side


def test_torus_stabilizer_examples():
    assert torus_stabilizer(example_one()).invariant_factors == (3, 3)
    assert torus_stabilizer(example_two()).invariant_factors == (3,)


def test_torus_stabilizer_generic_trivial():
    pts = (PointRecord(1, unit(0, (1, 0)), "a", 1),
           PointRecord(1, unit(0, (0, 1)), "a", 1))
    c = CycleConfiguration(n=2, I_t=(1, 3), points=pts)
    assert is_trivial(torus_stabilizer(c))


def test_torus_stabilizer_rotation_and_relabel_invariance():
    rng = random.Random(3)
    for _ in range(20):
        c = random_configuration(rng.randrange(2, 7), rng)
        base = torus_stabilizer(c)
        # global rotation of each component
        shift = {l: F(rng.randrange(0, 8), 8) for l in range(len(c.I_t) + 1)}
        rotated = CycleConfiguration(n=c.n, I_t=c.I_t, points=tuple(
            PointRecord(p.component,
                        UnitValue(root=p.position.root + shift[p.component],
                                  generic=p.position.generic),
                        p.a1_label, p.multiplicity) for p in c.points))
        assert torus_stabilizer(rotated) == base
        # relabeling of the generic generators (a permutation of coordinates)
        m = len(c.points[0].position.generic)
        perm = list(range(m))
        rng.shuffle(perm)
        relabeled = CycleConfiguration(n=c.n, I_t=c.I_t, points=tuple(
            PointRecord(p.component,
                        UnitValue(root=p.position.root,
                                  generic=tuple(p.position.generic[perm[i]]
                                                for i in range(m))),
                        p.a1_label, p.multiplicity) for p in c.points))
        assert torus_stabilizer(relabeled) == base


# ---------------------------------------------------------------------------
# projection


def test_projection_example_one():
    v = chart_values(example_one()).values
    assert v[0] is None and v[6] is None and v[9] is None
    for k in (1, 2, 4, 5, 7, 8):
        assert v[k].root == F(2, 3) and all(x == 0 for x in v[k].generic)
    # the cross-orbit ratio is generic: nonzero generic part
    assert v[3] is not None and any(x != 0 for x in v[3].generic)


def test_projection_example_two():
    v = chart_values(example_two()).values
    assert v[0] is None and v[6] is None
    pattern = [v[k].root for k in range(1, 6)]
    assert pattern == [F(0), F(2, 3), F(0), F(2, 3), F(0)]
    assert all(all(x == 0 for x in v[k].generic) for k in range(1, 6))


def test_projection_trivial_n1():
    c = CycleConfiguration(n=1, I_t=(), points=(PointRecord(0, unit(0, (1,)), "a", 1),))
    v = chart_values(c).values
    assert len(v) == 2
    assert v[0] is not None and v[1] is not None


# ---------------------------------------------------------------------------
# symmetric side


def test_sym_stabilizers_example_one():
    s = sym_stabilizers(project_to_quotient(example_one()))
    assert len(s.stab) == 9
    g1 = from_cycles(9, [(1, 2, 3), (4, 5, 6)])
    g2 = from_cycles(9, [(7, 8, 9)])
    generated = {identity(9)}
    frontier = [identity(9)]
    while frontier:
        new = []
        for p in frontier:
            for g in (g1, g2):
                q = compose(g, p)
                if q not in generated:
                    generated.add(q)
                    new.append(q)
        frontier = new
    assert set(s.stab) == generated
    assert len(s.stab0) == 1
    assert s.quotient.invariant_factors == (3, 3)


def test_sym_stabilizers_example_two():
    s = sym_stabilizers(project_to_quotient(example_two()))
    assert s.stab0_young.blocks_one_based() == [[1, 2], [3, 4], [5, 6]]
    assert len(s.stab0) == 8
    assert s.quotient.invariant_factors == (3,)
    assert from_cycles(6, [(1, 3, 5, 2, 4, 6)]) in set(s.stab)


def test_sym_stabilizers_generic_trivial():
    pts = (PointRecord(1, unit(0, (1, 0)), "a", 1),
           PointRecord(1, unit(0, (0, 1)), "a", 1))
    c = CycleConfiguration(n=2, I_t=(1, 3), points=pts)
    s = sym_stabilizers(project_to_quotient(c))
    assert len(s.stab) == 1 and len(s.stab0) == 1
    assert is_trivial(s.quotient)


def test_block_preservation():
    # every stabilizing permutation maps component blocks into themselves
    rng = random.Random(17)
    for _ in range(25):
        c = random_configuration(rng.randrange(2, 7), rng)
        q = project_to_quotient(c)
        s = sym_stabilizers(q)
        for p in s.stab:
            for i in range(c.n):
                assert q.zero_count[p[i]] == q.zero_count[i]


def test_free_action_when_no_degeneration():
    # all base coordinates nonzero: both stabilizers trivial
    rng = random.Random(29)
    for n in (2, 3, 4, 5):
        pts = []
        for i in range(n):
            g = tuple(1 if k == i else 0 for k in range(n))
            pts.append(PointRecord(0, UnitValue(root=F(rng.randrange(12), 12), generic=g),
                                   "a", 1))
        c = CycleConfiguration(n=n, I_t=(), points=tuple(pts))
        assert is_trivial(torus_stabilizer(c))
        s = sym_stabilizers(project_to_quotient(c))
        assert len(s.stab) == 1
        rep = verify_comparison(c)
        assert rep.passed


# ---------------------------------------------------------------------------
# comparison + oracles


def test_verify_comparison_examples():
    r1 = verify_comparison(example_one())
    assert r1.passed and r1.torus_side.invariant_factors == (3, 3)
    r2 = verify_comparison(example_two())
    assert r2.passed and r2.sym_side.invariant_factors == (3,)


def test_ragged_generic_vectors_name_one_position():
    # (1,) and (1, 0) are one generic position: the a-pair and the b-pair
    # are each one shift orbit, so the torus side is Z/2, as for the padded twin
    def config(a_generics):
        pts = [PointRecord(1, UnitValue(F(j, 2), g), "a", 1) for j, g in enumerate(a_generics)]
        pts += [PointRecord(1, UnitValue(F(j, 2), (0, 1)), "b", 1) for j in range(2)]
        return CycleConfiguration(n=4, I_t=(1, 5), points=tuple(pts))

    for c in (config([(1,), (1, 0)]), config([(1, 0), (1, 0)])):
        rep = verify_comparison(c)
        assert rep.passed
        assert rep.torus_side.invariant_factors == rep.sym_side.invariant_factors == (2,)
    assert config([(1,), (1, 0)]) == config([(1, 0), (1, 0)])
    with pytest.raises(ValueError, match="duplicate"):
        CycleConfiguration(n=2, I_t=(), points=(PointRecord(0, UnitValue(F(0), (1,)), "a", 1),
                                                PointRecord(0, UnitValue(F(0), (1, 0)), "a", 1)))


# The constructors' checks raise, not assert, so CI runs these under python -O
# (-k enforced) as well.


def test_root_reduction_is_enforced():
    for root in (F(-1, 3), F(5, 3), F(2, 3)):
        assert UnitValue(root).root == F(2, 3)
        assert type(UnitValue(root).root) is F
    assert UnitValue(0).root == UnitValue(F(0)).root == UnitValue(1).root == 0
    assert type(UnitValue(1).root) is F and type(UnitValue(-7).root) is F


def test_float_root_is_enforced():
    for root in (0.5, 0.0, "1/2"):
        with pytest.raises(TypeError, match="int or a Fraction"):
            UnitValue(root, (1,))


def test_duplicate_positions_are_enforced():
    # one position, spelt twice: 1/2 and 2/4, 0 and Fraction(0), 3/2 and 1/2
    for a, b in ((F(1, 2), F(2, 4)), (0, F(0)), (F(3, 2), F(1, 2))):
        with pytest.raises(ValueError, match="duplicate"):
            CycleConfiguration(n=2, I_t=(), points=(PointRecord(0, UnitValue(a, (1,)), "a", 1),
                                                    PointRecord(0, UnitValue(b, (1,)), "a", 1)))
    # the same root on another component, with another label or generic is new
    half = PointRecord(0, UnitValue(F(1, 2), (1,)), "a", 1)
    CycleConfiguration(n=2, I_t=(2,), points=(half, dataclasses.replace(half, component=1)))
    for other in (dataclasses.replace(half, a1_label="b"),
                  dataclasses.replace(half, position=UnitValue(F(1, 2), (0, 1)))):
        CycleConfiguration(n=2, I_t=(), points=(half, other))


def test_ragged_json_generics_padding_is_enforced():
    def config(generics, roots=("0", "1/2")):
        return jsonio.configuration_from_json({"n": 2, "I_t": [], "points": [
            {"component": 0, "root": r, "generic": g, "a1": "a"}
            for r, g in zip(roots, generics)]})

    c = config([[1], [1, 0, 0]])
    assert [p.position.generic for p in c.points] == [(1, 0, 0), (1, 0, 0)]
    assert c == config([[1, 0, 0], [1, 0, 0]])
    with pytest.raises(ValueError, match="duplicate"):
        config([[1], [1, 0]], roots=("1/2", "2/4"))


def wide_generics(c: CycleConfiguration, rng: random.Random, bound: int) -> CycleConfiguration:
    """``c`` with each generic vector replaced by one of three drawn vectors
    of its own width, their entries negative and positive, up to ``bound`` in
    size, ±bound among them; None when two records then share a position."""
    pool = [tuple(rng.choice((-bound, bound, rng.randint(-bound, bound)))
                  for _ in c.points[0].position.generic) for _ in range(3)]
    drawn = {}
    pts = tuple(dataclasses.replace(p, position=UnitValue(
        p.position.root, drawn.setdefault(p.position.generic, rng.choice(pool))))
        for p in c.points)
    try:
        return CycleConfiguration(c.n, c.I_t, pts)
    except ValueError:
        return None


def classes_by_tuple_keys(q: QuotientPoint) -> list[list[int]]:
    """The ratio classes keyed by (segment, root prefix, generic prefix as a
    tuple, label), in the order of their first slots."""
    classes: dict[tuple, list[int]] = {}
    for x in range(q.n):
        key = (q.zero_count[x], q.prefix_root[x], q.prefix_gen[x], q.a1_codes[x])
        classes.setdefault(key, []).append(x)
    return list(classes.values())


def test_int_image_keys_match_tuple_keys_enforced():
    """The generic prefixes as ints in balanced base 6M + 3 give the classes
    and the images that the tuple keys give, on both slot layouts, with
    generic entries of either sign up to ±10^6 and prefix sums beyond them,
    and with entries up to ±2, where a smaller base would let a key's sum
    alias another slot's prefix.  The one width the digits need is checked by
    an explicit raise, so also under python -O."""
    rng, seen = random.Random(54), 0
    for n in range(1, 13):
        for bound in (10 ** 6, 2) * 8:
            c = wide_generics(random_configuration(n, rng), rng, bound)
            if c is None:
                continue
            for q in (project_to_quotient(c), sorted_layout(c)):
                assert _image_lookup(q)[1] == classes_by_tuple_keys(q), c
                assert expanded_lookup(q) == image_tables_by_pairs(q), c
                seen += max(map(abs, sum(q.prefix_gen, ()))) > 10 ** 6
    assert seen > 50   # prefix sums beyond the entries' bound are reached
    # a key's digits reach 3M: with M = 2, P[2] + P[1] - P[0] = (3, 0) is
    # -2 + 1·5, slot 3's prefix (-2, 1), in base 2M + 1 = 5, and no prefix in
    # base 15, so slot 3 is no image of slot 1 after slot 0 maps to 2
    q = QuotientPoint(n=4, denom=1, zero=(True,) + (False,) * 3 + (True,),
                      prefix_root=(0,) * 4, prefix_gen=((0, 0), (1, 0), (2, 0), (-2, 1)),
                      zero_count=(0,) * 4, a1_codes=(0,) * 4)
    assert 3 not in _image_lookup(q)[0](1, 2)
    assert expanded_lookup(q) == image_tables_by_pairs(q)
    q = project_to_quotient(example_one())
    ragged = dataclasses.replace(q, prefix_gen=q.prefix_gen[:-1] + (q.prefix_gen[-1][:-1],))
    with pytest.raises(ValueError, match="one width"):
        _image_lookup(ragged)


def test_stab_finds_each_shift_group_once(tmp_path, capsys, monkeypatch):
    # the order-9 example has two occupied components: one shift group each,
    # shared by the torus factors and the slot layout
    real, calls = stabilizers._component_shift_order, []

    def spy(records):
        calls.append(len(records))
        return real(records)

    monkeypatch.setattr(stabilizers, "_component_shift_order", spy)
    path = tmp_path / "order9.json"
    path.write_text(json.dumps(jsonio.configuration_to_json(example_one())))
    assert cli.main(["stab", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["stab_order"] == 9
    assert len(calls) == 2


def sorted_layout(c):
    """The quotient point with every component's rows in sorted order, not
    split into shift orbits: another layout with the blocks in chain order."""
    return stabilizers._project(c, c.components(), [1] * (len(c.I_t) + 1))


def expanded_lookup(enc: QuotientPoint) -> tuple[list[int], list[list[list[int]]]]:
    """The image lookup asked at every (slot, image of the slot before), laid
    out as ``image_tables_by_pairs`` lays out its tables."""
    images, _ = _image_lookup(enc)
    n = enc.n
    return (list(images(0, -1)),
            [[]] + [[list(images(i, a)) for a in range(n)] for i in range(1, n)])


def assert_tables_and_orders_match_oracles(c):
    """The int shift orders and the hash lookup of admissible images, on
    both slot layouts, equal the Fraction and the per-pair routes."""
    for records in c.components():
        if records:
            assert stabilizers._component_shift_order(records) == \
                component_shift_order_by_fractions(records), c
    for enc in (project_to_quotient(c), sorted_layout(c)):
        assert expanded_lookup(enc) == image_tables_by_pairs(enc), c


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(st.integers(1, 30), st.integers(0, 2 ** 32 - 1), st.booleans())
@example(30, 5, False)
@example(30, 5, True)
def test_hash_tables_and_int_shift_orders_match_oracles(n, seed, instantiated):
    c = random_configuration(n, random.Random(seed))
    assert_tables_and_orders_match_oracles(instantiate(c, seed) if instantiated else c)


def test_hash_tables_and_int_shift_orders_match_oracles_on_fixed_points():
    for c in (shared_position(), mixed_shifts(), example_one(), example_two(),
              *(degenerate_fiber(m) for m in ((8,), (7, 1), (4, 4), (5, 4)))):
        assert_tables_and_orders_match_oracles(c)
    assert is_trivial(torus_stabilizer(mixed_shifts())) and verify_comparison(mixed_shifts()).passed


# ---------------------------------------------------------------------------
# the quotient point from slot rows


def point_configurations():
    """Seeded draws at n = 1..30 and their instantiated copies, the two label
    and shift corner cases, both worked examples and the degenerate fibers."""
    rng = random.Random(24)
    draws = [random_configuration(n, rng) for n in range(1, 31)]
    return (draws + [instantiate(c, seed=k) for k, c in enumerate(draws)]
            + [shared_position(), mixed_shifts(), example_one(), example_two()]
            + [degenerate_fiber(m) for m in ((8,), (7, 1), (4, 4), (5, 4))])


def assert_point_matches_chart_route(q, old):
    """The point built from slot rows against the chart values encoded: the
    same zeros, segments and labels, the root prefixes rescaled from the
    chart route's denominator to the lcm of all root denominators, the same
    generic prefixes, and the same image lookup and search result."""
    assert (q.n, q.zero, q.zero_count, q.a1_codes) == \
        (old.n, old.zero, old.zero_count, old.a1_codes)
    assert q.denom % old.denom == 0
    assert q.prefix_root == tuple(x * (q.denom // old.denom) for x in old.prefix_root)
    # the chart route adds the two end generators' coordinates, 0 in every
    # prefix, and keeps no coordinate when every f_k is zero
    m = len(q.prefix_gen[0])
    old_gen = [g + (0,) * (m + 2 - len(g)) for g in old.prefix_gen]
    assert q.prefix_gen == tuple(g[:m] for g in old_gen)
    assert not any(x for g in old_gen for x in g[m:])
    assert expanded_lookup(q) == expanded_lookup(old)
    assert _image_lookup(q)[1] == _image_lookup(old)[1]
    assert search_stabilizer(q) == search_stabilizer(old)


def test_point_from_slot_rows_matches_chart_route():
    for c in point_configurations():
        comps = c.components()
        for orders in (stabilizers._shift_orders(comps), [1] * len(comps)):
            q = stabilizers._project(c, comps, orders)
            assert_point_matches_chart_route(q, encode_chart_values(chart_values(c, orders)))


def test_comparison_builds_no_unit_value(monkeypatch):
    # the point is built in int from the slot rows: once the configuration
    # exists, its comparison constructs no UnitValue
    rng = random.Random(31)
    configs = [example_one(), example_two(), *point_configurations()[:30],
               *(random_configuration(n, rng) for n in range(2, 9) for _ in range(5))]
    calls = 0
    real = UnitValue.__post_init__

    def spy(self):
        nonlocal calls
        calls += 1
        real(self)

    monkeypatch.setattr(UnitValue, "__post_init__", spy)
    unit(F(1, 2))
    assert calls == 1   # the spy sees a construction
    calls = 0
    for c in configs:
        assert verify_comparison(c).passed
    assert calls == 0


def test_random_configuration_matches_fraction_oracle():
    # comparison_fuzz's trials, DEGEN_SEED and the benchmark's |Stab| profile
    # read this stream: every draw and the RNG state after it stay the same
    for seed in (0, 1, 7, 2024):
        for n in range(1, 13):
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(25):
                c, old = random_configuration(n, fast), random_configuration_by_fractions(n, slow)
                assert c == old, (seed, n)
                assert [type(p.position.root) for p in c.points] == [F] * len(c.points)
            assert fast.getstate() == slow.getstate(), (seed, n)


def test_random_configuration_builds_each_unit_value_once(monkeypatch):
    # each record is built at its final shape: the constructor pads nothing,
    # so there is one UnitValue per point
    calls = 0
    real = UnitValue.__post_init__

    def spy(self):
        nonlocal calls
        calls += 1
        real(self)

    monkeypatch.setattr(UnitValue, "__post_init__", spy)
    rng = random.Random(3)
    points = 0
    for n in range(1, 13):
        for _ in range(50):
            points += len(random_configuration(n, rng).points)
    assert points > 3000
    assert calls == points


ROOT_DENOMINATORS = (1, 2, 3, 4, 6, 12)


@st.composite
def semistable_configurations(draw, sizes=st.integers(1, 9)):
    """Any semistable configuration: roots with denominators in
    ROOT_DENOMINATORS that need not form shift orbits, generic vectors with
    entries in {-1, 0, 1} drawn from one pool shared by all components, labels
    "a" and "b", and multiplicities summing to each component's degree."""
    n = draw(sizes)
    I_t = tuple(sorted(draw(st.sets(st.integers(1, n + 1)))))
    width = draw(st.integers(0, 2))
    pool = draw(st.lists(st.tuples(*[st.sampled_from((-1, 0, 1))] * width),
                         min_size=1, max_size=3))
    root = st.sampled_from(ROOT_DENOMINATORS).flatmap(
        lambda d: st.integers(0, d - 1).map(lambda k: F(k, d)))
    position = st.tuples(root, st.sampled_from(pool), st.sampled_from("ab"))
    points = []
    for comp, degree in enumerate(fiber_degrees(n, I_t)):
        mults = []
        while sum(mults) < degree:
            mults.append(draw(st.integers(1, degree - sum(mults))))
        spots = draw(st.lists(position, min_size=len(mults), max_size=len(mults),
                              unique=True))
        points += [PointRecord(comp, UnitValue(r, g), label, mult)
                   for (r, g, label), mult in zip(spots, mults)]
    return CycleConfiguration(n=n, I_t=I_t, points=tuple(points))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(semistable_configurations())
def test_comparison_on_arbitrary_semistable_configurations(c):
    rep = verify_comparison(c)
    assert rep.passed, c
    assert rep.stab_order == rep.stab0_order * prod(rep.sym_side.invariant_factors), c
    q = project_to_quotient(c)
    assert rep.sym.stab0_young.blocks == ratio_class_blocks(q), c
    assert_point_matches_chart_route(q, encode_chart_values(chart_values(c)))


def search_frames(enc: QuotientPoint, lookups: Counter | None = None) -> Counter:
    """How often ``search_stabilizer`` enters each function of
    ``stab_backends``, by name: its recursive ``extend`` and the lookup
    ``images`` among them.  ``lookups`` counts the lookup's entries by their
    arguments (i, a)."""
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == stab_backends.__file__:
            calls[frame.f_code.co_name] += 1
            if frame.f_code.co_name == "images" and lookups is not None:
                lookups[frame.f_locals["i"], frame.f_locals["a"]] += 1

    sys.setprofile(count)
    try:
        search_stabilizer(enc)
    finally:
        sys.setprofile(None)
    return calls


def search_calls(enc: QuotientPoint) -> int:
    """How often ``search_stabilizer`` enters its recursive ``extend``."""
    return search_frames(enc)["extend"]


def test_search_follows_the_cosets_on_a_trivial_quotient():
    """Blocks of 5, 16, 3, 2 and 2 slots and |Stab/Stab0| = 1: each block
    slot's image needs room above it in its ratio class, so the search does
    not try the ways to start the 16-slot block that leave it no room, and
    it enters ``extend`` once per slot (50 688 times without the bound)."""
    rng = random.Random(5)
    for _ in range(3):
        c = random_configuration(30, rng)
    q = project_to_quotient(c)
    s = sym_stabilizers(q)
    assert sorted(map(len, s.stab0_young.blocks)) == [2, 2, 3, 5, 16]
    assert s.stab.reps == (identity(30),) and is_trivial(s.quotient)
    assert search_calls(q) == 30
    rep = verify_comparison(c)
    assert rep.passed
    assert rep.stab_order == rep.stab0_order == 60_257_634_877_440_000


def test_search_looks_up_only_the_images_it_reads():
    """The same n = 30 draw: the search asks the lookup once per ``extend``
    call, for the images of the slot it is about to visit, and the Young
    certificate at most n times per swap of two consecutive slots of a ratio
    class.  No table of all (n-1)·n admissible-image entries is filled."""
    rng = random.Random(5)
    for _ in range(3):
        c = random_configuration(30, rng)
    q = project_to_quotient(c)
    swaps = sum(len(b) - 1 for b in sym_stabilizers(q).stab0_young.blocks)
    calls = search_frames(q)
    assert calls["extend"] == 30
    assert calls["extend"] <= calls["images"] <= calls["extend"] + q.n * swaps


def test_young_certificate_looks_up_four_slots_per_swap():
    """The same n = 30 draw: the Young certificate tests the identity once,
    n lookups, and then for each swap of slots i < j only the conditions
    at slots i, i+1, j and j+1, the only ones that read p[i] or p[j].  A
    full membership test per swap makes n lookups each, 690 here."""
    rng = random.Random(5)
    for _ in range(3):
        c = random_configuration(30, rng)
    q = project_to_quotient(c)
    images, classes = _image_lookup(q)
    asked = []
    counted = lambda i, a: asked.append(i) or images(i, a)
    young = stab_backends._young_of_classes(q.n, counted, classes)
    swaps = sum(len(b) - 1 for b in young.blocks)
    assert young == sym_stabilizers(q).stab0_young and swaps == 23
    assert q.n < len(asked) <= q.n + 4 * swaps


def test_search_computes_each_lookup_once():
    """Draw 2 of ``random.Random(60)`` at n = 60 has 864 cosets of Stab0: the
    search enters ``extend`` 16 240 times and returns to each slot many
    times, but asks for only 102 distinct (i, a), and the lookup computes
    each of them once."""
    rng = random.Random(60)
    for _ in range(3):
        c = random_configuration(60, rng)
    q, lookups = project_to_quotient(c), Counter()
    calls = search_frames(q, lookups)
    assert calls["extend"] >= 100 * len(lookups)
    assert calls["images"] == len(lookups)
    assert set(lookups.values()) == {1}


def test_search_cost_follows_the_cosets():
    """Every image stays in its slot's segment, so long runs of zero
    coordinates leave the search no dead end to wander into: the n = 26 draw
    here has 24 zeros and one coset, and enters ``extend`` 2620 times when
    an image may go to any later segment."""
    rng = random.Random(14)
    for n in range(2, 27):
        enc = project_to_quotient(random_configuration(n, rng))
        assert search_calls(enc) <= 2 * n * len(search_stabilizer(enc).reps), n


def test_search_matches_full_enumeration():
    for c in oracle_configurations():
        enc = project_to_quotient(c)
        stab = search_stabilizer(enc)
        assert sorted(stab) == full_enumeration(enc), c
        assert len(stab) == len(full_enumeration(enc))
        # one representative per coset, its lexicographic minimum, in order
        assert list(stab.reps) == sorted(set(stab.reps))
        for r in stab.reps:
            assert all(r <= p for p in stab.young.coset(r))


def test_sym_stabilizers_match_oracle():
    # the degenerate fibers are not instantiated: their Stab is the Young
    # subgroup of the multiplicities wherever the points are, and their full
    # enumerations (n = 8, 9) would double the test's time
    configs = oracle_configurations()
    configs += [instantiate(c, seed=k)
                for k, c in enumerate(oracle_configurations(degenerate=False))]
    for c in configs:
        q = project_to_quotient(c)
        s = sym_stabilizers(q)
        o = sym_stabilizers_oracle(q)
        assert len(s.stab) == len(o.stab) and set(s.stab) == set(o.stab), c
        assert len(s.stab0) == len(o.stab0) and set(s.stab0) == set(o.stab0), c
        assert s.stab0_young == o.young and s.quotient == o.quotient, c
        notations = sorted(cycle_notation(p) for p in o.stab)
        # counts below |Stab| run the token search, the others sort Stab
        for count in (1, len(o.stab) - 1, 50, len(o.stab)):
            if count <= 720:
                assert s.stab.first_cycle_notations(count) == notations[:count], c


def test_young_blocks_are_the_ratio_classes():
    """Stab0's blocks are the slots partitioned by a slot ratio of 1 and equal
    labels, on both slot layouts (the semistable strategy checks the same in
    ``test_comparison_on_arbitrary_semistable_configurations``)."""
    rng = random.Random(39)
    for n in range(1, 13):
        for _ in range(20):
            c = random_configuration(n, rng)
            for enc in (project_to_quotient(c), sorted_layout(c)):
                assert search_stabilizer(enc).young.blocks == ratio_class_blocks(enc), c


def test_quotient_acts_on_the_ratio_classes(monkeypatch):
    """The quotient's elements are permutations of the m ratio classes, Y's
    blocks and the fixed slots, one per coset, not permutations of the slots."""
    seen = []
    real = stabilizers.abelian_invariant_factors_of_group

    def spy(elements, mul, ident):
        seen.append((elements, ident))
        return real(elements, mul, ident)

    monkeypatch.setattr(stabilizers, "abelian_invariant_factors_of_group", spy)
    rng = random.Random(7)
    configs = [example_one(), example_two(), shared_position()]
    configs += [random_configuration(n, rng) for n in range(2, 13) for _ in range(5)]
    for c in configs:
        seen.clear()
        s = sym_stabilizers(project_to_quotient(c))
        blocks = s.stab0_young.blocks
        m = len(blocks) + c.n - sum(map(len, blocks))
        [(elements, ident)] = seen
        assert ident == identity(m) and len(elements) == len(s.stab.reps), c
        assert all(len(x) == m for x in elements), c


def test_stab_generators_two_digit_labels(tmp_path, capsys):
    # "(1 10)" < "(1 2)" as strings: the listing must follow string order
    c = degenerate_fiber((4, 3, 3))
    enc = project_to_quotient(c)
    blocks = [range(0, 4), range(4, 7), range(7, 10)]
    stab = []
    for images in product(*(permutations(b) for b in blocks)):
        stab.append(tuple(x for img in images for x in img))
    assert all(is_member(enc, p) for p in stab)
    path = tmp_path / "deg433.json"
    path.write_text(json.dumps(jsonio.configuration_to_json(c)))
    assert cli.main(["stab", str(path), "--brute-force-max", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    notations = sorted(cycle_notation(p) for p in stab)
    assert out["stab_order"] == len(stab) == 864
    assert out["stab_generators"] == notations[:50]
    # the string search itself, below and at |Stab|
    union = sym_stabilizers(enc).stab
    for count in (1, 2, 10, 49, 51, 863, 864):
        assert union.first_cycle_notations(count) == notations[:count], count


def test_stab_prints_the_searched_strings(tmp_path, capsys, monkeypatch):
    """On the (8,) fiber, |Stab| = 8! is above the 50 strings printed: the
    token search writes them, and ``cycle_notation`` is never called."""
    c = degenerate_fiber((8,))
    expected = sorted(map(cycle_notation, sym_stabilizers(project_to_quotient(c)).stab))[:50]
    calls = Counter()
    real = groups.cycle_notation
    monkeypatch.setattr(groups, "cycle_notation", lambda p: calls.update(["call"]) or real(p))
    path = tmp_path / "deg8.json"
    path.write_text(json.dumps(jsonio.configuration_to_json(c)))
    assert cli.main(["stab", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["stab_generators"] == expected
    assert calls["call"] == 0
    # the spy sees the sorted route, which one short listing takes
    assert CosetUnion(((1, 0),), YoungSubgroup(2, ())).first_cycle_notations(50) == ["(1 2)"]
    assert calls["call"] == 1


def test_toric_oracle_agrees():
    rng = random.Random(55)
    count = 0
    for _ in range(40):
        n = rng.randrange(2, 6)
        c = random_configuration(n, rng)
        enc = project_to_quotient(c)
        assert toric_fixed_points(chart_values(c)) == set(search_stabilizer(enc))
        count += 1
    assert count == 40
    for c in (example_one(), example_two()):
        q = project_to_quotient(c)
        if q.n <= 6:
            assert toric_fixed_points(chart_values(c)) == set(search_stabilizer(q))


def test_oracle_matrices_built_once_per_n():
    from toricgit.degeneration import ambient_reflections, permutation_matrices
    for n in (2, 3, 4):
        assert _ambient_permutation_matrices(n) is _ambient_permutation_matrices(n)
        assert _ambient_permutation_matrices(n) == \
            permutation_matrices(n, ambient_reflections(n))


def test_instantiation_oracle():
    rng = random.Random(77)
    for trial in range(20):
        c = random_configuration(rng.randrange(2, 7), rng)
        ci = instantiate(c, seed=trial)
        a = verify_comparison(c)
        b = verify_comparison(ci)
        assert a.passed and b.passed
        assert a.torus_side == b.torus_side and a.sym_side == b.sym_side
        assert a.stab_order == b.stab_order


def test_layout_conjugacy_invariance():
    rng = random.Random(99)
    for _ in range(20):
        c = random_configuration(rng.randrange(2, 7), rng)
        s1 = sym_stabilizers(project_to_quotient(c))
        s2 = sym_stabilizers(sorted_layout(c))
        assert len(s1.stab) == len(s2.stab)
        assert len(s1.stab0) == len(s2.stab0)
        assert s1.quotient == s2.quotient


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(semistable_configurations(), st.integers(0, 2 ** 32 - 1))
def test_instantiation_oracle_on_semistable_configurations(c, seed):
    # any semistable configuration, not only random_configuration's shift
    # orbits: its formal generics and their instantiation agree on both sides
    a, b = verify_comparison(c), verify_comparison(instantiate(c, seed))
    assert a.passed and b.passed, c
    assert (a.torus_side, a.sym_side, a.stab_order, a.stab0_order) == \
        (b.torus_side, b.sym_side, b.stab_order, b.stab0_order), (c, seed)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(semistable_configurations())
def test_layout_conjugacy_invariance_on_semistable_configurations(c):
    # the shift-orbit layout and the sorted one are conjugate points: the
    # same |Stab|, |Stab0|, Young block sizes and quotient
    s1, s2 = sym_stabilizers(project_to_quotient(c)), sym_stabilizers(sorted_layout(c))
    assert (len(s1.stab), len(s1.stab0), s1.quotient) == \
        (len(s2.stab), len(s2.stab0), s2.quotient), c
    assert sorted(map(len, s1.stab0_young.blocks)) == sorted(map(len, s2.stab0_young.blocks)), c


def test_randomized_comparison_small():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randrange(2, 8)
        c = random_configuration(n, rng)
        rep = verify_comparison(c)
        assert rep.passed, (n, c)


def test_stab0_young_and_normal_are_enforced(monkeypatch):
    # a single n-fold point: everything is trivial-angle, and the checks pass
    for n in range(4, 8):
        c = CycleConfiguration(n=n, I_t=(1, n + 1),
                               points=(PointRecord(1, unit(0, (1,)), "a", n),))
        s = sym_stabilizers(project_to_quotient(c))
        assert len(s.stab) == len(s.stab0) and is_trivial(s.quotient)
        assert is_trivial(torus_stabilizer(c))
    # Young: a swap of two slots of one ratio class, here a block of example
    # two, that does not fix the point
    with monkeypatch.context() as m:
        m.setattr(stab_backends, "_fixes", lambda p, images: False)
        with pytest.raises(ValueError, match="not a Young subgroup"):
            sym_stabilizers(project_to_quotient(example_two()))
    # Stab0 = Y: a second representative that keeps every ratio class, here
    # the swap of the slots 1 and 2 of example two's block {1, 2}
    real_search = stabilizers.search_stabilizer

    def trivial_twice(enc):
        stab = real_search(enc)
        swap = (1, 0) + identity(enc.n)[2:]
        return CosetUnion(stab.reps + (swap,), stab.young)

    with monkeypatch.context() as m:
        m.setattr(stabilizers, "search_stabilizer", trivial_twice)
        with pytest.raises(ValueError, match="act alike on the ratio classes"):
            sym_stabilizers(project_to_quotient(example_two()))
    # normality: the rotations of example two move the block {1, 2} onto
    # {3, 4} and {5, 6}, which are not blocks once only {1, 2} is kept
    def one_block(enc):
        stab = real_search(enc)
        return CosetUnion(stab.reps, YoungSubgroup(enc.n, stab.young.blocks[:1]))

    with monkeypatch.context() as m:
        m.setattr(stabilizers, "search_stabilizer", one_block)
        with pytest.raises(AssertionError, match="not normal"):
            sym_stabilizers(project_to_quotient(example_two()))


def test_orders_beyond_len_limit():
    # one point of multiplicity 21: |Stab| = |Stab0| = 21! > sys.maxsize, which
    # len() cannot return, so every order is read from CosetUnion.order()
    from math import factorial
    c = CycleConfiguration(n=21, I_t=(), points=(
        PointRecord(component=0, position=UnitValue(root=F(0), generic=()),
                    a1_label="a", multiplicity=21),))
    rep = verify_comparison(c)
    assert rep.passed
    assert rep.stab_order == rep.stab0_order == factorial(21)
    sym = sym_stabilizers(project_to_quotient(c))
    assert len(sym.stab.first_cycle_notations(3)) == 3
