import random
from fractions import Fraction as F
from itertools import permutations

import pytest

from toricgit.groups import (FiniteAbelianGroup, NonabelianQuotientError,
                             abelian_invariant_factors_of_group, compose,
                             cycle_notation, from_cycles, identity,
                             invariant_factors, young_subgroup_of)
from toricgit.stab_backends import (EncodedPoint, ratio_is_one, search_stabilizer,
                                    unit_matches)
from toricgit.stabilizers import (CycleConfiguration, PointRecord, UnitValue,
                                  _ambient_permutation_matrices, check_stability, fiber_degrees, instantiate,
                                  project_to_quotient, random_configuration,
                                  sym_stabilizers, toric_fixed_points,
                                  torus_stabilizer, unit, verify_comparison)


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


def is_member(enc: EncodedPoint, p) -> bool:
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


def full_enumeration(enc: EncodedPoint):
    """Reference stabilizer: every permutation of S_n, tested one by one."""
    return [p for p in permutations(range(enc.n)) if is_member(enc, p)]


# ---------------------------------------------------------------------------
# groups


def test_invariant_factors():
    assert invariant_factors([3, 3]) == (3, 3)
    assert invariant_factors([2, 3]) == (6,)
    assert invariant_factors([4, 6]) == (2, 12)
    assert invariant_factors([]) == ()
    assert FiniteAbelianGroup.from_cyclic_orders([1, 1]).is_trivial()


def test_young_subgroup():
    perms = [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2), (1, 0, 3, 2)]
    y = young_subgroup_of(perms, 4)
    assert y.blocks == ((0, 1), (2, 3))
    assert y.order() == 4
    with pytest.raises(ValueError):
        young_subgroup_of([(0, 1, 2, 3), (1, 2, 0, 3)], 4)


def test_abelian_invariants_of_klein_group():
    elems = [(0, 0), (0, 1), (1, 0), (1, 1)]
    mul = lambda a, b: ((a[0] + b[0]) % 2, (a[1] + b[1]) % 2)
    assert abelian_invariant_factors_of_group(elems, mul, (0, 0)) == (2, 2)


def test_nonabelian_detection():
    import itertools
    elems = list(itertools.permutations(range(3)))
    with pytest.raises(NonabelianQuotientError):
        abelian_invariant_factors_of_group(elems, compose, identity(3))


# ---------------------------------------------------------------------------
# degrees and stability


def test_fiber_degrees_examples():
    assert fiber_degrees(9, (1, 7, 10)) == [0, 6, 3, 0]
    assert fiber_degrees(3, ()) == [3]
    assert fiber_degrees(4, (3,)) == [2, 2]


def test_check_stability():
    assert check_stability(example_one())
    c = CycleConfiguration(n=2, I_t=(1, 3), points=(
        PointRecord(1, unit(0, (1,)), "a", 1),
        PointRecord(1, unit(F(1, 2), (1,)), "a", 1)))
    assert check_stability(c)
    bad = CycleConfiguration(n=2, I_t=(1, 3), points=(
        PointRecord(1, unit(0, (1,)), "a", 1),
        PointRecord(2, unit(F(1, 2), (1,)), "a", 1)))
    assert not check_stability(bad)


# ---------------------------------------------------------------------------
# torus side


def test_torus_stabilizer_examples():
    assert torus_stabilizer(example_one()).invariant_factors == (3, 3)
    assert torus_stabilizer(example_two()).invariant_factors == (3,)


def test_torus_stabilizer_generic_trivial():
    pts = (PointRecord(1, unit(0, (1, 0)), "a", 1),
           PointRecord(1, unit(0, (0, 1)), "a", 1))
    c = CycleConfiguration(n=2, I_t=(1, 3), points=pts)
    assert torus_stabilizer(c).is_trivial()


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
        m = c.generic_dim()
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
    q = project_to_quotient(example_one())
    v = q.values
    assert v[0].is_zero() and v[6].is_zero() and v[9].is_zero()
    for k in (1, 2, 4, 5, 7, 8):
        assert v[k].root == F(2, 3) and all(x == 0 for x in v[k].generic)
    # the cross-orbit ratio is generic: nonzero generic part
    assert not v[3].is_zero() and any(x != 0 for x in v[3].generic)


def test_projection_example_two():
    q = project_to_quotient(example_two())
    v = q.values
    assert v[0].is_zero() and v[6].is_zero()
    pattern = [v[k].root for k in range(1, 6)]
    assert pattern == [F(0), F(2, 3), F(0), F(2, 3), F(0)]
    assert all(all(x == 0 for x in v[k].generic) for k in range(1, 6))


def test_projection_trivial_n1():
    c = CycleConfiguration(n=1, I_t=(), points=(PointRecord(0, unit(0, (1,)), "a", 1),))
    q = project_to_quotient(c)
    assert len(q.values) == 2
    assert not q.values[0].is_zero() and not q.values[1].is_zero()


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
    assert s.quotient.is_trivial()


def test_sym_stabilizers_bound():
    with pytest.raises(ValueError):
        sym_stabilizers(project_to_quotient(example_one()), brute_force_max=5)


def test_block_preservation():
    # every stabilizing permutation maps component blocks into themselves
    rng = random.Random(17)
    for _ in range(25):
        c = random_configuration(rng.randrange(2, 7), rng)
        q = project_to_quotient(c)
        s = sym_stabilizers(q)
        for p in s.stab:
            for i in range(c.n):
                assert q.slot_components[p[i]] == q.slot_components[i]


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
        assert torus_stabilizer(c).is_trivial()
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


def test_search_matches_full_enumeration():
    rng = random.Random(101)
    configs = [random_configuration(n, rng) for n in range(1, 8) for _ in range(6)]
    configs += [example_one(), example_two()]
    configs += [degenerate_fiber(m) for m in ((8,), (7, 1), (4, 4), (5, 4))]
    for c in configs:
        enc = project_to_quotient(c).encode()
        assert search_stabilizer(enc) == full_enumeration(enc), c


def test_toric_oracle_agrees():
    rng = random.Random(55)
    count = 0
    for _ in range(40):
        n = rng.randrange(2, 6)
        c = random_configuration(n, rng)
        q = project_to_quotient(c)
        enc = q.encode()
        assert toric_fixed_points(q) == set(search_stabilizer(enc))
        count += 1
    assert count == 40
    for c in (example_one(), example_two()):
        q = project_to_quotient(c)
        if q.n <= 6:
            assert toric_fixed_points(q) == set(search_stabilizer(q.encode()))


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
        s1 = sym_stabilizers(project_to_quotient(c, orbit_major=True))
        s2 = sym_stabilizers(project_to_quotient(c, orbit_major=False))
        assert len(s1.stab) == len(s2.stab)
        assert len(s1.stab0) == len(s2.stab0)
        assert s1.quotient == s2.quotient


def test_randomized_comparison_small():
    rng = random.Random(2024)
    for _ in range(60):
        n = rng.randrange(2, 8)
        c = random_configuration(n, rng)
        rep = verify_comparison(c)
        assert rep.passed, (n, c)


def test_stab0_young_and_normal_are_enforced():
    # sym_stabilizers raises if its internal structure checks fail; run it on
    # configurations rich in repeated points to exercise those paths
    rng = random.Random(123)
    for _ in range(15):
        n = rng.randrange(4, 8)
        pts = []
        rem = n
        comp_it = (1,)
        mult = 2 if n % 2 == 0 else 1
        pts.append(PointRecord(1, unit(0, (1,)), "a", n))
        c = CycleConfiguration(n=n, I_t=(1, n + 1), points=tuple(pts))
        s = sym_stabilizers(project_to_quotient(c))
        # a single n-fold point: everything is trivial-angle
        assert len(s.stab) == len(s.stab0)
        assert s.quotient.is_trivial()
        assert torus_stabilizer(c).is_trivial()
