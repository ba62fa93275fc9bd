"""Acceptance suite: one test per acceptance criterion, exact assertions,
with the stated wall-clock budgets enforced.  Run with `pytest -k acceptance`
or the whole file; each criterion prints its own PASS line and timing."""

import random
import time
from fractions import Fraction as F
from itertools import permutations

from oracles import (ambient_quotient_slice, ambient_slice, det_unimodular, from_cycles,
                     head_orbit, intersection, minkowski_sum, orbit_fan_by_cone_dd,
                     smith_normal_form)
from toricgit.cones import Cone, image_cone
from toricgit.degeneration import (_pb, build_bundle, build_symmetric, constant_tail,
                                   decode_ray_label, head_vertex, identity_slice_vertex,
                                   product_cone_ambient, product_linearization,
                                   product_polyhedron, symmetric_orbit, verify)
from toricgit.git import quotient_polyhedron, unstable_rays
from toricgit.groups import compose, identity
from toricgit.linalg import Matrix, hermite_normal_form, elementary_divisors, kernel_basis
from toricgit.polyhedra import Fan, LatticePolyhedron, normal_fan
from toricgit.stabilizers import (CycleConfiguration, PointRecord, UnitValue,
                                  project_to_quotient, random_configuration,
                                  sym_stabilizers, torus_stabilizer,
                                  verify_comparison)


def report(num, label, t0, budget):
    elapsed = time.perf_counter() - t0
    print(f"PASS criterion {num:2d} [{label}] in {elapsed:.2f}s (budget {budget}s)")
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_01_conical_part():
    t0 = time.perf_counter()
    for n in range(1, 5):
        b = build_bundle(n)
        assert image_cone(b.projection, b.product_cone) == product_cone_ambient(n), n
    report(1, "projected product cone equals the chamber-orbit cone, n=1..4", t0, 10)


def test_criterion_02_slice_vertices():
    t0 = time.perf_counter()
    for n in range(2, 5):
        sl = ambient_quotient_slice(product_polyhedron(n).polytopal_part().canonicalize(),
                                    product_linearization(n))
        got = set(sl.vertex_candidates)
        # the closed forms are scaled by n + 1; the m_s are the orbit of m_id
        expected = {tuple(F(x, n + 1) for x in m)
                     for m in head_orbit(n, identity_slice_vertex(n))}
        assert got == expected, n
        heads = {v[:n] for v in got}
        su = {tuple(F(head_vertex(n)[list(s).index(j)], n + 1) for j in range(n))
              for s in permutations(range(n))}
        assert heads == su, n
        tail = tuple(F(x, n + 1) for x in constant_tail(n))
        assert all(v[n:] == tail for v in got), n
    report(2, "slice polytope vertices and constant tail, n=2..4", t0, 30)


def test_criterion_03_quotient_theorem():
    t0 = time.perf_counter()
    for n in range(2, 5):
        rep = verify(n, "quotient_theorem")
        assert rep.status == "pass", (n, rep.witness)
    report(3, "scaled basis-changed slice equals the resolution polytope, n=2..4", t0, 30)


def test_criterion_04_normal_fan():
    t0 = time.perf_counter()
    for n in range(2, 5):
        sym = build_symmetric(n)
        nf = normal_fan(symmetric_orbit(sym)[2])
        assert nf == Fan(n + 1, orbit_fan_by_cone_dd(n), sym.product_cone), n
        if n == 4:
            assert len(nf.maximal_cones) == 24
    report(4, "normal fan equals the orbit fan, n=2..4", t0, 60)


def test_criterion_05_unstable_locus():
    t0 = time.perf_counter()
    for n in range(2, 5):
        b = build_bundle(n)
        _, h, support = _pb(n)
        data = unstable_rays(b.product_facets, support, h)
        assert len(data) == 2 ** n * (n + 1)
        for rd in data:
            I, j = decode_ray_label(n, rd.ray)
            k = len(I)
            assert rd.support_constant == F(-(n - j) * k), (n, I, j)
            assert rd.margin == F((j - k) * ((j - k) * n + n - 2 * k), 2 * (n + 1)), (n, I, j)
            assert rd.margin >= 0
            assert (rd.margin == 0) == (j == k)
            assert rd.unstable == (j != k)
    report(5, "support constants and margins for all (I, j), n=2..4", t0, 30)


def test_criterion_06_base_recovery():
    t0 = time.perf_counter()
    for n in range(1, 5):
        b = build_bundle(n)
        q = quotient_polyhedron(b.family_polyhedron, b.lin_family)
        assert len(q.vertex_candidates) == 1, n
        rec = q.recession
        assert q.ambient_rank == 2 and rec.is_pointed() and len(rec.rays) == 2 \
            and rec.dim() == 2 and rec.is_smooth(), n
    report(6, "family quotient is a point over the affine-plane cone, n=1..4", t0, 10)


def _example_one():
    pts = []
    for comp, gen, lbl in [(1, (1, 0, 0), "a"), (1, (0, 1, 0), "b"), (2, (0, 0, 1), "c")]:
        for j in range(3):
            pts.append(PointRecord(component=comp,
                                   position=UnitValue(root=F(j, 3), generic=gen),
                                   a1_label=lbl, multiplicity=1))
    return CycleConfiguration(n=9, I_t=(1, 7, 10), points=tuple(pts))


def _example_two():
    pts = [PointRecord(component=1, position=UnitValue(root=F(j, 3), generic=(1,)),
                       a1_label="a", multiplicity=2) for j in range(3)]
    return CycleConfiguration(n=6, I_t=(1, 7), points=tuple(pts))


def test_criterion_07_order_nine_example():
    t0 = time.perf_counter()
    c = _example_one()
    assert torus_stabilizer(c).invariant_factors == (3, 3)
    s = sym_stabilizers(project_to_quotient(c))
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
    assert verify_comparison(c).passed
    report(7, "order-9 configuration: (Z/3)^2 on both sides", t0, 60)


def test_criterion_08_order_six_example():
    t0 = time.perf_counter()
    c = _example_two()
    assert torus_stabilizer(c).invariant_factors == (3,)
    s = sym_stabilizers(project_to_quotient(c))
    assert s.stab0_young.blocks_one_based() == [[1, 2], [3, 4], [5, 6]]
    assert s.quotient.invariant_factors == (3,)
    assert verify_comparison(c).passed
    report(8, "order-6 configuration: Z/3 with the double-point Young part", t0, 10)


def test_criterion_09_comparison_fuzzing():
    t0 = time.perf_counter()
    per_n = 200
    for n in range(2, 8):
        rng = random.Random(1000 + n)
        for trial in range(per_n):
            c = random_configuration(n, rng)
            rep = verify_comparison(c)
            assert rep.passed, (n, trial, c)
    report(9, f"{per_n} random stable configurations per n=2..7 all compare equal",
           t0, 300)


def test_criterion_10_kernel_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(8)
    # duality involution
    for _ in range(25):
        rank = rng.randint(1, 6)
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rank + 2)]
        c = Cone(rank, [g for g in gens if any(g)] or [(1,) + (0,) * (rank - 1)])
        assert c.dual().dual() == c
    # HNF/SNF contracts
    for _ in range(60):
        nr, nc = rng.randint(1, 8), rng.randint(1, 8)
        m = Matrix([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        h, u = hermite_normal_form(m)
        assert (u @ m) == h and abs(det_unimodular(u)) == 1
        d, uu, vv = smith_normal_form(m)
        assert (uu @ m @ vv) == d
        kb = kernel_basis(m)
        if kb:
            assert all(x == 1 for x in elementary_divisors(Matrix(kb)))
    # hull idempotence
    for _ in range(12):
        dim = rng.randint(1, 4)
        pts = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(6)]
        p = LatticePolyhedron(dim, pts).canonicalize()
        assert p.canonicalize() == p
    # Minkowski / normal fan refinement
    for _ in range(4):
        dim = 2
        p = LatticePolyhedron(dim, [tuple(rng.randint(-2, 2) for _ in range(dim))
                                    for _ in range(4)]).canonicalize()
        q = LatticePolyhedron(dim, [tuple(rng.randint(-2, 2) for _ in range(dim))
                                    for _ in range(4)]).canonicalize()
        s = minkowski_sum(p, q)
        nf_s = {c.key() for c in normal_fan(s).maximal_cones}
        ref = set()
        for c1 in normal_fan(p).maximal_cones:
            for c2 in normal_fan(q).maximal_cones:
                inter = intersection(c1, c2)
                if inter.dim() == dim:
                    ref.add(inter.key())
        assert nf_s == ref
    # slice-vertex face condition (reuse the library check on a cube slice)
    from toricgit.linalg import dot
    from itertools import product as iproduct
    cube = LatticePolyhedron(3, list(iproduct((0, 1), repeat=3))).canonicalize()
    sl = ambient_slice(cube, Matrix([[1, 1, 1]]), [F(3, 2)])
    for v in sl.vertex_candidates:
        active = [nrm for nrm, o in cube.facet_rep if dot(nrm, v) == o]
        assert 3 - Matrix(active).rank() <= 1
    # Coxeter relations for both representations, n <= 6
    from oracles import weight_reflections
    from toricgit.degeneration import ambient_reflections
    for n in range(2, 7):
        for mats in (weight_reflections(n), ambient_reflections(n)):
            size = mats[0].rows
            ident = Matrix.identity(size)
            for i, m in enumerate(mats):
                assert (m @ m) == ident
                for j in range(i + 2, len(mats)):
                    assert (m @ mats[j]) == (mats[j] @ m)
            for i in range(len(mats) - 1):
                prod = mats[i] @ mats[i + 1]
                assert (prod @ prod @ prod) == ident
    report(10, "kernel property suites (duality, HNF/SNF, hulls, fans, Coxeter)", t0, 120)
