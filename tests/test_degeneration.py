from fractions import Fraction as F
from itertools import permutations, product

import pytest

from toricgit.cones import Cone, image_cone
from toricgit.degeneration import (DegenerationBundle, VERIFY_CHECKS, _bundle,
                                   _symmetric, ambient_reflections, build_bundle,
                                   build_symmetric, chamber_cone, checks_for,
                                   constant_tail, decode_ray_label, head_vertex,
                                   permutation_matrices, product_cone_ambient,
                                   slice_vertex, verify, weight_reflections)
from toricgit.linalg import Matrix, invert


def test_bundle_shifts_and_vertices():
    b2 = build_bundle(2)
    assert b2.lin_family.b == (F(1, 3), F(2, 3))
    b3 = build_bundle(3)
    assert b3.lin_product.b == (F(3, 4), F(6, 4), F(9, 4))
    assert slice_vertex(2, 1) == (F(2, 3), F(0))
    assert slice_vertex(2, 2) == (F(1), F(1, 3))
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            assert sum(slice_vertex(n, i)) == F(i * n, n + 1)


def test_bundle_bounds():
    with pytest.raises(ValueError):
        build_bundle(0)
    with pytest.raises(ValueError):
        build_bundle(6)
    with pytest.raises(ValueError):
        build_symmetric(1)
    with pytest.raises(ValueError):
        build_symmetric(7)


def test_head_vertex_steps():
    assert head_vertex(2) == (F(-5, 3), F(-1, 3))
    for n in (2, 3, 4):
        u = head_vertex(n)
        assert all(u[k + 1] - u[k] == 1 + F(1, n + 1) for k in range(n - 1))


def test_product_polyhedron_vertex_count():
    for n in (1, 2, 3):
        b = build_bundle(n)
        assert len(b.product_polyhedron.vertex_candidates) == (n + 1) ** n


def test_product_polyhedron_facets_vs_generic_dd():
    # seeded support-function facets must agree with the generic computation
    for n in (1, 2, 3):
        b = build_bundle(n)
        fresh = b.product_polyhedron
        from toricgit.polyhedra import LatticePolyhedron
        generic = LatticePolyhedron(fresh.ambient_rank, fresh.vertex_candidates,
                                    fresh.recession).canonicalize()
        assert set(generic.facet_rep) == set(fresh.facet_rep)
        assert generic == fresh


def test_product_polyhedron_against_brute_force_n2():
    from toricgit.polyhedra import LatticePolyhedron, linear_image, minkowski_sum
    b = build_bundle(2)
    cube = LatticePolyhedron(4, list(product((0, 1), repeat=4)))
    pw = linear_image(b.cube_map, cube.canonicalize())
    brute = minkowski_sum(pw, LatticePolyhedron(5, [(0,) * 5], b.product_rec_dual))
    assert brute == b.product_polyhedron


def test_permutohedron_n3_vertices():
    sym = build_symmetric(3)
    got = set(sym.permutohedron.vertex_candidates)
    assert got == {(F(0), F(0)), (F(1), F(-1)), (F(2), F(0)),
                   (F(0), F(1)), (F(1), F(1)), (F(2), F(-1))}


def test_ambient_reflection_n2():
    sym = build_symmetric(2)
    m = sym.reflections_ambient[0]
    assert [[int(x) for x in r] for r in m.entries] == [[1, -1, 0], [0, -1, 0], [0, 1, 1]]
    assert (m @ m) == Matrix.identity(3)


def test_product_cone_n2_is_conifold():
    sym = build_symmetric(2)
    assert len(sym.product_cone.rays) == 4


def coxeter_relations_hold(mats):
    n = len(mats) + 1
    size = mats[0].rows
    ident = Matrix.identity(size)
    for i, m in enumerate(mats):
        assert (m @ m) == ident
        for j in range(i + 2, len(mats)):
            assert (m @ mats[j]) == (mats[j] @ m)
    for i in range(len(mats) - 1):
        prod = mats[i] @ mats[i + 1]
        assert (prod @ prod @ prod) == ident


def test_coxeter_relations_both_reps():
    for n in range(2, 7):
        coxeter_relations_hold(list(weight_reflections(n)))
        coxeter_relations_hold(list(ambient_reflections(n)))


def test_equivariance_of_projection():
    # dropping the first and last coordinates intertwines the two actions
    for n in range(2, 6):
        proj = Matrix([[1 if j == i + 1 else 0 for j in range(n + 1)]
                       for i in range(n - 1)])
        for wa, aa in zip(weight_reflections(n), ambient_reflections(n)):
            assert (proj @ aa) == (wa @ proj)


def test_dual_product_cone_invariant_under_dual_action():
    for n in (2, 3, 4):
        sym = build_symmetric(n)
        dual = sym.product_cone.dual()
        for m in ambient_reflections(n):
            mt_inv = invert(m.transpose())
            moved = Cone(n + 1, [tuple(int(x) for x in (mt_inv @ g))
                                 for g in dual.generators])
            assert moved == dual


def test_normal_cone_at_identity_vertex_is_chamber():
    for n in (2, 3):
        sym = build_symmetric(n)
        # dual of (product cone dual + iota edge cone) = the chamber
        gens = list(sym.product_cone.dual().generators)
        for col in sym.edge_matrix.columns():
            gens.append((0,) + tuple(int(x) for x in col) + (0,))
        assert Cone(n + 1, gens).dual() == sym.chamber


def test_fan_cone_count():
    for n in (2, 3, 4):
        sym = build_symmetric(n)
        assert len(sym.fan.maximal_cones) == [1, 1, 2, 6, 24][n]
        for c in sym.fan.maximal_cones:
            assert c.is_smooth()


def test_permutation_matrices_homomorphism():
    from toricgit.groups import compose
    for n in (3, 4):
        mats = permutation_matrices(n, ambient_reflections(n))
        perms = list(mats)
        import random
        rng = random.Random(4)
        for _ in range(10):
            p = rng.choice(perms)
            q = rng.choice(perms)
            assert mats[compose(p, q)] == (mats[p] @ mats[q])


def test_decode_ray_label():
    assert decode_ray_label(2, (1, 0, 0, 1, 0)) == ((1,), 1)
    assert decode_ray_label(2, (1, 1, 1, 0, 0)) == ((1, 2), 0)
    with pytest.raises(ValueError):
        decode_ray_label(2, (2, 0, 1, 0, 0))


def test_verify_all_checks_pass_n2_n3():
    for n in (2, 3):
        for chk in checks_for(n):
            rep = verify(n, chk)
            assert rep.ok(), (n, chk, rep.witness)


def test_verify_check_n1_subset():
    assert checks_for(1) == ["conical_part", "pb_vertices", "unstable_locus",
                             "base_recovery"]
    for chk in checks_for(1):
        assert verify(1, chk).ok()


def test_verify_unknown_check():
    with pytest.raises(ValueError):
        verify(2, "nonsense")
    with pytest.raises(ValueError):
        verify(1, "normal_fan")
    with pytest.raises(ValueError):
        verify(9, "conical_part")


def test_hyperplane_constants():
    # vertices of the i-th cube slice sum to in/(n+1)
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            w = slice_vertex(n, i)
            for s in permutations(range(n)):
                assert sum(w[k] for k in s) == F(i * n, n + 1)


def test_constant_tail_values():
    assert constant_tail(2) == (F(0), F(2, 3), F(2))
    assert constant_tail(3) == (F(0), F(3, 4), F(9, 4), F(9, 2))


def test_cached_accessors_build_once_per_n():
    for n in (1, 2):
        assert _bundle(n) is _bundle(n)
        assert _bundle(n).product_polyhedron == build_bundle(n).product_polyhedron
    for n in (2, 3):
        assert _symmetric(n) is _symmetric(n)
        assert _symmetric(n).fan == build_symmetric(n).fan
    assert _bundle(1) is not _bundle(2)
