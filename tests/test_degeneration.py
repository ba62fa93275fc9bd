import dataclasses
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement, permutations, product
from math import factorial

import pytest

from oracles import (ambient_quotient_slice, cube_image_slice_by_sums, edge_matrix, invert,
                     minkowski_sum, orbit_fan_by_cone_dd, pb_polyhedron,
                     quotient_images_by_fractions, slice_polyhedron,
                     slice_vertex_points_by_fractions, solve_unique,
                     symmetric_polyhedra_by_dd, unstable_rays_by_vertices,
                     weight_reflections)
from toricgit import cones, dd, degeneration, linalg, polyhedra
from toricgit.cones import Cone
from toricgit.degeneration import (_bundle, _pb, _symmetric, ambient_reflections,
                                   basis_change_matrix, build_bundle, build_symmetric,
                                   chamber_cone, chart_box, checks_for, constant_tail,
                                   decode_ray_label, head_vertex, orbit_cones,
                                   permutation_matrices, permutohedron_points,
                                   product_chart_corners, product_chart_vertices,
                                   product_cone_ambient, product_cone_dual_columns,
                                   product_cube_map, product_linearization,
                                   product_polyhedron, projection_matrix, slice_vertex,
                                   slice_vertex_points, verify)
from toricgit.git import unstable_rays
from toricgit.jsonio import dumps, polyhedron_to_json
from toricgit.linalg import Matrix
from toricgit.polyhedra import (FacetCertificateError, InnerCertificateError,
                                LatticePolyhedron, certified_polyhedron, cube_image_slice,
                                normal_fan)


def test_bundle_shifts_and_vertices():
    b2 = build_bundle(2)
    assert b2.lin_family.b == (F(1, 3), F(2, 3))
    b3 = build_bundle(3)
    assert product_linearization(3).b == (F(3, 4), F(6, 4), F(9, 4))
    # slice_vertex(n, i) is (n+1)·w_i
    assert slice_vertex(2, 1) == (2, 0)
    assert slice_vertex(2, 2) == (3, 1)
    for n in (2, 3, 4):
        for i in range(1, n + 1):
            assert sum(slice_vertex(n, i)) == i * n


def test_bundle_bounds():
    with pytest.raises(ValueError):
        build_bundle(0)
    with pytest.raises(ValueError):
        product_polyhedron(6)
    with pytest.raises(ValueError):
        build_symmetric(1)
    with pytest.raises(ValueError):
        build_symmetric(8)


def test_head_vertex_steps():
    # head_vertex(n) is (n+1)·u
    assert head_vertex(2) == (-5, -1)
    for n in (2, 3, 4):
        u = [F(x, n + 1) for x in head_vertex(n)]
        assert all(u[k + 1] - u[k] == 1 + F(1, n + 1) for k in range(n - 1))


def test_product_polyhedron_vertex_count():
    # every chart vertex is a vertex: the canonical form keeps all of them
    for n in (1, 2, 3):
        assert len(product_polyhedron(n).canonicalize().vertex_candidates) == (n + 1) ** n


def test_product_polyhedron_facets_vs_generic_dd():
    # seeded support-function facets must agree with the generic computation
    for n in (1, 2, 3):
        fresh = product_polyhedron(n)
        from toricgit.polyhedra import LatticePolyhedron
        generic = LatticePolyhedron(fresh.ambient_rank, fresh.vertex_candidates,
                                    fresh.recession).canonicalize()
        assert set(generic.facet_rep) == set(fresh.facet_rep)
        assert generic == fresh


def test_product_polyhedron_against_brute_force_n2():
    from oracles import linear_image
    from toricgit.polyhedra import LatticePolyhedron
    b = build_bundle(2)
    cube = LatticePolyhedron(4, list(product((0, 1), repeat=4)))
    pw = linear_image(product_cube_map(2), cube.canonicalize())
    brute = minkowski_sum(pw, LatticePolyhedron(5, [(0,) * 5], b.product_rec_dual))
    assert brute == product_polyhedron(2)


def test_permutohedron_n3_vertices():
    sym = build_symmetric(3)
    got = set(sym.permutohedron.vertex_candidates)
    assert got == {(F(0), F(0)), (F(1), F(-1)), (F(2), F(0)),
                   (F(0), F(1)), (F(1), F(1)), (F(2), F(-1))}


def test_ambient_reflection_n2():
    m = ambient_reflections(2)[0]
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
        for col in edge_matrix(n).columns():
            gens.append((0,) + tuple(int(x) for x in col) + (0,))
        assert Cone(n + 1, gens).dual() == sym.chamber


def test_fan_cone_count():
    for n in (2, 3, 4):
        sym = build_symmetric(n)
        assert len(sym.fan.maximal_cones) == [1, 1, 2, 6, 24][n]
        for c in sym.fan.maximal_cones:
            assert c.is_smooth()


def _reps(c):
    return c.rays, c.lineality_basis, c.facets, c.equations


def test_orbit_fan_matches_per_cone_dd_oracle():
    # rays and facets transported from the chamber equal each cone's own DD
    for n in range(2, 7):
        got = [_reps(c) for c in orbit_cones(chamber_cone(n), ambient_reflections(n))]
        assert got == [_reps(c) for c in orbit_fan_by_cone_dd(n)], n


def test_build_symmetric_dd_calls_do_not_grow_with_n(monkeypatch):
    from toricgit import dd
    real, calls = dd.cone_from_inequalities, []

    def spy(constraints, ambient):
        calls.append(len(constraints))
        return real(constraints, ambient)

    monkeypatch.setattr(dd, "cone_from_inequalities", spy)
    counts = []
    for n in (3, 5, 6):
        calls.clear()
        build_symmetric(n)
        counts.append(len(calls))
        # no DD over the n! points: the largest input is σ's 2^n generators
        assert max(calls) <= 2 ** n
    assert counts[0] == counts[1] == counts[2]


def test_build_symmetric_moves_the_fan_by_generators(monkeypatch):
    # no ρ(s) per permutation: permutation_matrices is never called, and the
    # only matrix products are the Coxeter relation check, order(s_k s_l) of
    # them for each pair k <= l
    def no_matrices(n, gens):
        raise AssertionError("build_symmetric formed the n! matrices")

    monkeypatch.setattr(degeneration, "permutation_matrices", no_matrices)
    real, calls = Matrix.__matmul__, []

    def spy(a, b):
        if isinstance(b, Matrix):
            calls.append(a.rows)
        return real(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", spy)
    for n in (3, 4, 5, 6):
        calls.clear()
        build_symmetric(n)
        pairs = combinations_with_replacement(range(n - 1), 2)
        assert len(calls) == sum(1 if l == k else 3 if l == k + 1 else 2 for k, l in pairs)


def test_certified_symmetric_polyhedra_build_no_homogenization(monkeypatch):
    # the certificate reads one incidence pass, and normal_fan reads the
    # seeded facets: only an explicit homogenization() builds the cone over
    # P × {1}
    def no_cone(self):
        raise AssertionError("certified_polyhedron built the homogenization")

    with monkeypatch.context() as m:
        m.setattr(LatticePolyhedron, "homogenization", no_cone)
        models = [build_symmetric(n) for n in (3, 4, 5, 6)]
    for sym in models:
        for p in (sym.permutohedron, sym.resolution_polyhedron):
            assert p._canonical and p._cone is None
            assert p.facet_rep and p.hull_equations == ()
    assert normal_fan(models[0].resolution_polyhedron) == models[0].fan


def test_certified_polyhedra_take_no_rank_and_their_normal_fan_no_vertex_dd(monkeypatch):
    # the certificate proves independence from its masks, and a simple
    # vertex's normal cone is simplicial on its tight normals
    def forbidden(*args):
        raise AssertionError("a rank ran")

    for n in (3, 4, 5, 6):
        for d, pts, rec, normals in _symmetric_candidates(n).values():
            rec = (rec or Cone(d, [])).canonical_form()  # its own DD and kernel, before the spy
            with monkeypatch.context() as m:
                m.setattr(linalg, "_echelon", forbidden)
                certified_polyhedron(d, pts, rec, normals)
    real, calls = dd.cone_from_inequalities, []

    def spy(constraints, ambient):
        calls.append(len(constraints))
        return real(constraints, ambient)

    def no_cone(self):
        raise AssertionError("normal_fan built the homogenization")

    for n in (3, 4, 5, 6):
        sym = build_symmetric(n)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(dd, "cone_from_inequalities", spy)
            m.setattr(LatticePolyhedron, "homogenization", no_cone)
            nf = normal_fan(sym.resolution_polyhedron)
        assert len(calls) <= 1, n  # the support, the dual of the recession cone
        assert nf == sym.fan, n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_certified_symmetric_polyhedra_match_dd_oracle(n):
    sym = build_symmetric(n)
    for got, want in zip((sym.permutohedron, sym.resolution_polyhedron),
                         symmetric_polyhedra_by_dd(n)):
        assert got.vertex_candidates == want.vertex_candidates
        assert got.facet_rep == want.facet_rep
        assert got.hull_equations == want.hull_equations
        assert got.recession.key() == want.recession.key()


def _symmetric_candidates(n):
    """(d, points, recession, normals) of the permutohedron and the resolution
    polyhedron, as ``build_symmetric`` passes them to ``certified_polyhedron``."""
    rays = product_cone_ambient(n).rays
    pts = permutohedron_points(n)
    return {"permutohedron": (n - 1, pts, None, [r[1:-1] for r in rays if any(r[1:-1])]),
            "resolution": (n + 1, [(0,) + v + (0,) for v in pts],
                           Cone(n + 1, product_cone_dual_columns(n)), list(rays))}


@pytest.mark.parametrize("name", ["permutohedron", "resolution"])
def test_facet_certificate_rejects_each_dropped_normal(name):
    d, pts, rec, normals = _symmetric_candidates(4)[name]
    certified_polyhedron(d, pts, rec, normals)
    for i in range(len(normals)):
        with pytest.raises(FacetCertificateError):
            certified_polyhedron(d, pts, rec, normals[:i] + normals[i + 1:])


def test_facet_certificate_rejects_a_redundant_normal():
    d, pts, rec, normals = _symmetric_candidates(4)["permutohedron"]
    with pytest.raises(FacetCertificateError, match="on 4 facets"):
        certified_polyhedron(d, pts, rec, normals + [(2, 1, 0)])


def test_facet_certificate_rejects_a_non_simple_polytope():
    octahedron = [tuple(s if i == j else 0 for i in range(3)) for j in range(3) for s in (1, -1)]
    normals = list(product((1, -1), repeat=3))
    with pytest.raises(FacetCertificateError, match="on 4 facets"):
        certified_polyhedron(3, octahedron, None, normals)


def test_facet_certificate_rejects_a_vertex_on_d_dependent_normals():
    # at the origin of the unit cube, (1, 2, 1) = (1, 1, 0) + (0, 1, 1): the
    # origin is on 3 facets, but a ridge through it reaches no other vertex
    normals = [(1, 1, 0), (0, 1, 1), (1, 2, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)]
    with pytest.raises(FacetCertificateError, match="has no other end"):
        certified_polyhedron(3, list(product((0, 1), repeat=3)), None, normals)


def test_facet_certificate_rejects_a_normal_negative_on_the_recession():
    d, pts, rec, normals = _symmetric_candidates(3)["resolution"]
    g = rec.generators[0]
    with pytest.raises(FacetCertificateError, match="negative on the recession"):
        certified_polyhedron(d, pts, rec, normals + [tuple(-x for x in g)])


BAD_CHAMBERS = {
    "not pointed": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)],
    "not full-dimensional": [(1, 0, 0), (0, 1, 0)],
    "not simplicial": [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
}


def test_orbit_transport_guards_hold_under_python_O():
    for name, gens in BAD_CHAMBERS.items():
        with pytest.raises(AssertionError):
            next(orbit_cones(Cone(3, gens), ambient_reflections(2)))
        code = ("from toricgit.cones import Cone\n"
                "from toricgit.degeneration import ambient_reflections, orbit_cones\n"
                "try:\n"
                f"    next(orbit_cones(Cone(3, {gens!r}), ambient_reflections(2)))\n"
                "except AssertionError:\n"
                "    raise SystemExit(7)\n")
        r = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert r.returncode == 7, (name, r.stderr)


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


COXETER_BREAKS = {
    # a shear: s_1 is not an involution
    "s_k^2 = 1": (2, [[[1, 1], [0, 1]]]),
    # two reflections whose product turns by a quarter, not a third
    "(s_k s_k+1)^3 = 1": (3, [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]),
    # the transpositions (12), (23), (13) of S_3: s_1 and s_3 do not commute
    "s_k s_l = s_l s_k": (4, [[[0, 1, 0], [1, 0, 0], [0, 0, 1]],
                              [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
                              [[0, 0, 1], [0, 1, 0], [1, 0, 0]]]),
}


@pytest.mark.parametrize("relation", sorted(COXETER_BREAKS))
def test_permutation_matrices_reject_generators_breaking_a_relation(relation):
    n, gens = COXETER_BREAKS[relation]
    with pytest.raises(AssertionError, match="Coxeter"):
        permutation_matrices(n, [Matrix(g) for g in gens])
    # the orbit fan walks the same Cayley graph, behind the same check
    d = len(gens[0])
    orthant = Cone(d, [tuple(int(i == j) for j in range(d)) for i in range(d)])
    with pytest.raises(AssertionError, match="Coxeter"):
        next(orbit_cones(orthant, [Matrix(g) for g in gens]))


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
            w = [F(x, n + 1) for x in slice_vertex(n, i)]
            for s in permutations(range(n)):
                assert sum(w[k] for k in s) == F(i * n, n + 1)


def test_constant_tail_values():
    # constant_tail(n) is scaled by n + 1
    assert constant_tail(2) == (0, 2, 6)
    assert constant_tail(3) == (0, 3, 9, 18)


def test_cached_accessors_build_once_per_n():
    for n in (1, 2):
        assert _bundle(n) is _bundle(n)
        assert _bundle(n).product_facets == build_bundle(n).product_facets
        assert slice_vertex_points(n) is slice_vertex_points(n)
    for n in (2, 3):
        assert _symmetric(n) is _symmetric(n)
        assert _symmetric(n).fan == build_symmetric(n).fan
    assert _bundle(1) is not _bundle(2)


def test_basis_change_matches_the_per_column_solves():
    # the Bareiss solves of pi^T against the Fraction oracle, one per target
    for n in range(1, 7):
        pit = projection_matrix(n).transpose()
        targets = [[1 if i == a else 0 for i in range(2 * n + 1)] for a in range(n)]
        targets.append([0] * n + [1] * (n + 1))
        want = Matrix.from_columns([solve_unique(pit, t) for t in targets])
        assert basis_change_matrix(n) == want, n


def test_verify_never_lists_the_chart_vertices(monkeypatch):
    # no check reads the (n+1)^n chart corners or their images, at any
    # verified n; a check that called them would report an error
    def no_chart(n):
        raise AssertionError("verify must not list the chart corners or vertices")

    monkeypatch.setattr(degeneration, "product_chart_corners", no_chart)
    monkeypatch.setattr(degeneration, "product_chart_vertices", no_chart)
    _bundle.cache_clear()
    _pb.cache_clear()
    for n in range(1, 7):
        for check in checks_for(n):
            rep = verify(n, check)
            assert rep.ok(), (n, check, rep.witness)


def test_product_polyhedron_is_never_canonicalized(monkeypatch):
    # verify and `build --object expanded` never canonicalize the product
    # polyhedron: its 64 chart vertices at n = 3 are never re-derived as extreme
    from toricgit.cli import main
    from toricgit.polyhedra import LatticePolyhedron
    seen = []
    real = LatticePolyhedron.canonicalize

    def spy(self):
        seen.append((self.ambient_rank, len(self.vertex_candidates)))
        return real(self)

    _bundle.cache_clear()
    _pb.cache_clear()
    monkeypatch.setattr(LatticePolyhedron, "canonicalize", spy)
    try:
        for check in checks_for(3):
            assert verify(3, check).ok(), check
        assert main(["build", "--n", "3", "--object", "expanded"]) == 0
        assert seen and (7, 64) not in seen
    finally:
        _bundle.cache_clear()
        _pb.cache_clear()


# -- P_b from the cube -------------------------------------------------------


def test_chart_vertices_are_images_of_chart_corners():
    for n in (1, 2, 3, 4):
        L = product_cube_map(n)
        corners = product_chart_corners(n)
        assert len(corners) == (n + 1) ** n
        assert all(set(c) <= {0, 1} and len(c) == n * n for c in corners)
        assert product_chart_vertices(n) == [L @ c for c in corners]


def test_pb_from_cube_matches_product_slice():
    # oracle: the ambient slice of the product polytope's H-representation
    for n in (1, 2, 3, 4):
        want = ambient_quotient_slice(product_polyhedron(n).polytopal_part(),
                                      product_linearization(n))
        got = pb_polyhedron(n)
        assert got.vertex_candidates == want.vertex_candidates, n
        assert dumps(polyhedron_to_json(got)) == dumps(polyhedron_to_json(want)), n


def box_corners(lo, hi):
    return product(*[range(a, b + 1) for a, b in zip(lo, hi)])


def test_chart_box_is_a_chart_corner_lookup():
    # every box [lo, hi] of the n^2-cube at n = 2, 3
    for n in (2, 3):
        corners = set(product_chart_corners(n))
        for lo in product((0, 1), repeat=n * n):
            for hi in box_corners(lo, (1,) * (n * n)):
                assert chart_box(n, lo, hi) == all(c in corners for c in box_corners(lo, hi))


def pb_arguments(n):
    """The arguments ``_pb(n)`` hands to ``cube_image_slice``, its chambers
    as a list."""
    seen = []

    def spy(L, f, target, chambers, *rest):
        seen.append((L, f, target, list(chambers), *rest))
        return cube_image_slice(*seen[-1])

    _pb.cache_clear()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(degeneration, "cube_image_slice", spy)
        try:
            _pb(n)
        finally:
            _pb.cache_clear()
    return seen[0]


def cube_pb(n, corner_box=None, drop=None):
    """P_b along ``_pb``'s route, with another corner test or a chamber
    dropped, as a polyhedron."""
    L, f, target, chambers, lineality, box = pb_arguments(n)
    if drop is not None:
        chambers = chambers[:drop] + chambers[drop + 1:]
    images, h, _ = cube_image_slice(L, f, target, chambers, lineality, corner_box or box)
    return slice_polyhedron(L.rows, images, h)


def test_pb_matches_the_route_by_sums():
    # the route it replaced: every partial sum hulled, the corners looked up
    for n in (1, 2, 3, 4):
        lin = product_linearization(n)
        want = cube_image_slice_by_sums(product_cube_map(n), lin.alpha,
                                        [-x for x in lin.b], product_chart_corners(n))
        got = pb_polyhedron(n)
        assert got == want and got.vertex_candidates == want.vertex_candidates, n


def test_pb_cut_has_hypersimplex_blocks():
    # row i of α·L reads cube block i, each column with coefficient -1, and
    # s_i = i·n/(n+1) lies inside (0, n): the contract of cube_image_slice
    for n in range(1, 8):
        lin = product_linearization(n)
        m = lin.alpha @ product_cube_map(n)
        assert m.entries == tuple(tuple(-1 if j // n == i else 0 for j in range(n * n))
                                  for i in range(n)), n
        assert all(0 < b < n for b in lin.b), n


def test_pb_n6_is_the_closed_form():
    try:
        images, h, _ = _pb(6)
    finally:
        _pb.cache_clear()
    # the vertices h·w against the closed form 7·m_s, in order
    assert [tuple(7 * x for x in v) for v in images] == \
        sorted(tuple(h * x for x in m) for m in slice_vertex_points(6))
    assert len(images) == 720


def test_pb_runs_no_double_description_and_no_rank(monkeypatch):
    def forbidden(*args):
        raise AssertionError("P_b must come from the greedy oracle alone")

    monkeypatch.setattr(dd, "cone_from_inequalities", forbidden)
    # every rank runs linalg._echelon; the only eliminations are those that
    # making the linearization takes on its own
    real, calls = linalg._echelon, []
    monkeypatch.setattr(linalg, "_echelon", lambda mat, ncols: calls.append(len(mat)) or
                        real(mat, ncols))
    _pb.cache_clear()
    try:
        for n in range(1, 7):
            calls.clear()
            product_linearization(n)
            alone = calls[:]
            calls.clear()
            assert set(pb_polyhedron(n).vertex_candidates) == \
                set(slice_vertex_points_by_fractions(n)), n
            assert calls == alone, n
    finally:
        _pb.cache_clear()


def test_pb_passes_every_braid_chamber():
    # the n! maximal chains of proper nonempty subsets, tail 0, each ridge (a
    # chain less one subset) shared by exactly two: the braid fan, complete
    # modulo the lineality (1^n; 0) and (0; e_j)
    for n in range(1, 6):
        _, _, _, chambers, lineality, _ = pb_arguments(n)
        tail = (0,) * (n + 1)
        assert len({tuple(ch) for ch in chambers}) == len(chambers) == factorial(n), n
        for ch in chambers:
            assert [sum(nu) for nu in ch] == list(range(1, n)), n
            assert all(nu[n:] == tail and set(nu) <= {0, 1} for nu in ch), n
            assert all(x <= y for a, b in zip(ch, ch[1:]) for x, y in zip(a, b)), n
        ridges = Counter(tuple(ch[:k] + ch[k + 1:]) for ch in chambers for k in range(n - 1))
        assert set(ridges.values()) <= {2}, n
        assert sorted(lineality) == sorted([(1,) * n + tail] + [
            (0,) * n + tuple(int(i == j) for i in range(n + 1)) for j in range(n + 1)]), n


def test_pb_chamber_certificate_leaves_completeness_to_the_caller():
    # each vertex of P_b is the argmin of exactly one braid chamber, so a
    # dropped chamber drops its vertex and the certificate cannot tell
    full = set(pb_polyhedron(4).vertex_candidates)
    assert cube_pb(4) == pb_polyhedron(4)
    for i in range(24):
        part = set(cube_pb(4, drop=i).vertex_candidates)
        assert len(part) == 23 and part < full, i


def test_pb_never_lists_the_chart_corners(monkeypatch):
    def no_corners(n):
        raise AssertionError("P_b must not list the chart corners")

    monkeypatch.setattr(degeneration, "product_chart_corners", no_corners)
    _pb.cache_clear()
    try:
        for n in (1, 2, 3, 4):
            assert set(pb_polyhedron(n).vertex_candidates) == \
                set(slice_vertex_points_by_fractions(n))
    finally:
        _pb.cache_clear()


def test_certificate_needs_every_face_corner():
    # at n = 2 the vertices of P_b have preimages with block sums 2/3 and 4/3,
    # one coordinate strictly between 0 and 1 per block; the faces through
    # them have as corners exactly the chain corners whose block i holds
    # floor or ceil of 2i/3 ones, so removing any of those must raise
    n = 2
    corners = product_chart_corners(n)
    full = cube_pb(n)
    needed = 0
    for c in corners:
        rest = set(corners) - {c}
        lookup = lambda lo, hi: all(x in rest for x in box_corners(lo, hi))
        sums = [sum(c[i * n:(i + 1) * n]) for i in range(n)]
        if all(abs(s - F((i + 1) * n, n + 1)) < 1 for i, s in enumerate(sums)):
            needed += 1
            with pytest.raises(InnerCertificateError):
                cube_pb(n, lookup)
        else:
            assert cube_pb(n, lookup) == full
    assert needed == 7


def test_pb_certificate_failure_is_an_error_report(monkeypatch):
    # without the corner (1, 0, 1, 0) the inner certificate fails at n = 2
    # (see test_certificate_needs_every_face_corner); P_b has no second
    # route, so the check reports the error instead of a result
    n = 2
    real = degeneration.chart_box
    cut = lambda n, lo, hi: real(n, lo, hi) and (1, 0, 1, 0) not in box_corners(lo, hi)
    monkeypatch.setattr(degeneration, "chart_box", cut)
    _pb.cache_clear()
    try:
        rep = verify(n, "pb_vertices")
    finally:
        _pb.cache_clear()
    assert rep.status == "error"
    assert "InnerCertificateError" in rep.witness["exception"]


def test_pb_n5_from_cube_without_bundle(monkeypatch):
    # neither P_b nor the closed-form vertices need the 7776-vertex bundle
    def no_bundle(n):
        raise AssertionError("pb_vertices must not need the bundle")

    monkeypatch.setattr(degeneration, "_bundle", no_bundle)
    _pb.cache_clear()
    slice_vertex_points.cache_clear()
    try:
        rep = verify(5, "pb_vertices")
    finally:
        _pb.cache_clear()
        slice_vertex_points.cache_clear()
    assert rep.status == "pass", rep.witness
    assert rep.witness == {"vertices": 120}


# -- the int slice checks against their Fraction routes ----------------------


def test_int_slice_checks_match_fraction_oracles():
    # the margins from P_b's support function against column_dots over its
    # vertices, the int closed form over n + 1 against the Fraction one, and
    # the Fraction quotient images against the resolution polyhedron
    for n in range(1, 7):
        facets = _bundle(n).product_facets
        _, h, support = _pb(n)
        assert unstable_rays(facets, support, h) == \
            unstable_rays_by_vertices(facets, pb_polyhedron(n)), n
        pts = slice_vertex_points_by_fractions(n)
        assert sorted(tuple(F(x, n + 1) for x in m) for m in slice_vertex_points(n)) \
            == sorted(pts), n
        assert set(pb_polyhedron(n).vertex_candidates) == set(pts), n
        if n >= 2:
            assert quotient_images_by_fractions(n, pts) == \
                set(_symmetric(n).resolution_polyhedron.vertex_candidates), n


def test_int_slice_checks_fail_like_their_fraction_routes(monkeypatch):
    # one closed-form vertex moved off P_b, one tail moved on both, and one
    # support constant lowered by 1/3: each check fails, and its witness is
    # what the Fraction route gives
    for n in (2, 3, 4):
        moved = list(slice_vertex_points(n))
        moved[0] = (moved[0][0] + 1,) + moved[0][1:]
        monkeypatch.setattr(degeneration, "slice_vertex_points", lambda n: moved)
        pts = [tuple(F(x, n + 1) for x in m) for m in moved]
        rep = verify(n, "pb_vertices")
        assert rep.status == "fail"
        extra = set(pb_polyhedron(n).vertex_candidates) - set(pts)
        assert rep.witness == {"unexpected": [list(map(str, v)) for v in sorted(extra)]}
        rep = verify(n, "quotient_theorem")
        assert rep.status == "fail"
        got = quotient_images_by_fractions(n, pts)
        want = _symmetric(n).resolution_polyhedron.vertex_candidates
        assert rep.witness == {"got": sorted(list(map(str, v)) for v in got),
                               "expected": sorted(list(map(str, v)) for v in want)}
        monkeypatch.undo()
        # a tail moved on P_b and on the closed form alike: the tail test fails
        moved = list(slice_vertex_points(n))
        moved[0] = moved[0][:n] + (moved[0][n] + 1,) + moved[0][n + 1:]
        _, _, support = _pb(n)
        monkeypatch.setattr(degeneration, "slice_vertex_points", lambda n: moved)
        monkeypatch.setattr(degeneration, "_pb", lambda n: (sorted(moved), n + 1, support))
        bad = [str(F(x, n + 1)) for x in moved[0]]
        assert verify(n, "pb_vertices").witness == {"bad_tail": [bad]}
        assert verify(n, "quotient_theorem").witness == {"bad_tail": bad}
        monkeypatch.undo()
        b = _bundle(n)
        (v, o), rest = b.product_facets[-1], b.product_facets[:-1]
        lowered = rest + ((v, o - F(1, 3)),)
        monkeypatch.setattr(degeneration, "_bundle",
                            lambda n: dataclasses.replace(b, product_facets=lowered))
        rep = verify(n, "unstable_locus")
        monkeypatch.undo()
        assert rep.status == "fail"
        data = unstable_rays_by_vertices(lowered, pb_polyhedron(n))
        assert rep.witness["ray"]["d"] == str(data[-1].support_constant) == str(o - F(1, 3))
        assert rep.witness["ray"]["margin"] == str(data[-1].margin)


def test_unstable_locus_compares_each_margin_and_d_exactly(monkeypatch):
    # a margin raised on an unstable ray, and a d lowered by 1/3 with its
    # margin kept (h = 3 at n = 2): the sign tests still hold, and the check
    # fails on the exact comparisons alone
    n = 2
    b, (images, h, support) = _bundle(n), _pb(n)
    assert h == 3
    v = next(v for v, _ in b.product_facets
             if decode_ray_label(n, v)[1] != len(decode_ray_label(n, v)[0]))
    raised = lambda c: support(c) + (c == v)
    monkeypatch.setattr(degeneration, "_pb", lambda n: (images, h, raised))
    assert verify(n, "unstable_locus").status == "fail"
    lowered = tuple((w, o - F(1, 3) if w == v else o) for w, o in b.product_facets)
    kept = lambda c: support(c) - (c == v)
    monkeypatch.setattr(degeneration, "_pb", lambda n: (images, h, kept))
    monkeypatch.setattr(degeneration, "_bundle",
                        lambda n: dataclasses.replace(b, product_facets=lowered))
    rep = verify(n, "unstable_locus")
    assert rep.status == "fail"
    assert rep.witness["ray"]["margin"] == rep.witness["expected"]["margin"]


def test_unstable_locus_visits_no_vertex_of_pb(monkeypatch):
    # each margin is one call of P_b's support function: column_dots runs
    # over the n^2 columns of L, never over the n! vertices of P_b
    for n in (3, 4, 5):
        _bundle(n), _pb(n)  # built, with their own checks, before the spy
        counts = []
        for mod in (cones, polyhedra):
            real = mod.column_dots
            monkeypatch.setattr(mod, "column_dots", lambda f, cols, count, real=real:
                                counts.append(count) or real(f, cols, count))
        assert verify(n, "unstable_locus").ok()
        monkeypatch.undo()
        assert set(counts) == {n * n}, n
        assert len(counts) == 2 ** n * (n + 1), n
