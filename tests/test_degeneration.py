import ast
import contextlib
import io
import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from functools import partial
from itertools import combinations_with_replacement, permutations, product
from math import factorial
from operator import add
from pathlib import Path
from unittest import mock

import pytest

from oracles import (ambient_quotient_slice, braid_chambers, certified_polyhedron, cone_contains,
                     cube_image_slice_by_chambers, cube_image_slice_by_sums, decode_ray_label,
                     edge_matrix, family_side_by_dd, fan_rays, head_orbit, invert, minkowski_sum,
                     orbit_fan_by_cone_dd, orbit_polyhedron, orbit_walk_pairs,
                     pb_polyhedron, permutohedron_points,
                     product_side_by_dd, quotient_images_by_fractions, sigma_by_dd,
                     slice_polyhedron, slice_vertex_points, slice_vertex_points_by_fractions,
                     solve_unique, symmetric_polyhedra_by_dd, unstable_rays_by_vertices,
                     weight_reflections)
from toricgit import cones, dd, degeneration, linalg, polyhedra
from toricgit.cones import Cone
from toricgit.degeneration import (DegenerationBundle, SymmetricModel, _check_orbit_count,
                                   _pb, _product_cone, _symmetric, ambient_reflections,
                                   basis_change_matrix, build_bundle, build_symmetric,
                                   chamber_cone, chart_pairs, checks_for, constant_tail,
                                   family_cube_map, family_rec_dual_columns,
                                   head_vertex, identity_slice_vertex, permutation_matrices,
                                   product_chart_corners, product_chart_vertices,
                                   product_cone_ambient, product_cone_dual_columns,
                                   product_cube_map, product_facets, product_linearization,
                                   product_polyhedron, product_rec_dual_columns,
                                   projection_matrix, slice_vertex, symmetric_orbit, verify)
from toricgit.git import Linearization, unstable_rays
from toricgit.jsonio import dumps, polyhedron_to_json
from toricgit.linalg import Matrix, dot
from toricgit.polyhedra import (FacetCertificateError, Fan, InnerCertificateError,
                                LatticePolyhedron, cube_image_slice, normal_fan,
                                orbit_certificate)


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
    # the model holds no orbit, so it has no cap above: checks_for caps
    # verify at VERIFY_MAX_N, and cmd_build caps the walk
    assert build_symmetric(10).base_point == (0, -9, -7, -5, -3, -1, 1, 3, 5, 7, 0)


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


def test_product_display_certificate_matches_the_dd_oracle():
    # the product cone from the display check has the representations, and
    # the column_dots offsets the values, that the double description and
    # the dense Lᵀv give
    for n in range(1, 8):
        cone, facets = product_side_by_dd(n)
        got = _product_cone(n, n, product_rec_dual_columns(n))
        assert (got.rays, got.lineality_basis, got.facets, got.equations) == \
            (cone.rays, cone.lineality_basis, cone.facets, cone.equations), n
        rec = got.dual()
        assert (rec.rays, rec.facets) == (cone.facets, cone.rays), n
        assert rec == Cone(2 * n + 1, product_rec_dual_columns(n)), n
        assert product_facets(n) == facets, n


def test_product_display_certificate_runs_no_product_dd(monkeypatch):
    # build_bundle's one double description is the family polyhedron's
    # homogenization, of rank n+3, over its n+1 staircase points and the n+3
    # rays of its recession cone.  The base cone and the family recession
    # cone run none, and neither does the product side, built where the
    # checks read it (the product cone and its dual, the facet rows, π and
    # Q'); no L is transposed
    ranks, shapes = [], []
    real_dd, real_transpose = dd.cone_from_inequalities, Matrix.transpose

    def spy_dd(constraints, ambient):
        ranks.append((ambient, len(constraints)))
        return real_dd(constraints, ambient)

    def spy_transpose(m):
        shapes.append((m.rows, m.cols))
        return real_transpose(m)

    monkeypatch.setattr(dd, "cone_from_inequalities", spy_dd)
    monkeypatch.setattr(Matrix, "transpose", spy_transpose)
    for n in range(2, 8):
        ranks.clear()
        shapes.clear()
        build_bundle(n)
        _product_cone(n, n, product_rec_dual_columns(n)).dual()
        product_facets(n), projection_matrix(n), basis_change_matrix(n)
        assert ranks == [(n + 3, 2 * n + 4)], (n, ranks)
        assert (2 * n + 1, n * n) not in shapes, n


def test_verify_runs_no_double_description_that_grows_as_2_to_the_n(monkeypatch):
    # verify --all at n = 1..10, every model built afresh: each double
    # description it runs (the family polyhedron over its staircase, the
    # chamber, the base recovery's slice) has at most 2n + 4 rows.  The
    # family polyhedron over its 2^n cube images, σ from its 2^n generators
    # and the image cone of conical_part had 2^n rows and more
    rows = []
    real_dd = dd.cone_from_inequalities

    def spy_dd(constraints, ambient):
        rows.append(len(constraints))
        return real_dd(constraints, ambient)

    monkeypatch.setattr(dd, "cone_from_inequalities", spy_dd)
    for n in range(1, 11):
        for built in (degeneration._symmetric, degeneration._pb):
            built.cache_clear()
        rows.clear()
        assert all(verify(n, check).status == "pass" for check in checks_for(n)), n
        assert rows and max(rows) <= 2 * n + 4, (n, rows)


def test_conical_part_decides_a_ray_mismatch_by_the_image_cone(monkeypatch):
    # the certificate at the orbit representatives passes with no image
    # cone, and only when it fails does the image cone decide: g_0·π, which
    # moves the representatives off C but maps the product cone onto g_0·σ =
    # σ, still passes, and a π with a doubled last row, which moves the
    # image, fails with the image's rays
    n, images = 3, []
    cone, proj = _product_cone(n, n, product_rec_dual_columns(n)), projection_matrix(n)

    def spy(f, c):
        images.append(cones.image_cone(f, c))
        return images[-1]

    monkeypatch.setattr(degeneration, "image_cone", spy)
    assert verify(n, "conical_part").status == "pass" and not images
    monkeypatch.setattr(degeneration, "_pi", lambda n: _symmetric(n).generators[0] @ proj)
    report = verify(n, "conical_part")
    assert (report.status, report.witness, len(images)) == ("pass", {"rays": 8}, 1)
    pi = Matrix(proj.entries[:-1] + (tuple(2 * x for x in proj.entries[-1]),))
    monkeypatch.setattr(degeneration, "_pi", lambda n: pi)
    report = verify(n, "conical_part")
    assert report.status == "fail" and len(images) == 2
    assert report.witness == {"got": [list(r) for r in cones.image_cone(pi, cone).rays],
                              "expected": [list(r) for r in product_cone_ambient(n).rays]}


def test_conical_part_certificate_rejects_a_pi_that_breaks_the_intertwining(monkeypatch):
    # π + w·(x_0 - x_1)ᵀ, w = π(e_1; e_0): on the representatives' prefix
    # heads x_0 - x_1 is 1 at e_1 alone, whose image doubles, so their
    # primitive images are still C's rays, but π·P_0 = g_0·π fails, as g_0 w
    # ≠ -w, and the image cone, not σ, is the witness: a decision that
    # python -O keeps
    for n in (2, 3, 4):
        proj, sym = projection_matrix(n), _symmetric(n)
        w = proj @ ((1,) + (0,) * (n - 1) + (1,) + (0,) * n)
        pi = Matrix([[x + a * ((c == 0) - (c == 1)) for c, x in enumerate(r)]
                     for a, r in zip(w, proj.entries)])
        images = {linalg.primitive(pi @ r) for r in degeneration._orbit_rays(n)} - {(0,) * (n + 1)}
        assert images == set(sym.chamber.rays), n
        moves = [linalg.left_action(g) for g in sym.generators]
        assert degeneration._intertwining_break(pi.entries, degeneration._swaps(n, 2 * n + 1),
                                                moves) == 0
        monkeypatch.setattr(degeneration, "_pi", lambda n: pi)
        report = verify(n, "conical_part")
        monkeypatch.undo()
        cone = _product_cone(n, n, product_rec_dual_columns(n))
        assert report.status == "fail", n
        assert report.witness == {"got": [list(r) for r in cones.image_cone(pi, cone).rays],
                                  "expected": [list(r) for r in product_cone_ambient(n).rays]}, n


def test_conical_part_passes_with_no_product_ray_listed(monkeypatch):
    # with the model built, the pass path reads π, C and the g_k over the
    # (n+1)² representatives: no product ray list, no product cone and no
    # image cone; at n = 1 only σ's own cone over Δ_1 is built
    calls = []

    def spied(name):
        real = getattr(degeneration, name)
        return lambda *args: calls.append((name,) + args[:2]) or real(*args)

    for name in ("product_ray_vectors", "_product_cone", "image_cone"):
        monkeypatch.setattr(degeneration, name, spied(name))
    for n in (1, 2, 3, 5, 8):
        if n > 1:
            _symmetric(n)
        calls.clear()
        assert verify(n, "conical_part").status == "pass", n
        assert calls == ([] if n > 1 else [("_product_cone", 1, 0),
                                           ("product_ray_vectors", 1, 0)]), (n, calls)


def representations(c: Cone) -> tuple:
    return c.rays, c.lineality_basis, c.facets, c.equations


def test_closed_form_cones_match_the_dd_oracles():
    # the base cone's dual, the family polyhedron from its staircase, σ and
    # σ^∨ have the representations that the double descriptions of their
    # displayed generators give (the product cone's are compared above)
    for n in range(1, 10):
        b = build_bundle(n)
        rec, poly = family_side_by_dd(n)
        got = b.family_polyhedron
        assert representations(got.recession) == representations(rec), n
        assert rec == Cone(n + 2, family_rec_dual_columns(n)), n
        assert got == poly, n
        assert (got.facet_rep, got.hull_equations) == (poly.facet_rep, poly.hull_equations), n
        sigma, dual = sigma_by_dd(n)
        got = product_cone_ambient(n)
        assert representations(got) == representations(sigma), n
        assert representations(got.dual()) == representations(dual), n


# each displayed set of inequalities of a cone over Δ_m × [0,1]^k, what
# the builders make of it and its (m, k) at n
DISPLAYS = {"family_rec_dual_columns": (lambda n: build_bundle(n).family_polyhedron,
                                        lambda n: (n, 1)),
            "product_rec_dual_columns": (lambda n: product_polyhedron(n).recession,
                                         lambda n: (n, n)),
            "product_cone_dual_columns": (product_cone_ambient, lambda n: (1, n - 1))}


def changed_columns(cols: list) -> dict[str, list]:
    """A dropped, a repeated, an extra and a perturbed column."""
    d = len(cols[0])
    return {"dropped": cols[1:], "repeated": cols + cols[:1], "extra": cols + [(1,) * d],
            "perturbed": [cols[0][:-1] + (cols[0][-1] + 2,)] + cols[1:]}


def test_product_display_certificate_rejects_a_changed_column(monkeypatch):
    # a dropped, an extra (repeated or new) and a perturbed column of each of
    # the three displays raise, explicitly, so also under python -O, σ's
    # through its shear; any order passes
    for (display, (builder, shape)), n in product(DISPLAYS.items(), (1, 2, 3, 5)):
        cols, want = getattr(degeneration, display)(n), builder(n)
        message = r"Δ_m × \[0,1\]\^k, m = %d and k = %d" % shape(n)
        for columns in changed_columns(cols).values():
            if display != "product_cone_dual_columns":  # σ's goes through its shear
                with pytest.raises(AssertionError, match=message):
                    degeneration._product_cone(*shape(n), columns)
            with monkeypatch.context() as m:
                m.setattr(degeneration, display, lambda n: columns)
                with pytest.raises(AssertionError, match=message):
                    builder(n)
                if display == "product_cone_dual_columns" and n >= 2:
                    with pytest.raises(AssertionError, match=message):
                        build_symmetric(n)
        with monkeypatch.context() as m:
            m.setattr(degeneration, display, lambda n: cols[::-1])
            assert builder(n) == want, n


def test_product_ray_vectors_are_built_in_sorted_order():
    # each head e_I followed by the m+1 tails, e_m first, is the sorted list
    # of all the rays (e_I; e_j)
    for m, k in product(range(9), repeat=2):
        want = sorted(e + tuple(int(i == j) for i in range(m + 1))
                      for e in product((0, 1), repeat=k) for j in range(m + 1))
        assert degeneration.product_ray_vectors(m, k) == want, (m, k)


def test_product_cone_certificate_needs_an_edge_of_the_simplex():
    # over a point, q_0 >= 0 is no facet: m = 0 raises whatever the columns
    with pytest.raises(AssertionError, match="m = 0 and k = 1"):
        degeneration._product_cone(0, 1, [(0, 1), (1, 0), (-1, 1)])


def test_family_staircase_certificate_rejects_a_step_off_the_recession_rays(monkeypatch):
    # the family polyhedron is the hull of its staircase only if each step
    # between consecutive columns of L_x is a recession ray: a swap of two
    # columns or a perturbed entry makes a step that is not, and raises
    for n in (2, 3, 5):
        cols = family_cube_map(n).columns()
        swapped = [cols[1], cols[0]] + cols[2:]
        perturbed = [cols[0][:-1] + (2,)] + cols[1:]
        for columns in (swapped, perturbed):
            with monkeypatch.context() as m:
                m.setattr(degeneration, "family_cube_map", lambda n: Matrix.from_columns(columns))
                with pytest.raises(AssertionError, match="not a recession ray"):
                    build_bundle(n)


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
    rec = _product_cone(2, 2, product_rec_dual_columns(2)).dual()
    cube = LatticePolyhedron(4, list(product((0, 1), repeat=4)))
    pw = linear_image(product_cube_map(2), cube.canonicalize())
    brute = minkowski_sum(pw, LatticePolyhedron(5, [(0,) * 5], rec))
    assert brute == product_polyhedron(2)


def test_permutohedron_n3_vertices():
    got = set(symmetric_orbit(build_symmetric(3))[1].vertex_candidates)
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
            moved = Cone(n + 1, [tuple(int(linalg.dot(r, g)) for r in mt_inv)
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
        fan = Fan(n + 1, orbit_fan_by_cone_dd(n), sym.product_cone)
        assert len(fan.maximal_cones) == len(symmetric_orbit(sym)[0][1]) == [1, 1, 2, 6, 24][n]
        for c in fan.maximal_cones:
            assert c.is_smooth()


def test_orbit_fan_matches_per_cone_dd_oracle():
    # the rays transported from the chamber equal each cone's own DD, whose
    # cones are pointed and full-dimensional, so their rays are their keys,
    # and the model keeps them in key order.  The paired walk yields the
    # chamber and y₀ first, and its pairs (ρ(s)·C, ρ(s)⁻ᵀy₀) are closed under
    # each generator, (R, y) -> (g·R, gᵀy): y₀'s distinct middle coordinates
    # tell the n! points apart, so each cone is paired with its own point
    for n in range(2, 7):
        oracle = orbit_fan_by_cone_dd(n)
        assert all(not c.lineality_basis and not c.equations for c in oracle), n
        gens, sym = ambient_reflections(n), build_symmetric(n)
        y0 = sym.base_point
        pairs = orbit_walk_pairs(sym)
        assert pairs[0] == (chamber_cone(n).rays, y0), n
        assert sorted(rays for rays, _ in pairs) == sorted(c.rays for c in oracle), n
        assert len({y for _, y in pairs}) == len(pairs) == factorial(n), n
        moved = {(tuple(sorted(g @ r for r in rays)), g.transpose() @ y)
                 for rays, y in pairs for g in gens}
        assert moved == set(pairs), n
        normals, indices = symmetric_orbit(sym)[0]
        assert tuple(tuple(normals[i] for i in c) for c in indices) == \
            tuple(c.rays for c in sorted(oracle, key=Cone.key))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_symmetric_orbit_matches_the_paired_walk_oracle(n):
    # the fan read back from its indices, and both polyhedra's vertices read
    # off the walk's keys, are what the paired walk gives: its cones, sorted,
    # and its points y moved by the g_kᵀ, centred, halved, sorted and deduped
    sym = _symmetric(n)
    (normals, indices), perm, respoly = symmetric_orbit(sym)
    pairs = orbit_walk_pairs(sym)
    assert [tuple(normals[i] for i in c) for c in indices] == sorted(rays for rays, _ in pairs)
    assert normals == tuple(sorted(nu for nu, _ in sym.facets))
    orbit = [y for _, y in pairs]
    assert respoly.vertex_candidates == \
        orbit_polyhedron(orbit, sym.facets, sym.recession).vertex_candidates
    assert perm.vertex_candidates == \
        orbit_polyhedron([y[1:-1] for y in orbit], perm.facet_rep, None).vertex_candidates
    assert len(perm.vertex_candidates) == len(indices) == factorial(n)


def test_symmetric_orbit_walks_only_index_bytes():
    # the walk carries each cone as d bytes, with no point y beside it, and
    # its keys are S_n as bytes
    real, walks = degeneration._cayley_walk, []

    def spy(*args):
        walks.append(real(*args))
        return walks[-1]

    for n in range(2, 7):
        with mock.patch.object(degeneration, "_cayley_walk", spy):
            symmetric_orbit(_symmetric(n))
        assert len(walks[-1]) == factorial(n), n
        assert all(type(c) is bytes and len(c) == n + 1 for c in walks[-1].values()), n
        assert set(walks[-1]) == {bytes(s) for s in permutations(range(n))}, n


def test_symmetric_orbit_names_its_bound_before_any_walk(monkeypatch):
    # a cone is held as bytes that index the 2^n facet normals, so n <= 8:
    # n = 9 raises a ValueError that names the bound, with no walk started,
    # and n = 8 walks its 8! cones
    def forbidden(*args):
        raise AssertionError("symmetric_orbit started a walk")

    sym = build_symmetric(9)
    with monkeypatch.context() as m:
        m.setattr(degeneration, "_cayley_walk", forbidden)
        with pytest.raises(ValueError, match="n <= 8.*not n=9"):
            symmetric_orbit(sym)
    assert len(symmetric_orbit(build_symmetric(8))[0][1]) == factorial(8)


def test_build_symmetric_cone_count_does_not_grow_with_n(monkeypatch):
    # the orbit fan is kept as ray tuples: no Cone per permutation
    real, made = Cone.__init__, []

    def spy(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Cone, "__init__", spy)
    counts = []
    for n in (3, 4, 5, 6):
        made.clear()
        symmetric_orbit(build_symmetric(n))
        counts.append(len(made))
    assert counts == [counts[0]] * 4, counts


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
        symmetric_orbit(build_symmetric(n))
        counts.append(len(calls))
        # no DD over the n! points: the largest input is σ's 2^n generators
        assert max(calls) <= 2 ** n
    assert counts[0] == counts[1] == counts[2]


def test_build_symmetric_moves_the_fan_by_generators(monkeypatch):
    # no ρ(s) per permutation: permutation_matrices is never called, and the
    # only matrix products of the model and of its walk are the model's one
    # Coxeter relation check, order(s_k s_l) of them for each pair k <= l
    def no_matrices(n, gens):
        raise AssertionError("the symmetric model formed the n! matrices")

    monkeypatch.setattr(degeneration, "permutation_matrices", no_matrices)
    real, calls = Matrix.__matmul__, []

    def spy(a, b):
        if isinstance(b, Matrix):
            calls.append(a.rows)
        return real(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", spy)
    for n in (3, 4, 5, 6):
        pairs = combinations_with_replacement(range(n - 1), 2)
        coxeter = sum(1 if l == k else 3 if l == k + 1 else 2 for k, l in pairs)
        calls.clear()
        sym = build_symmetric(n)
        assert len(calls) == coxeter
        calls.clear()
        symmetric_orbit(sym)
        assert not calls, n


def test_certified_symmetric_polyhedra_build_no_homogenization(monkeypatch):
    # the orbit certificate reads its base point, and normal_fan reads the
    # seeded facets: only an explicit homogenization() builds the cone over
    # P × {1}
    def no_cone(self):
        raise AssertionError("the orbit certificate built the homogenization")

    with monkeypatch.context() as m:
        m.setattr(LatticePolyhedron, "homogenization", no_cone)
        orbits = [symmetric_orbit(build_symmetric(n)) for n in (3, 4, 5, 6)]
    for _, *polys in orbits:
        for p in polys:
            assert p._canonical and p._cone is None
            assert p.facet_rep and p.hull_equations == ()
    assert normal_fan(orbits[0][2]) == \
        Fan(4, orbit_fan_by_cone_dd(3), product_cone_ambient(3))


def test_certified_symmetric_polyhedra_seed_int_rows(monkeypatch):
    # each facet row (ν, o) is seeded in int, so no seeded row takes
    # scaled_primitive's Fraction detour through clear_denominators
    real, calls = linalg.clear_denominators, []

    def counting(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(linalg, "clear_denominators", counting)
    _, *polys = symmetric_orbit(build_symmetric(5))
    assert calls == []
    for p in polys:
        assert all(type(o) is int for _, o in p.facet_rep)
    # positive control: a row with a denominator still takes the detour
    assert linalg.scaled_primitive((F(1, 2), 1)) == (1, 2) and len(calls) == 1


def test_certified_polyhedra_take_no_rank_and_their_normal_fan_no_vertex_dd(monkeypatch):
    # both certificates prove independence without a rank, the explicit one
    # from its masks and the orbit one from its ridges, and a simple
    # vertex's normal cone is simplicial on its tight normals
    def forbidden(*args):
        raise AssertionError("a rank ran")

    for n in (3, 4, 5, 6):
        for d, pts, rec, normals in _symmetric_candidates(n).values():
            rec = (rec or Cone(d, [])).canonical_form()  # its own DD and kernel, before the spy
            with monkeypatch.context() as m:
                m.setattr(linalg, "_echelon", forbidden)
                certified_polyhedron(d, pts, rec, normals)
        for orbit, gens, offsets, rec in _orbit_candidates(n).values():
            rec = (rec or Cone(len(orbit[0]), [])).canonical_form()
            with monkeypatch.context() as m:
                m.setattr(linalg, "_echelon", forbidden)
                orbit_certificate(orbit[0], gens, offsets, rec)
    real, calls = dd.cone_from_inequalities, []

    def spy(constraints, ambient):
        calls.append(len(constraints))
        return real(constraints, ambient)

    def no_cone(self):
        raise AssertionError("normal_fan built the homogenization")

    for n in (3, 4, 5, 6):
        sym = build_symmetric(n)
        p = symmetric_orbit(sym)[2]
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(dd, "cone_from_inequalities", spy)
            m.setattr(LatticePolyhedron, "homogenization", no_cone)
            nf = normal_fan(p)
        assert len(calls) <= 1, n  # the support, the dual of the recession cone
        assert nf == Fan(n + 1, orbit_fan_by_cone_dd(n), sym.product_cone), n


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_certified_symmetric_polyhedra_match_dd_oracle(n):
    # the orbit route equals the double description of the n! points and
    # the explicit facet certificate over them
    _, *polys = symmetric_orbit(build_symmetric(n))
    explicit = _symmetric_candidates(n)
    for got, want, (d, pts, rec, normals) in zip(
            polys, symmetric_polyhedra_by_dd(n),
            (explicit["permutohedron"], explicit["resolution"])):
        for other in (want, certified_polyhedron(d, pts, rec, normals)):
            assert got.vertex_candidates == other.vertex_candidates
            assert got.facet_rep == other.facet_rep
            assert got.hull_equations == other.hull_equations
            assert got.recession.key() == other.recession.key()


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


def _orbit_candidates(n):
    """(orbit, gens, offsets, recession) of the resolution polyhedron and the
    permutohedron: the orbit of the paired walk oracle, whose first point
    ``build_symmetric`` and ``symmetric_orbit`` pass to ``orbit_certificate``
    with the rest."""
    gens = ambient_reflections(n)
    orbit = [y for _, y in orbit_walk_pairs(_symmetric(n))]
    offsets = {}
    for nu in product_cone_ambient(n).rays:
        k = sum(map(abs, nu[1:-1]))
        offsets[nu] = k * (k - n)
    mid = [Matrix([r[1:-1] for r in g.entries[1:-1]]) for g in gens]
    return {"resolution": (orbit, gens, offsets, Cone(n + 1, product_cone_dual_columns(n))),
            "permutohedron": ([y[1:-1] for y in orbit], mid,
                              {nu[1:-1]: c for nu, c in offsets.items() if any(nu[1:-1])},
                              None)}


def _normal_orbit(gens, nu):
    """The orbit of the normal nu under the group the gens generate."""
    orbit = [nu]
    for mu in orbit:
        for g in gens:
            if g @ mu not in orbit:
                orbit.append(g @ mu)
    return orbit


def _mutants(name, n=4):
    """The dropped-orbit, extra-candidate and moved-offset mutants of the
    orbit certificate's inputs at n, as (label, args, expected message)."""
    orbit, gens, offsets, rec = _orbit_candidates(n)[name]
    y0, d = orbit[0], len(orbit[0])
    tight = [nu for nu, c in offsets.items() if dot(nu, y0) == c]
    loose = [nu for nu, c in offsets.items() if dot(nu, y0) > c]
    orbits, left = [], list(offsets)
    while left:
        orbits.append(_normal_orbit(gens, left[0]))
        left = [nu for nu in left if nu not in orbits[-1]]
    out = []
    for o in orbits:  # every orbit holds a facet at y0: dropping it leaves d - 1
        out.append(("drop orbit", {nu: c for nu, c in offsets.items() if nu not in o},
                    f"on {d - 1} facets"))
    out.append(("drop one", {nu: c for nu, c in offsets.items() if nu != loose[0]},
                "does not permute the normals"))
    # a redundant normal: the sum of two facets at y0, tight there, with its orbit
    sums = (tuple(map(add, a, b)) for i, a in enumerate(tight) for b in tight[i + 1:])
    orbit_extra = next(o for o in map(partial(_normal_orbit, gens), sums) if len(o) > 1)
    extra = orbit_extra[0]
    low = min(dot(extra, y) for y in orbit)
    out.append(("extra one", {**offsets, extra: low}, "does not permute the normals"))
    out.append(("extra orbit", {**offsets, **dict.fromkeys(orbit_extra, low)},
                f"on {d + 1} facets"))
    out.append(("extra strict orbit", {**offsets, **dict.fromkeys(orbit_extra, low - 1)},
                "in no orbit of a facet"))
    # an offset moved on one normal, and on a whole orbit, whose facet at y0 it loosens
    out.append(("moved offset", {**offsets, loose[0]: offsets[loose[0]] - 1}, "not invariant"))
    o = next(o for o in orbits if loose[0] in o)
    out.append(("lowered orbit", {nu: c - (nu in o) for nu, c in offsets.items()},
                f"on {d - 1} facets"))
    return [(label, (y0, gens, cands, rec), match) for label, cands, match in out]


@pytest.mark.parametrize("name", ["resolution", "permutohedron"])
def test_orbit_certificate_rejects_dropped_extra_and_moved_candidates(name):
    orbit, gens, offsets, rec = _orbit_candidates(4)[name]
    orbit_certificate(orbit[0], gens, offsets, rec)
    for label, args, match in _mutants(name):
        with pytest.raises(FacetCertificateError, match=match):
            orbit_certificate(*args)
            raise AssertionError(label)


@pytest.mark.parametrize("name", ["resolution", "permutohedron"])
def test_orbit_certificate_rejects_a_generator_not_permuting_the_normals(name):
    orbit, gens, offsets, rec = _orbit_candidates(4)[name]
    d = len(orbit[0])
    shear = Matrix([[int(i == j or (i, j) == (0, 1)) for j in range(d)] for i in range(d)])
    for bad in (shear, Matrix([[2 * int(i == j) for j in range(d)] for i in range(d)])):
        with pytest.raises(FacetCertificateError, match="does not permute the normals"):
            orbit_certificate(orbit[0], [bad] + gens[1:], offsets, rec)


@pytest.mark.parametrize("name", ["resolution", "permutohedron"])
def test_orbit_certificate_rejects_a_base_point_on_fewer_than_d_normals(name):
    # the midpoint of the edge from y0 to its first neighbour, doubled again
    orbit, gens, offsets, rec = _orbit_candidates(4)[name]
    y0, d = orbit[0], len(orbit[0])
    mid = tuple(map(add, y0, gens[0].transpose() @ y0))
    doubled = {nu: 2 * c for nu, c in offsets.items()}
    with pytest.raises(FacetCertificateError, match=f"on {d - 1} facets, not on {d}"):
        orbit_certificate(mid, gens, doubled, rec)
    # a point off the polyhedron violates a candidate
    with pytest.raises(FacetCertificateError, match="violates"):
        orbit_certificate(tuple(2 * x for x in y0), gens, offsets, rec)


def test_orbit_certificate_rejects_a_base_point_on_more_than_d_normals():
    # the octahedron, doubled: the cube's swaps and sign changes permute its
    # 8 facet normals, and each of its 6 vertices is on 4 of them
    swaps = [Matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]), Matrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]]),
             Matrix([[-1, 0, 0], [0, 1, 0], [0, 0, 1]])]
    offsets = dict.fromkeys(product((1, -1), repeat=3), -2)
    with pytest.raises(FacetCertificateError, match="on 4 facets, not on 3"):
        orbit_certificate((2, 0, 0), swaps, offsets, None)


@pytest.mark.parametrize("name", ["resolution", "permutohedron"])
def test_orbit_certificate_rejects_a_ridge_with_no_neighbour(name):
    orbit, gens, offsets, rec = _orbit_candidates(4)[name]
    for k in range(len(gens)):  # each generator's neighbour ends one edge
        with pytest.raises(FacetCertificateError, match="has no other end"):
            orbit_certificate(orbit[0], gens[:k] + gens[k + 1:], offsets, rec)
    if rec is not None:  # two edges of the resolution polyhedron are recession rays
        with pytest.raises(FacetCertificateError, match="has no other end"):
            orbit_certificate(orbit[0], gens, offsets, None)


def test_orbit_certificate_rejects_a_vertex_on_d_dependent_normals():
    # the strip -1 <= x <= 1 of the plane, doubled, cut out twice over: y0 =
    # (-1, 0) is on d = 2 candidates, (1, 0) and (2, 0), but the step to its
    # neighbour (1, 0) is off both, so no ridge has an other end
    flip = Matrix([[-1, 0], [0, 1]])
    offsets = {(1, 0): -1, (-1, 0): -1, (2, 0): -2, (-2, 0): -2}
    with pytest.raises(FacetCertificateError, match="has no other end"):
        orbit_certificate((-1, 0), [flip], offsets, None)


@pytest.mark.parametrize("name", ["resolution", "permutohedron"])
def test_orbit_certificate_rejects_an_odd_step(name):
    # y0 moved by e_1: the first swap's step to its neighbour is odd
    orbit, gens, offsets, rec = _orbit_candidates(4)[name]
    moved = tuple(x + (i == 1) for i, x in enumerate(orbit[0]))
    with pytest.raises(FacetCertificateError, match="off the lattice"):
        orbit_certificate(moved, gens, offsets, rec)


def test_orbit_certificate_rejects_a_bad_recession_cone():
    orbit, gens, offsets, rec = _orbit_candidates(4)["resolution"]
    d = len(orbit[0])
    negated = Cone(d, [tuple(-x for x in r) for r in rec.rays])
    with pytest.raises(FacetCertificateError, match="negative on the recession"):
        orbit_certificate(orbit[0], gens, offsets, negated)
    with pytest.raises(FacetCertificateError, match="does not permute the recession rays"):
        orbit_certificate(orbit[0], gens, offsets, Cone(d, rec.rays[:-1]))
    with pytest.raises(FacetCertificateError, match="lineality"):
        orbit_certificate(orbit[0], gens, offsets,
                          Cone(d, list(rec.rays) + [tuple(-x for x in rec.rays[0])]))


BAD_CHAMBERS = {
    "not pointed": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)],
    "not full-dimensional": [(1, 0, 0), (0, 1, 0)],
    "not simplicial": [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)],
}


# models that symmetric_orbit must refuse, as the text that builds each from
# the n = 2 model sym, and the message it raises with
BAD_ORBIT_MODELS = {
    **{f"a chamber {name}": (f"sym._replace(chamber=Cone(3, {gens!r}))", "chamber must be")
       for name, gens in BAD_CHAMBERS.items()},
    # pointed, full-dimensional and simplicial, but (0, 1, 0) is no facet normal
    "a chamber ray off the normals": ("sym._replace(chamber=Cone(3, [(1, 0, 0), (0, 1, 0), "
                                      "(0, 0, 1)]))", "the chamber's ray .* is not a facet normal"),
    # a shear, which takes the normal (1, 1, 0) to (2, 1, 0)
    "a generator off the normals": ("sym._replace(generators=(Matrix([[1, 1, 0], [0, 1, 0], "
                                    "[0, 0, 1]]),))", "g_0's image .* is not a facet normal"),
}


def test_orbit_transport_guards_hold_under_python_O():
    # symmetric_orbit guards the chamber it walks from, and looks up C's
    # rays and each generator's image of each normal among the normals
    sym = build_symmetric(2)
    for name, (model, message) in BAD_ORBIT_MODELS.items():
        with pytest.raises(AssertionError, match=message):
            symmetric_orbit(eval(model))
        code = ("import re\n"
                "from toricgit.cones import Cone\n"
                "from toricgit.degeneration import build_symmetric, symmetric_orbit\n"
                "from toricgit.linalg import Matrix\n"
                "sym = build_symmetric(2)\n"
                "try:\n"
                f"    symmetric_orbit({model})\n"
                "except AssertionError as exc:\n"
                f"    raise SystemExit(7 if re.search({message!r}, str(exc)) else 8)\n")
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
def test_permutation_matrices_reject_generators_breaking_a_relation(relation, monkeypatch):
    n, gens = COXETER_BREAKS[relation]
    with pytest.raises(AssertionError, match="Coxeter"):
        permutation_matrices(n, [Matrix(g) for g in gens])
    # the orbit fan walks the same Cayley graph from the symmetric model,
    # whose generators build_symmetric checks before anything else
    monkeypatch.setattr(degeneration, "ambient_reflections", lambda n: [Matrix(g) for g in gens])
    with pytest.raises(AssertionError, match="Coxeter"):
        build_symmetric(n)


def test_count_certificate_rejects_a_generator_that_is_no_transposition():
    # the last g_k made a plain swap of e_{n-1} and e_n, which moves an outer
    # coordinate; the generators in reverse order, each a transposition but
    # not (k, k+1); and the identity, which fixes every lift
    for n in range(2, 10):
        gens, y0 = ambient_reflections(n), _symmetric(n).base_point
        _check_orbit_count(gens, y0)
        eye = [[int(i == j) for j in range(n + 1)] for i in range(n + 1)]
        swap = Matrix(eye[:n - 1] + [eye[n], eye[n - 1]])
        mutants = [gens[:-1] + [swap], [Matrix(eye)] + gens[1:]]
        for bad in mutants + [gens[::-1]] * (n > 2):  # one generator is its own reverse
            with pytest.raises(AssertionError, match="as the swap of"):
                _check_orbit_count(bad, y0)


def test_count_certificate_rejects_a_repeated_lifted_entry():
    # two equal middle entries, a last lifted entry -Σ equal to a middle one,
    # the origin, and a point off the plane y_0 = y_n = 0
    gens = ambient_reflections(4)
    for y0 in ((0, -3, -3, 1, 0), (0, -1, 0, 1, 0), (0,) * 5, (1, -3, -1, 1, 0)):
        with pytest.raises(AssertionError, match="repeats an entry"):
            _check_orbit_count(gens, y0)


def test_decode_ray_label():
    assert decode_ray_label(2, (1, 0, 0, 1, 0)) == ((1,), 1)
    assert decode_ray_label(2, (1, 1, 1, 0, 0)) == ((1, 2), 0)
    with pytest.raises(ValueError):
        decode_ray_label(2, (2, 0, 1, 0, 0))


def test_verify_all_checks_pass_n2_n3():
    for n in (2, 3):
        for chk in checks_for(n):
            rep = verify(n, chk)
            assert rep.status == "pass", (n, chk, rep.witness)


def test_verify_check_n1_subset():
    assert checks_for(1) == ["conical_part", "pb_vertices", "unstable_locus",
                             "base_recovery"]
    for chk in checks_for(1):
        assert verify(1, chk).status == "pass"


def test_verify_unknown_check():
    # the bad pairs of test_cli.py::test_verify_bad_args and n = 13: checks_for
    # is the one validator, and verify raises through it before a check runs
    for n, check in ((2, "nonsense"), (1, "normal_fan"), (13, "conical_part"),
                     (99, "conical_part"), (0, "conical_part"), (8, "comparison_fuzz"),
                     (2, "")):
        with pytest.raises(ValueError):
            checks_for(n, check)
        with pytest.raises(ValueError):
            verify(n, check)
    for n in (0, 13):
        with pytest.raises(ValueError):
            checks_for(n)


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
    # the symmetric model, π and P_b, each read by two or three checks, are
    # the only memoised data; the bundle keeps the expanded family alone, and
    # the rest of the product side is built by the check that reads it
    for n in (1, 2):
        assert _pb(n) is _pb(n)
        assert _pb(n)[:2] == degeneration._pb.__wrapped__(n)[:2]
    for n in (2, 3):
        assert _symmetric(n) is _symmetric(n)
        assert _symmetric(n).facets == build_symmetric(n).facets
        assert degeneration._pi(n) is degeneration._pi(n) == projection_matrix(n)
    assert _symmetric(2) is not _symmetric(3) and _pb(1) is not _pb(2)
    assert {name for name, f in vars(degeneration).items() if hasattr(f, "cache_clear")} \
        == {"_symmetric", "_pi", "_pb"}
    assert DegenerationBundle._fields == ("n", "family_polyhedron", "lin_family")


def _report(rep) -> dict:
    """A report as the CLI prints it, ``elapsed_ms`` removed."""
    from toricgit.cli import _report_line
    out = json.loads(_report_line(rep))
    out.pop("elapsed_ms")
    return out


@pytest.mark.parametrize("n", (1, 2, 5, 9))
def test_each_check_alone_reports_its_line_of_verify_all(n):
    # each check builds what it reads: run alone, with the memoised model
    # and P_b cleared, it reports its line of a verify --all run, so no
    # check depends on another having run first
    from toricgit.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(["verify", "--n", str(n), "--all"]) == 0
    lines = [json.loads(line) for line in out.getvalue().splitlines()]
    for line in lines:
        line.pop("elapsed_ms")
    assert [line["check"] for line in lines] == checks_for(n)
    for line in lines:
        _symmetric.cache_clear()
        _pb.cache_clear()
        assert _report(verify(n, line["check"])) == line, (n, line["check"])


def test_only_the_product_checks_build_the_product_rays(monkeypatch):
    # the product cone's (n+1)·2^n rays are built once by unstable_locus,
    # and never by conical_part, by base_recovery or by build
    # --object expanded, which read the expanded family alone (at n = 1 the
    # family's base-change cone is the product cone, so n >= 2)
    from toricgit.cli import main
    real, calls = degeneration.product_ray_vectors, []

    def spy(m, k):
        calls.append((m, k))
        return real(m, k)

    monkeypatch.setattr(degeneration, "product_ray_vectors", spy)
    for n in (2, 3, 5):
        runs = {check: lambda check=check: verify(n, check).status == "pass"
                for check in ("base_recovery", "conical_part", "unstable_locus")}
        runs["build expanded"] = lambda: main(["build", "--n", str(n), "--object",
                                               "expanded"]) == 0
        for what, run in runs.items():
            calls.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert run(), (n, what)
            want = 1 if what == "unstable_locus" else 0
            assert [k for _, k in calls].count(n) == want, (n, what, calls)


def test_basis_change_matches_the_per_column_solves():
    # the closed form against the Fraction oracle, one solve of pi^T per target
    for n in range(1, 8):
        pit = projection_matrix(n).transpose()
        targets = [[1 if i == a else 0 for i in range(2 * n + 1)] for a in range(n)]
        targets.append([0] * n + [1] * (n + 1))
        want = list(zip(*(solve_unique(pit, t) for t in targets)))
        assert list(basis_change_matrix(n).entries) == want, n


def test_basis_change_certificate_rejects_each_changed_entry(monkeypatch):
    # the product pi^T Q' determines Q', so one entry of the closed form
    # changed by one fails the certificate, a raise that python -O keeps
    n = 3
    for i, j in product(range(n + 1), repeat=2):
        class Changed(Matrix):
            __slots__ = ()

            def __init__(self, rows, i=i, j=j):
                rows = [list(r) for r in rows]
                if len(rows) == n + 1 == len(rows[0]):  # Q' is the only square one
                    rows[i][j] += 1
                super().__init__(rows)

        monkeypatch.setattr(degeneration, "Matrix", Changed)
        with pytest.raises(AssertionError, match="pi\\^T Q'"):
            basis_change_matrix(n)
    monkeypatch.undo()
    assert basis_change_matrix(n).entries[n] == (1,) * (n + 1)


def test_projection_certificate_rejects_a_row_off_the_kernel_or_a_rank_drop(monkeypatch):
    # π's rows must lie in ker α and have rank n + 1: a t-entry of its first
    # row raised by one leaves the kernel, and its last row made equal to its
    # first stays in it but drops the rank; each raises, also under python -O
    n = 3
    for change, message in ((lambda rows: rows[0].__setitem__(n, 2), "kernel"),
                            (lambda rows: rows.__setitem__(n, rows[0]), "surjective")):
        class Changed(Matrix):
            __slots__ = ()

            def __init__(self, rows, change=change):
                rows = [list(r) for r in rows]
                if len(rows) == n + 1 and len(rows[0]) == 2 * n + 1:  # π is the only one
                    change(rows)
                super().__init__(rows)

        monkeypatch.setattr(degeneration, "Matrix", Changed)
        with pytest.raises(AssertionError, match=message):
            projection_matrix(n)
        monkeypatch.undo()
    assert projection_matrix(n).rank() == n + 1


def test_verify_never_lists_the_chart_vertices(monkeypatch):
    # no check reads the (n+1)^n chart corners or their images, at any
    # verified n; a check that called them would report an error
    def no_chart(n):
        raise AssertionError("verify must not list the chart corners or vertices")

    monkeypatch.setattr(degeneration, "product_chart_corners", no_chart)
    monkeypatch.setattr(degeneration, "product_chart_vertices", no_chart)
    _pb.cache_clear()
    for n in range(1, 7):
        for check in checks_for(n):
            rep = verify(n, check)
            assert rep.status == "pass", (n, check, rep.witness)


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

    _pb.cache_clear()
    monkeypatch.setattr(LatticePolyhedron, "canonicalize", spy)
    try:
        for check in checks_for(3):
            assert verify(3, check).status == "pass", check
        assert main(["build", "--n", "3", "--object", "expanded"]) == 0
        assert seen and (7, 64) not in seen
    finally:
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


def test_chart_pairs_are_a_chart_corner_lookup():
    # the 0/1 points ordered by every pair are the chart corners, and on every
    # box [lo, hi] of the n^2-cube at n = 2, 3 the test that cube_image_slice
    # makes, hi_a <= lo_b for each pair, holds iff the box holds only corners
    for n in (2, 3):
        corners, pairs = set(product_chart_corners(n)), chart_pairs(n)
        assert {c for c in product((0, 1), repeat=n * n)
                if all(c[a] <= c[b] for a, b in pairs)} == corners
        for lo in product((0, 1), repeat=n * n):
            for hi in box_corners(lo, (1,) * (n * n)):
                assert all(hi[a] <= lo[b] for a, b in pairs) == \
                    all(c in corners for c in box_corners(lo, hi))


def pb_arguments(n):
    """The arguments of the one call ``_pb(n)`` makes to ``cube_image_slice``."""
    seen = []

    def spy(*args):
        seen.append(args)
        return cube_image_slice(*args)

    _pb.cache_clear()
    with pytest.MonkeyPatch.context() as m:
        m.setattr(degeneration, "cube_image_slice", spy)
        try:
            _pb(n)
        finally:
            _pb.cache_clear()
    assert len(seen) == 1, n
    return seen[0]


def cube_pb(n, pairs=None, drop=None):
    """P_b along the oracle route, from every braid chamber with ``_pb``'s
    other arguments, with other chart pairs or one chamber dropped, as a
    polyhedron."""
    L, f, target, _, lineality, chart = pb_arguments(n)
    chambers = braid_chambers(n)
    if drop is not None:
        chambers = chambers[:drop] + chambers[drop + 1:]
    images, h, _ = cube_image_slice_by_chambers(L, f, target, chambers, lineality,
                                                chart if pairs is None else pairs)
    return slice_polyhedron(L.rows, images, h)


def test_pb_hands_one_chamber_to_the_slice():
    # one call (pb_arguments checks it) with the identity's chain (e_1; 0),
    # (e_12; 0), ... and the chart pairs
    for n in range(1, 7):
        _, _, _, chamber, _, pairs = pb_arguments(n)
        assert chamber == braid_chambers(n)[0], n
        assert pairs == chart_pairs(n), n


def test_pb_orbit_matches_the_chamber_oracle():
    # the orbit of _pb's representative against the certificate run on each
    # of the n! braid chambers, which also gives the same h and support
    for n in range(1, 7):
        L, f, target, _, lineality, pairs = pb_arguments(n)
        images, h, support = cube_image_slice_by_chambers(L, f, target, braid_chambers(n),
                                                          lineality, pairs)
        w, hw, pb_support = _pb(n)
        assert head_orbit(n, w) == images and hw == h and len(images) == factorial(n), n
        for v in degeneration.product_ray_vectors(n, n):
            assert pb_support(v) == support(v), (n, v)


def test_closed_form_orbit_matches_one_product_per_permutation():
    # the orbit of m_id under the permutations of the head against the n!
    # products L·(s·w_1; ...; s·w_n)
    for n in range(1, 8):
        assert head_orbit(n, identity_slice_vertex(n)) == sorted(slice_vertex_points(n)), n


def test_degeneration_enumerates_s_n_only_through_the_walk():
    # no permutations() in the module: P_b, the slice vertex and the quotient
    # theorem are decided at the identity, the symmetric model by the walk
    tree = ast.parse(Path(degeneration.__file__).read_text())
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert "permutations" not in imported and "permutations" not in vars(degeneration)


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
        w, h, _ = _pb(6)
    finally:
        _pb.cache_clear()
    # the orbit of h·w_id against the closed form 7·m_s, in order
    orbit = head_orbit(6, w)
    assert [tuple(7 * x for x in v) for v in orbit] == \
        sorted(tuple(h * x for x in m) for m in slice_vertex_points(6))
    assert len(orbit) == 720


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
    # the oracle's n! maximal chains of proper nonempty subsets, tail 0, each
    # ridge (a chain less one subset) shared by exactly two: the braid fan,
    # complete modulo the lineality (1^n; 0) and (0; e_j), which _pb's one
    # chamber, the first, and the symmetry stand for
    for n in range(1, 6):
        _, _, _, chamber, lineality, _ = pb_arguments(n)
        chambers = braid_chambers(n)
        tail = (0,) * (n + 1)
        assert chambers[0] == chamber, n
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


def pair_orbit(n, pair):
    """The orbit of a pair of n^2-cube coordinates under the τ_k, which
    permute the positions inside every n-column block alike."""
    return {tuple(x // n * n + p[x % n] for x in pair) for p in permutations(range(n))}


def test_certificate_needs_every_face_corner():
    # at n = 2 the preimage of w_id is (2/3, 0; 1, 1/3), so the face through
    # it has the corners (c_1, 0; 1, c_4).  A τ-invariant orbit of pairs added
    # to the chart pairs drops the corners that it orders wrong: the
    # certificate must raise iff it drops one of these, and keep P_b otherwise
    n = 2
    L, f, target, chamber, lineality, chart = pb_arguments(n)
    w, h, _ = _pb(n)
    pre = (F(2, 3), 0, 1, F(1, 3))
    assert L @ pre == tuple(F(x, h) for x in w)
    face = [c for c in product((0, 1), repeat=n * n) if all(abs(x - y) < 1
                                                            for x, y in zip(c, pre))]
    full, needed = cube_pb(n), 0
    for pair in permutations(range(n * n), 2):
        extra = pair_orbit(n, pair)
        pairs = chart + sorted(extra - set(chart))
        if any(c[a] > c[b] for c in face for a, b in extra):
            needed += 1
            with pytest.raises(InnerCertificateError):
                cube_image_slice(L, f, target, chamber, lineality, pairs)
            with pytest.raises(InnerCertificateError):
                cube_pb(n, pairs)
        else:
            assert cube_pb(n, pairs) == full
    assert needed == 10  # all but the chart pairs' own orbit


def test_pb_certificate_failure_is_an_error_report(monkeypatch):
    # the orbit (3, 0), (2, 1) drops the face corner (0, 0; 1, 1) of w_id's
    # preimage at n = 2 (see test_certificate_needs_every_face_corner); P_b
    # has no second route, so the check reports the error instead of a result
    n = 2
    real = degeneration.chart_pairs
    monkeypatch.setattr(degeneration, "chart_pairs", lambda n: real(n) + [(3, 0), (2, 1)])
    _pb.cache_clear()
    try:
        rep = verify(n, "pb_vertices")
    finally:
        _pb.cache_clear()
    assert rep.status == "error"
    assert "InnerCertificateError" in rep.witness["exception"]


def _pb_report(monkeypatch, n, name, value):
    """The pb_vertices report with ``degeneration.<name>`` replaced."""
    _pb.cache_clear()
    monkeypatch.setattr(degeneration, name, value)
    try:
        return verify(n, "pb_vertices")
    finally:
        monkeypatch.undo()
        _pb.cache_clear()


def test_pb_equivariance_rejects_chart_pairs_not_mapped_onto_themselves(monkeypatch):
    # (1, 0) holds on the face at w_id, but its image (0, 1) under τ_0 does
    # not hold on the face at τ_0·w_id: one chamber passes, the chamber
    # oracle does not, and without the check pb_vertices would pass
    n = 2
    L, f, target, chamber, lineality, chart = pb_arguments(n)
    pairs = chart + [(1, 0)]
    cube_image_slice(L, f, target, chamber, lineality, pairs)
    with pytest.raises(InnerCertificateError):
        cube_image_slice_by_chambers(L, f, target, braid_chambers(n), lineality, pairs)
    rep = _pb_report(monkeypatch, n, "chart_pairs", lambda n: chart_pairs(n) + [(1, 0)])
    assert rep.status == "error"
    assert "does not map the chart pairs onto themselves" in rep.witness["exception"]


def test_pb_equivariance_rejects_an_l_that_tau_does_not_permute(monkeypatch):
    # e_1 - e_2 added to the head of L's column (1, n), whose weight at the
    # identity is 0 and whose value on each normal of its chain is not the
    # least: the identity's certificate and m_id still hold, but the chain
    # of τ_0 has another argmin, and L·τ_0 = P_0·L fails
    for n in (2, 3, 4):
        real = product_cube_map(n)
        rows = [list(r) for r in real.entries]
        rows[0][n - 1] += 1
        rows[1][n - 1] -= 1
        rep = _pb_report(monkeypatch, n, "product_cube_map", lambda n: Matrix(rows))
        assert rep.status == "error", n
        assert "does not permute L's columns" in rep.witness["exception"], n


def test_product_facets_equivariance_rejects_an_l_that_tau_does_not_permute(monkeypatch):
    # the same L, with e_1 - e_2 added to the head of column (1, n): the
    # facet rows take each offset once per orbit of the head swaps only once
    # L·τ_k = P_k·L holds, so they raise, also under python -O
    for n in (2, 3, 4):
        rows = [list(r) for r in product_cube_map(n).entries]
        rows[0][n - 1] += 1
        rows[1][n - 1] -= 1
        monkeypatch.setattr(degeneration, "product_cube_map", lambda n: Matrix(rows))
        with pytest.raises(AssertionError, match="does not permute L's columns"):
            product_facets(n)
        monkeypatch.undo()


def test_pb_equivariance_rejects_an_alpha_with_unequal_head_columns(monkeypatch):
    # α's columns 0 and 1 made unequal: P_0 moves its first row
    for n in (2, 3):
        lin = product_linearization(n)
        rows = [list(r) for r in lin.alpha.entries]
        rows[0][0] += 1
        moved = Linearization(Matrix(rows), lin.b)
        rep = _pb_report(monkeypatch, n, "product_linearization", lambda n: moved)
        assert rep.status == "error", n
        assert "P_0 moves a row of α or a lineality direction" in rep.witness["exception"], n


def test_identity_slice_vertex_check_rejects_a_moved_head_or_tail(monkeypatch):
    # L(w_1; ...; w_n) against (u; constant tail) moved by one: both checks
    # that read m_id report the error
    for name in ("head_vertex", "constant_tail"):
        for n in (2, 3):
            real = getattr(degeneration, name)(n)
            moved = (real[0] + 1,) + real[1:]
            monkeypatch.setattr(degeneration, name, lambda n: moved)
            reps = [verify(n, check) for check in ("pb_vertices", "quotient_theorem")]
            monkeypatch.undo()
            for rep in reps:
                assert rep.status == "error", (name, n)
                assert "(u; constant tail)" in rep.witness["exception"], (name, n)


def _quotient_report(monkeypatch, n, q):
    """The quotient_theorem report with Q' replaced by q."""
    monkeypatch.setattr(degeneration, "basis_change_matrix", lambda n: q)
    try:
        return verify(n, "quotient_theorem")
    finally:
        monkeypatch.undo()


def test_quotient_theorem_check_rejects_a_q_breaking_the_linear_part(monkeypatch):
    # Q' + e_1·(1^n; 0)ᵀ agrees with Q' on every difference of heads, so m_id
    # still maps to 0 and every translation holds; g_0ᵀ moves e_1, so
    # Q'·P_0 = g_0ᵀ·Q' fails
    for n in (2, 3, 4):
        q = basis_change_matrix(n)
        bent = Matrix([[x + (i == 1 and j < n) for j, x in enumerate(r)]
                       for i, r in enumerate(q.entries)])
        rep = _quotient_report(monkeypatch, n, bent)
        assert rep.status == "fail", n
        assert rep.witness == {"generator": 0, "linear_part": [list(r) for r in bent.entries]}


def test_quotient_theorem_check_rejects_a_q_breaking_the_translation(monkeypatch):
    # 2·Q' intertwines as Q' does and maps m_id to 0, but doubles each step
    for n in (2, 3, 4):
        q = basis_change_matrix(n)
        rep = _quotient_report(monkeypatch, n, Matrix([[2 * x for x in r] for r in q.entries]))
        assert rep.status == "fail", n
        assert rep.witness["generator"] == 0 and set(rep.witness) == \
            {"generator", "translation", "expected"}, n


def test_quotient_theorem_walks_no_vertex_list(monkeypatch):
    # the model holds no vertex list, and no walk, orbit or per-permutation
    # product runs, in the check or in the model it builds
    def forbidden(*args):
        raise AssertionError("quotient_theorem walked S_n")

    monkeypatch.setattr(degeneration, "_cayley_walk", forbidden)
    _symmetric.cache_clear()
    for n in (2, 3, 4, 5):
        rep = verify(n, "quotient_theorem")
        assert rep.status == "pass", (n, rep.witness)
        assert rep.witness == {"vertices": factorial(n)}
    assert set(SymmetricModel._fields) == {"chamber", "product_cone", "generators",
                                           "base_point", "facets", "recession"}


def test_pb_n5_from_cube_without_bundle(monkeypatch):
    # neither P_b nor the closed-form vertex needs the bundle, the product
    # polyhedron's facet rows or the product rays
    def no_bundle(*args):
        raise AssertionError("pb_vertices must not need the bundle")

    for name in ("build_bundle", "product_facets", "product_ray_vectors"):
        monkeypatch.setattr(degeneration, name, no_bundle)
    _pb.cache_clear()
    try:
        rep = verify(5, "pb_vertices")
    finally:
        _pb.cache_clear()
    assert rep.status == "pass", rep.witness
    assert rep.witness == {"vertices": 120}


# -- the int slice checks against their Fraction routes ----------------------


def test_int_slice_checks_match_fraction_oracles():
    # the margins from P_b's support function against column_dots over its
    # vertices, the int closed form over n + 1 against the Fraction one, and
    # the Fraction quotient images against the resolution polyhedron
    for n in range(1, 7):
        facets = product_facets(n)
        _, h, support = _pb(n)
        data = unstable_rays_by_vertices(facets, pb_polyhedron(n))
        assert unstable_rays(facets, support, h) == data, n
        # the check takes one ray per S_n-orbit and lists every ray as the
        # oracle, which visits each ray and the vertices of P_b, gives it
        rows = [{"I": list(I), "j": j, "d": str(rd.support_constant), "margin": str(rd.margin),
                 "unstable": rd.unstable}
                for rd in data for I, j in [decode_ray_label(n, rd.ray)]]
        assert verify(n, "unstable_locus").witness == {"rays": rows}, n
        pts = slice_vertex_points_by_fractions(n)
        assert [tuple(F(x, n + 1) for x in m) for m in head_orbit(n, identity_slice_vertex(n))] \
            == sorted(pts), n
        assert set(pb_polyhedron(n).vertex_candidates) == set(pts), n
        if n >= 2:
            assert quotient_images_by_fractions(n, pts) == \
                set(symmetric_orbit(_symmetric(n))[2].vertex_candidates), n


def test_int_slice_checks_fail_like_their_fraction_routes(monkeypatch):
    # m_id moved off P_b, and one support constant lowered by 1/3: each
    # check fails, and its witness is what the Fraction route gives (a moved
    # tail is m_id's own check, test_identity_slice_vertex_check_rejects_...)
    for n in (2, 3, 4):
        real = identity_slice_vertex(n)
        moved = (real[0] + 1,) + real[1:]
        monkeypatch.setattr(degeneration, "identity_slice_vertex", lambda n: moved)
        pts = [tuple(F(x, n + 1) for x in m) for m in head_orbit(n, moved)]
        rep = verify(n, "pb_vertices")
        assert rep.status == "fail"
        # the least unexpected vertex, which is w_id: u's entries increase
        extra = set(pb_polyhedron(n).vertex_candidates) - set(pts)
        assert rep.witness == {"unexpected": [list(map(str, min(extra)))]}
        rep = verify(n, "quotient_theorem")
        assert rep.status == "fail"
        (got,) = quotient_images_by_fractions(n, [tuple(F(x, n + 1) for x in moved)])
        assert rep.witness == {"identity_image": list(map(str, got))}
        monkeypatch.undo()
        facets = product_facets(n)
        (v, o), rest = facets[-1], facets[:-1]
        lowered = rest + ((v, o - F(1, 3)),)
        monkeypatch.setattr(degeneration, "product_facets", lambda n: lowered)
        rep = verify(n, "unstable_locus")
        monkeypatch.undo()
        assert rep.status == "fail"
        data = unstable_rays_by_vertices(lowered, pb_polyhedron(n))
        assert rep.witness["ray"]["d"] == str(data[-1].support_constant) == str(o - F(1, 3))
        assert rep.witness["ray"]["margin"] == str(data[-1].margin)


def test_unstable_locus_compares_each_margin_and_d_exactly(monkeypatch):
    # the support raised on the whole orbit (|I|, j) = (1, 0) of unstable
    # rays, a mutant that keeps the S_n symmetry, and a d lowered by 1/3
    # with its margin kept (h = 3 at n = 2) on the ray of that orbit that is
    # not its representative: the sign tests still hold, and the check fails
    # on the exact comparisons alone, the second with that ray's own margin
    n = 2
    facets, (w, h, support) = product_facets(n), _pb(n)
    assert h == 3
    orbit = [v for v, _ in facets if decode_ray_label(n, v) in (((1,), 0), ((2,), 0))]
    assert len(orbit) == 2
    raised = lambda c: support(c) + (c in orbit)
    monkeypatch.setattr(degeneration, "_pb", lambda n: (w, h, raised))
    rep = verify(n, "unstable_locus")
    assert rep.status == "fail"
    assert rep.witness["ray"]["I"] == [2] and rep.witness["ray"]["unstable"]
    v = orbit[0]  # (e_2; e_0), sorted first; (e_1; e_0) represents the orbit
    assert decode_ray_label(n, v) == ((2,), 0)
    lowered = tuple((w, o - F(1, 3) if w == v else o) for w, o in facets)
    kept = lambda c: support(c) - (c == v)
    monkeypatch.setattr(degeneration, "_pb", lambda n: (w, h, kept))
    monkeypatch.setattr(degeneration, "product_facets", lambda n: lowered)
    rep = verify(n, "unstable_locus")
    assert rep.status == "fail"
    assert rep.witness["ray"]["I"] == [2]
    assert rep.witness["ray"]["d"] == str(F(-2) - F(1, 3))
    assert rep.witness["ray"]["margin"] == rep.witness["expected"]["margin"]


def test_unstable_locus_visits_no_vertex_of_pb(monkeypatch):
    # each margin is one call of P_b's support function: column_dots runs
    # over the n^2 columns of L, never over the n! vertices of P_b, once per
    # orbit (|I|, j) of the (n+1)·2^n product rays, and the check's facet
    # rows take their offsets once per orbit too.  The bundle reads the
    # extreme rays of the family polyhedron's homogenization alone: one pass
    # per facet of that cone (2n + 3) over its 2n + 4 generators, the n + 1
    # staircase points and the n + 3 recession rays
    for n in (3, 4, 5):
        _pb(n)  # built, with its own checks, before the spy
        counts = []
        for mod in (cones, polyhedra, degeneration):
            real = mod.column_dots
            monkeypatch.setattr(mod, "column_dots", lambda f, cols, count, real=real, mod=mod:
                                counts.append((mod.__name__, count)) or real(f, cols, count))
        assert verify(n, "unstable_locus").status == "pass"
        assert Counter(counts) == {("toricgit.polyhedra", n * n): (n + 1) ** 2,
                                   ("toricgit.degeneration", n * n): (n + 1) ** 2}, n
        counts.clear()
        build_bundle(n)
        monkeypatch.undo()
        assert Counter(c for _, c in counts) == {2 * n + 4: 2 * n + 3}, n


# -- the two fan checks, decided at the chamber --------------------------------


def test_fan_checks_build_no_fan_and_test_one_cone_for_smoothness(monkeypatch):
    # the model is built and both checks pass with the n!-wide route
    # forbidden: no Fan, no normal_fan, and is_smooth of the chamber alone
    def forbidden(*args):
        raise AssertionError("the n!-wide fan route ran")

    real, smooth = Cone.is_smooth, []
    monkeypatch.setattr(polyhedra, "normal_fan", forbidden)
    monkeypatch.setattr(polyhedra.Fan, "__init__", forbidden)
    monkeypatch.setattr(Cone, "is_smooth", lambda c: smooth.append(c) or real(c))
    _symmetric.cache_clear()
    for n in range(2, 7):
        for check, chamber_only in (("normal_fan", []), ("fan_smooth_small", [chamber_cone(n)])):
            smooth.clear()
            rep = verify(n, check)
            assert rep.status == "pass", (n, check, rep.witness)
            assert smooth == chamber_only, (n, check)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_fan_checks_agree_with_the_orbit_fan_oracle(monkeypatch, n):
    # the n!-wide route as the oracle: the normal fan of the resolution
    # polyhedron is the Fan of the per-cone DD orbit fan, whose cones are as
    # many as the walk's, distinct and each smooth, and the rays the chamber
    # check tests against σ, in one column pass per facet of σ, are its rays
    sym = _symmetric(n)
    fan = Fan(n + 1, orbit_fan_by_cone_dd(n), sym.product_cone)
    (_, cones), _, respoly = symmetric_orbit(sym)
    assert normal_fan(respoly) == fan
    assert len(fan.maximal_cones) == len(cones) == factorial(n)
    assert all(c.is_smooth() for c in fan.maximal_cones)
    real, passes = degeneration.column_dots, []
    monkeypatch.setattr(degeneration, "column_dots",
                        lambda f, cols, count: passes.append((f, list(zip(*cols)))) or
                        real(f, cols, count))
    rep = verify(n, "fan_smooth_small")
    assert [f for f, _ in passes] == list(sym.product_cone.facets)
    tested = passes[0][1]
    assert all(rays == tested for _, rays in passes)
    assert tested == fan_rays(fan) == list(sym.product_cone.rays) and len(tested) == 2 ** n
    assert rep.witness == {"rays": len(tested), "maximal_cones": len(fan.maximal_cones)}
    assert verify(n, "normal_fan").witness == {"maximal_cones": len(fan.maximal_cones)}


def test_fan_smooth_small_walks_no_orbit(monkeypatch):
    # the orbit of C's rays is read off the orbit certificate, the model's
    # facet normals: no matrix product, where a walk of C's rays by the
    # generators makes (n-1)·2^n of them
    real, calls = Matrix.__matmul__, []
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: calls.append(b) or real(a, b))
    for n in range(2, 11):
        _symmetric(n)  # the model, with its own checks, built before the count
        calls.clear()
        rep = verify(n, "fan_smooth_small")
        assert rep.status == "pass" and rep.witness["rays"] == 2 ** n, (n, rep.witness)
        assert not calls, n


def test_fan_smooth_small_tests_sigma_in_column_passes(monkeypatch):
    # the certified normals are tested against σ's facet rows by column_dots,
    # one pass per row, with no dot product of one vector pair anywhere in the
    # package, where a membership test of each normal against σ takes 2^n·2n
    real, calls = linalg.dot, []
    for mod in (cones, degeneration, linalg, polyhedra):
        if hasattr(mod, "dot"):
            monkeypatch.setattr(mod, "dot", lambda f, v: calls.append(f) or real(f, v))
    for n in range(2, 11):
        _symmetric(n)  # the model, with its own checks, built before the count
        calls.clear()
        rep = verify(n, "fan_smooth_small")
        assert rep.status == "pass" and rep.witness["rays"] == 2 ** n, (n, rep.witness)
        assert not calls, (n, calls[:2])


def _failing(monkeypatch, n, check, **fields):
    """The report of ``check`` on the symmetric model with ``fields`` replaced."""
    sym = _symmetric(n)._replace(**fields)
    monkeypatch.setattr(degeneration, "_symmetric", lambda n: sym)
    rep = verify(n, check)
    monkeypatch.undo()
    assert rep.status == "fail", (n, check, rep.witness)
    return rep.witness


@pytest.mark.parametrize("n", [2, 3, 4])
def test_normal_fan_check_rejects_a_chamber_off_the_base_point(monkeypatch, n):
    # another cone of the orbit fan is the normal cone of another vertex
    other = orbit_fan_by_cone_dd(n)[-1]
    witness = _failing(monkeypatch, n, "normal_fan", chamber=other)
    assert witness["chamber_rays"] == [list(r) for r in other.rays]
    assert witness["facets_at_base_point"] == [list(r) for r in chamber_cone(n).rays]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_normal_fan_check_rejects_a_support_other_than_sigma(monkeypatch, n):
    # σ less one ray is not the dual of the recession cone
    sigma = _symmetric(n).product_cone
    witness = _failing(monkeypatch, n, "normal_fan", product_cone=Cone(n + 1, sigma.rays[1:]))
    assert witness == {"support": [list(r) for r in sigma.rays]}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fan_smooth_small_check_rejects_a_non_smooth_chamber(monkeypatch, n):
    # 2·r_0 + r_1 in place of r_0: a simplicial chamber of |det| 2
    r = chamber_cone(n).rays
    chamber = Cone(n + 1, [tuple(2 * a + b for a, b in zip(r[0], r[1]))] + list(r[1:]))
    witness = _failing(monkeypatch, n, "fan_smooth_small", chamber=chamber)
    assert witness == {"non_smooth_cone": [list(x) for x in chamber.rays]}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fan_smooth_small_check_rejects_a_non_unimodular_generator(monkeypatch, n):
    # the last generator replaced by the projection that kills e_n, |det| 0;
    # its orbit of rays stays finite, as all generators then map units to units or 0
    proj = Matrix([[int(i == j < n) for j in range(n + 1)] for i in range(n + 1)])
    gens = _symmetric(n).generators[:-1] + (proj,)
    witness = _failing(monkeypatch, n, "fan_smooth_small", generators=gens)
    assert witness == {"generator_abs_dets": [1] * (n - 2) + [0]}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fan_smooth_small_check_rejects_a_chamber_off_the_base_point(monkeypatch, n):
    # another cone of the orbit fan is smooth and its rays have the same
    # orbit, but only the facets at y₀ make that orbit the certified normals
    other = orbit_fan_by_cone_dd(n)[-1]
    assert other.is_smooth() and other != chamber_cone(n)
    witness = _failing(monkeypatch, n, "fan_smooth_small", chamber=other)
    assert witness == {"facets_at_base_point": [list(r) for r in chamber_cone(n).rays],
                       "chamber_rays": [list(r) for r in other.rays]}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fan_smooth_small_check_rejects_a_ray_outside_or_inside_sigma(monkeypatch, n):
    # σ without its ray e_n leaves that orbit ray outside; the half-space of a
    # facet φ of σ holds every ray, those off φ in its relative interior
    sigma, e_n = _symmetric(n).product_cone, (0,) * n + (1,)
    smaller = Cone(n + 1, [r for r in sigma.rays if r != e_n])
    witness = _failing(monkeypatch, n, "fan_smooth_small", product_cone=smaller)
    assert witness == {"ray_outside": list(e_n)}
    phi = sigma.facets[0]
    half = Cone(n + 1, list(sigma.rays) + [tuple(-x for x in r) for r in sigma.rays
                                           if dot(phi, r) == 0])
    assert half.facets == (phi,) and all(cone_contains(half, r) for r in sigma.rays)
    witness = _failing(monkeypatch, n, "fan_smooth_small", product_cone=half)
    first = min(r for r in sigma.rays if dot(phi, r) > 0)
    assert witness == {"ray_in_relative_interior": list(first)}
