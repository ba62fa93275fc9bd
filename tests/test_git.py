import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (ambient_quotient_slice, chart_invariants, decode_ray_label, minkowski_sum,
                     polyhedron_support_constants, quotient_by_ambient_slice,
                     split_by_ambient_slice, support_constants_by_scan,
                     unstable_rays_by_vertices)
from toricgit.cones import Cone
from toricgit.degeneration import (_pb, build_bundle, head_vertex,
                                   product_facets, product_linearization, product_polyhedron,
                                   projection_matrix)
from toricgit.git import Linearization, quotient_polyhedron, split_quotient, unstable_rays
from toricgit.linalg import Matrix, dot, rank
from toricgit.polyhedra import LatticePolyhedron


def ray(n, I, j):
    """Lattice vector of the labeled recession-dual ray (1-based I, 0-based j)."""
    return tuple(1 if i + 1 in I else 0 for i in range(n)) + \
        tuple(1 if k == j else 0 for k in range(n + 1))


def test_linearization_validation():
    with pytest.raises(ValueError):
        Linearization(Matrix([[1, 1], [2, 2]]), (0, 0))  # not surjective
    with pytest.raises(ValueError):
        Linearization(Matrix([[1, 0]]), (0, 0))  # b has wrong length


def test_linearization_computes_kernel_and_base_point_once(monkeypatch):
    from toricgit import git
    poly = build_bundle(2).family_polyhedron
    calls = []
    for name in ("kernel_basis", "solve_affine"):
        real = getattr(git, name)
        monkeypatch.setattr(git, name, lambda *a, _r=real, _n=name: calls.append(_n) or _r(*a))
    lin = Linearization(Matrix([[0, 1, -1, 0], [0, 0, 1, -1]]), (F(1, 3), F(2, 3)))
    split_quotient(poly, lin, quotient_polyhedron(poly, lin))
    assert calls == ["kernel_basis", "solve_affine"]
    k = lin.kernel()
    k.append(None)  # the caller's list is its own
    assert lin.kernel() == [(1, 0, 0, 0), (0, 1, 1, 1)]
    assert lin.base_point() == (0, -1, F(-2, 3), 0)


def test_quotient_family_recovers_plane():
    b = build_bundle(1)
    q = quotient_polyhedron(b.family_polyhedron, b.lin_family)
    assert len(q.vertex_candidates) == 1
    rec = q.recession
    assert rec.is_pointed() and len(rec.rays) == 2 and rec.dim() == 2
    assert rec.is_smooth()


def test_quotient_product_n2():
    lin = product_linearization(2)
    q = quotient_polyhedron(product_polyhedron(2), lin)
    assert len(q.vertex_candidates) == 2
    # ambient-side head projections are u and its swap
    sl = ambient_quotient_slice(product_polyhedron(2), lin)
    heads = {v[:2] for v in sl.vertex_candidates}
    u = tuple(F(x, 3) for x in head_vertex(2))  # head_vertex(2) is 3·u
    assert heads == {u, (u[1], u[0])}


def test_quotient_empty_for_unreachable_shift():
    square = LatticePolyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)]).canonicalize()
    lin = Linearization(Matrix([[1, 0]]), (F(-5),))  # slice x = 5 misses [0,1]^2
    q = quotient_polyhedron(square, lin)
    assert q.is_empty()


def test_split_quotient_sum_identity():
    for n in (1, 2, 3):
        b = build_bundle(n)
        for poly, lin in ((product_polyhedron(n), product_linearization(n)),
                          (b.family_polyhedron, b.lin_family)):
            q = quotient_polyhedron(poly, lin)
            polytopal, conical = split_quotient(poly, lin, q)
            assert conical == split_by_ambient_slice(poly, lin)[1]
            recon = minkowski_sum(polytopal,
                                  LatticePolyhedron(polytopal.ambient_rank,
                                                    [(0,) * polytopal.ambient_rank],
                                                    conical))
            assert recon == q


def test_split_quotient_family_point_plus_cone():
    b = build_bundle(1)
    q = quotient_polyhedron(b.family_polyhedron, b.lin_family)
    polytopal, conical = split_quotient(b.family_polyhedron, b.lin_family, q)
    assert len(polytopal.vertex_candidates) == 1
    assert not polytopal.recession.rays
    assert len(conical.rays) == 2


def test_split_quotient_trivial_recession():
    # polytope with trivial recession: the conical part is the origin
    square = LatticePolyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)]).canonicalize()
    lin = Linearization(Matrix([[1, 0]]), (F(-1, 2),))
    polytopal, conical = split_quotient(square, lin, quotient_polyhedron(square, lin))
    assert not conical.rays and not conical.lineality_basis
    assert set(polytopal.vertex_candidates) == {(F(0),), (F(1),)}


def test_split_quotient_empty_returns_none():
    # P_b = ∅: for an empty Q, and for the segment Q that {0} + cone(e1, e2)
    # cuts out on x + y = 3
    square = LatticePolyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)]).canonicalize()
    orthant = LatticePolyhedron(2, [(0, 0)], Cone(2, [(1, 0), (0, 1)]))
    for p, lin in ((square, Linearization(Matrix([[1, 0]]), (F(-5),))),
                   (orthant, Linearization(Matrix([[1, 1]]), (-3,)))):
        assert split_quotient(p, lin, quotient_polyhedron(p, lin)) is None


def random_quotient_input(rng):
    """A polyhedron of rank 2..4 (integer points plus a pointed recession
    cone, often trivial) and a linearization with 1..d rows and rational b;
    α has full row rank."""
    while True:
        d = rng.randint(2, 4)
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, d + 2))]
        w = [rng.randint(1, 3) for _ in range(d)]
        gens = []
        for _ in range(rng.randint(0, d + 1)):
            g = [rng.randint(-2, 2) for _ in range(d)]
            gens.append(g if dot(g, w) >= 0 else [-x for x in g])
        rows = rng.randint(1, d)
        alpha = Matrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(rows)])
        if alpha.rank() == rows:
            b = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rows)]
            return LatticePolyhedron(d, pts, Cone(d, gens)), Linearization(alpha, b)


def test_quotient_matches_the_ambient_route_on_random_inputs():
    # oracle: the ambient slice, mapped to ker(α) by one solve per vertex and
    # ray, σ̄^∨ from its own double description of rec(P)^∨ on ker(α), and the
    # split decided by the Minkowski sum P_b + σ̄^∨ = Q
    rng = random.Random(18)
    seen = dict.fromkeys(("empty", "unbounded", "k = 0", "split", "no split", "P_b empty"), 0)
    for _ in range(150):
        p, lin = random_quotient_input(rng)
        q = quotient_polyhedron(p, lin)
        assert q == quotient_by_ambient_slice(p, lin)
        k = q.ambient_rank
        assert k == len(lin.kernel())
        seen["empty"] += q.is_empty()
        if q.is_empty():
            continue
        pb, sigma = split_by_ambient_slice(p, lin)
        assert sigma == q.recession
        holds = not pb.is_empty() and minkowski_sum(
            pb, LatticePolyhedron(k, [(0,) * k], sigma)) == q
        got = split_quotient(p, lin, q)
        assert got == ((pb, sigma) if holds else None)
        seen["unbounded"] += bool(q.recession.rays)
        seen["k = 0"] += k == 0
        seen["split" if holds else "P_b empty" if pb.is_empty() else "no split"] += 1
    assert all(c >= 3 for c in seen.values()), seen


def test_quotient_and_split_reject_a_line_in_the_kernel():
    # rec(P) ∩ ker(α) = R·e1: the slice contains a line, so no Q reaches
    # split_quotient, and the oracle's own σ̄^∨ contains it too
    p = LatticePolyhedron(2, [(0, 1)], Cone(2, [(1, 0), (-1, 0), (0, 1)]))
    lin = Linearization(Matrix([[0, 1]]), (-1,))
    for f in (quotient_polyhedron, split_by_ambient_slice):
        with pytest.raises(ValueError, match="line"):
            f(p, lin)


def test_quotient_runs_few_double_descriptions(monkeypatch):
    # one slice and the two canonical forms of its result; split_quotient
    # adds P_b's hull, its slice and its canonical form, and reads σ̄^∨ off Q
    from toricgit import dd
    b4, p3 = build_bundle(4), product_polyhedron(3)
    calls = []
    real = dd.cone_from_inequalities

    def spy(constraints, ambient):
        calls.append(ambient)
        return real(constraints, ambient)

    monkeypatch.setattr(dd, "cone_from_inequalities", spy)
    quotient_polyhedron(b4.family_polyhedron, b4.lin_family)
    assert len(calls) <= 3, calls
    lin3 = product_linearization(3)
    q3 = quotient_polyhedron(p3, lin3)
    calls.clear()
    split_quotient(p3, lin3, q3)
    assert len(calls) <= 3, calls


def test_support_constants():
    d2 = polyhedron_support_constants(product_polyhedron(2))
    assert d2[ray(2, (1,), 1)] == F(-1)       # -(n-j)#I at n=2, I={1}, j=1
    for j in range(3):
        assert d2[ray(2, (), j)] == 0
    d3 = polyhedron_support_constants(product_polyhedron(3))
    assert d3[ray(3, (1, 2), 1)] == F(-4)     # -(3-1)*2


def test_support_constants_rational_vertices():
    # rational candidate points with distinct denominators, against a plain
    # Fraction reference: d_v = min(0, min over points of <v, point>)
    pts = [(F(1, 2), F(-1, 3), F(0)), (F(-5, 6), F(2), F(1, 4)), (F(3), F(-7, 5), F(-2, 9))]
    rec = Cone(3, [(1, 0, 0), (1, 1, 0), (0, -1, 1), (0, 0, 1)]).dual()
    p = LatticePolyhedron(3, pts, rec)
    got = polyhedron_support_constants(p)
    assert set(got) == set(rec.dual().rays)
    for v, dv in got.items():
        assert dv == min([F(0)] + [sum((F(a) * b for a, b in zip(v, pt)), F(0)) for pt in pts])
        assert type(dv) in (int, F)  # exact, never a float
    slice_pts = ambient_quotient_slice(product_polyhedron(3).polytopal_part().canonicalize(),
                                       product_linearization(3)).vertex_candidates
    q = LatticePolyhedron(7, slice_pts, product_polyhedron(3).recession)
    assert any(x.denominator != 1 for pt in slice_pts for x in pt)
    for v, dv in polyhedron_support_constants(q).items():
        assert dv == min([F(0)] + [dot(v, pt) for pt in slice_pts])


def test_support_constants_match_scan_oracle(monkeypatch):
    # the seeded facet offsets of the product polyhedron, read with no double
    # description, against a scan of its chart vertices
    from toricgit import dd

    def no_dd(constraints, ambient):
        raise AssertionError("support_constants ran a double description")

    for n in (1, 2, 3, 4):
        p = product_polyhedron(n)
        monkeypatch.setattr(dd, "cone_from_inequalities", no_dd)
        got = polyhedron_support_constants(p)
        monkeypatch.undo()
        assert list(got.items()) == list(support_constants_by_scan(p).items()), n


def test_support_constants_build_no_homogenization(monkeypatch):
    # the seeded facets are read as given: the 4^3 chart vertices of the
    # n = 3 product polyhedron are never homogenized into a Cone
    p = product_polyhedron(3)

    def no_cone(self):
        raise AssertionError("support_constants built the homogenization")

    monkeypatch.setattr(LatticePolyhedron, "homogenization", no_cone)
    got = polyhedron_support_constants(p)
    monkeypatch.undo()
    assert list(got.items()) == list(support_constants_by_scan(p).items())


@st.composite
def polyhedra_with_full_recession(draw):
    """conv(rational points) + a random full-dimensional pointed cone, whose
    generators are turned to the positive side of a random functional w."""
    d = draw(st.integers(1, 4))
    coords = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    w = draw(coords.filter(any))
    raw = draw(st.lists(coords, min_size=d, max_size=d + 3))
    gens = [g if dot(w, g) > 0 else [-x for x in g] for g in raw if dot(w, g)]
    assume(gens and rank(gens) == d)
    point = st.tuples(*[st.builds(F, st.integers(-6, 6), st.integers(1, 4))] * d)
    pts = draw(st.lists(point, min_size=1, max_size=5))
    return LatticePolyhedron(d, pts, Cone(d, gens))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(p=polyhedra_with_full_recession())
def test_support_constants_match_scan_on_random_polyhedra(p):
    got = polyhedron_support_constants(p)
    assert list(got.items()) == list(support_constants_by_scan(p).items())


def test_support_constants_need_a_full_dimensional_recession_cone():
    for rec in (Cone(2, []), Cone(2, [(1, 0)]), Cone(3, [(1, 0, 0), (0, 1, 1)])):
        p = LatticePolyhedron(rec.ambient_rank, [(0,) * rec.ambient_rank], rec)
        with pytest.raises(ValueError, match="full-dimensional"):
            polyhedron_support_constants(p)


def general_pb(n):
    """P_b along the general route: the ambient slice of the product
    polytope's H-representation."""
    return ambient_quotient_slice(product_polyhedron(n).polytopal_part(),
                                  product_linearization(n))


def test_unstable_rays_n2():
    facets = product_facets(2)
    data = {rd.ray: rd for rd in unstable_rays_by_vertices(facets, general_pb(2))}
    _, h, support = _pb(2)
    assert list(data.values()) == unstable_rays(facets, support, h)
    assert data[ray(2, (1,), 1)].margin == 0
    assert not data[ray(2, (1,), 1)].unstable
    assert data[ray(2, (), 1)].margin == F(2, 3)
    assert data[ray(2, (1, 2), 1)].margin == F(2, 3)
    for rd in data.values():
        I, j = decode_ray_label(2, rd.ray)
        assert rd.margin >= 0
        assert (rd.margin == 0) == (j == len(I))


def test_margin_closed_form_n3():
    facets = product_facets(3)
    _, h, support = _pb(3)
    data = unstable_rays(facets, support, h)
    assert data == unstable_rays_by_vertices(facets, general_pb(3))
    for rd in data:
        I, j = decode_ray_label(3, rd.ray)
        k = len(I)
        assert rd.support_constant == F(-(3 - j) * k)
        assert rd.margin == F((j - k) * ((j - k) * 3 + 3 - 2 * k), 8)


def test_integer_margins_match_fraction_margins():
    # oracle: the slice of the canonicalized polytopal part, Fraction inner
    # products, and d_v from the definition
    for n in (1, 2, 3):
        p = product_polyhedron(n)
        verts = ambient_quotient_slice(LatticePolyhedron(p.ambient_rank, p.vertex_candidates)
                                       .canonicalize(), product_linearization(n)).vertex_candidates
        _, h, support = _pb(n)
        data = unstable_rays(product_facets(n), support, h)
        assert [rd.ray for rd in data] == sorted(p.recession.dual().rays)
        for rd in data:
            dv = min([F(0)] + [dot(rd.ray, m) for m in p.vertex_candidates])
            margin = min(dot(rd.ray, m) for m in verts) - dv
            assert (rd.support_constant, rd.margin) == (dv, margin)
            assert isinstance(rd.margin, F) and rd.unstable == (margin > 0)


def test_slice_checks_share_pb_without_product_dd(monkeypatch):
    # pb_vertices and unstable_locus read one cached P_b, cut from the cube,
    # so the product polytope's polytopal part is never double-described;
    # with the family polyhedron no longer built for them, they run no
    # double description at all
    from toricgit import dd
    from toricgit.degeneration import verify
    calls = []
    real = dd.cone_from_inequalities

    def spy(constraints, ambient):
        calls.append({tuple(c) for c in constraints})
        return real(constraints, ambient)

    _pb.cache_clear()
    monkeypatch.setattr(dd, "cone_from_inequalities", spy)
    try:
        assert verify(3, "pb_vertices").status == "pass"
        pb = _pb(3)
        assert verify(3, "unstable_locus").status == "pass"
        assert _pb(3) is pb
        assert calls == []
    finally:
        _pb.cache_clear()


def test_shift_integrality():
    # (n+1) times the fractional shifts is integral
    for n in (1, 2, 3, 4):
        b = build_bundle(n)
        assert all(((n + 1) * x).denominator == 1 for x in b.lin_family.b)
        assert all(((n + 1) * x).denominator == 1 for x in product_linearization(n).b)


def test_kernel_cone_duality_relation():
    # the quotient recession dual equals the image of the recession dual
    # under the transpose-kernel projection
    from toricgit.cones import image_cone
    for n in (2, 3):
        p, lin = product_polyhedron(n), product_linearization(n)
        q = quotient_polyhedron(p, lin)
        kern = Matrix(lin.kernel())
        proj = kern  # rows = kernel basis: N-side projection is its matrix
        assert image_cone(proj, p.recession.dual()) == q.recession.dual()


def test_chart_invariants_n2():
    n = 2
    # chart monomial cone: w_1..w_5 exponents
    cols = []
    for k in range(1, n + 1):
        cols.append(tuple(1 if i == k - 1 else 0 for i in range(n)) +
                    tuple(-1 if m >= k + 1 else 0 for m in range(1, n + 2)))
    cols.append((-1, 0) + (1, 1, 1))
    cols.append((0, -1) + (0, 1, 1))
    cols.append((0, 0) + (0, 0, 1))
    chart = Cone(2 * n + 1, cols)
    pi = projection_matrix(n)
    out = chart_invariants(chart, pi)
    exps = {m for m, _ in out}
    w = cols
    def mono(*idx):
        v = [0] * 5
        for i in idx:
            v = [a + b for a, b in zip(v, w[i - 1])]
        return tuple(v)
    assert exps == {mono(3), mono(1, 4), mono(2, 5)}  # f0 = w3, f1 = w1w4, f2 = w2w5
    table = dict(out)
    assert table[mono(3)] == (0, 0, 1, 0, 0)
    assert table[mono(1, 4)] == (1, 0, 0, 1, 0)
    assert table[mono(2, 5)] == (0, 1, 0, 0, 1)


def test_chart_invariants_identity():
    chart = Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    out = chart_invariants(chart, Matrix.identity(3))
    assert {m for m, _ in out} == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    for m, e in out:
        assert m == e


def test_chart_image_is_chamber():
    from toricgit.cones import image_cone
    from toricgit.degeneration import chamber_cone
    for n in (2, 3):
        cols = []
        for k in range(1, n + 1):
            cols.append(tuple(1 if i == k - 1 else 0 for i in range(n)) +
                        tuple(-1 if m >= k + 1 else 0 for m in range(1, n + 2)))
        for k in range(1, n + 1):
            cols.append(tuple(-1 if i == k - 1 else 0 for i in range(n)) +
                        tuple(1 if m >= k else 0 for m in range(1, n + 2)))
        cols.append(tuple([0] * n) + tuple(1 if m == n + 1 else 0 for m in range(1, n + 2)))
        chart = Cone(2 * n + 1, cols)
        assert image_cone(projection_matrix(n), chart.dual()) == chamber_cone(n)


def test_chart_invariants_killed_by_shift():
    n = 2
    cols = []
    for k in range(1, n + 1):
        cols.append(tuple(1 if i == k - 1 else 0 for i in range(n)) +
                    tuple(-1 if m >= k + 1 else 0 for m in range(1, n + 2)))
    cols.append((-1, 0) + (1, 1, 1))
    cols.append((0, -1) + (0, 1, 1))
    cols.append((0, 0) + (0, 0, 1))
    chart = Cone(2 * n + 1, cols)
    for m, _ in chart_invariants(chart, projection_matrix(n)):
        assert all(x == 0 for x in (product_linearization(n).alpha @ m))
