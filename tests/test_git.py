from fractions import Fraction as F

import pytest

from toricgit.cones import Cone
from toricgit.degeneration import (build_bundle, decode_ray_label,
                                   product_rec_dual_columns, projection_matrix)
from toricgit.git import (Linearization, chart_invariants, kernel_cone,
                          quotient_polyhedron, quotient_slice, split_quotient,
                          support_constants, unstable_rays)
from toricgit.linalg import Matrix, dot
from toricgit.polyhedra import LatticePolyhedron, minkowski_sum


def ray(n, I, j):
    """Lattice vector of the labeled recession-dual ray (1-based I, 0-based j)."""
    return tuple(1 if i + 1 in I else 0 for i in range(n)) + \
        tuple(1 if k == j else 0 for k in range(n + 1))


def test_linearization_validation():
    with pytest.raises(ValueError):
        Linearization(Matrix([[1, 1], [2, 2]]), (0, 0))  # not surjective
    with pytest.raises(ValueError):
        Linearization(Matrix([[1, 0]]), (0, 0))  # b has wrong length


def test_quotient_family_recovers_plane():
    b = build_bundle(1)
    q = quotient_polyhedron(b.family_polyhedron, b.lin_family)
    assert len(q.vertex_candidates) == 1
    rec = q.recession
    assert rec.is_pointed() and len(rec.rays) == 2 and rec.dim() == 2
    assert rec.is_smooth()


def test_quotient_product_n2():
    b = build_bundle(2)
    q = quotient_polyhedron(b.product_polyhedron, b.lin_product)
    assert len(q.vertex_candidates) == 2
    # ambient-side head projections are u and its swap
    sl = quotient_slice(b.product_polyhedron, b.lin_product)
    heads = {v[:2] for v in sl.vertex_candidates}
    u = b.head
    assert heads == {u, (u[1], u[0])}


def test_quotient_empty_for_unreachable_shift():
    square = LatticePolyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)]).canonicalize()
    lin = Linearization(Matrix([[1, 0]]), (F(-5),))  # slice x = 5 misses [0,1]^2
    q = quotient_polyhedron(square, lin)
    assert q.is_empty()


def test_split_quotient_sum_identity():
    for n in (1, 2, 3):
        b = build_bundle(n)
        for poly, lin in ((b.product_polyhedron, b.lin_product),
                          (b.family_polyhedron, b.lin_family)):
            q = quotient_polyhedron(poly, lin)
            polytopal, conical = split_quotient(poly, lin)
            recon = minkowski_sum(polytopal,
                                  LatticePolyhedron(polytopal.ambient_rank,
                                                    [(0,) * polytopal.ambient_rank],
                                                    conical))
            assert recon == q


def test_split_quotient_family_point_plus_cone():
    b = build_bundle(1)
    polytopal, conical = split_quotient(b.family_polyhedron, b.lin_family)
    assert len(polytopal.vertex_candidates) == 1
    assert not polytopal.recession.rays
    assert len(conical.rays) == 2


def test_split_quotient_trivial_recession():
    # polytope with trivial recession: the conical part is the origin
    square = LatticePolyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)]).canonicalize()
    lin = Linearization(Matrix([[1, 0]]), (F(-1, 2),))
    polytopal, conical = split_quotient(square, lin)
    assert not conical.rays and not conical.lineality_basis
    assert set(polytopal.vertex_candidates) == {(F(0),), (F(1),)}


def test_split_quotient_empty_raises():
    square = LatticePolyhedron(2, [(0, 0), (1, 0), (0, 1), (1, 1)]).canonicalize()
    lin = Linearization(Matrix([[1, 0]]), (F(-5),))
    with pytest.raises(ValueError):
        split_quotient(square, lin)


def test_support_constants():
    b2 = build_bundle(2)
    d2 = support_constants(b2.product_polyhedron)
    assert d2[ray(2, (1,), 1)] == F(-1)       # -(n-j)#I at n=2, I={1}, j=1
    for j in range(3):
        assert d2[ray(2, (), j)] == 0
    b3 = build_bundle(3)
    d3 = support_constants(b3.product_polyhedron)
    assert d3[ray(3, (1, 2), 1)] == F(-4)     # -(3-1)*2


def test_support_constants_rational_vertices():
    # rational candidate points with distinct denominators, against a plain
    # Fraction reference: d_v = min(0, min over points of <v, point>)
    pts = [(F(1, 2), F(-1, 3), F(0)), (F(-5, 6), F(2), F(1, 4)), (F(3), F(-7, 5), F(-2, 9))]
    rec = Cone(3, [(1, 0, 0), (1, 1, 0), (0, -1, 1), (0, 0, 1)]).dual()
    p = LatticePolyhedron(3, pts, rec)
    got = support_constants(p)
    assert set(got) == set(rec.dual().rays)
    for v, dv in got.items():
        assert dv == min([F(0)] + [sum((F(a) * b for a, b in zip(v, pt)), F(0)) for pt in pts])
        assert isinstance(dv, F)
    b3 = build_bundle(3)
    slice_pts = quotient_slice(b3.product_polyhedron.polytopal_part().canonicalize(),
                               b3.lin_product).vertex_candidates
    q = LatticePolyhedron(7, slice_pts, b3.product_rec_dual)
    assert any(x.denominator != 1 for pt in slice_pts for x in pt)
    for v, dv in support_constants(q).items():
        assert dv == min([F(0)] + [dot(v, pt) for pt in slice_pts])


def test_unstable_rays_n2():
    b = build_bundle(2)
    data = {rd.ray: rd for rd in unstable_rays(b.product_polyhedron, b.lin_product)}
    assert data[ray(2, (1,), 1)].margin == 0
    assert not data[ray(2, (1,), 1)].unstable
    assert data[ray(2, (), 1)].margin == F(2, 3)
    assert data[ray(2, (1, 2), 1)].margin == F(2, 3)
    for rd in data.values():
        I, j = decode_ray_label(2, rd.ray)
        assert rd.margin >= 0
        assert (rd.margin == 0) == (j == len(I))


def test_margin_closed_form_n3():
    b = build_bundle(3)
    for rd in unstable_rays(b.product_polyhedron, b.lin_product):
        I, j = decode_ray_label(3, rd.ray)
        k = len(I)
        assert rd.support_constant == F(-(3 - j) * k)
        assert rd.margin == F((j - k) * ((j - k) * 3 + 3 - 2 * k), 8)


def test_shift_integrality():
    # (n+1) times the fractional shifts is integral
    for n in (1, 2, 3, 4):
        b = build_bundle(n)
        assert all(((n + 1) * x).denominator == 1 for x in b.lin_family.b)
        assert all(((n + 1) * x).denominator == 1 for x in b.lin_product.b)


def test_kernel_cone_duality_relation():
    # the quotient recession dual equals the image of the recession dual
    # under the transpose-kernel projection
    from toricgit.cones import image_cone
    for n in (2, 3):
        b = build_bundle(n)
        q = quotient_polyhedron(b.product_polyhedron, b.lin_product)
        kern = Matrix(b.lin_product.kernel())
        proj = kern  # rows = kernel basis: N-side projection is its matrix
        assert image_cone(proj, b.product_cone) == q.recession.dual()


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
    b = build_bundle(n)
    cols = []
    for k in range(1, n + 1):
        cols.append(tuple(1 if i == k - 1 else 0 for i in range(n)) +
                    tuple(-1 if m >= k + 1 else 0 for m in range(1, n + 2)))
    cols.append((-1, 0) + (1, 1, 1))
    cols.append((0, -1) + (0, 1, 1))
    cols.append((0, 0) + (0, 0, 1))
    chart = Cone(2 * n + 1, cols)
    for m, _ in chart_invariants(chart, b.projection):
        assert all(x == 0 for x in (b.lin_product.alpha @ m))
