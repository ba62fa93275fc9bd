import random
from fractions import Fraction as F
from itertools import permutations, product
from operator import add

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from oracles import (certified_polyhedron, check_semigroup_generation, cone_contains,
                     cone_over, cone_relint_contains, contains,
                     cube_image_slice_by_chambers, cube_slice_oracle, embedding_monomials,
                     feasible_nonneg_combination, in_cone_hull, intersection, linear_image,
                     minkowski_sum, fan_rays, normal_fan_by_vertex_dd, orbit_fan_by_cone_dd,
                     slice_polyhedron, solve_affine_oracle,
                     vadd, validate_pairwise_faces, validate_support_cover)
from toricgit.cones import Cone
from toricgit.jsonio import dumps, polyhedron_to_json
from toricgit.linalg import Matrix, dot, primitive, rank
from toricgit.polyhedra import (ChamberCertificateError, FacetCertificateError, Fan,
                                InnerCertificateError, LatticePolyhedron, affine_slice,
                                cube_image_slice, normal_fan)

SIGMA2_DUAL = Cone(3, [(1, 0, 0), (1, -1, 0), (0, 0, 1), (0, 1, 1)])


def cube(d):
    return LatticePolyhedron(d, list(product((0, 1), repeat=d))).canonicalize()


def L_matrix(n):
    rows = []
    for j in range(n):
        rows.append([-1 if jj == j else 0 for i in range(n) for jj in range(n)])
    for m in range(1, n + 2):
        rows.append([1 if m >= i + 2 else 0 for i in range(n) for jj in range(n)])
    return Matrix(rows)


def brute_vertices(points, rays=()):
    """Brute-force hull oracle: a point is a vertex iff it is not in the hull
    of the others plus the recession cone (LP membership)."""
    pts = list(dict.fromkeys(tuple(map(F, p)) for p in points))
    return sorted(p for p in pts
                  if not in_cone_hull(p, [q for q in pts if q != p], rays))


def test_canonicalize_midpoint():
    p = LatticePolyhedron(2, [(0, 0), (1, 0), (F(1, 2), 0)]).canonicalize()
    assert p.vertex_candidates == ((F(0), F(0)), (F(1), F(0)))


def test_canonicalize_resolution_polyhedron():
    iota = LatticePolyhedron(3, [(0, 0, 0), (0, 1, 0)])
    p = minkowski_sum(iota, LatticePolyhedron(3, [(0, 0, 0)], SIGMA2_DUAL))
    assert set(p.vertex_candidates) == {(F(0),) * 3, (F(0), F(1), F(0))}


def test_canonicalize_cube_image_against_oracle():
    L2 = L_matrix(2)
    imgs = [tuple(L2 @ v) for v in product((0, 1), repeat=4)]
    got = linear_image(L2, cube(4))
    oracle = brute_vertices(imgs)
    assert sorted(got.vertex_candidates) == oracle
    # the paper formula gives 15 distinct images and 14 true vertices
    assert len(set(imgs)) == 15 and len(oracle) == 14
    assert all(v in set(imgs) for v in got.vertex_candidates)


def test_canonicalize_empty():
    p = LatticePolyhedron(3).canonicalize()
    assert p.is_empty()
    assert not contains(p, (0, 0, 0))


def test_minkowski_identity_and_square():
    seg1 = LatticePolyhedron(2, [(0, 0), (1, 0)])
    seg2 = LatticePolyhedron(2, [(0, 0), (0, 1)])
    zero = LatticePolyhedron(2, [(0, 0)])
    assert minkowski_sum(seg1, zero) == seg1.canonicalize()
    sq = minkowski_sum(seg1, seg2)
    assert set(sq.vertex_candidates) == {(F(a), F(b)) for a in (0, 1) for b in (0, 1)}
    with pytest.raises(ValueError):
        minkowski_sum(seg1, LatticePolyhedron(3, [(0, 0, 0)]))


def test_linear_image_identity():
    p = cube(3)
    assert linear_image(Matrix.identity(3), p) == p


# -- slices of cube images, block by block --------------------------------


def assert_same_polytope(got, want):
    assert got.vertex_candidates == want.vertex_candidates
    assert dumps(polyhedron_to_json(got)) == dumps(polyhedron_to_json(want))


def cube_slice(L, f, target, chambers, lineality):
    """``cube_image_slice`` from each chamber with every 0/1 point a corner
    (no pairs), its vertices as a polyhedron, then h and the support
    function."""
    images, h, support = cube_image_slice_by_chambers(L, f, target, chambers, lineality, ())
    return slice_polyhedron(L.rows, images, h), h, support


def certified_cube_slice(L, f, target):
    """``cube_image_slice`` of the whole cube, a chamber per vertex of
    ``cube_slice_oracle``: the rays of its normal cone, with the oracle's
    hull normals as the lineality; returns ``cube_slice``'s three values,
    the oracle and the chambers."""
    want = cube_slice_oracle(L, f, target)
    chambers, lineality = [], []
    if not want.is_empty():
        chambers = [c.rays for c in normal_fan(want).maximal_cones]
        lineality = [e for e, _ in want.hull_equations]
    return (*cube_slice(L, f, target, chambers, lineality), want, chambers)


def ties_across_a_cut(L, f, target, c):
    """Do the values of Lᵀc tie across a change of the greedy weight in some
    block: lo < s < hi for the columns below and up to some value, two or
    more of them tied at it?"""
    vals = [sum(a * b for a, b in zip(c, col)) for col in zip(*L.entries)]
    for r, t in zip((f @ L).entries, target):
        cols = [j for j, a in enumerate(r) if a != 0]
        s = t / r[cols[0]]
        for v in {vals[j] for j in cols}:
            lo = sum(vals[j] < v for j in cols)
            hi = sum(vals[j] <= v for j in cols)
            if lo < s < hi and hi - lo >= 2:
                return True
    return False


@st.composite
def hypersimplex_slices(draw):
    """(L, f, target): L = [M; R] and f = [I | 0], so f·L = M, whose row i
    reads the columns of block i, the blocks a random partition of the
    columns into one to three sets, with one coefficient a_i.  Each
    s_i = target_i / a_i lies strictly between 0 and k_i, at one of them,
    on an integer, or outside [0, k_i].  M is constant on the slice, so the
    one to three rows R give the image its shape.  L is an integer matrix;
    the targets are rational."""
    N = draw(st.integers(2, 6))
    order = draw(st.permutations(range(N)))
    nb = draw(st.integers(1, min(3, N)))
    cuts = sorted(draw(st.sets(st.integers(1, N - 1), min_size=nb - 1, max_size=nb - 1)))
    blocks = [order[i:j] for i, j in zip([0] + cuts, cuts + [N])]
    M, target = [], []
    for block in blocks:
        k = len(block)
        a = draw(st.sampled_from([1, -1, 2, -3]))
        kind = draw(st.sampled_from(["inside"] * 3 + ["end", "integral", "outside"]))
        if kind == "inside":
            s = F(draw(st.integers(1, 6 * k - 1)), 6)
        elif kind == "end":
            s = F(draw(st.sampled_from([0, k])))
        elif kind == "integral":
            s = F(draw(st.integers(0, k)))
        else:
            s = draw(st.sampled_from([F(-1), F(-1, 2), k + F(1, 3), F(k + 1)]))
        event(f"s {kind}")
        M.append([a if j in block else 0 for j in range(N)])
        target.append(a * s)
    R = [[draw(st.integers(-2, 2)) for _ in range(N)]
         for _ in range(draw(st.integers(1, 3)))]
    f = Matrix([[1 if j == i else 0 for j in range(len(M) + len(R))] for i in range(len(M))])
    event(f"{len(blocks)} blocks")
    return Matrix(M + R), f, target


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=hypersimplex_slices())
def test_cube_image_slice_matches_oracle_on_hypersimplex_blocks(case):
    got, h, support, want, chambers = certified_cube_slice(*case)
    assert_same_polytope(got, want)
    # h·min over the oracle's vertices: the chamber sums, ± the unit vectors
    assert (support is None) == want.is_empty()
    d = got.ambient_rank
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    for c in [tuple(map(sum, zip(*ch))) for ch in chambers if ch] + units + \
            [tuple(-x for x in u) for u in units] if support else []:
        assert support(c) == h * min(dot(c, v) for v in want.vertex_candidates)
    # the unique argmin of such a tie needs the tied columns to be equal
    if any(ties_across_a_cut(*case, [sum(x) for x in zip(*ch)]) for ch in chambers):
        event("tie resolved by equal columns")
    event("empty" if got.is_empty() else f"dim {got.ambient_rank - len(got.hull_equations)}")


def test_cube_image_slice_guards_block_shape():
    # each row of f·L must read its own nonempty set of columns with one
    # coefficient, and every column must be read
    L = Matrix.identity(3)
    for rows, target, match in (
            ([[1, 1, 0], [0, 1, 1]], [1, 1], "its own columns"),  # a shared column
            ([[1, 2, 0], [0, 0, 1]], [1, 1], "its own columns"),  # two coefficients
            ([[1, 1, 1], [0, 0, 0]], [1, 0], "its own columns"),  # a zero row
            ([[1, 1, 0]], [1], "every column")):  # an unread column
        with pytest.raises(ValueError, match=match):
            cube_image_slice(L, Matrix(rows), target, [], [], ())


def test_cube_image_slice_chamber_certificate_on_the_hexagon():
    # the slice of the 3-cube by x + y + z = 3/2 is a hexagon whose normal
    # fan is the braid fan of S_3, with lineality (1, 1, 1)
    L, f, target = Matrix.identity(3), Matrix([[1, 1, 1]]), [F(3, 2)]
    units = Matrix.identity(3).entries
    chambers = [[units[s[0]], tuple(map(add, units[s[0]], units[s[1]]))]
                for s in permutations(range(3))]
    got, _, _ = cube_slice(L, f, target, chambers, [(1, 1, 1)])
    assert len(got.vertex_candidates) == 6
    assert_same_polytope(got, cube_slice_oracle(L, f, target))
    # e_1 alone ties y and z across the cut of the sum: an edge is least
    with pytest.raises(ChamberCertificateError, match="no unique minimum"):
        cube_image_slice(L, f, target, [(1, 0, 0)], [(1, 1, 1)], ())
    # (3, 1, 0) + (0, 1, 0) is least at (0, 1/2, 1), where y is not least
    with pytest.raises(ChamberCertificateError, match="not tight"):
        cube_image_slice(L, f, target, [(3, 1, 0), (0, 1, 0)], [(1, 1, 1)], ())
    with pytest.raises(ChamberCertificateError, match="not constant"):
        cube_image_slice(L, f, target, chambers[0], [(1, 0, 0)], ())
    # completeness is the caller's: a dropped chamber drops its vertex
    for i in range(6):
        part, _, _ = cube_slice(L, f, target, chambers[:i] + chambers[i + 1:], [(1, 1, 1)])
        assert len(part.vertex_candidates) == 5
        assert set(part.vertex_candidates) < set(got.vertex_candidates)


def test_cube_image_slice_inner_certificate_reads_the_pairs():
    # the hexagon's vertex (0, 1/2, 1), exposed by the chain e_1, e_1 + e_2,
    # has the face corners (0, 0, 1) and (0, 1, 1): a pair (a, b) raises
    # exactly when one of them has c_a > c_b
    L, f, target = Matrix.identity(3), Matrix([[1, 1, 1]]), [F(3, 2)]
    chamber, face = [(1, 0, 0), (1, 1, 0)], [(0, 0, 1), (0, 1, 1)]
    raised = []
    for a, b in permutations(range(3), 2):
        try:
            w, h, _ = cube_image_slice(L, f, target, chamber, [(1, 1, 1)], [(a, b)])
        except InnerCertificateError:
            raised.append((a, b))
        else:
            assert (w, h) == ((0, 1, 2), 2)
    assert raised == [(a, b) for a, b in permutations(range(3), 2)
                      if any(c[a] > c[b] for c in face)] == [(1, 0), (2, 0), (2, 1)]


def test_affine_slice_examples():
    # the square cut by x + y = t, in the coordinate y of (t, 0) + y·(1, -1)
    sq = cube(2)
    r1 = affine_slice(sq, (F(2, 3), 0), [(1, -1)])
    assert r1.vertex_candidates == ((F(-2, 3),), (0,))
    r2 = affine_slice(sq, (F(4, 3), 0), [(1, -1)])
    assert r2.vertex_candidates == ((-1,), (F(-1, 3),))
    assert affine_slice(sq, (5, 0), [(1, -1)]).is_empty()
    # k = 0: the slice is the point x0 or empty, with no special case
    for x0, inside in (((F(1, 2), F(1, 3)), True), ((1, 0), True), ((2, 0), False),
                       ((F(1, 2), F(-1, 2)), False)):
        pt = affine_slice(sq, x0, [])
        assert pt.ambient_rank == 0 and pt.is_empty() != inside
        assert pt.vertex_candidates == (((),) if inside else ())
    # a lower-dimensional p: its hull equations cut too
    seg = LatticePolyhedron(2, [(0, 0), (2, 2)])
    assert affine_slice(seg, (0, 1), [(1, 0)]).vertex_candidates == ((1,),)
    assert affine_slice(seg, (0, 1), []).is_empty()
    # rays at t = 0 are the recession cone of the slice: the x-axis meets
    # the wedge in (1, 0) + y·(1, 0) for y >= -1
    wedge = LatticePolyhedron(2, [(0, 0)], Cone(2, [(1, 0), (1, 1)]))
    sl = affine_slice(wedge, (1, 0), [(1, 0)])
    assert sl.vertex_candidates == ((-1,),) and sl.recession.rays == ((1,),)
    assert affine_slice(LatticePolyhedron(2), (0, 0), [(1, 0)]) == LatticePolyhedron(1)


def test_affine_slice_rejects_lineality():
    # P = {0} + R·e1 + cone(e2) sliced by y = 1 is a line, not the point (0, 1)
    p = LatticePolyhedron(2, [(0, 0)], Cone(2, [(1, 0), (-1, 0), (0, 1)]))
    with pytest.raises(ValueError, match="pointed"):
        affine_slice(p, (0, 1), [(1, 0)])
    # cut across the line, the slice is the ray (0, 1) + cone(e2)
    sl = affine_slice(p, (0, 0), [(0, 1)])
    assert sl.vertex_candidates == ((0,),) and sl.recession.rays == ((1,),)


def test_affine_slice_vertices_on_low_faces():
    # every slice vertex lies on a face of dimension <= number of slice equations
    rng = random.Random(5)
    for _ in range(10):
        d = rng.randint(2, 4)
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d + 3)]
        p = LatticePolyhedron(d, pts).canonicalize()
        if p.is_empty():
            continue
        a = [rng.randint(-2, 2) for _ in range(d)]
        if all(x == 0 for x in a):
            a[0] = 1
        interior = tuple(F(sum(c[i] for c in p.vertex_candidates), len(p.vertex_candidates))
                         for i in range(d))
        x0, basis = solve_affine_oracle(Matrix([a]), [dot(a, interior)])
        sl = affine_slice(p, x0, basis)
        for y in sl.vertex_candidates:
            v = [x + sum(c * b[i] for c, b in zip(y, basis)) for i, x in enumerate(x0)]
            assert dot(a, v) == dot(a, interior)
            active = [n for n, o in p.facet_rep if dot(n, v) == o]
            face_dim = d - Matrix(active + [list(e[0]) for e in p.hull_equations]).rank() \
                if active else d
            assert face_dim <= 1


@st.composite
def polytope_slices(draw):
    """(p, x0, basis, y): a small integer polytope p in Z^d, d = 2..4, and
    1 to d - 1 independent integer directions through a rational x0.
    Either x0 = c + Σ t_i b_i for a point c of p, and y = -t is c in the
    slice coordinates, or x0 is any rational point, the slice maybe empty,
    and y is None."""
    d = draw(st.integers(2, 4))
    pts = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * d), min_size=1, max_size=d + 4))
    k = draw(st.integers(1, d - 1))
    basis = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=k, max_size=k))
    assume(rank(basis) == k)
    rational = st.builds(F, st.integers(-9, 9), st.sampled_from([1, 2, 3]))
    if draw(st.sampled_from([True, True, False])):
        c, t = draw(st.sampled_from(pts)), draw(st.lists(rational, min_size=k, max_size=k))
        x0 = tuple(x + sum(ti * b[i] for ti, b in zip(t, basis)) for i, x in enumerate(c))
        y = tuple(-ti for ti in t)
    else:
        x0, y = tuple(draw(rational) for _ in range(d)), None
    event(f"d {d}, k {k}, {'through a point of p' if y is not None else 'anywhere'}")
    return LatticePolyhedron(d, pts), x0, basis, y


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case=polytope_slices())
def test_affine_slice_identities_in_slice_coordinates(case):
    # each slice vertex y maps to x0 + Σ y_i b_i in p, where the facets of p
    # tight there, read on the basis, have rank k: y is a vertex of the
    # slice; a point of p on x0 + span(basis) is in the slice, and the slice
    # of a polytope is bounded
    p, x0, basis, y_in = case
    sl = affine_slice(p, x0, basis)
    k = len(basis)
    assert sl.ambient_rank == k
    assert sl.is_empty() or sl.recession.rays == ()
    equations = [n for n, _ in p.hull_equations]
    for y in sl.vertex_candidates:
        x = tuple(xi + sum(c * b[i] for c, b in zip(y, basis)) for i, xi in enumerate(x0))
        assert contains(p, x)
        tight = [n for n, o in p.facet_rep if dot(n, x) == o] + equations
        assert rank([[dot(n, b) for b in basis] for n in tight]) == k
    if y_in is not None:
        assert not sl.is_empty()
        assert contains(sl, y_in)
    event("empty" if sl.is_empty() else f"{len(sl.vertex_candidates)} vertices")


def assert_slice_independent_of_canonical_form(q, x0, basis):
    """Slicing q and slicing q.canonicalize() give the same vertices, recession,
    H-representation and JSON bytes; returns the slice."""
    got = affine_slice(q, x0, basis)
    want = affine_slice(q.canonicalize(), x0, basis)
    assert got.vertex_candidates == want.vertex_candidates
    assert got.recession.key() == want.recession.key()
    assert got.facet_rep == want.facet_rep
    assert got.hull_equations == want.hull_equations
    assert dumps(polyhedron_to_json(got)) == dumps(polyhedron_to_json(want))
    return got


def random_polytope_points(rng, d):
    """Integer and rational points with a duplicate, the centroid and a midpoint,
    so that conv(points) has candidates that are not vertices."""
    pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(2, d + 3))]
    pts += [tuple(F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d))
            for _ in range(rng.randint(0, 2))]
    centroid = tuple(sum(F(p[i]) for p in pts) / len(pts) for i in range(d))
    midpoint = tuple(F(x + y, 2) for x, y in zip(pts[0], pts[-1]))
    return pts + [pts[0], centroid, midpoint]


def test_slice_of_polytopal_part_needs_no_canonical_form():
    rng = random.Random(17)
    nonempty = 0
    for _ in range(40):
        d = rng.randint(2, 5)
        pts = random_polytope_points(rng, d)
        q = LatticePolyhedron(d, pts).polytopal_part()
        rows = rng.choice([1, 1, 2, d])
        if rows == d:
            f = Matrix.identity(d)
        else:
            f = Matrix([[rng.randint(-2, 2) for _ in range(d)] for _ in range(rows)])
            if f.rank() < rows:
                continue
        # cut through an interior candidate (the centroid), any candidate, or anywhere
        through = rng.choice([pts[-2], rng.choice(pts), None])
        target = (f @ through if through is not None
                  else [F(rng.randint(-6, 6), 2) for _ in range(f.rows)])
        x0, basis = solve_affine_oracle(f, target)
        nonempty += not assert_slice_independent_of_canonical_form(q, x0, basis).is_empty()
    assert nonempty >= 20


def test_slice_of_product_polytope_needs_no_canonical_form():
    from toricgit.degeneration import product_linearization, product_polyhedron
    for n in (1, 2, 3):
        lin = product_linearization(n)
        q = product_polyhedron(n).polytopal_part()
        sl = assert_slice_independent_of_canonical_form(q, lin.base_point(), lin.kernel())
        assert len(sl.vertex_candidates) == len(list(permutations(range(n))))


def test_normal_fan_segment():
    seg = LatticePolyhedron(1, [(0,), (1,)]).canonicalize()
    nf = normal_fan(seg)
    assert sorted(c.rays[0] for c in nf.maximal_cones) == [(-1,), (1,)]


def test_normal_fan_permutohedron_orbit():
    from oracles import weight_reflections
    from toricgit.degeneration import build_symmetric, permutation_matrices, symmetric_orbit
    nf = normal_fan(symmetric_orbit(build_symmetric(3))[1])
    assert len(nf.maximal_cones) == 6
    mats = permutation_matrices(3, weight_reflections(3))
    chamber = Cone(2, [(1, 0), (1, 1)])
    orbit = {Cone(2, [m @ g for g in chamber.generators]).canonical_form()
             for m in mats.values()}
    assert set(nf.maximal_cones) == orbit


def test_normal_fan_resolution_polyhedron():
    from toricgit.degeneration import build_symmetric, symmetric_orbit
    sym = build_symmetric(2)
    nf = normal_fan(symmetric_orbit(sym)[2])
    assert nf == Fan(3, orbit_fan_by_cone_dd(2), sym.product_cone)
    assert len(nf.maximal_cones) == 2


def test_cone_over():
    pt = LatticePolyhedron(2, [(0, 0)])
    assert cone_over(pt).rays == ((0, 0, 1),)
    seg = LatticePolyhedron(1, [(0,), (1,)])
    assert set(cone_over(seg).rays) == {(0, 1), (1, 1)}


def test_cone_over_slice_back():
    iota = LatticePolyhedron(3, [(0, 0, 0), (0, 1, 0)])
    p = minkowski_sum(iota, LatticePolyhedron(3, [(0, 0, 0)], SIGMA2_DUAL))
    c = cone_over(p)
    hp = LatticePolyhedron(4, [(0, 0, 0, 0)], c)
    back = affine_slice(hp, (0, 0, 0, 1), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert back == p
    # recession = height-0 slice of the cone over p
    zero_slice = [r[:3] for r in c.rays if r[3] == 0]
    assert set(zero_slice) == set(p.recession.rays)


def test_hull_idempotence():
    rng = random.Random(9)
    for _ in range(15):
        d = rng.randint(1, 4)
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(6)]
        rays = [tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(2)]
        rays = [r for r in rays if any(r)]
        p = LatticePolyhedron(d, pts, Cone(d, rays))
        q = p.canonicalize()
        assert q.canonicalize() == q
        assert q == p


def test_vh_consistency_random():
    rng = random.Random(13)
    for _ in range(10):
        d = rng.randint(2, 3)
        pts = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(5)]
        rays = [r for r in [tuple(rng.randint(0, 2) for _ in range(d))] if any(r)]
        p = LatticePolyhedron(d, pts, Cone(d, rays)).canonicalize()
        for _ in range(12):
            x = tuple(F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(d))
            by_h = contains(p, x)
            by_lp = in_cone_hull(x, p.vertex_candidates, p.recession.rays)
            assert by_h == by_lp


def test_normal_fan_of_sum_is_common_refinement():
    rng = random.Random(21)
    for _ in range(6):
        d = rng.randint(2, 3)
        pts1 = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(4)]
        pts2 = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(4)]
        p = LatticePolyhedron(d, pts1).canonicalize()
        q = LatticePolyhedron(d, pts2).canonicalize()
        s = minkowski_sum(p, q)
        nf_s = {c.key() for c in normal_fan(s).maximal_cones}
        refinement = set()
        for c1 in normal_fan(p).maximal_cones:
            for c2 in normal_fan(q).maximal_cones:
                inter = intersection(c1, c2)
                if inter.dim() == d:
                    refinement.add(inter.key())
        assert nf_s == refinement


def normal_fan_inputs(rng):
    """Simple, non-simple, unbounded and lower-dimensional polyhedra."""
    from toricgit.degeneration import product_polyhedron
    yield cube(3)
    yield LatticePolyhedron(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    octahedron = [tuple(s if i == j else 0 for i in range(3))
                  for j in range(3) for s in (1, -1)]
    yield LatticePolyhedron(3, octahedron)  # every vertex is on four facets
    yield LatticePolyhedron(3, [(0, 0, 1)] + [(a, b, 0) for a in (0, 1) for b in (0, 1)])
    yield LatticePolyhedron(3, [(0, 0, 0)], Cone(3, [(1, 0, 0), (0, 1, 0), (1, 1, 1)]))
    yield LatticePolyhedron(2, [(0, 0), (1, 0)], Cone(2, [(0, 1)]))  # a half-strip
    yield LatticePolyhedron(3, [(1, 2, 3)])  # a point
    yield product_polyhedron(2)  # seeded facets, full-dimensional recession
    for d in (2, 3):
        for _ in range(3):
            pts = random_polytope_points(rng, d)
            rays = [tuple(rng.randint(0, 2) for _ in range(d))
                    for _ in range(rng.randint(0, 2))]
            yield LatticePolyhedron(d, pts, Cone(d, rays))
            # the same polyhedron on an affine plane of rank d + 2
            emb = Matrix([[1 if i == j else 0 for j in range(d)] for i in range(d)] +
                         [[1, 2] + [0] * (d - 2), [rng.randint(-2, 2) for _ in range(d)]])
            shift = (0,) * d + (-1, 3)
            yield LatticePolyhedron(d + 2, [vadd(emb @ p, shift) for p in pts],
                                    Cone(d + 2, [emb @ r for r in rays]))


def test_normal_fan_matches_per_vertex_dd_oracle():
    rng = random.Random(29)
    seen = {"simple": set(), "unbounded": set(), "lower_dim": set()}
    for p in normal_fan_inputs(rng):
        q = p.canonicalize()
        got = normal_fan(p)
        assert got == normal_fan_by_vertex_dd(p)
        assert len(got.maximal_cones) == len(q.vertex_candidates)
        seen["simple"].add(all(len(c.rays) == c.dim() - len(c.lineality_basis)
                               for c in got.maximal_cones))
        seen["unbounded"].add(bool(q.recession.rays))
        seen["lower_dim"].add(bool(q.hull_equations))
    assert all(v == {False, True} for v in seen.values())


def test_seeded_h_rep_is_the_computed_one():
    # t >= 0 is added to a seeded H-representation exactly when it is a facet
    from toricgit.degeneration import product_polyhedron
    seeded = [product_polyhedron(2)]
    k = 3
    facets = [(tuple(s if i == j else 0 for i in range(k)), F(min(s, 0)))
              for j in range(k) for s in (1, -1)]
    seeded.append(LatticePolyhedron(k, product((0, 1), repeat=k),
                                    _facets=tuple(sorted(facets))))
    for p in seeded:
        fresh = LatticePolyhedron(p.ambient_rank, p.vertex_candidates, p.recession)
        a, b = p.homogenization(), fresh.homogenization()
        assert (a.facets, a.equations) == (b.facets, b.equations)
        assert (p.facet_rep, p.hull_equations) == (fresh.facet_rep, fresh.hull_equations)
        assert p.canonicalize() == fresh.canonicalize()


@st.composite
def full_dimensional_polyhedra(draw):
    """(points, recession): integer points whose hull is full-dimensional,
    plus a pointed cone in the nonnegative orthant, full-dimensional or not."""
    d = draw(st.integers(2, 4))
    coords = st.tuples(*[st.integers(-3, 3)] * d)
    pts = draw(st.lists(coords, min_size=d + 1, max_size=d + 5))
    assume(rank([p + (1,) for p in pts]) == d + 1)
    rays = draw(st.lists(st.tuples(*[st.integers(0, 2)] * d), max_size=d + 1))
    return pts, Cone(d, rays)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=full_dimensional_polyhedra(), data=st.data())
def test_seeded_h_rep_matches_dd_read(case, data):
    # the seed, each row scaled by a positive integer and listed in any
    # order, is read to the facets and equations the double description gives
    pts, rec = case
    fresh = LatticePolyhedron(len(pts[0]), pts, rec)
    seed = []
    for n, o in fresh.facet_rep:
        k = data.draw(st.integers(1, 4))
        seed.append((tuple(k * x for x in n), k * o))
    seed = data.draw(st.permutations(seed))
    seeded = LatticePolyhedron(len(pts[0]), pts, rec, _facets=seed)
    assert seeded.facet_rep == fresh.facet_rep
    assert seeded.hull_equations == fresh.hull_equations == ()
    assert seeded._cone is None  # read without building the homogenization
    a, b = seeded.homogenization(), fresh.homogenization()
    assert (a.facets, a.equations) == (b.facets, b.equations)
    assert seeded.canonicalize() == fresh.canonicalize()


def _product_of(factors):
    """(points, rays, normals) of the product of the factors' polyhedra."""
    dims = [len(f[0][0]) for f in factors]
    pts, rays, normals = [()], [], []
    for i, (fpts, frays, fnormals) in enumerate(factors):
        before, after = sum(dims[:i]), sum(dims[i + 1:])
        pts = [p + q for p in pts for q in fpts]
        rays += [(0,) * before + r + (0,) * after for r in frays]
        normals += [(0,) * before + v + (0,) * after for v in fnormals]
    return pts, rays, normals


@st.composite
def simple_polyhedra(draw):
    """(d, points, recession rays, facet normals) of a simple polyhedron: a
    box, a product of simplices or a permutohedron of distinct integer
    weights, times a half-line in some draws (a pointed recession cone).
    The box's sides may be half-lines too, so that the recession cone may
    be full-dimensional.  Each factor's facets are known, so the product's
    are too; a few midpoints of two points join the points and are no
    vertices."""
    shift = st.integers(-3, 3)

    def half_line():  # [a, ∞) or (-∞, a]
        sign = draw(st.sampled_from([1, -1]))
        return [(draw(shift),)], [(sign,)], [(sign,)]

    kind = draw(st.sampled_from(["box", "simplices", "permutohedron"]))
    if kind == "permutohedron":
        n = draw(st.integers(3, 4))
        w = draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n, unique=True))
        subsets = [I for I in product((0, 1), repeat=n - 1) if any(I)]
        factors = [([tuple(w[i] for i in s[:-1]) for s in permutations(range(n))], [],
                    subsets + [tuple(-x for x in I) for I in subsets])]
    else:
        factors = []
        for _ in range(draw(st.integers(1, 3 if kind == "box" else 2))):
            if kind == "box" and draw(st.booleans()):
                factors.append(half_line())
                continue
            k = 1 if kind == "box" else draw(st.integers(1, 3))
            t, size = draw(st.tuples(*[shift] * k)), draw(st.integers(1, 3))
            corners = [t] + [tuple(x + size * (i == j) for j, x in enumerate(t))
                             for i in range(k)]
            units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
            factors.append((corners, [], units + [(-1,) * k]))
    if draw(st.booleans()):
        factors.append(half_line())
    pts, rays, normals = _product_of(draw(st.permutations(factors)))
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        pts.append(tuple(F(x + y, 2) for x, y in zip(a, b)))
    return len(pts[0]), pts, rays, normals


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(case=simple_polyhedra(), data=st.data())
def test_certified_polyhedron_matches_dd_oracle(case, data):
    d, pts, rays, normals = case
    got = certified_polyhedron(d, pts, Cone(d, rays), data.draw(st.permutations(normals)))
    want = LatticePolyhedron(d, pts, Cone(d, rays)).canonicalize()
    event(f"d = {d}, recession rank {len(rays)}")
    assert got.vertex_candidates == want.vertex_candidates
    assert got.facet_rep == want.facet_rep
    assert got.hull_equations == want.hull_equations == ()
    assert got.recession.key() == want.recession.key()
    # the independence that the certificate proves from its masks: each
    # vertex's tight normals have rank d
    for v in got.vertex_candidates:
        assert rank([n for n, o in got.facet_rep if dot(n, v) == o]) == d
    # every facet is needed, and a normal that is no facet's is redundant
    i = data.draw(st.integers(0, len(normals) - 1))
    with pytest.raises(FacetCertificateError):
        certified_polyhedron(d, pts, Cone(d, rays), normals[:i] + normals[i + 1:])
    facets = {primitive(v) for v in normals}
    others = [v for v in product((-1, 0, 1), repeat=d) if any(v) and v not in facets]
    if others:  # none when d = 1 and both directions are facets
        extra = data.draw(st.sampled_from(others))
        with pytest.raises(FacetCertificateError):
            certified_polyhedron(d, pts, Cone(d, rays), normals + [extra])


def test_integral_coordinates_are_int():
    from toricgit.degeneration import _symmetric, product_polyhedron, symmetric_orbit
    _, perm, respoly = symmetric_orbit(_symmetric(4))
    for p in (product_polyhedron(3), perm, respoly):
        assert all(type(x) is int for v in p.vertex_candidates for x in v)
    # a coordinate with a denominator stays a Fraction, an integral one,
    # whatever its type, becomes an int, in the candidates and the vertices
    p = LatticePolyhedron(2, [(F(1, 2), F(4, 2)), ("5/3", 3), (0, 0)])
    assert [tuple(map(type, v)) for v in p.vertex_candidates] == \
        [(F, int), (F, int), (int, int)]
    q = p.canonicalize()
    assert q.vertex_candidates == ((0, 0), (F(1, 2), 2), (F(5, 3), 3))
    assert [tuple(map(type, v)) for v in q.vertex_candidates] == \
        [(int, int), (F, int), (F, int)]


def test_fraction_and_int_coordinates_are_equal():
    a = LatticePolyhedron(2, [(F(3), F(0)), (F(0), F(1)), (F(1, 2), F(1, 2))])
    b = LatticePolyhedron(2, [(3, 0), (0, 1), (F(1, 2), F(1, 2))])
    assert a.vertex_candidates == b.vertex_candidates
    assert a == b and hash(a) == hash(b)
    assert LatticePolyhedron(1, [(F(3),)]) == LatticePolyhedron(1, [(3,)])
    assert hash(LatticePolyhedron(1, [(F(3),)])) == hash(LatticePolyhedron(1, [(3,)]))


def test_facet_rep_drops_the_face_at_infinity():
    # P = (0,0,1) + cone(e1): z = 1 is a hull equation, so z >= 0 is no facet
    p = LatticePolyhedron(3, [(0, 0, 1)], Cone(3, [(1, 0, 0)]))
    assert p.facet_rep == (((1, 0, 0), F(0)),)
    assert set(p.hull_equations) == {((0, 0, -1), F(-1)), ((0, 1, 0), F(0))}


def test_lower_dimensional_h_rep_matches_lp_oracle():
    # polyhedra on affine planes of codimension 2, half of them with
    # dim rec = dim P: the H-representation gives LP membership, and no listed
    # facet is implied (Farkas) by the others, the hull equations and t >= 0
    rng = random.Random(1934)
    seen = set()
    for trial in range(12):
        d = rng.randint(1, 3)
        pts = random_polytope_points(rng, d)
        k = d if trial % 2 else rng.randint(0, d - 1)
        rays = [tuple(1 if i == j else rng.randint(0, 1) for i in range(d)) for j in range(k)]
        emb = Matrix([[1 if i == j else 0 for j in range(d)] for i in range(d)] +
                     [[rng.randint(-2, 2) for _ in range(d)] for _ in range(2)])
        shift = (0,) * d + (1, rng.randint(-2, 2))
        p = LatticePolyhedron(d + 2, [vadd(emb @ q, shift) for q in pts],
                              Cone(d + 2, [emb @ r for r in rays]))
        seen.add(p.recession.dim() == d)
        eqs = [tuple(n) + (-o,) for n, o in p.hull_equations]
        assert len(eqs) == 2
        rows = [tuple(n) + (-o,) for n, o in p.facet_rep]
        height = (0,) * (d + 2) + (1,)
        for i, row in enumerate(rows):
            rest = rows[:i] + rows[i + 1:] + eqs + [tuple(-x for x in e) for e in eqs]
            assert feasible_nonneg_combination(rest + [height], row) is None, (trial, row)
        q = p.canonicalize()
        for _ in range(8):
            y = tuple(F(rng.randint(-8, 8), rng.randint(1, 3)) for _ in range(d))
            x = vadd(emb @ y, shift) if rng.random() < 0.8 else \
                vadd(emb @ y, (0,) * (d + 1) + (1,))
            assert contains(p, x) == in_cone_hull(x, q.vertex_candidates, q.recession.rays)
    assert seen == {False, True}


def test_fan_validity_small():
    from toricgit.degeneration import build_symmetric
    for n in (2, 3, 4):
        sym = build_symmetric(n)
        fan = Fan(n + 1, orbit_fan_by_cone_dd(n), sym.product_cone)
        assert validate_pairwise_faces(fan) is None
        assert validate_support_cover(fan) is None
        sigma = sym.product_cone
        for r in fan_rays(fan):
            assert cone_contains(sigma, r)
            assert not cone_relint_contains(sigma, r)


def test_semigroup_generation_family():
    from toricgit.degeneration import build_bundle, family_cube_map, family_rec_dual_columns
    b = build_bundle(1)
    cube_pts = [family_cube_map(1) @ v for v in product((0, 1), repeat=1)]
    mono = embedding_monomials(family_rec_dual_columns(1), cube_pts)
    verdicts = check_semigroup_generation(b.family_polyhedron, mono, 6)
    assert verdicts and all(verdicts)


def test_semigroup_generation_nonsaturated():
    c = Cone(2, [(1, 0), (1, 2)])
    p = LatticePolyhedron(2, [(0, 0)], c).canonicalize()
    verdicts = check_semigroup_generation(p, [(0, 0), (1, 0), (1, 2)], 2)
    assert verdicts == [False]  # (1, 1) is not reachable


def test_semigroup_generation_product():
    from toricgit.degeneration import (product_cube_map, product_polyhedron,
                                       product_rec_dual_columns)
    cube_pts = [product_cube_map(2) @ v for v in product((0, 1), repeat=4)]
    mono = embedding_monomials(product_rec_dual_columns(2), cube_pts)
    verdicts = check_semigroup_generation(product_polyhedron(2), mono, 4)
    assert verdicts and all(verdicts)
