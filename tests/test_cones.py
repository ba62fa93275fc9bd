import random
from collections import Counter
from itertools import combinations
from operator import add

import pytest

from oracles import (cone_contains, cone_rays_fraction, dual_by_generator_dd,
                     extreme_generators_by_rank, feasible_nonneg_combination, intersection,
                     is_face_of, positive_orthant)
from toricgit import dd
from toricgit.cones import Cone, image_cone
from toricgit.linalg import Matrix, dot, elementary_divisors, rank

SIGMA_2 = Cone(3, [(1, 0, 0), (1, 1, 0), (0, -1, 1), (0, 0, 1)])
DELTA_2 = Cone(3, [(1, 0, 0), (1, 1, 0), (0, 0, 1)])
PI_2 = Matrix([[0, -1, 1, 1, 1], [1, -1, 0, 0, 0], [0, 1, 0, 0, 0]])


def product_ray_vectors(n):
    out = []
    for r in range(n + 1):
        for I in combinations(range(n), r):
            eI = tuple(1 if i in I else 0 for i in range(n))
            for j in range(n + 1):
                out.append(eI + tuple(1 if k == j else 0 for k in range(n + 1)))
    return out


def sigma_w(n):
    return Cone(2 * n + 1, product_ray_vectors(n))


def test_dual_orthant_self_dual():
    o = positive_orthant(3)
    assert o.dual() == o


def test_dual_delta2():
    assert set(DELTA_2.dual().rays) == {(1, -1, 0), (0, 1, 0), (0, 0, 1)}


def test_dual_sigma2_matches_display():
    got = SIGMA_2.dual()
    assert set(got.rays) == {(1, 0, 0), (1, -1, 0), (0, 0, 1), (0, 1, 1)}
    assert got.dual() == SIGMA_2


def test_canonical_redundant_generator():
    c = Cone(2, [(1, 0), (2, 0), (0, 1)])
    assert c.rays == ((0, 1), (1, 0))


def test_canonical_lineality():
    c = Cone(2, [(1, 1), (-1, -1), (1, 0)])
    assert c.lineality_basis == ((1, 1),)
    assert len(c.rays) == 1
    for v in [(1, 1), (-1, -1), (1, 0), (0, -1)]:
        assert cone_contains(c, v)
    assert not cone_contains(c, (-1, 0))


def test_product_cone_rays_all_extreme():
    vs = product_ray_vectors(2)
    c = Cone(5, vs)
    assert len(vs) == 12
    assert set(c.rays) == set(vs)


def test_contains():
    assert cone_contains(positive_orthant(3), (1, 2, 3))
    sw2 = sigma_w(2)
    assert cone_contains(sw2, (1, 0, 1, 0, 0))
    assert not cone_contains(sw2, (2, 0, 1, 0, 0))
    with pytest.raises(ValueError):
        cone_contains(sw2, (1, 0))


def test_image_cone():
    sw2 = sigma_w(2)
    assert image_cone(PI_2, sw2) == SIGMA_2
    assert image_cone(Matrix.identity(5), sw2) == sw2
    assert (PI_2 @ (1, 1, 1, 0, 0)) == (0, 0, 1)


def test_is_smooth():
    assert DELTA_2.is_smooth()
    assert not Cone(2, [(1, 0), (1, 2)]).is_smooth()
    with pytest.raises(ValueError):
        Cone(2, [(1, 0), (-1, 0)]).is_smooth()


def test_is_smooth_matches_snf_oracle():
    # d rays: the last Bareiss pivot is ±det; fewer rays: the SNF
    rng = random.Random(41)
    seen = set()
    for _ in range(200):
        d = rng.randint(1, 4)
        c = Cone(d, [tuple(rng.randint(-2, 2) for _ in range(d))
                     for _ in range(rng.randint(1, d))])
        if not c.is_pointed():
            continue
        rays = c.rays
        want = not rays or (rank(rays) == len(rays) and
                            all(x == 1 for x in elementary_divisors(Matrix(rays))))
        assert c.is_smooth() == want, rays
        seen.add((len(rays) == d, want))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def _random_cone(rng, rank):
    k = rng.randint(1, rank + 2)
    gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(k)]
    return Cone(rank, [g for g in gens if any(g)] or [(1,) + (0,) * (rank - 1)])


def test_duality_involution_random():
    rng = random.Random(11)
    for _ in range(40):
        rank = rng.randint(1, 6)
        c = _random_cone(rng, rank)
        assert c.dual().dual() == c.canonical_form()
    # every shape of _extremeness_cases, lower-dimensional and non-pointed too
    kinds = set()
    for kind, c in _extremeness_cases(random.Random(5)):
        kinds.add(kind)
        assert c.dual().dual() == Cone(c.ambient_rank, c.generators), kind
    assert {"lower-dimensional", "non-pointed"} <= kinds


def test_dual_matches_generator_dd_oracle():
    # a full-dimensional pointed cone takes its dual by polarity, any other
    # by the DD of its facet normals and ± its equations: every
    # representation agrees with the DD oracle, and the dual of the dual is c
    rng = random.Random(27)
    cases = list(_extremeness_cases(rng))
    cases += [("random", _random_cone(rng, rng.randint(1, 6))) for _ in range(60)]
    polar = Counter()
    for kind, c in cases:
        got, want = c.dual(), dual_by_generator_dd(c)
        polar[not c.equations and not c.lineality_basis] += 1
        assert (got.rays, got.lineality_basis, got.facets, got.equations) == \
            (want.rays, want.lineality_basis, want.facets, want.equations), kind
        assert got.dual() == c, kind
    assert polar[True] >= 20 and polar[False] >= 20, polar


def test_builders_take_full_dimensional_duals_without_dd(monkeypatch):
    # the base cone, the product cone and σ, which the display checks build
    # with both representations and whose duals are the family and product
    # recession cones and the resolution polyhedron's, and that last
    # recession cone, whose dual the normal_fan check compares with σ, are
    # full-dimensional and pointed, so their duals come with both
    # representations and no double description runs for them, however much
    # of them is read
    from toricgit.degeneration import _symmetric, build_bundle, product_polyhedron, verify
    duals, described = [], []
    real_dual, real_h_rep = Cone.dual, Cone._compute_h_rep

    def dual(self):
        duals.append(real_dual(self))
        return duals[-1]

    def h_rep(self):
        if self._facets is None or self._equations is None:
            described.append(self)
        return real_h_rep(self)

    monkeypatch.setattr(Cone, "dual", dual)
    monkeypatch.setattr(Cone, "_compute_h_rep", h_rep)
    for n in range(1, 6):
        duals.clear()
        described.clear()
        build_bundle(n), product_polyhedron(n)
        if n >= 2:
            _symmetric.cache_clear()  # normal_fan builds the model once
            assert verify(n, "normal_fan").status == "pass"
        for c in duals:
            assert c.rays and c.facets and not c.equations and not c.lineality_basis
        assert len(duals) == (2 if n == 1 else 4), n
        assert not any(c is d for c in duals for d in described), n


def test_membership_cross_check_random():
    # H-rep evaluation against the nonnegative-combination LP
    rng = random.Random(23)
    for _ in range(30):
        rank = rng.randint(1, 5)
        c = _random_cone(rng, rank)
        gens = list(c.rays) + list(c.lineality_basis) + \
            [tuple(-x for x in l) for l in c.lineality_basis]
        for _ in range(6):
            v = tuple(rng.randint(-4, 4) for _ in range(rank))
            by_h = cone_contains(c, v)
            by_lp = feasible_nonneg_combination(gens, v) is not None if gens else \
                all(x == 0 for x in v)
            assert by_h == by_lp


def test_extreme_ray_minimality():
    rng = random.Random(37)
    for _ in range(20):
        rank = rng.randint(2, 5)
        c = _random_cone(rng, rank)
        if not c.is_pointed():
            continue
        rays = c.rays
        for i in range(len(rays)):
            rest = Cone(rank, [r for j, r in enumerate(rays) if j != i])
            assert not cone_contains(rest, rays[i])


def test_face_predicates():
    facet = Cone(3, [(1, 0, 0), (1, 1, 0)])
    assert is_face_of(facet, DELTA_2)
    not_face = Cone(3, [(1, 0, 0), (0, 0, 1)])
    # spans a 2-plane through the interior, not a face
    assert not is_face_of(Cone(3, [(2, 1, 1)]), DELTA_2)
    inter = intersection(DELTA_2, SIGMA_2)
    assert inter == DELTA_2  # delta is one of the maximal cones inside sigma


def test_rays_mod_lineality_match_fraction_reduction():
    rng = random.Random(1738)
    for _ in range(80):
        d = rng.randint(2, 5)
        lin = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 2))]
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(rng.randint(1, 4))]
        gens += lin + [tuple(-x for x in l) for l in lin]
        c = Cone(d, [g for g in gens if any(g)] or [(1,) + (0,) * (d - 1)])
        assert c.rays == cone_rays_fraction(c)
        assert c.canonical_form().key() == c.key()


def test_canonical_form_is_itself_once_generated_by_its_rays():
    c = SIGMA_2.canonical_form()
    assert c.canonical_form() is c
    assert Cone(3, reversed(c.rays)).canonical_form() is not c
    with_line = Cone(2, [(1, 0), (-1, 0), (0, 1)]).canonical_form()
    again = with_line.canonical_form()
    assert again is not with_line and again.key() == with_line.key()


def _extremeness_cases(rng):
    """(kind, cone) for each shape the incidence test must get right; the
    generators include non-extreme ones (sums of others)."""
    for trial in range(10):
        d = rng.randint(3, 5)
        k = d if trial % 2 else rng.randint(1, d - 1)
        basis = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(k)]
        pts = [tuple(rng.randint(1, 3) if i == 0 else rng.randint(-3, 3) for i in range(k))
               for _ in range(rng.randint(3, 8))]
        pts += [tuple(map(add, a, b)) for a, b in zip(pts, pts[1:])]
        gens = [tuple(sum(y * b[i] for y, b in zip(p, basis)) for i in range(d)) for p in pts]
        gens = [g for g in gens if any(g)] or [(1,) + (0,) * (d - 1)]
        c = Cone(d, gens)
        yield ("lower-dimensional" if c.dim() < d else "full-dimensional"), c
        yield "single ray", Cone(d, gens[:1])
        yield "seeded H-rep", Cone(d, gens, _facets=c.facets, _equations=c.equations)
        lin = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(1, 2))]
        lin = [l for l in lin if any(l)] or [(0,) * (d - 1) + (1,)]
        shifted = [tuple(x + 2 * y for x, y in zip(g, lin[0])) for g in gens]  # equal mod lin
        inside = [tuple(x - y for x, y in zip(lin[0], lin[-1])), lin[0]]       # in the lineality
        yield "non-pointed", Cone(d, gens + shifted + inside + lin + [tuple(-x for x in l) for l in lin])


def test_incidence_extremeness_matches_rank_oracle():
    rng = random.Random(1996)
    kinds = set()
    for kind, c in _extremeness_cases(rng):
        kinds.add(kind)
        assert c.rays == cone_rays_fraction(c), kind
        if c.is_pointed():
            # dd.extreme_generators on its own, with the incidence by dot products
            gens, facets = c.generators, c.facets
            inc = [sum(1 << i for i, g in enumerate(gens) if dot(f, g) == 0) for f in facets]
            assert dd.extreme_generators(gens, inc) == \
                extreme_generators_by_rank(gens, c.ambient_rank, c.equations, facets), kind
        if kind == "seeded H-rep":
            assert c.key() == Cone(c.ambient_rank, c.generators).key()
    assert kinds == {"full-dimensional", "lower-dimensional", "single ray", "seeded H-rep",
                     "non-pointed"}


def test_rays_of_a_pointed_cone_take_no_second_primitive_pass(monkeypatch):
    # Cone.__init__ makes every generator primitive; only a reduction modulo
    # the lineality space can make one non-primitive again
    from toricgit import cones
    real, calls = cones.primitive, []

    def spy(v):
        calls.append(tuple(v))
        return real(v)

    monkeypatch.setattr(cones, "primitive", spy)
    pointed = Cone(5, product_ray_vectors(2) + [(2, 2, 1, 1, 0)])
    assert pointed.rays == tuple(sorted(product_ray_vectors(2)))
    assert calls == []
    with_line = Cone(2, [(1, 0), (-1, 0), (1, 1)])
    assert with_line.rays == ((0, 1),) and calls
