import random

from oracles import feasible_nonneg_combination
from toricgit.dd import cone_from_inequalities


def _in_v_cone(lineality, rays, v):
    """LP oracle: is v a nonnegative combination of the rays and ±lineality?"""
    gens = list(rays) + list(lineality) + [tuple(-x for x in l) for l in lineality]
    if not gens:
        return all(x == 0 for x in v)
    return feasible_nonneg_combination(gens, v) is not None


def _random_system(rng, ambient, count):
    """Constraints that a random interior direction c satisfies, so the cone
    is not {0}.  Some systems live in a proper subspace (the cone has
    lineality), and some get ± pairs of constraints vanishing on c (the cone
    is not full-dimensional)."""
    span = ambient if rng.random() < 0.6 else rng.randint(1, ambient - 1)
    basis = [tuple(rng.randint(-2, 2) for _ in range(ambient)) for _ in range(span)]
    c = [rng.randint(1, 3) for _ in range(ambient)]
    cc = sum(x * x for x in c)

    def draw():
        coeffs = [rng.randint(-2, 2) for _ in range(span)]
        return tuple(sum(k * b[i] for k, b in zip(coeffs, basis)) for i in range(ambient))

    cons = []
    for _ in range(rng.choice((0, 0, 1, 2))):
        a = draw()
        ac = sum(x * y for x, y in zip(a, c))
        e = tuple(cc * x - ac * y for x, y in zip(a, c))  # <e, c> = 0
        cons += [e, tuple(-x for x in e)]
    while len(cons) < count:
        a = draw()
        cons.append(a if sum(x * y for x, y in zip(a, c)) >= 0 else tuple(-x for x in a))
    return cons


def test_cone_from_inequalities_matches_lp_oracle():
    rng = random.Random(1996)
    for trial in range(24):
        ambient = rng.randint(3, 7)
        cons = _random_system(rng, ambient, rng.randint(6, 30))
        lineality, rays = cone_from_inequalities(cons, ambient)
        # duplicate and zero constraints keep the cone
        more = cons + random.Random(trial).choices(cons, k=4) + [(0,) * ambient]
        random.Random(-trial).shuffle(more)
        again = cone_from_inequalities(more, ambient)
        assert again == (lineality, rays), trial

        def in_h_cone(v):
            return all(sum(a * x for a, x in zip(c, v)) >= 0 for c in cons)

        for l in lineality:
            assert all(sum(a * x for a, x in zip(c, l)) == 0 for c in cons)
        for r in rays:
            assert in_h_cone(r)
        # membership: both representations agree on random points
        for _ in range(4):
            v = tuple(rng.randint(-3, 3) for _ in range(ambient))
            assert in_h_cone(v) == _in_v_cone(lineality, rays, v), (trial, v)
        # minimality: no ray is a nonnegative combination of the others
        for i in rng.sample(range(len(rays)), min(len(rays), 3)):
            rest = [r for j, r in enumerate(rays) if j != i]
            assert not _in_v_cone(lineality, rest, rays[i]), (trial, rays[i])
        # completeness: every valid inequality of cone(rays) + lineality that is
        # tight on a facet is a nonnegative combination of the constraints
        # (Farkas), checked on the facet normals of the V-cone
        _, normals = cone_from_inequalities(
            list(rays) + list(lineality) + [tuple(-x for x in l) for l in lineality],
            ambient)
        for phi in rng.sample(normals, min(len(normals), 6)):
            assert feasible_nonneg_combination(cons, phi) is not None, (trial, phi)
