"""Constructors for the expanded-degeneration toric data at a given n, and the
machine checks for the combinatorial statements about them.

Two families of objects are built:

* ``DegenerationBundle``: the affine family X = A^2 -> A^1 (t = xy) after base
  change to A^{n+1}, its iterated blow-up (the expanded family), the n-fold
  fiber self-product, and the distinguished fractional linearization of the
  torus G = {t_1 ... t_{n+1} = 1}.  Everything is encoded by polyhedra and
  cones in the character lattices Z^{n+2} and Z^{2n+1}, with coordinate order
  (s-block; t_1, ..., t_{n+1}).

* ``SymmetricModel``: the weight-space S_n data: the A_{n-1} Coxeter fan, the
  permutohedron, the (n+1)-rank chamber cone and its orbit fan, which resolve
  the relative n-fold product of X over the base.

``verify`` runs one named check and returns a report with a witness on
failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Any, Sequence

from .cones import Cone, image_cone
from .git import Linearization, quotient_polyhedron, quotient_slice, unstable_rays
from .linalg import Matrix, solve_unique
from .polyhedra import Fan, LatticePolyhedron, normal_fan

VERIFY_CHECKS = ("conical_part", "pb_vertices", "quotient_theorem", "normal_fan",
                 "unstable_locus", "base_recovery", "fan_smooth_small")


# ---------------------------------------------------------------------------
# small shared pieces


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(n))


def _tail(n: int, i: int) -> tuple[int, ...]:
    """t-exponents of the i-th block monomials: 1 on t_m for m >= i+1."""
    return tuple(1 if m >= i + 1 else 0 for m in range(1, n + 2))


def torus_shift_map(n: int, source_rank: int) -> Matrix:
    """The restriction-to-G character map: (s-block; c) -> (c_i - c_{i+1})_i.

    ``source_rank`` is n+2 for the expanded family and 2n+1 for its n-fold
    self-product; only the trailing n+1 coordinates (the t-block) matter.
    """
    s_cols = source_rank - (n + 1)
    rows = []
    for i in range(1, n + 1):
        r = [0] * source_rank
        r[s_cols + i - 1] = 1
        r[s_cols + i] = -1
        rows.append(r)
    return Matrix(rows)


def fractional_shift_family(n: int) -> list[Fraction]:
    return [Fraction(i, n + 1) for i in range(1, n + 1)]


def fractional_shift_product(n: int) -> list[Fraction]:
    return [Fraction(i * n, n + 1) for i in range(1, n + 1)]


def family_rec_dual_columns(n: int) -> list[tuple[int, ...]]:
    """Monomial exponents of x, y, t_1, ..., t_{n+1} on (s; t)-coordinates."""
    cols = [(-1,) + tuple([1] * (n + 1)), (1,) + tuple([0] * (n + 1))]
    for j in range(n + 1):
        cols.append((0,) + _unit(n + 1, j))
    return cols


def base_cone_columns(n: int) -> list[tuple[int, ...]]:
    """Generators (0; e_j), (1; e_j) of the base-change cone, 2(n+1) of them.

    The displayed generating set has a pair of columns per t-coordinate; at
    n = 1 this is the 4-ray cone over a square (the conifold cone)."""
    cols = []
    for j in range(n + 1):
        e = _unit(n + 1, j)
        cols.append((0,) + e)
        cols.append((1,) + e)
    return cols


def family_cube_map(n: int) -> Matrix:
    """The (n+2) x n matrix sending the unit cube to the family polytope.

    Column k is the exponent vector of t_{k+1} ... t_{n+1} / s."""
    rows = [[-1] * n, [0] * n]
    for m in range(2, n + 2):
        rows.append([1 if m >= k + 1 else 0 for k in range(1, n + 1)])
    return Matrix(rows)


def product_cube_map(n: int) -> Matrix:
    """L: the (2n+1) x n^2 matrix sending the n^2-cube to the product polytope.

    Column (i-1)n + j (blocks i = 1..n, positions j = 1..n) is
    (-e_j; t_{i+1} + ... + t_{n+1})."""
    rows = []
    for j in range(n):
        rows.append([-1 if jj == j else 0 for i in range(1, n + 1) for jj in range(n)])
    for m in range(1, n + 2):
        rows.append([_tail(n, i)[m - 1] for i in range(1, n + 1) for jj in range(n)])
    return Matrix(rows)


def product_rec_dual_columns(n: int) -> list[tuple[int, ...]]:
    """The (2n+1, 3n+1) generator matrix of the product recession cone:
    x_i = (-e_i; 1...1), y_i = (e_i; 0), t_j = (0; e_j)."""
    cols = []
    for i in range(n):
        cols.append(tuple(-1 if k == i else 0 for k in range(n)) + tuple([1] * (n + 1)))
    for i in range(n):
        cols.append(_unit(n, i) + tuple([0] * (n + 1)))
    for j in range(n + 1):
        cols.append(tuple([0] * n) + _unit(n + 1, j))
    return cols


def product_ray_vectors(n: int) -> list[tuple[int, ...]]:
    """The rays (e_I; e_j) of the product cone, all 2^n (n+1) of them."""
    out = []
    for r in range(n + 1):
        for I in combinations(range(n), r):
            eI = tuple(1 if i in I else 0 for i in range(n))
            for j in range(n + 1):
                out.append(eI + _unit(n + 1, j))
    return out


def decode_ray_label(n: int, ray: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """(I, j) label of a product-cone ray (e_I; e_m).

    I is reported 1-based; j = m - 1 indexes the t-coordinates from 0, which
    is the convention under which d_{I,j} = -(n-j)#I and the margin formula
    hold (the 1-based reading is off by one against those formulas)."""
    head, tail = ray[:n], ray[n:]
    if any(x not in (0, 1) for x in head) or sorted(tail) != [0] * n + [1]:
        raise ValueError(f"not a product-cone ray: {ray}")
    I = tuple(i + 1 for i, x in enumerate(head) if x == 1)
    j = tail.index(1)
    return I, j


def product_chart_vertices(n: int) -> list[tuple[int, ...]]:
    """All (n+1)^n vertices of the product polyhedron, one per chart.

    A vertex is the separable argmin of a generic functional (a; b) in the
    interior of the product cone.  Writing T_i = b_{i+1} + ... + b_{n+1}
    (strictly decreasing), the i-th block contributes its vertex over
    S_i = {j : a_j > T_i}, and the chain S_1 ⊆ ... ⊆ S_n is encoded by the
    thresholds c_j = min{i : j ∈ S_i}.  Every threshold vector in
    {1..n+1}^n is realizable on a full-dimensional region, so this list is
    exactly the vertex set (cross-checked against the brute-force hull at
    small n in the tests).
    """
    tails = [_tail(n, i) for i in range(1, n + 1)]
    verts = []
    for c in product(range(1, n + 2), repeat=n):
        head = [0] * n
        tail = [0] * (n + 1)
        for i in range(1, n + 1):
            size = 0
            for j in range(n):
                if c[j] <= i:
                    head[j] -= 1
                    size += 1
            for m in range(n + 1):
                tail[m] += size * tails[i - 1][m]
        verts.append(tuple(head) + tuple(tail))
    return verts


def embedding_monomials(affine_cols, section_points) -> tuple[tuple[int, ...], ...]:
    """Monomials generating every vertex chart of the blown-up family.

    The affine coordinates are global functions and enter untranslated, so
    alongside the section points themselves the products (affine coordinate)
    × (section) are needed: the chart at a vertex section χ^v is generated by
    the affine coordinates and the ratios χ^{m'-v}, i.e. by the translates of
    this closure.
    """
    affine = [tuple(int(x) for x in c) for c in affine_cols]
    sections = [tuple(int(x) for x in p) for p in section_points]
    out = dict.fromkeys(affine)
    for s in sections:
        out.setdefault(s, None)
        for a in affine:
            out.setdefault(tuple(x + y for x, y in zip(a, s)), None)
    return tuple(out)


def head_vertex(n: int) -> tuple[Fraction, ...]:
    """u: the first n coordinates of the identity slice vertex; consecutive
    entries differ by exactly 1 + 1/(n+1)."""
    u = tuple(-Fraction((n - j) * (n + 2) + 1, n + 1) for j in range(1, n + 1))
    step = 1 + Fraction(1, n + 1)
    assert all(u[k + 1] - u[k] == step for k in range(n - 1))
    return u


def slice_vertex(n: int, i: int) -> tuple[Fraction, ...]:
    """w_i: (1,...,1, (n-i+1)/(n+1), 0,...,0) with i-1 leading ones."""
    return tuple([Fraction(1)] * (i - 1) + [Fraction(n - i + 1, n + 1)] +
                 [Fraction(0)] * (n - i))


def constant_tail(n: int) -> tuple[Fraction, ...]:
    """(0, n/(n+1), 3n/(n+1), ..., n^2/2): the shared t-block of all slice
    polytope vertices."""
    return tuple(Fraction((m - 1) * m // 2 * n, n + 1) for m in range(1, n + 2))


# ---------------------------------------------------------------------------
# bundles


@dataclass(frozen=True)
class DegenerationBundle:
    n: int
    base_cone: Cone                       # cone of the base-changed family, in N
    family_rec_dual: Cone                 # recession cone of the family polyhedron
    family_polyhedron: LatticePolyhedron  # polyhedron of the iterated blow-up
    family_monomials: tuple               # exponents of the defining monomial map
    product_rec_dual: Cone                # recession cone of the product polyhedron
    product_cone: Cone                    # its dual, generated by the (e_I; e_j)
    cube_map: Matrix                      # L, cube -> product polytope
    product_polyhedron: LatticePolyhedron
    lin_family: Linearization
    lin_product: Linearization
    projection: Matrix                    # pi: dual-side quotient projection
    basis_change: Matrix                  # Q': kernel-basis change, integral
    head: tuple                           # u
    slice_vertices: tuple                 # (w_1, ..., w_n)


def projection_matrix(n: int) -> Matrix:
    """pi: Z^{2n+1} -> Z^{n+1}; rows (0,..,0,-1 | 1..1), (e_k - e_n | 0) for
    k = 1..n-1, and (e_n | 0).  Its transpose's columns are a basis of the
    kernel of the product shift map."""
    rows = [[0] * (n - 1) + [-1] + [1] * (n + 1)]
    for k in range(1, n):
        r = [0] * (2 * n + 1)
        r[k - 1] = 1
        r[n - 1] = -1
        rows.append(r)
    r = [0] * (2 * n + 1)
    r[n - 1] = 1
    rows.append(r)
    return Matrix(rows)


def basis_change_matrix(n: int) -> Matrix:
    """Q': the unique solution of pi^T Q' = [e_1 | ... | e_n | (0; 1...1)],
    computed exactly rather than hard-coded."""
    pit = projection_matrix(n).transpose()
    cols = []
    for a in range(n):
        target = [0] * (2 * n + 1)
        target[a] = 1
        cols.append(solve_unique(pit, target))
    cols.append(solve_unique(pit, [0] * n + [1] * (n + 1)))
    q = Matrix.from_columns(cols)
    if not q.is_integral():
        raise AssertionError("basis change must be integral")
    return q


def build_bundle(n: int) -> DegenerationBundle:
    """All displayed toric data of the expanded family and its self-product."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > 5:
        raise ValueError("n must be <= 5 (vertex counts grow as (n+1)^n)")
    # family side, rank n+2
    fam_rec = Cone(n + 2, family_rec_dual_columns(n))
    base = Cone(n + 2, base_cone_columns(n))
    if base.dual() != fam_rec:
        raise AssertionError("base cone display inconsistent with its dual display")
    lx = family_cube_map(n)
    cube_pts = [lx @ v for v in product((0, 1), repeat=n)]
    fam_poly = LatticePolyhedron(n + 2, cube_pts, fam_rec).canonicalize()
    monomials = embedding_monomials(family_rec_dual_columns(n), cube_pts)
    # product side, rank 2n+1
    prod_rec = Cone(2 * n + 1, product_rec_dual_columns(n))
    prod_cone = prod_rec.dual()
    expected_rays = set(product_ray_vectors(n))
    if set(prod_cone.rays) != expected_rays:
        raise AssertionError("product cone rays do not match the (e_I; e_j) description")
    L = product_cube_map(n)
    lt = L.transpose()
    facets = []
    for v in sorted(expected_rays):
        w = lt @ v
        d = Fraction(sum(min(x, Fraction(0)) for x in w))
        facets.append((v, d))
    prod_poly = LatticePolyhedron(2 * n + 1, product_chart_vertices(n), prod_rec,
                                  _facets=tuple(sorted(facets)), _equations=())
    prod_poly = prod_poly.canonicalize()
    lin_fam = Linearization(torus_shift_map(n, n + 2), fractional_shift_family(n))
    lin_prod = Linearization(torus_shift_map(n, 2 * n + 1), fractional_shift_product(n))
    pi = projection_matrix(n)
    if any(any(x != 0 for x in (lin_prod.alpha @ col)) for col in pi.transpose().columns()):
        raise AssertionError("rows of pi must lie in the kernel of the product shift map")
    if pi.rank() != n + 1:
        raise AssertionError("pi must be surjective")
    return DegenerationBundle(
        n=n, base_cone=base, family_rec_dual=fam_rec, family_polyhedron=fam_poly,
        family_monomials=monomials, product_rec_dual=prod_rec, product_cone=prod_cone,
        cube_map=L, product_polyhedron=prod_poly, lin_family=lin_fam,
        lin_product=lin_prod, projection=pi, basis_change=basis_change_matrix(n),
        head=head_vertex(n), slice_vertices=tuple(slice_vertex(n, i) for i in range(1, n + 1)))


@dataclass(frozen=True)
class SymmetricModel:
    n: int
    reflections_weight: tuple   # adjacent-transposition matrices on Z^{n-1}
    reflections_ambient: tuple  # the same on Z^{n+1}
    chamber: Cone               # the distinguished maximal cone
    product_cone: Cone          # union of the orbit fan, rank n+1
    fan: Fan                    # the S_n-orbit fan of the chamber
    permutohedron: LatticePolyhedron
    resolution_polyhedron: LatticePolyhedron
    edge_matrix: Matrix         # edge directions at the identity vertex


def weight_reflections(n: int) -> list[Matrix]:
    """Matrices of the simple reflections (k k+1) on the weight lattice Z^{n-1}."""
    mats = []
    for k in range(1, n - 1):
        rows = [[1 if i == j else 0 for j in range(n - 1)] for i in range(n - 1)]
        rows[k - 1][k - 1] = rows[k][k] = 0
        rows[k - 1][k] = rows[k][k - 1] = 1
        mats.append(Matrix(rows))
    last = [[1 if i == j else 0 for j in range(n - 1)] for i in range(n - 1)]
    for i in range(n - 1):
        last[i][n - 2] = -1
    mats.append(Matrix(last))
    return mats


def ambient_reflections(n: int) -> list[Matrix]:
    """Matrices of the simple reflections on Z^{n+1} = Z ⊕ Z^{n-1} ⊕ Z."""
    mats = []
    for k in range(1, n - 1):
        rows = [[1 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
        rows[k][k] = rows[k + 1][k + 1] = 0
        rows[k][k + 1] = rows[k + 1][k] = 1
        mats.append(Matrix(rows))
    last = [[1 if i == j else 0 for j in range(n + 1)] for i in range(n + 1)]
    for i in range(n + 1):
        last[i][n - 1] = -1 if i != n else 1
    last[n - 1][n - 1] = -1
    last[n][n - 1] = 1
    mats.append(Matrix(last))
    return mats


def permutation_matrices(n: int, gens: list[Matrix]) -> dict[tuple[int, ...], Matrix]:
    """ρ(s) for all s in S_n, from the adjacent-transposition generators.

    Built over the Cayley graph; a revisit along a different word must give
    the same matrix (this re-verifies the Coxeter relations on the way)."""
    size = gens[0].rows
    ident = tuple(range(n))
    out = {ident: Matrix.identity(size)}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for k in range(n - 1):
                # left-compose with the transposition of the values k, k+1 so
                # that p -> matrix is a genuine homomorphism
                q = tuple(k + 1 if x == k else (k if x == k + 1 else x) for x in p)
                m = gens[k] @ out[p]
                if q in out:
                    if out[q] != m:
                        raise AssertionError("generator matrices violate the relations")
                else:
                    out[q] = m
                    nxt.append(q)
        frontier = nxt
    return out


def chamber_cone(n: int) -> Cone:
    cols = []
    for k in range(1, n + 1):
        cols.append(tuple(1 if i < k else 0 for i in range(n)) + (0,))
    cols.append(tuple([0] * n) + (1,))
    return Cone(n + 1, cols)


def product_cone_ambient(n: int) -> Cone:
    """Rank-(n+1) cone with rays (1;0;0), (1; e_I; 0), (0; -e_I; 1), (0;0;1)."""
    gens = [(1,) + tuple([0] * (n - 1)) + (0,), (0,) + tuple([0] * (n - 1)) + (1,)]
    for r in range(1, n):
        for I in combinations(range(n - 1), r):
            e = tuple(1 if i in I else 0 for i in range(n - 1))
            gens.append((1,) + e + (0,))
            gens.append((0,) + tuple(-x for x in e) + (1,))
    return Cone(n + 1, gens)


def product_cone_dual_columns(n: int) -> list[tuple[int, ...]]:
    """Displayed generators of the dual: (1, -u, 0) and (0, u, 1) for u in
    {0, e_1, ..., e_{n-1}}."""
    cols = []
    units = [tuple([0] * (n - 1))] + [_unit(n - 1, i) for i in range(n - 1)]
    for u in units:
        cols.append((1,) + tuple(-x for x in u) + (0,))
    for u in units:
        cols.append((0,) + u + (1,))
    return cols


def permutohedron_polytope(n: int) -> LatticePolyhedron:
    verts = []
    for s in permutations(range(1, n + 1)):
        verts.append(tuple(s[i] - (i + 1) for i in range(n - 1)))
    return LatticePolyhedron(n - 1, verts).canonicalize()


def edge_matrix(n: int) -> Matrix:
    cols = []
    for k in range(1, n - 1):
        c = [0] * (n - 1)
        c[k - 1] = 1
        c[k] = -1
        cols.append(c)
    c = [0] * (n - 1)
    c[n - 2] = 1
    cols.append(c)
    return Matrix.from_columns(cols)


def build_symmetric(n: int) -> SymmetricModel:
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > 6:
        raise ValueError("n must be <= 6 (the fan has n! maximal cones)")
    wrefl = weight_reflections(n)
    arefl = ambient_reflections(n)
    chamber = chamber_cone(n)
    prod = product_cone_ambient(n)
    mats = permutation_matrices(n, arefl)
    cones = []
    for s, m in sorted(mats.items()):
        cones.append(Cone(n + 1, [m @ g for g in chamber.generators]))
    fan = Fan(n + 1, cones, prod)
    perm = permutohedron_polytope(n)
    dual_display = Cone(n + 1, product_cone_dual_columns(n))
    if prod.dual() != dual_display:
        raise AssertionError("product cone dual display mismatch")
    iota_pts = [(Fraction(0),) + v + (Fraction(0),) for v in perm.vertex_candidates]
    respoly = LatticePolyhedron(n + 1, iota_pts, dual_display).canonicalize()
    return SymmetricModel(
        n=n, reflections_weight=tuple(wrefl), reflections_ambient=tuple(arefl),
        chamber=chamber, product_cone=prod, fan=fan, permutohedron=perm,
        resolution_polyhedron=respoly, edge_matrix=edge_matrix(n))


# ---------------------------------------------------------------------------
# verification checks

# The checks share one bundle and one symmetric model per n.  The builders
# stay plain functions, so the per-layer tracer in perfbench/ still wraps
# them, and keep their consistency assertions, which run on the first build
# of each n; only these private accessors memoise them.


@cache
def _bundle(n: int) -> DegenerationBundle:
    return build_bundle(n)


@cache
def _symmetric(n: int) -> SymmetricModel:
    return build_symmetric(n)


@dataclass
class VerifyReport:
    check: str
    n: int
    status: str            # "pass" | "fail" | "error"
    witness: Any = None
    elapsed_ms: float = 0.0

    def ok(self) -> bool:
        return self.status == "pass"


def slice_vertex_points(bundle: DegenerationBundle) -> dict[tuple, tuple]:
    """The expected slice-polytope vertices m_s = L(s w_1; ...; s w_n)."""
    n = bundle.n
    out = {}
    for s in permutations(range(n)):
        coords = []
        for i in range(1, n + 1):
            w = bundle.slice_vertices[i - 1]
            coords.extend(w[list(s).index(j)] for j in range(n))
        out[s] = tuple(bundle.cube_map @ coords)
    return out


def _check_conical_part(n: int) -> tuple[bool, Any]:
    b = _bundle(n)
    img = image_cone(b.projection, b.product_cone)
    target = product_cone_ambient(n)
    if img == target:
        return True, {"rays": len(img.rays)}
    return False, {"got": [list(r) for r in img.rays],
                   "expected": [list(r) for r in target.rays]}


def _check_pb_vertices(n: int) -> tuple[bool, Any]:
    b = _bundle(n)
    ms = slice_vertex_points(b)
    sl = quotient_slice(b.product_polyhedron.polytopal_part().canonicalize(),
                        b.lin_product)
    got = set(sl.vertex_candidates)
    if got != set(ms.values()):
        return False, {"unexpected": [list(map(str, v)) for v in sorted(got - set(ms.values()))]}
    heads = {v[:n] for v in got}
    su = set()
    for s in permutations(range(n)):
        su.add(tuple(b.head[list(s).index(j)] for j in range(n)))
    if heads != su:
        return False, {"heads": [list(map(str, h)) for h in sorted(heads)]}
    tail = constant_tail(n)
    bad = [v for v in got if v[n:] != tail]
    if bad:
        return False, {"bad_tail": [list(map(str, v)) for v in bad]}
    return True, {"vertices": len(got)}


def _check_quotient_theorem(n: int) -> tuple[bool, Any]:
    b = _bundle(n)
    sym = _symmetric(n)
    ms = slice_vertex_points(b)
    mid = ms[tuple(range(n))]
    tail = constant_tail(n)
    scale = Fraction(n + 1, n + 2)
    got = set()
    for v in ms.values():
        if v[n:] != tail:
            return False, {"bad_tail": list(map(str, v))}
        d = tuple(x - u for x, u in zip(v[:n], b.head)) + (Fraction(0),)
        c = b.basis_change @ d
        got.add(tuple(scale * x for x in c))
    expected = set(sym.resolution_polyhedron.vertex_candidates)
    if got == expected:
        return True, {"vertices": len(got)}
    return False, {"got": sorted([list(map(str, v)) for v in got]),
                   "expected": sorted([list(map(str, v)) for v in expected])}


def _check_normal_fan(n: int) -> tuple[bool, Any]:
    sym = _symmetric(n)
    nf = normal_fan(sym.resolution_polyhedron)
    if nf == sym.fan:
        return True, {"maximal_cones": len(nf.maximal_cones)}
    return False, {"got": len(nf.maximal_cones), "expected": len(sym.fan.maximal_cones)}


def _check_unstable_locus(n: int) -> tuple[bool, Any]:
    b = _bundle(n)
    data = unstable_rays(b.product_polyhedron, b.lin_product)
    rows = []
    for rd in data:
        I, j = decode_ray_label(n, rd.ray)
        k = len(I)
        d_expected = Fraction(-(n - j) * k)
        m_expected = Fraction((j - k) * ((j - k) * n + n - 2 * k), 2 * (n + 1))
        ok = (rd.support_constant == d_expected and rd.margin == m_expected
              and rd.margin >= 0 and (rd.margin == 0) == (j == k)
              and rd.unstable == (j != k))
        rows.append({"I": list(I), "j": j, "d": str(rd.support_constant),
                     "margin": str(rd.margin), "unstable": rd.unstable})
        if not ok:
            return False, {"ray": rows[-1],
                           "expected": {"d": str(d_expected), "margin": str(m_expected)}}
    return True, {"rays": rows}


def _check_base_recovery(n: int) -> tuple[bool, Any]:
    b = _bundle(n)
    q = quotient_polyhedron(b.family_polyhedron, b.lin_family)
    if q.is_empty():
        return False, {"error": "empty quotient"}
    if len(q.vertex_candidates) != 1:
        return False, {"vertices": [list(map(str, v)) for v in q.vertex_candidates]}
    rec = q.recession
    ok = (q.ambient_rank == 2 and rec.is_pointed() and len(rec.rays) == 2
          and rec.dim() == 2 and rec.is_smooth())
    if ok:
        return True, {"recession_rays": [list(r) for r in rec.rays]}
    return False, {"recession_rays": [list(r) for r in rec.rays]}


def _check_fan_smooth_small(n: int) -> tuple[bool, Any]:
    sym = _symmetric(n)
    for c in sym.fan.maximal_cones:
        if not c.is_smooth():
            return False, {"non_smooth_cone": [list(r) for r in c.rays]}
    sigma = sym.product_cone
    for r in sym.fan.rays():
        if not sigma.contains(r):
            return False, {"ray_outside": list(r)}
        if sigma.relint_contains(r):
            return False, {"ray_in_relative_interior": list(r)}
    return True, {"rays": len(sym.fan.rays()), "maximal_cones": len(sym.fan.maximal_cones)}


_CHECK_FUNCS = {
    "conical_part": (_check_conical_part, 1),
    "pb_vertices": (_check_pb_vertices, 1),
    "quotient_theorem": (_check_quotient_theorem, 2),
    "normal_fan": (_check_normal_fan, 2),
    "unstable_locus": (_check_unstable_locus, 1),
    "base_recovery": (_check_base_recovery, 1),
    "fan_smooth_small": (_check_fan_smooth_small, 2),
}


def checks_for(n: int) -> list[str]:
    """The verify checks applicable at this n."""
    return [name for name in VERIFY_CHECKS if _CHECK_FUNCS[name][1] <= n]


def verify(n: int, check: str) -> VerifyReport:
    """Run one named check; PASS carries canonical summary data, FAIL a witness."""
    if check not in _CHECK_FUNCS:
        raise ValueError(f"unknown check name: {check}")
    func, nmin = _CHECK_FUNCS[check]
    if not (nmin <= n <= 4):
        raise ValueError(f"check {check} supports {nmin} <= n <= 4")
    t0 = time.perf_counter()
    try:
        ok, witness = func(n)
        status = "pass" if ok else "fail"
    except Exception as exc:  # a crashed check is an error report, not a crash
        status, witness = "error", {"exception": repr(exc)}
    ms = (time.perf_counter() - t0) * 1000.0
    return VerifyReport(check=check, n=n, status=status, witness=witness, elapsed_ms=ms)
