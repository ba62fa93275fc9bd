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
from functools import cache, reduce
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import le, matmul
from typing import Any, Callable, Iterator, Sequence

from .cones import Cone, image_cone
from .git import Linearization, quotient_polyhedron, unstable_rays
from .linalg import Matrix, left_action, solve_affine
from .polyhedra import (Facet, Fan, LatticePolyhedron, certified_polyhedron,
                        cube_image_slice, normal_fan)

# the largest n that ``verify`` runs at
VERIFY_MAX_N = 7

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


def product_linearization(n: int) -> Linearization:
    """The distinguished linearization of the n-fold product."""
    return Linearization(torus_shift_map(n, 2 * n + 1), fractional_shift_product(n))


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


def product_chart_corners(n: int) -> list[tuple[int, ...]]:
    """The (n+1)^n chain indicators c of the n^2-cube, one per chart.

    A chart is a threshold vector in {1..n+1}^n; block i of c (entries
    (i-1)n+1 .. in, see ``product_cube_map``) is the indicator of
    S_i = {j : threshold_j <= i}, so S_1 ⊆ ... ⊆ S_n."""
    return [tuple(1 if c[j] <= i else 0 for i in range(1, n + 1) for j in range(n))
            for c in product(range(1, n + 2), repeat=n)]


def chart_box(n: int, lo: Sequence[int], hi: Sequence[int]) -> bool:
    """Is every 0/1 point c with lo <= c <= hi a chart corner?  c is one iff
    each block is at most the next, so iff each block of hi is at most the
    next block of lo (the box's coordinates vary independently)."""
    return all(map(le, hi, lo[n:]))


def product_chart_vertices(n: int) -> list[tuple[int, ...]]:
    """All (n+1)^n vertices L(c) of the product polyhedron, one per chart
    corner c of ``product_chart_corners``, in the same order.

    A vertex is the separable argmin of a generic functional (a; b) in the
    interior of the product cone.  Writing T_i = b_{i+1} + ... + b_{n+1}
    (strictly decreasing), the i-th block contributes its vertex over
    S_i = {j : a_j > T_i}, and the chain S_1 ⊆ ... ⊆ S_n is encoded by the
    thresholds c_j = min{i : j ∈ S_i}.  Every threshold vector in
    {1..n+1}^n is realizable on a full-dimensional region, so this list is
    exactly the vertex set (the tests compare it with the hull)."""
    L = product_cube_map(n)
    return [L @ c for c in product_chart_corners(n)]


def head_vertex(n: int) -> tuple[int, ...]:
    """(n+1)·u, u the first n coordinates of the identity slice vertex;
    consecutive entries of u differ by exactly 1 + 1/(n+1)."""
    u = tuple(-((n - j) * (n + 2) + 1) for j in range(1, n + 1))
    if any(u[k + 1] - u[k] != n + 2 for k in range(n - 1)):
        raise AssertionError("consecutive head entries must differ by 1 + 1/(n+1)")
    return u


def slice_vertex(n: int, i: int) -> tuple[int, ...]:
    """(n+1)·w_i, w_i = (1,...,1, (n-i+1)/(n+1), 0,...,0) with i-1 leading ones."""
    return tuple([n + 1] * (i - 1) + [n - i + 1] + [0] * (n - i))


def constant_tail(n: int) -> tuple[int, ...]:
    """(n+1)·(0, n/(n+1), 3n/(n+1), ..., n^2/2): the shared t-block of all
    slice polytope vertices, scaled."""
    return tuple((m - 1) * m // 2 * n for m in range(1, n + 2))


# ---------------------------------------------------------------------------
# bundles


@dataclass(frozen=True)
class DegenerationBundle:
    n: int
    family_polyhedron: LatticePolyhedron  # polyhedron of the iterated blow-up
    product_rec_dual: Cone                # recession cone of the product polyhedron
    product_cone: Cone                    # its dual, generated by the (e_I; e_j)
    product_facets: tuple[Facet, ...]     # facet rows (v, o_v) of the product polyhedron
    lin_family: Linearization
    projection: Matrix                    # pi: dual-side quotient projection
    basis_change: Matrix                  # Q': kernel-basis change, integral


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
    """Q': the solution of pi^T Q' = [e_1 | ... | e_n | (0; 1...1)], computed
    exactly rather than hard-coded, one ``solve_affine`` per target column.
    pi is surjective (``build_bundle`` checks it), so pi^T is injective and
    each solution is unique."""
    pit = projection_matrix(n).transpose()
    targets = [_unit(2 * n + 1, a) for a in range(n)] + [(0,) * n + (1,) * (n + 1)]
    cols = [solve_affine(pit, t) for t in targets]
    if any(c is None for c in cols):
        raise AssertionError("pi^T Q' = targets has no solution")
    q = Matrix.from_columns(cols)
    if not q.is_integral():
        raise AssertionError("basis change must be integral")
    return q


def build_bundle(n: int) -> DegenerationBundle:
    """All displayed toric data of the expanded family and its self-product.
    The product polyhedron is kept as its facet rows; ``product_polyhedron``
    adds its (n+1)^n chart vertices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # family side, rank n+2: the recession cone of the family polyhedron is
    # the dual of the cone of the base-changed family
    fam_rec = Cone(n + 2, family_rec_dual_columns(n))
    if Cone(n + 2, base_cone_columns(n)).dual() != fam_rec:
        raise AssertionError("base cone display inconsistent with its dual display")
    lx = family_cube_map(n)
    cube_pts = [lx @ v for v in product((0, 1), repeat=n)]
    fam_poly = LatticePolyhedron(n + 2, cube_pts, fam_rec).canonicalize()
    # product side, rank 2n+1
    prod_rec = Cone(2 * n + 1, product_rec_dual_columns(n))
    prod_cone = prod_rec.dual()
    expected_rays = set(product_ray_vectors(n))
    if set(prod_cone.rays) != expected_rays:
        raise AssertionError("product cone rays do not match the (e_I; e_j) description")
    L = product_cube_map(n)
    # the facet with normal v has offset min of v over L(cube), which
    # support_constants reads as d_v; no chart vertex is listed
    lt = L.transpose()
    facets = tuple((v, Fraction(sum(min(x, 0) for x in lt @ v))) for v in sorted(expected_rays))
    lin_fam = Linearization(torus_shift_map(n, n + 2), fractional_shift_family(n))
    alpha = torus_shift_map(n, 2 * n + 1)
    pi = projection_matrix(n)
    if any(any(x != 0 for x in (alpha @ col)) for col in pi.transpose().columns()):
        raise AssertionError("rows of pi must lie in the kernel of the product shift map")
    if pi.rank() != n + 1:
        raise AssertionError("pi must be surjective")
    return DegenerationBundle(
        n=n, family_polyhedron=fam_poly,
        product_rec_dual=prod_rec, product_cone=prod_cone,
        product_facets=facets, lin_family=lin_fam, projection=pi,
        basis_change=basis_change_matrix(n))


def product_polyhedron(n: int) -> LatticePolyhedron:
    """The product polyhedron: its (n+1)^n chart vertices, the recession
    cone and the bundle's facet rows as its seeded H-representation."""
    if n > 5:
        raise ValueError("n must be <= 5 (vertex counts grow as (n+1)^n)")
    b = _bundle(n)
    return LatticePolyhedron(2 * n + 1, product_chart_vertices(n), b.product_rec_dual,
                             _facets=b.product_facets, _equations=())


@dataclass(frozen=True)
class SymmetricModel:
    n: int
    chamber: Cone               # the distinguished maximal cone
    product_cone: Cone          # union of the orbit fan, rank n+1
    fan: Fan                    # the S_n-orbit fan of the chamber
    permutohedron: LatticePolyhedron
    resolution_polyhedron: LatticePolyhedron


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
    mats.append(Matrix(last))
    return mats


def chamber_cone(n: int) -> Cone:
    cols = []
    for k in range(1, n + 1):
        cols.append(tuple(1 if i < k else 0 for i in range(n)) + (0,))
    cols.append(tuple([0] * n) + (1,))
    return Cone(n + 1, cols)


def _cayley_walk(n: int, gens: Sequence[Matrix], columns: Sequence, rows: Sequence) -> dict:
    """{s: (ρ(s)·C, (R·ρ(s)⁻¹)ᵀ)} for s in S_n, C with the ``columns`` and R
    with the ``rows``, from the generators g_k = ρ(s_k).  They must satisfy
    the Coxeter relations s_k² = 1, (s_k s_{k+1})³ = 1 and s_k s_l = s_l s_k
    for |k - l| >= 2, which present S_n, so ρ is a homomorphism and a walk
    of the Cayley graph from the identity reaches each s once, whatever the
    path.  A step from p to q = s_k p moves ρ(p)·C to g_k·ρ(p)·C and
    (R·ρ(p)⁻¹)ᵀ to g_kᵀ·(R·ρ(p)⁻¹)ᵀ, as g_k² = 1: it combines the rows of
    each matrix (tuples of row tuples), and a coordinate swap reorders them."""
    d = gens[0].rows
    ident = Matrix.identity(d)
    for k, l in combinations_with_replacement(range(n - 1), 2):
        order = 1 if l == k else 3 if l == k + 1 else 2
        if reduce(matmul, [gens[k] @ gens[l]] * order) != ident:
            raise AssertionError("generator matrices violate the Coxeter relations")

    moves = [(left_action(g), left_action(g.transpose())) for g in gens]
    swaps = [bytes.maketrans(bytes([k, k + 1]), bytes([k + 1, k])) for k in range(n - 1)]
    out = {bytes(range(n)): (tuple(zip(*columns)), tuple(zip(*rows)) or ((),) * d)}
    frontier = list(out)
    for p in frontier:  # the list grows as it is read: a breadth-first walk
        p_cols, p_rows = out[p]
        for swap, (on_cols, on_rows) in zip(swaps, moves):
            q = p.translate(swap)  # s_k p: the bytes k, k + 1 swapped
            if q not in out:
                out[q] = (on_cols(p_cols), on_rows(p_rows))
                frontier.append(q)
    return {tuple(p): mats for p, mats in out.items()}


def permutation_matrices(n: int, gens: list[Matrix]) -> dict[tuple[int, ...], Matrix]:
    """ρ(s) for all s in S_n, the identity moved by ``_cayley_walk``.  The
    symmetric model forms none of them; the tests read them."""
    walk = _cayley_walk(n, gens, Matrix.identity(gens[0].rows).columns(), ())
    return {s: Matrix(mat) for s, (mat, _) in walk.items()}


def orbit_cones(chamber: Cone, gens: Sequence[Matrix]) -> Iterator[Cone]:
    """ρ(s)·C for s in S_n in order: the rays r and facet normals f of the
    chamber C's one double description become the primitive ρ(s)r and
    f·ρ(s)⁻¹, the columns that ``_cayley_walk`` moves.  The guard checks that
    C is pointed, full-dimensional and simplicial as displayed, so that it
    has no lineality basis or equations to bring back to normal form."""
    d, rays, facets = chamber.ambient_rank, chamber.rays, chamber.facets
    if chamber.lineality_basis or chamber.equations or len(rays) != d:
        raise AssertionError("the chamber must be pointed, full-dimensional and simplicial")
    for _, (s_rays, s_facets) in sorted(_cayley_walk(len(gens) + 1, gens, rays, facets).items()):
        s_rays, s_facets = tuple(sorted(zip(*s_rays))), tuple(sorted(zip(*s_facets)))
        yield Cone(d, _rays=s_rays, _facets=s_facets, _lineality=(), _equations=())


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


def permutohedron_points(n: int) -> list[tuple[int, ...]]:
    """The n! points (s_i - i)_{i < n} for the permutations s of 1..n."""
    return [tuple(s[i] - (i + 1) for i in range(n - 1)) for s in permutations(range(1, n + 1))]


def permutohedron_polytope(n: int, sigma: Cone) -> LatticePolyhedron:
    """The permutohedron in Z^{n-1}, its facets certified from the nonzero
    middle blocks ±e_I of the rays of σ = ``product_cone_ambient(n)``, one
    per proper nonempty subset of [n]."""
    normals = [r[1:-1] for r in sigma.rays if any(r[1:-1])]
    return certified_polyhedron(n - 1, permutohedron_points(n), None, normals)


def build_symmetric(n: int) -> SymmetricModel:
    """The symmetric model.  The n! orbit-fan cones are moved from the
    chamber by the n - 1 generators ρ(s_k) (``orbit_cones``), so no ρ(s) is
    formed; the permutohedron and the resolution polyhedron take their
    facets from the rays of σ (``certified_polyhedron``), so the n! points
    are never double-described and no homogenization is built."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if n > 7:
        raise ValueError("n must be <= 7 (the fan has n! maximal cones)")
    chamber = chamber_cone(n)
    prod = product_cone_ambient(n)
    fan = Fan(n + 1, orbit_cones(chamber, ambient_reflections(n)), prod)
    perm = permutohedron_polytope(n, prod)
    dual_display = Cone(n + 1, product_cone_dual_columns(n))
    if prod.dual() != dual_display:
        raise AssertionError("product cone dual display mismatch")
    iota_pts = [(0,) + v + (0,) for v in permutohedron_points(n)]
    respoly = certified_polyhedron(n + 1, iota_pts, dual_display, prod.rays)
    return SymmetricModel(
        n=n, chamber=chamber, product_cone=prod, fan=fan, permutohedron=perm,
        resolution_polyhedron=respoly)


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


@cache
def _pb(n: int) -> tuple[list[tuple[int, ...]], int, Callable[[Sequence[int]], int]]:
    """The slice polytope P_b = conv(chart vertices) ∩ {α x = -b} of the
    product, in int, read by ``pb_vertices`` and ``unstable_locus``.

    ``cube_image_slice`` cuts it from the n^2-cube.  Row i of α·L reads
    cube block i, each of its n columns with coefficient -1, so the block's
    slice is the hypersimplex slice {y ∈ [0,1]^n : Σ y = i·n/(n+1)} and P_b
    is the Minkowski sum of their images, a generalized permutohedron
    (Postnikov, IMRN 2009) whose normal fan the braid fan refines.  So the
    chambers are the n! maximal chains (e_{σ(1)}; 0), (e_{σ(1)σ(2)}; 0), ...,
    and the lineality is (1^n; 0) and (0; e_j).  The certificate shows
    (1) P_b constant along the lineality, (2) one minimum w_σ per chain
    sum, a vertex, (3) each chain normal tight at w_σ, so the chamber lies
    in N(w_σ), and (4), as the chambers cover the space, every vertex among
    the w_σ.  ``chart_box`` is the corner test: neither the bundle nor the
    (n+1)^n chart corners are listed, and no double description runs.  If
    a certificate failed, the checks would report an error."""
    lin = product_linearization(n)
    tail = (0,) * (n + 1)
    # one chain per σ, made lazily; pos[j] is j's place in σ, so e_{σ(1..k)} is pos < k
    chambers = ([tuple(int(p < k) for p in pos) + tail for k in range(1, n)]
                for pos in permutations(range(n)))
    lineality = [(1,) * n + tail] + [(0,) * n + tuple(int(i == j) for i in range(n + 1))
                                     for j in range(n + 1)]
    return cube_image_slice(product_cube_map(n), lin.alpha, [-x for x in lin.b], chambers,
                            lineality, lambda lo, hi: chart_box(n, lo, hi))


@dataclass
class VerifyReport:
    check: str
    n: int
    status: str            # "pass" | "fail" | "error"
    witness: Any = None
    elapsed_ms: float = 0.0

    def ok(self) -> bool:
        return self.status == "pass"


@cache
def slice_vertex_points(n: int) -> list[tuple[int, ...]]:
    """The expected slice-polytope vertices m_s = L(s w_1; ...; s w_n), s in
    S_n, as the int (n+1)·m_s, (s w)_j = w_p(j) for p = s⁻¹, which runs over
    S_n too; one list per n, shared by pb_vertices and quotient_theorem."""
    L = product_cube_map(n)
    ws = [slice_vertex(n, i) for i in range(1, n + 1)]
    return [L @ [w[k] for w in ws for k in p] for p in permutations(range(n))]


def _strs(v: Sequence[int], den: int) -> list[str]:
    """The coordinates of v / den as witness strings."""
    return [str(Fraction(x, den)) for x in v]


def _check_conical_part(n: int) -> tuple[bool, Any]:
    b = _bundle(n)
    img = image_cone(b.projection, b.product_cone)
    target = product_cone_ambient(n)
    if img == target:
        return True, {"rays": len(img.rays)}
    return False, {"got": [list(r) for r in img.rays],
                   "expected": [list(r) for r in target.rays]}


def _check_pb_vertices(n: int) -> tuple[bool, Any]:
    images, h, _ = _pb(n)  # the vertices h·w, against the closed form (n+1)·m_s
    ms = slice_vertex_points(n)
    want = {tuple(h * x for x in m) for m in ms}
    got = {tuple((n + 1) * x for x in v) for v in images}
    if got != want:
        return False, {"unexpected": [_strs(v, h * (n + 1)) for v in sorted(got - want)]}
    u = head_vertex(n)
    heads = {m[:n] for m in ms}
    if heads != {tuple(u[s.index(j)] for j in range(n)) for s in permutations(range(n))}:
        return False, {"heads": [_strs(v, n + 1) for v in sorted(heads)]}
    tail = constant_tail(n)
    bad = [_strs(m, n + 1) for m in ms if m[n:] != tail]
    if bad:
        return False, {"bad_tail": bad}
    return True, {"vertices": len(got)}


def _check_quotient_theorem(n: int) -> tuple[bool, Any]:
    # (n+1)/(n+2)·Q'(m_s - u, 0) = Q'·(n+1)(m_s - u, 0) / (n+2), against v
    b, u, tail = _bundle(n), head_vertex(n), constant_tail(n)
    got = set()
    for m in slice_vertex_points(n):
        if m[n:] != tail:
            return False, {"bad_tail": _strs(m, n + 1)}
        got.add(b.basis_change @ ([x - y for x, y in zip(m, u)] + [0]))
    expected = {tuple((n + 2) * x for x in v)
                for v in _symmetric(n).resolution_polyhedron.vertex_candidates}
    if got == expected:
        return True, {"vertices": len(got)}
    return False, {"got": sorted(_strs(v, n + 2) for v in got),
                   "expected": sorted(_strs(v, n + 2) for v in expected)}


def _check_normal_fan(n: int) -> tuple[bool, Any]:
    sym = _symmetric(n)
    nf = normal_fan(sym.resolution_polyhedron)
    if nf == sym.fan:
        return True, {"maximal_cones": len(nf.maximal_cones)}
    return False, {"got": len(nf.maximal_cones), "expected": len(sym.fan.maximal_cones)}


def _check_unstable_locus(n: int) -> tuple[bool, Any]:
    _, h, support = _pb(n)
    rows = []
    for rd in unstable_rays(_bundle(n).product_facets, support, h):
        I, j = decode_ray_label(n, rd.ray)
        k = len(I)
        # d and the margin against their closed forms, as numerators over 2(n+1)
        d, m, den = -(n - j) * k, (j - k) * ((j - k) * n + n - 2 * k), 2 * (n + 1)
        dv, mv = rd.support_constant, rd.margin
        ok = (dv.numerator == d * dv.denominator
              and mv.numerator * den == m * mv.denominator
              and mv.numerator >= 0 and (mv.numerator == 0) == (j == k)
              and rd.unstable == (j != k))
        rows.append({"I": list(I), "j": j, "d": str(dv), "margin": str(mv),
                     "unstable": rd.unstable})
        if not ok:
            return False, {"ray": rows[-1],
                           "expected": {"d": str(d), "margin": str(Fraction(m, den))}}
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
    if not (nmin <= n <= VERIFY_MAX_N):
        raise ValueError(f"check {check} supports {nmin} <= n <= {VERIFY_MAX_N}")
    t0 = time.perf_counter()
    try:
        ok, witness = func(n)
        status = "pass" if ok else "fail"
    except Exception as exc:  # a crashed check is an error report, not a crash
        status, witness = "error", {"exception": repr(exc)}
    ms = (time.perf_counter() - t0) * 1000.0
    return VerifyReport(check=check, n=n, status=status, witness=witness, elapsed_ms=ms)
