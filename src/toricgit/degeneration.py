"""Constructors for the expanded-degeneration toric data at a given n, and the
machine checks for the combinatorial statements about them.

Two families of objects are built:

* ``DegenerationBundle``: the affine family X = A^2 -> A^1 (t = xy) after base
  change to A^{n+1}, its iterated blow-up (the expanded family), and the
  fractional linearization of the torus G = {t_1 ... t_{n+1} = 1}, in Z^{n+2}
  with coordinate order (s-block; t_1, ..., t_{n+1}).  Of the n-fold fiber
  self-product, in Z^{2n+1}, π is memoised and each check builds what else it
  reads (Q', the orbit offsets) from its closed form, and frees it at its end.

* ``SymmetricModel``: the weight-space S_n data that resolve the relative
  n-fold product of X over the base: the chamber C, the generators g_k, the
  base point y₀ and the resolution polyhedron's facets certified at y₀;
  ``build`` alone lists the n! vertices, and walks the n! orbit-fan cones.

``verify`` runs one named check, those on the orbit fan at C from that
certificate, and returns a report with a witness on failure.
"""

from __future__ import annotations

import time
from functools import cache, reduce
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial
from operator import itemgetter, matmul, methodcaller, sub
from typing import Any, Callable, NamedTuple, Sequence

from .cones import Cone, column_dots, image_cone
from .git import Linearization, quotient_polyhedron, unstable_rays
from .linalg import IntVec, Matrix, abs_det, dot, left_action, primitive
from .polyhedra import Facet, LatticePolyhedron, cube_image_slice, orbit_certificate

# the largest n that ``verify`` runs at
VERIFY_MAX_N = 12


# ---------------------------------------------------------------------------
# small shared pieces


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i else 0 for k in range(n))


def torus_shift_map(n: int, source_rank: int) -> Matrix:
    """The restriction-to-G character map (s-block; c) -> (c_i - c_{i+1})_i,
    on Z^{n+2} for the expanded family and on Z^{2n+1} for its product."""
    s = source_rank - (n + 1)
    return Matrix([[int(c == s + i) - int(c == s + i + 1) for c in range(source_rank)]
                   for i in range(n)])


def product_linearization(n: int) -> Linearization:
    """The distinguished linearization of the n-fold product."""
    return Linearization(torus_shift_map(n, 2 * n + 1),
                         [Fraction(i * n, n + 1) for i in range(1, n + 1)])


def family_rec_dual_columns(n: int) -> list[tuple[int, ...]]:
    """Monomial exponents of x, y, t_1, ..., t_{n+1} on (s; t)-coordinates,
    the inequalities of the base-change cone, the cone over Δ_n × [0,1]."""
    return ([(-1,) + (1,) * (n + 1), (1,) + (0,) * (n + 1)]
            + [(0,) + _unit(n + 1, j) for j in range(n + 1)])


def family_cube_map(n: int) -> Matrix:
    """The (n+2) x n matrix sending the unit cube to the family polytope.

    Column k is the exponent vector of t_{k+1} ... t_{n+1} / s."""
    return Matrix([[-1] * n, [0] * n] + [[int(m > k) for k in range(1, n + 1)]
                                         for m in range(2, n + 2)])


def product_cube_map(n: int) -> Matrix:
    """L: the (2n+1) x n^2 matrix sending the n^2-cube to the product polytope.

    Column (i-1)n + j (blocks i = 1..n, positions j = 1..n) is
    (-e_j; t_{i+1} + ... + t_{n+1})."""
    return Matrix([[-int(jj == j) for i in range(n) for jj in range(n)] for j in range(n)]
                  + [[int(m > i) for i in range(1, n + 1) for jj in range(n)]
                     for m in range(1, n + 2)])


def product_rec_dual_columns(n: int) -> list[tuple[int, ...]]:
    """The (2n+1, 3n+1) generator matrix of the product recession cone:
    x_i = (-e_i; 1...1), y_i = (e_i; 0), t_j = (0; e_j)."""
    return ([tuple(-x for x in _unit(n, i)) + (1,) * (n + 1) for i in range(n)]
            + [_unit(n, i) + (0,) * (n + 1) for i in range(n)]
            + [(0,) * n + _unit(n + 1, j) for j in range(n + 1)])


def product_ray_vectors(m: int, k: int) -> list[tuple[int, ...]]:
    """The 2^k (m+1) rays (e_I; e_j) of the cone over Δ_m × [0,1]^k, sorted."""
    tails = [_unit(m + 1, j) for j in range(m, -1, -1)]
    return [e + tail for e in product((0, 1), repeat=k) for tail in tails]


def _product_cone(m: int, k: int, columns: Sequence[IntVec]) -> Cone:
    """The cone over Δ_m × [0,1]^k, {(p; q) : q >= 0, 0 <= p_i <= Σq} in
    Z^k ⊕ Z^{m+1}, with both representations and no double description,
    once m >= 1 and the displayed ``columns`` are checked to be its m+1+2k
    inequalities q_j >= 0, p_i >= 0 and Σq - p_i >= 0, each once.  The faces
    of a product of polytopes are the products of faces (Ziegler, *Lectures
    on Polytopes*, §0): its rays are the vertex pairs (e_I; e_j), and its
    facets, a facet of one factor times the other, those inequalities."""
    rows = sorted([(0,) * k + _unit(m + 1, j) for j in range(m + 1)]
                  + [_unit(k, i) + (0,) * (m + 1) for i in range(k)]
                  + [tuple(-x for x in _unit(k, i)) + (1,) * (m + 1) for i in range(k)])
    if m < 1 or sorted(columns) != rows:
        raise AssertionError("the displayed columns are not the inequalities of the cone "
                             f"over Δ_m × [0,1]^k, m = {m} and k = {k}")
    return Cone(k + m + 1, _rays=tuple(product_ray_vectors(m, k)), _lineality=(),
                _facets=tuple(rows), _equations=())


def _staircase(n: int, rec: Cone) -> list[IntVec]:
    """The staircase points L_x(0^{n-k} 1^k), k = 0..n, once each step
    between consecutive columns of the family cube map L_x is checked to be
    a ray of ``rec``.  Moving a 1 of a cube point c one place right
    subtracts a step from L_x(c), so conv(L_x(cube)) + rec = conv(staircase)
    + rec, the staircase points being cube images."""
    lx = family_cube_map(n)
    cols, rays = lx.columns(), set(rec.rays)
    if any(tuple(map(sub, a, b)) not in rays for a, b in zip(cols, cols[1:])):
        raise AssertionError("a step of the family cube map is not a recession ray")
    return [lx @ ((0,) * (n - k) + (1,) * k) for k in range(n + 1)]


def product_chart_corners(n: int) -> list[tuple[int, ...]]:
    """The (n+1)^n chain indicators c of the n^2-cube, one per chart.

    A chart is a threshold vector in {1..n+1}^n; block i of c (entries
    (i-1)n+1 .. in, see ``product_cube_map``) is the indicator of
    S_i = {j : threshold_j <= i}, so S_1 ⊆ ... ⊆ S_n."""
    return [tuple(1 if c[j] <= i else 0 for i in range(1, n + 1) for j in range(n))
            for c in product(range(1, n + 2), repeat=n)]


def chart_pairs(n: int) -> list[tuple[int, int]]:
    """The pairs (x, x + n): a 0/1 point c is a chart corner iff c_x <= c_{x+n}."""
    return [(x, x + n) for x in range(n * n - n)]


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
    return tuple(-((n - j) * (n + 2) + 1) for j in range(1, n + 1))


def slice_vertex(n: int, i: int) -> tuple[int, ...]:
    """(n+1)·w_i, w_i = (1,...,1, (n-i+1)/(n+1), 0,...,0) with i-1 leading ones."""
    return tuple([n + 1] * (i - 1) + [n - i + 1] + [0] * (n - i))


def constant_tail(n: int) -> tuple[int, ...]:
    """(n+1)·(0, n/(n+1), 3n/(n+1), ..., n^2/2): the shared t-block of all
    slice polytope vertices, scaled."""
    return tuple((m - 1) * m // 2 * n for m in range(1, n + 2))


def identity_slice_vertex(n: int) -> tuple[int, ...]:
    """(n+1)·m_id, m_id = L(w_1; ...; w_n) by the paper's definition, checked
    to be (u; constant tail); each m_s = L(s·w_1; ...) is P_s·m_id (``_pb``)."""
    m = product_cube_map(n) @ [x for i in range(1, n + 1) for x in slice_vertex(n, i)]
    if m != head_vertex(n) + constant_tail(n):
        raise AssertionError("the identity's slice vertex is not (u; constant tail)")
    return m


def _swaps(n: int, d: int) -> list[Callable]:
    """The swaps of coordinates k, k+1 of a d-tuple, k < n - 1, as itemgetters."""
    return [itemgetter(*range(k), k + 1, k, *range(k + 2, d)) for k in range(n - 1)]


def _intertwining_break(rows: tuple, s: Sequence[Callable], t: Sequence[Callable]) -> int | None:
    """The first k with A·s_k ≠ t_k·A (A by its ``rows``, s_k permuting each row,
    t_k the rows), else None: A then intertwines every word in them (Serre, *Linear
    Representations of Finite Groups*, §1.2).  No assert: it holds under -O."""
    return next((k for k, (s_k, t_k) in enumerate(zip(s, t, strict=True))
                 if tuple(map(s_k, rows)) != t_k(rows)), None)


def _head_swaps(n: int, L: Matrix, alpha: Matrix, pairs: Sequence[tuple[int, int]]
                ) -> list[IntVec]:
    """The lineality (1^n; 0), (0; e_j) of the product, once it is checked
    for k < n - 1, with P_k swapping coordinates k, k+1 and τ_k positions
    k, k+1 in each n-column block of the cube, that (a) L·τ_k = P_k·L, (b)
    P_k fixes α's rows and the lineality and (c) τ_k maps the chart pairs,
    and so the chart corners, onto themselves.  So the P_k, which generate
    S_n on the head, map L(cube), the plane α x = -b and P_b onto
    themselves, and a product ray's facet offset and margin depend only on
    its orbit (|I|, j) (``_orbit_offsets``)."""
    lineality = [(1,) * n + (0,) * (n + 1)] + [(0,) * n + _unit(n + 1, j) for j in range(n + 1)]
    swaps = _swaps(n, 2 * n + 1)  # the P_k
    taus = [[x + (x % n == k) - (x % n == k + 1) for x in range(n * n)] for k in range(n - 1)]
    if (k := _intertwining_break(L.entries, [itemgetter(*t) for t in taus], swaps)) is not None:
        raise AssertionError(f"τ_{k} does not permute L's columns as P_{k} its rows")
    for k, (swap, tau) in enumerate(zip(swaps, taus)):
        if any(swap(v) != v for v in alpha.entries + tuple(lineality)):
            raise AssertionError(f"P_{k} moves a row of α or a lineality direction")
        if {(tau[a], tau[b]) for a, b in pairs} != set(pairs):
            raise AssertionError(f"τ_{k} does not map the chart pairs onto themselves")
    return lineality


def _orbit_rays(n: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """The representative (e_{1..k}; e_j) of each S_n-orbit (k, j) of product
    rays, mapped to (k, j)."""
    return {(1,) * k + (0,) * (n - k) + _unit(n + 1, j): (k, j)
            for k in range(n + 1) for j in range(n + 1)}


def _orbit_offsets(n: int, L: Matrix) -> dict[tuple[int, int], int]:
    """{(k, j): o_v}, v the orbit's representative (``_orbit_rays``) and o_v, its
    least value on L(cube), the sum of the negative entries of Lᵀv: each ray
    of the orbit has it once ``_head_swaps`` has certified L."""
    return {key: sum(min(x, 0) for x in column_dots(v, L.entries, L.cols))
            for v, key in _orbit_rays(n).items()}


# ---------------------------------------------------------------------------
# bundles


class DegenerationBundle(NamedTuple):
    n: int
    family_polyhedron: LatticePolyhedron  # polyhedron of the iterated blow-up
    lin_family: Linearization


def projection_matrix(n: int) -> Matrix:
    """pi: Z^{2n+1} -> Z^{n+1}; rows (0,..,0,-1 | 1..1), (e_k - e_n | 0) for
    k = 1..n-1, and (e_n | 0), once its rows are checked to lie in the kernel
    of the product shift map and to have rank n + 1, so that its transpose's
    columns are a basis of that kernel."""
    pi = Matrix([[0] * (n - 1) + [-1] + [1] * (n + 1)]
                + [[int(c == k) - int(c == n - 1) for c in range(2 * n + 1)]
                   for k in range(n - 1)] + [_unit(2 * n + 1, n - 1)])
    if any(map(any, (torus_shift_map(n, 2 * n + 1) @ pi.transpose()).entries)):
        raise AssertionError("rows of pi must lie in the kernel of the product shift map")
    if pi.rank() != n + 1:
        raise AssertionError("pi must be surjective")
    return pi


def basis_change_matrix(n: int) -> Matrix:
    """Q' in closed form, rows indexed 0..n: row 0 is e_n, row k is e_{k-1}
    for 0 < k < n, and row n is (1, ..., 1).  One product certifies it:
    pi^T Q' = [e_1 | ... | e_n | (0; 1...1)].  pi, memoised by ``_pi``, is
    surjective (``projection_matrix`` checks it), so pi^T is injective and
    that product determines Q'."""
    q = Matrix([_unit(n + 1, n)] + [_unit(n + 1, k - 1) for k in range(1, n)]
               + [(1,) * (n + 1)])
    targets = [_unit(2 * n + 1, a) for a in range(n)] + [(0,) * n + (1,) * (n + 1)]
    if _pi(n).transpose() @ q != Matrix.from_columns(targets):
        raise AssertionError("pi^T Q' does not match its targets")
    return q


def build_bundle(n: int) -> DegenerationBundle:
    """The expanded family's toric data: its polyhedron, the hull of its
    ``_staircase`` plus its recession cone, the dual of the base-change cone's
    closed form (``_product_cone``), and its linearization."""
    if n < 1:
        raise ValueError("n must be >= 1")
    fam_rec = _product_cone(n, 1, family_rec_dual_columns(n)).dual()
    fam_poly = LatticePolyhedron(n + 2, _staircase(n, fam_rec), fam_rec).canonicalize()
    lin_fam = Linearization(torus_shift_map(n, n + 2),
                            [Fraction(i, n + 1) for i in range(1, n + 1)])
    return DegenerationBundle(n, fam_poly, lin_fam)


def product_facets(n: int) -> tuple[Facet, ...]:
    """The product polyhedron's facet rows (v, o_v), v the product cone's rays
    (e_I; e_j) in ``product_ray_vectors`` order, with no chart vertex listed:
    o_v, the least value of v on L(cube), is taken once per S_n-orbit (|I|, j)
    at its representative (``_orbit_offsets``, once ``_head_swaps`` holds); a
    row finds its orbit from its head e_I's |I| and its tail e_j's j."""
    L = product_cube_map(n)
    _head_swaps(n, L, torus_shift_map(n, 2 * n + 1), chart_pairs(n))
    offsets = _orbit_offsets(n, L)
    keys = product([sum(e) for e in product((0, 1), repeat=n)], range(n, -1, -1))
    return tuple(zip(product_ray_vectors(n, n), map(offsets.__getitem__, keys)))


def product_polyhedron(n: int) -> LatticePolyhedron:
    """The product polyhedron: its (n+1)^n chart vertices, the product cone's
    dual and ``product_facets``, its seeded H-representation."""
    if n > 5:
        raise ValueError("n must be <= 5 (vertex counts grow as (n+1)^n)")
    rec = _product_cone(n, n, product_rec_dual_columns(n)).dual()
    return LatticePolyhedron(2 * n + 1, product_chart_vertices(n), rec,
                             _facets=product_facets(n))


class SymmetricModel(NamedTuple):
    chamber: Cone                  # C, the distinguished maximal cone
    product_cone: Cone             # σ, rank n+1, the support of the orbit fan
    generators: tuple[Matrix, ...]  # g_k = ρ(s_k), which the certificates use
    base_point: IntVec             # y₀, the resolution polyhedron's vertex at C, doubled
    facets: tuple[Facet, ...]      # the resolution polyhedron's, in coordinates (y - y₀)/2
    recession: Cone                # its recession cone, the displayed dual of σ


def ambient_reflections(n: int) -> list[Matrix]:
    """Matrices of the simple reflections on Z^{n+1} = Z ⊕ Z^{n-1} ⊕ Z."""
    eye = [_unit(n + 1, i) for i in range(n + 1)]
    last = [e[:n - 1] + (1 if i == n else -1,) + e[n:] for i, e in enumerate(eye)]
    return [Matrix(swap(eye)) for swap in _swaps(n, n + 1)[1:]] + [Matrix(last)]


def chamber_cone(n: int) -> Cone:
    return Cone(n + 1, [tuple(int(i < k) for i in range(n)) + (0,) for k in range(1, n + 1)]
                + [_unit(n + 1, n)])


def _check_coxeter(gens: Sequence[Matrix]) -> None:
    """Raise unless the generators g_k = ρ(s_k) satisfy the Coxeter relations
    s_k² = 1, (s_k s_{k+1})³ = 1 and s_k s_l = s_l s_k for |k - l| >= 2,
    which present S_n, so that ρ is a homomorphism."""
    ident = Matrix.identity(gens[0].rows)
    for k, l in combinations_with_replacement(range(len(gens)), 2):
        order = 1 if l == k else 3 if l == k + 1 else 2
        if reduce(matmul, [gens[k] @ gens[l]] * order) != ident:
            raise AssertionError("generator matrices violate the Coxeter relations")


def _check_orbit_count(gens: Sequence[Matrix], y0: Sequence[int]) -> None:
    """Raise unless the g_kᵀ move y₀ through n! points, checked in int on
    the lifts ŷ = (y_1, ..., y_{n-1}, -Σ y_i) of the y with y_0 = y_n = 0, a
    linear bijection onto Σ = 0: for 0 < i < n, row i of g_k, g_kᵀe_i, has
    outer entries 0 and lifts to ê_i under the transposition (k, k+1), also
    for the last g_k, whose middle column is all -1.  So the g_kᵀ keep that
    plane and act on the lifts as the adjacent transpositions, which
    generate S_n.  y₀ must lie on it with a lift of distinct entries, as ŷ₀
    = (2i - n - 1)_i has, so its stabilizer is trivial and it has n! images."""
    n = len(y0) - 1
    lift = lambda y: tuple(y[1:n]) + (-sum(y[1:n]),)
    if y0[0] or y0[n] or len(set(lift(y0))) < n:
        raise AssertionError("the base point is off y_0 = y_n = 0 or its lift repeats an entry")
    for k, (swap, g) in enumerate(zip(_swaps(n, n), gens, strict=True)):
        if any(r[0] or r[n] or lift(r) != swap(lift(_unit(n + 1, i)))
               for i, r in enumerate(g.entries[1:n], 1)):
            raise AssertionError(f"g_{k}ᵀ does not act on the lifts as the swap of {k}, {k + 1}")


def _cayley_walk(n: int, moves: Sequence[Callable], start) -> dict:
    """{s: ρ(s)·start} for s in S_n as bytes, the identity first, from one
    move per generator g_k = ρ(s_k), ``moves[k]`` taking ρ(p)·start to
    g_k·ρ(p)·start.  With the Coxeter relations, which the callers check
    (``_check_coxeter``), ρ is a homomorphism and a walk of the Cayley graph
    from the identity reaches each s once, whatever the path: a step from p
    to q = s_k p is one move, and a coordinate swap of p's bytes."""
    swaps = [bytes.maketrans(bytes([k, k + 1]), bytes([k + 1, k])) for k in range(n - 1)]
    out = {bytes(range(n)): start}
    frontier = list(out)
    for p in frontier:  # the list grows as it is read: a breadth-first walk
        at = out[p]
        for swap, move in zip(swaps, moves):
            q = p.translate(swap)  # s_k p: the bytes k, k + 1 swapped
            if q not in out:
                out[q] = move(at)
                frontier.append(q)
    return out


def permutation_matrices(n: int, gens: list[Matrix]) -> dict[tuple[int, ...], Matrix]:
    """ρ(s) for all s in S_n, the identity's rows moved by ``_cayley_walk``
    with one ``left_action(g_k)`` per generator, once the Coxeter relations
    of the raw ``gens`` hold.  The symmetric model forms none of them; the
    tests read them."""
    _check_coxeter(gens)
    walk = _cayley_walk(n, [left_action(g) for g in gens], Matrix.identity(gens[0].rows).entries)
    return {tuple(s): Matrix(rows) for s, rows in walk.items()}


def product_cone_dual_columns(n: int) -> list[tuple[int, ...]]:
    """Displayed generators of the dual: (1, -u, 0) and (0, u, 1) for u in
    {0, e_1, ..., e_{n-1}}."""
    units = [(0,) * (n - 1)] + [_unit(n - 1, i) for i in range(n - 1)]
    return [(1,) + tuple(-x for x in u) + (0,) for u in units] + [(0,) + u + (1,) for u in units]


def product_cone_ambient(n: int) -> Cone:
    """σ, with rays (1; e_I; 0), (0; -e_I; 1) and facets the displayed
    ``product_cone_dual_columns``: the unimodular y = (x_i + x_n; x_0, x_n)
    maps σ onto the cone over Δ_1 × [0,1]^{n-1}, so ``_product_cone``
    checks the columns f, as g = (f_1..f_{n-1}; f_0, f_n - Σf_i) on y, and
    its rays (p; q) map back to (q_0; p_i - q_1; q_1)."""
    columns = product_cone_dual_columns(n)
    cube = _product_cone(1, n - 1, [f[1:n] + (f[0], f[n] - sum(f[1:n])) for f in columns])
    rays = sorted((q0,) + tuple(x - q1 for x in p) + (q1,) for *p, q0, q1 in cube.rays)
    return Cone(n + 1, _rays=tuple(rays), _lineality=(), _facets=tuple(sorted(columns)),
                _equations=())


def build_symmetric(n: int) -> SymmetricModel:
    """The symmetric model at y₀ = (0; 2i - n - 1; 0), the identity's vertex
    of the resolution polyhedron centred at the barycentre and doubled, with
    no pass over S_n: the g_k = ρ(s_k) satisfy the Coxeter relations, they
    move y₀ through n! points, the (0; 2s_i - n - 1; 0) of the permutations
    s, and ``orbit_certificate`` certifies at y₀ the rays ν of σ as the
    facets, with c_ν = -k(n - k), k the support of ν's middle block (the k
    least 2j - n - 1 sum to it), and σ^∨ as the recession cone, both read
    off σ's closed form (``product_cone_ambient``) with no double description."""
    if n < 2:
        raise ValueError("n must be >= 2")
    chamber, prod, gens = chamber_cone(n), product_cone_ambient(n), ambient_reflections(n)
    y0 = (0,) + tuple(range(1 - n, n - 1, 2)) + (0,)
    _check_coxeter(gens)
    _check_orbit_count(gens, y0)
    offsets = {nu: k * (k - n) for nu in prod.rays for k in [sum(map(abs, nu[1:-1]))]}
    facets, rec = orbit_certificate(y0, gens, offsets, prod.dual())
    return SymmetricModel(chamber, prod, tuple(gens), y0, facets, rec)


def symmetric_fan(sym: SymmetricModel) -> tuple[tuple, tuple]:
    """(the sorted facet normals, the n! cones ρ(s)·C as sorted indices among
    them, sorted), for ``build --object symmetric`` alone, from one
    ``_cayley_walk``: ρ(s)·C is d bytes that index its rays among the 2^n
    normals, and g_k moves it by one ``translate`` by its permutation of them
    (``orbit_certificate``'s (1)).  A ray of C or an image of a normal that is
    no normal raises, as does a C that is not pointed, full-dimensional and
    simplicial: so the sorted rays are all of ρ(s)·C's ``key()``."""
    gens, chamber = sym.generators, sym.chamber
    if len(gens) > 7:  # a byte indexes each of the 2^n facet normals
        raise ValueError(f"symmetric_fan supports n <= 8, not n={len(gens) + 1}")
    if chamber.lineality_basis or chamber.equations or len(chamber.rays) != chamber.ambient_rank:
        raise AssertionError("the chamber must be pointed, full-dimensional and simplicial")
    normals = tuple(sorted(nu for nu, _ in sym.facets))
    index, cols = {nu: i for i, nu in enumerate(normals)}, tuple(zip(*normals))
    pad = bytes(range(len(normals), 256))  # translate reads a table of 256 bytes

    def indices(vs, what: str) -> bytes:  # each vector's place among the normals
        try:
            return bytes(map(index.__getitem__, vs))
        except KeyError as miss:
            raise AssertionError(f"{what} {miss.args[0]} is not a facet normal") from None

    moves = [methodcaller("translate", indices(zip(*left_action(g)(cols)), f"g_{k}'s image") + pad)
             for k, g in enumerate(gens)]
    walk = _cayley_walk(len(gens) + 1, moves, indices(chamber.rays, "the chamber's ray"))
    return normals, tuple(sorted(bytes(sorted(c)) for c in walk.values()))


def permutohedron(sym: SymmetricModel) -> LatticePolyhedron:
    """The permutohedron for ``build``, with no walk.  The g_kᵀ act on the
    lifts as the swaps (k, k+1) (``_check_orbit_count``), so the orbit of y₀
    has the (y - y₀)/2 = (0; s_0 - 0, ..., s_{n-2} - (n-2); 0), s in the
    ``permutations`` of range(n), sorted and distinct as they are.  The
    permutohedron, these middle blocks, is certified at y₀'s under the g_k's,
    whose transposes move them as the g_kᵀ do, with c_ν = 2o_ν + <ν, y₀>."""
    gens, y0 = sym.generators, sym.base_point
    mid = [tuple(map(sub, s, range(len(gens)))) for s in permutations(range(len(gens) + 1))]
    offsets = {nu[1:-1]: 2 * o + dot(nu, y0) for nu, o in sym.facets if any(nu[1:-1])}
    facets, rec = orbit_certificate(y0[1:-1], [Matrix([r[1:-1] for r in g.entries[1:-1]])
                                               for g in gens], offsets, None)
    return LatticePolyhedron(len(gens), mid, rec, facets, _canonical=True)


def symmetric_polyhedra(sym: SymmetricModel) -> tuple[LatticePolyhedron, LatticePolyhedron]:
    """(the permutohedron, the resolution polyhedron) for ``build --object
    symmetric``: the model's facets with the (y - y₀)/2, the permutohedron's
    rows as (0; v; 0), in its order.  ``build`` relies on this fact, stated
    here, to encode each row once, for both (``jsonio.padded_polyhedra_text``)."""
    perm = permutohedron(sym)
    return perm, LatticePolyhedron(len(sym.base_point),
                                   [(0,) + v + (0,) for v in perm.vertex_candidates],
                                   sym.recession, sym.facets, _canonical=True)


# ---------------------------------------------------------------------------
# verification checks

# Only the symmetric model, π and P_b, each read by two or three checks (π
# also by Q'), are memoised per n, by these private accessors; the builders
# stay plain functions, which the tracer in perfbench/ wraps.  Every other
# datum is built by the one check that reads it and freed when that check ends.


@cache
def _symmetric(n: int) -> SymmetricModel:
    return build_symmetric(n)


_pi = cache(projection_matrix)


@cache
def _pb(n: int) -> tuple[tuple[int, ...], int, Callable[[Sequence[int]], int]]:
    """P_b = conv(chart vertices) ∩ {α x = -b} of the product in int, read
    by ``pb_vertices`` and ``unstable_locus``: h·w_id, its vertex on the
    identity's chain C = (e_1; 0), (e_12; 0), ..., h and its support
    function.  Row i of α·L reads cube block i with coefficient -1, so
    ``cube_image_slice`` cuts P_b from the n^2-cube as a sum of hypersimplex
    slices, a generalized permutohedron (Postnikov, IMRN 2009): the n!
    braid chambers σ·C, with the lineality (1^n; 0) and (0; e_j), cover the
    space, each in one vertex's normal cone.  The certificate runs at C
    alone.  The head swaps P_k map P_b and L(cube) ∩ {α x = -b} onto
    themselves and τ_k permutes the chart corners (``_head_swaps``), so the
    certificate holds at σ·C, whose normals are the P_σ·ν: its unique argmin
    is P_σ·w_id, the normals are tight there, and the face through its
    preimage is τ_σ of the one at C, a chart corner's.  So P_b's vertices are
    the orbit of w_id under the P_σ (the orbit reduction of Bödi, Herr &
    Joswig, Math. Program. 137, 2013), with no chart corner listed and no
    double description; a failed check is an error report."""
    lin, L, pairs = product_linearization(n), product_cube_map(n), chart_pairs(n)
    lineality = _head_swaps(n, L, lin.alpha, pairs)
    chamber = [tuple(int(j < k) for j in range(n)) + (0,) * (n + 1) for k in range(1, n)]
    return cube_image_slice(L, lin.alpha, [-x for x in lin.b], chamber, lineality, pairs)


class VerifyReport(NamedTuple):
    check: str
    n: int
    status: str            # "pass" | "fail" | "error"
    witness: Any = None
    elapsed_ms: float = 0.0


def _strs(v: Sequence[int], den: int) -> list[str]:
    """The coordinates of v / den as witness strings."""
    return [str(Fraction(x, den)) for x in v]


def _check_conical_part(n: int) -> tuple[bool, Any]:
    """π maps the product cone onto σ, decided in int at the (n+1)² orbit
    representatives r (``_orbit_rays``): once π·P_k = g_k·π, a ray P_w·r
    maps to g_w·π(r), so if the nonzero primitive π(r) are C's rays, which
    are T (``_chamber_off_base_point``), the images are σ's rays by
    ``orbit_certificate``'s (1) and (4).  At n = 1 the four rays are the
    representatives.  On a mismatch the image cone decides and is the witness."""
    pi, cols = _pi(n), list(zip(*_orbit_rays(n)))
    if n == 1:
        sigma = product_cone_ambient(1)
        gens, target, off_y0 = (), sigma.rays, None
    else:
        sym = _symmetric(n)
        sigma, gens, target = sym.product_cone, sym.generators, sym.chamber.rays
        off_y0 = _chamber_off_base_point(sym)
    images = zip(*(column_dots(row, cols, len(cols[0])) for row in pi.entries))
    if (off_y0 is not None or {primitive(v) for v in images if any(v)} != set(target)
            or _intertwining_break(pi.entries, _swaps(n, 2 * n + 1),
                                   [left_action(g) for g in gens]) is not None):
        img = image_cone(pi, _product_cone(n, n, product_rec_dual_columns(n)))
        if img != sigma:
            return False, {"got": [list(r) for r in img.rays],
                           "expected": [list(r) for r in sigma.rays]}
    return True, {"rays": len(sigma.rays)}


def _check_pb_vertices(n: int) -> tuple[bool, Any]:
    """P_b's vertices, the orbit of w_id (``_pb``), are the m_s, the orbit of
    m_id, iff w_id = m_id; n! of them, as m_id's head entries differ: the
    closed form ``head_vertex`` steps by n + 2, and ``identity_slice_vertex``
    checks the m_id computed from the definition against it."""
    w, h, _ = _pb(n)  # h·w_id, against the closed form (n+1)·m_id
    if tuple((n + 1) * x for x in w) != tuple(h * x for x in identity_slice_vertex(n)):
        return False, {"unexpected": [_strs(w, h)]}
    return True, {"vertices": factorial(n)}


def _check_quotient_theorem(n: int) -> tuple[bool, Any]:
    """(n+1)/(n+2)·Q'(m_s - u, 0) are the resolution polyhedron's vertices,
    decided on the generators.  Let φ(z) = Q'·(z - U; 0) on the heads z of
    the (n+1)·m_s, U = (n+1)·u, and ψ(y) = (n+2)(y - y₀)/2 on the doubled,
    centred points y, whose ψ(y)/(n+2) are the vertices.  If Q'·P_k =
    g_kᵀ·Q' and Q'·(π_k U - U; 0) = ψ(g_kᵀy₀), π_k the head swap, then
    φ(π_k z) = g_kᵀφ(z) + ψ(g_kᵀy₀), and ψ(g_kᵀy) = g_kᵀψ(y) + ψ(g_kᵀy₀).
    As φ(U) = 0 = ψ(y₀), φ maps the heads of the m_s, the π-orbit of U, word
    by word onto ψ of the orbit of y₀, n! points (``build_symmetric``): no
    vertex list."""
    sym, q, u = _symmetric(n), basis_change_matrix(n), head_vertex(n) + (0,)
    at_id = q @ list(map(sub, identity_slice_vertex(n)[:n] + (0,), u))
    if any(at_id):
        return False, {"identity_image": _strs(at_id, n + 2)}
    swaps, gts, y0 = _swaps(n, n + 1), [g.transpose() for g in sym.generators], sym.base_point
    if (k := _intertwining_break(q.entries, swaps, list(map(left_action, gts)))) is not None:
        return False, {"generator": k, "linear_part": [list(r) for r in q.entries]}
    for k, (swap, gt) in enumerate(zip(swaps, gts)):  # the P_k and the g_kᵀ
        step = q @ list(map(sub, swap(u), u))
        want = [(n + 2) * (a - b) for a, b in zip(gt @ y0, y0)]
        if [2 * x for x in step] != want:
            return False, {"generator": k, "translation": _strs(step, n + 2),
                           "expected": _strs(want, 2 * n + 4)}
    return True, {"vertices": factorial(n)}


def _chamber_off_base_point(sym: SymmetricModel) -> dict | None:
    """The witness that C's rays are not T, the facets at y₀, else None."""
    rays = [list(r) for r in sym.chamber.rays]
    at_y0 = sorted(list(nu) for nu, o in sym.facets if o == 0)
    return None if at_y0 == rays else {"facets_at_base_point": at_y0, "chamber_rays": rays}


def _check_normal_fan(n: int) -> tuple[bool, Any]:
    """The normal fan of the resolution polyhedron P is the orbit fan,
    decided at C.  ``orbit_certificate`` certified that the g_k permute P's
    facets with invariant offsets and that y₀, the origin of P's coordinates
    (y - y₀)/2, is a simple vertex on the facets T of offset 0, so each of
    the n! vertices ρ(s)⁻ᵀy₀ (``build_symmetric``) is on exactly ρ(s)T, as
    <ρ(s)ν, ρ(s)⁻ᵀy₀> = <ν, y₀>: if T is C's rays, its normal cone cone(ρ(s)T)
    is ρ(s)·C (Ziegler, §7.1).  The support is rec(P)^∨, rec(P) the displayed dual of σ."""
    sym = _symmetric(n)
    if witness := _chamber_off_base_point(sym):
        return False, witness
    if sym.recession.dual() != sym.product_cone:
        return False, {"support": [list(r) for r in sym.recession.dual().rays]}
    return True, {"maximal_cones": factorial(n)}


def _check_unstable_locus(n: int) -> tuple[bool, Any]:
    """Each orbit (k, j)'s d_v and margin at its representative (``_orbit_offsets``,
    by ``_pb``'s ``_head_swaps``) against d = -(n - j)k and m / 2(n+1), k = |I|,
    once; each ray (e_I; e_j)'s row is written from (I, j) and its orbit's cell."""
    _, h, support = _pb(n)
    reps, den = _orbit_rays(n), 2 * (n + 1)
    offsets = _orbit_offsets(n, product_cube_map(n))
    cells = {}  # (k, j): (whether it passes, its row's values, the expected ones)
    for rd in unstable_rays([(v, offsets[key]) for v, key in reps.items()], support, h):
        (k, j), dv, mv = reps[rd.ray], rd.support_constant, rd.margin
        d, m = -(n - j) * k, (j - k) * ((j - k) * n + n - 2 * k)
        cells[k, j] = (dv == d and mv * den == m and mv >= 0 and (mv == 0) == (j == k)
                       and rd.unstable == (j != k),
                       {"d": str(dv), "margin": str(mv), "unstable": rd.unstable},
                       {"d": str(d), "margin": str(Fraction(m, den))})
    heads = [[i + 1 for i, x in enumerate(e) if x] for e in product((0, 1), repeat=n)]
    rows = []  # (I, j) in the product rays' order: each head e_I, then j = n..0
    for I, j in product(heads, range(n, -1, -1)):
        ok, got, want = cells[len(I), j]
        rows.append({"I": I, "j": j, **got})
        if not ok:
            return False, {"ray": rows[-1], "expected": want}
    return True, {"rays": rows}


def _check_base_recovery(n: int) -> tuple[bool, Any]:
    b = build_bundle(n)
    q = quotient_polyhedron(b.family_polyhedron, b.lin_family)
    if q.is_empty():
        return False, {"error": "empty quotient"}
    if len(q.vertex_candidates) != 1:
        return False, {"vertices": [list(map(str, v)) for v in q.vertex_candidates]}
    rec = q.recession
    ok = (q.ambient_rank == 2 and rec.is_pointed() and len(rec.rays) == 2
          and rec.dim() == 2 and rec.is_smooth())
    return ok, {"recession_rays": [list(r) for r in rec.rays]}


def _check_fan_smooth_small(n: int) -> tuple[bool, Any]:
    """Decided at C: the orbit fan is smooth, as ρ(s)·C is when C and the g_k
    are unimodular, and once C's rays are T (``_chamber_off_base_point``) its
    rays are the 2^n facet normals (``orbit_certificate``'s (1), (4)), on ∂σ:
    one ``column_dots`` pass per equation and facet of σ over all the normals."""
    sym = _symmetric(n)
    if not sym.chamber.is_smooth():
        return False, {"non_smooth_cone": [list(r) for r in sym.chamber.rays]}
    if any(abs_det(g.entries) != 1 for g in sym.generators):
        return False, {"generator_abs_dets": [abs_det(g.entries) for g in sym.generators]}
    if witness := _chamber_off_base_point(sym):
        return False, witness
    sigma, normals = sym.product_cone, [nu for nu, _ in sym.facets]
    cols, k = list(zip(*normals)), len(sigma.equations)
    rows = [column_dots(f, cols, len(normals)) for f in sigma.equations + sigma.facets]
    for r, *vals in zip(normals, *rows):  # σ's equations, then its facets, at r
        if any(vals[:k]) or min(vals[k:], default=0) < 0:
            return False, {"ray_outside": list(r)}
        if min(vals[k:], default=1) > 0:
            return False, {"ray_in_relative_interior": list(r)}
    return True, {"rays": len(sym.facets), "maximal_cones": factorial(n)}


_CHECK_FUNCS = {
    "conical_part": (_check_conical_part, 1),
    "pb_vertices": (_check_pb_vertices, 1),
    "quotient_theorem": (_check_quotient_theorem, 2),
    "normal_fan": (_check_normal_fan, 2),
    "unstable_locus": (_check_unstable_locus, 1),
    "base_recovery": (_check_base_recovery, 1),
    "fan_smooth_small": (_check_fan_smooth_small, 2),
}
VERIFY_CHECKS = tuple(_CHECK_FUNCS)


def checks_for(n: int, check: str | None = None) -> list[str]:
    """The verify checks that run at this n, or [check]: the one place that
    decides check names, each check's least n and ``VERIFY_MAX_N``, and
    raises ValueError on a pair that does not run."""
    if check is not None and check not in _CHECK_FUNCS:
        raise ValueError(f"unknown check {check!r}; choose from {', '.join(VERIFY_CHECKS)}")
    names = VERIFY_CHECKS if check is None else (check,)
    lo = min(_CHECK_FUNCS[name][1] for name in names)
    if not lo <= n <= VERIFY_MAX_N:
        what = "verify" if check is None else f"check {check}"
        raise ValueError(f"{what} supports {lo} <= n <= {VERIFY_MAX_N}, not n={n}")
    return [name for name in names if _CHECK_FUNCS[name][1] <= n]


def run_check(check: str, n: int, func: Callable[[int], tuple[bool, Any]]) -> VerifyReport:
    """func(n) as a timed report: (True, summary) passes, (False, witness)
    fails, and an exception becomes an error report, not a crash."""
    t0 = time.perf_counter()
    try:
        ok, witness = func(n)
        status = "pass" if ok else "fail"
    except Exception as exc:  # a crashed check is an error report, not a crash
        status, witness = "error", {"exception": repr(exc)}
    ms = (time.perf_counter() - t0) * 1000.0
    return VerifyReport(check=check, n=n, status=status, witness=witness, elapsed_ms=ms)


def verify(n: int, check: str) -> VerifyReport:
    """Run one named check; PASS carries canonical summary data, FAIL a witness."""
    checks_for(n, check)
    return run_check(check, n, _CHECK_FUNCS[check][0])
