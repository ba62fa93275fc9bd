"""Finite abelian groups in invariant-factor form, Young subgroups, and the
quotient-group computation used by the stabilizer comparison."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from math import factorial, prod
from typing import Callable, Iterable, Iterator, Sequence

from .linalg import Matrix, divisor_chain, elementary_divisors

Perm = tuple[int, ...]


class NonabelianQuotientError(Exception):
    """Raised when a stabilizer quotient turns out nonabelian.

    The comparison theorem implies the quotient is abelian, but the
    computation does not assume it; a nonabelian quotient is reported as a
    distinguished failure instead of silently mis-decomposing."""


def compose(p: Perm, q: Perm) -> Perm:
    """(p ∘ q)(i) = p(q(i))."""
    return tuple(p[x] for x in q)


def identity(n: int) -> Perm:
    return tuple(range(n))


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, 0-based, each starting at its minimal element."""
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        out.append(tuple(cyc))
    return out


def cycle_notation(p: Perm) -> str:
    cs = cycles(p)
    if not cs:
        return "id"
    return "".join("(" + " ".join(str(x + 1) for x in c) + ")" for c in cs)


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Invariant-factor form: factors ascending with d_i | d_{i+1}."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.invariant_factors
        if any(f < 2 for f in fs):
            raise ValueError("invariant factors must be >= 2")
        if any(fs[i + 1] % fs[i] != 0 for i in range(len(fs) - 1)):
            raise ValueError("invariant factors must form a divisibility chain")

    @staticmethod
    def from_cyclic_orders(orders: Iterable[int]) -> "FiniteAbelianGroup":
        """The product of cyclic groups Z/m, one per order (``divisor_chain``)."""
        orders = tuple(orders)
        if any(m < 1 for m in orders):
            raise ValueError("cyclic order must be positive")
        return FiniteAbelianGroup(tuple(divisor_chain(orders)))

    def order(self) -> int:
        return prod(self.invariant_factors)


@dataclass(frozen=True)
class YoungSubgroup:
    """Product of full symmetric groups on the blocks of a set partition."""

    n: int
    blocks: tuple[tuple[int, ...], ...]  # 0-based, sorted, only blocks of size >= 2

    def order(self) -> int:
        return prod(factorial(len(b)) for b in self.blocks)

    def blocks_one_based(self) -> list[list[int]]:
        return [[x + 1 for x in b] for b in self.blocks]

    def elements(self) -> Iterator[Perm]:
        """Every element, one at a time."""
        for images in product(*(permutations(b) for b in self.blocks)):
            p = list(range(self.n))
            for b, img in zip(self.blocks, images):
                for i, x in zip(b, img):
                    p[i] = x
            yield tuple(p)


@dataclass(frozen=True)
class CosetUnion:
    """The permutations r∘h for r in ``reps`` and h in ``young``.

    ``reps`` holds one representative of each of distinct cosets r∘Y of the
    Young subgroup Y.  The union is sized and iterable like a set of
    permutations, but its elements are generated on demand, never stored.
    """

    reps: tuple[Perm, ...]
    young: YoungSubgroup

    def order(self) -> int:
        """The number of elements, exact at any size."""
        return len(self.reps) * self.young.order()

    def __len__(self) -> int:
        # len() cannot return more than sys.maxsize; order() can
        return self.order()

    def __iter__(self) -> Iterator[Perm]:
        for r in self.reps:
            for h in self.young.elements():
                yield compose(r, h)

    def first_in_cycle_notation_order(self, count: int) -> list[Perm]:
        """The ``count`` elements with the smallest ``cycle_notation``
        strings, in increasing string order.

        The strings are built token by token, with tokens tried in string
        order: inside a cycle a further label (" y") sorts before the closing
        ")", after a closed cycle the end of the string sorts before a new
        "(", and labels compare as digit strings ("10" < "2"), which is right
        because a label is always followed by " " or ")", both below every
        digit; "id" sorts after every "(".  A prefix fixes images p(a) = b,
        and the labels below the open cycle's first label that it has not
        written are fixed points.  p(a) = b is possible in the coset r∘Y iff b
        lies in r(B), B the block of a, independently for each pair, so a
        prefix is extended only while some coset meets all of its conditions.
        Every such prefix extends to an element, except a cycle "(m" whose m
        must be fixed, so the search backtracks only there and its cost grows
        with ``count``, not with the number of elements.  When ``count``
        covers every element, sorting them is cheaper.
        """
        if self.order() <= count:
            return sorted(self, key=cycle_notation)
        n = self.young.n
        order = sorted(range(n), key=lambda a: str(a + 1))
        # bit j of a mask stands for the label order[j]: the lowest bit set is
        # the smallest label string
        bit = [0] * n
        for j, a in enumerate(order):
            bit[a] = 1 << j
        below = [sum(bit[b] for b in range(a)) for a in range(n)]
        # per coset: r(B(a)) for each label a, the labels a in r(B(a)), and
        # the labels a with more than a in r(B(a))
        cosets = []
        for r in self.reps:
            allowed = [bit[x] for x in r]
            for b in self.young.blocks:
                mask = 0
                for i in b:
                    mask |= bit[r[i]]
                for i in b:
                    allowed[i] = mask
            cosets.append((allowed, sum(bit[a] for a in range(n) if allowed[a] & bit[a]),
                           sum(bit[a] for a in range(n) if allowed[a] != bit[a])))
        out: list[Perm] = []
        p = list(range(n))  # the images written so far; other labels are fixed

        def cycle(m: int, x: int, cands: list, free: int) -> bool:
            # the open cycle starts at m and has written x last; ``free`` holds
            # the labels neither written nor fixed, all of them above m.
            # Returns True once ``out`` is full.
            reach = 0
            for c in cands:
                reach |= c[0][x]
            reach &= free
            while reach:
                low = reach & -reach
                reach ^= low
                p[x] = order[low.bit_length() - 1]
                if cycle(m, p[x], [c for c in cands if c[0][x] & low], free ^ low):
                    return True
            if x != m:
                closing = [c for c in cands if c[0][x] & bit[m]]
                if closing:
                    p[x] = m
                    if any(free & ~c[1] == 0 for c in closing):
                        out.append(tuple(p))
                        if len(out) == count:
                            return True
                    if next_cycle(closing, free):
                        return True
            p[x] = x
            return False

        def next_cycle(cands: list, free: int) -> bool:
            rest = 0
            for c in cands:
                rest |= c[2]
            rest &= free
            while rest:
                low = rest & -rest
                rest ^= low
                m = order[low.bit_length() - 1]
                fixed = free & below[m]
                fits = [c for c in cands if fixed & ~c[1] == 0]
                if fits and cycle(m, m, fits, free & ~fixed & ~low):
                    return True
            return False

        full = (1 << n) - 1
        if count > 0 and not next_cycle(cosets, full) and \
                any(c[1] == full for c in cosets):
            out.append(tuple(range(n)))
        return out


def young_subgroup_of(perms: Sequence[Perm], n: int) -> YoungSubgroup:
    """The Young subgroup generated by a set of permutations, if it is one.

    Raises if the group generated by the orbits' symmetric groups differs in
    order from the given set (i.e. the set is not a full Young subgroup)."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i, x in enumerate(p):
            ri, rx = find(i), find(x)
            if ri != rx:
                parent[ri] = rx
    blocks: dict[int, list[int]] = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    bl = tuple(tuple(sorted(b)) for b in sorted(blocks.values()) if len(b) >= 2)
    yg = YoungSubgroup(n, bl)
    if yg.order() != len(set(perms)):
        raise ValueError("permutation set is not a Young subgroup")
    return yg


def abelian_invariant_factors_of_group(elements: Sequence, mul: Callable,
                                       ident) -> tuple[int, ...]:
    """Invariant factors of a finite abelian group given by its multiplication.

    Cohen, GTM 138, §2.4.  Walking the sorted elements, an element outside
    the span of the generators so far becomes the next generator g; the span
    is closed by table, with each element's exponent vector, so the whole
    table costs O(|Q|·k) multiplications for k generators.  g contributes
    the relation m·e_g − log(g^m) for the least m with g^m in the old span,
    and the Smith normal form of these relations gives the invariant factors.
    Commutativity is checked on generator pairs only: commuting generators
    span an abelian group, so a nonabelian input meets a non-commuting pair
    (NonabelianQuotientError).  Raises ValueError when the table does not
    cover exactly the given elements.
    """
    elems = sorted(elements)

    def padded(v, k: int) -> list[int]:
        return list(v) + [0] * (k - len(v))

    log = {ident: ()}  # element -> exponents over the generators so far
    gens: list = []
    relations: list[list[int]] = []
    for g in elems:
        if g in log:
            continue
        for h in gens:
            if mul(g, h) != mul(h, g):
                raise NonabelianQuotientError(f"non-commuting classes {h} and {g}")
        powers = [ident, g]
        while powers[-1] not in log:
            powers.append(mul(powers[-1], g))
        m = len(powers) - 1
        k = len(gens)
        relations.append([-x for x in padded(log[powers[m]], k)] + [m])
        for x, v in list(log.items()):
            v = tuple(padded(v, k))
            for j in range(1, m):
                log[mul(x, powers[j])] = v + (j,)
        gens.append(g)
    if log.keys() != set(elems):
        raise ValueError("the elements are not closed under the multiplication")
    factors = elementary_divisors(Matrix(padded(r, len(gens)) for r in relations))
    if prod(factors) != len(elems):
        raise AssertionError("invariant factor product must equal group order")
    return tuple(f for f in factors if f > 1)
