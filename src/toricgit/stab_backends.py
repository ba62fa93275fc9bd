"""Exact fixed-point search over S_n for a quotient point.

``quotient_point`` builds the point in ``int`` from the slot rows, as prefix
sums over one common denominator; the search reads it as it is.  A
permutation fixes the point when slot labels match, the two end coordinates
f_0 and f_n are kept, and each consecutive slot ratio under the permutation
equals the chart coordinate f_k.  Every condition involves at most two
adjacent slots.  The slots fall into ratio classes, keyed by their
segment (the run of slots between two zero coordinates), their integer
prefix sum and their label; a nonzero f_k sends the image of one slot to one
class.  So ``search_stabilizer`` looks up the admissible images of a slot,
given the image of the slot before, when it visits the slot: one dict lookup
on the class key, built once from the ratio classes, and no table.
The ratio classes are also the blocks of the trivial-angle Young subgroup
Stab0: a trivial-angle element of the stabilizer keeps each slot in its
class, and one membership test per two consecutive slots of a class
certifies that every such permutation fixes the point.  The search then runs
depth first and only has to keep the images distinct, each in its slot's own
segment, increasing inside each class, and inside the class that takes the
class's images: it visits one representative per coset of Stab0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add, mul, sub
from typing import Callable, Sequence

from .groups import CosetUnion, Perm, YoungSubgroup


@dataclass(frozen=True)
class QuotientPoint:
    """A point of the quotient chart, in integer prefix data.

    f_0 and f_n are the end coordinates, f_1 .. f_{n-1} the consecutive-slot
    coordinates; index k of the prefix arrays is the number of initial
    coordinates summed, so the group-valued ratio of slots a < b (1-based) is
    prefix[b-1] - prefix[a-1] when zeros[a..b-1] has no entry, and the zero
    value otherwise.  Only whether f_0 and f_n vanish enters the search.
    """

    n: int
    denom: int                 # common root-part denominator D
    zero: tuple[bool, ...]     # length n+1: is f_k the zero value (k = 0..n)
    prefix_root: tuple[int, ...]   # length n: root-part prefix sums, times D, mod D
    prefix_gen: tuple[tuple[int, ...], ...]  # length n: generic prefix sums
    zero_count: tuple[int, ...]    # length n: zeros among f_1..f_k, the slot's segment
    a1_codes: tuple[int, ...]      # length n: interned slot labels


def quotient_point(slots: Sequence[tuple[int, int, tuple[int, ...], str]], denom: int,
                   first_zero: bool, last_zero: bool) -> QuotientPoint:
    """The point of the slot rows (component, root·denom, generic, a1 label).

    f_k for 0 < k < n is the position ratio of slots k and k+1: the zero value
    when a node separates them (they lie on different components), else the
    difference of their rows.  ``first_zero`` and ``last_zero`` say whether f_0
    and f_n vanish.  Everything stays in ``int``.
    """
    n = len(slots)
    zero = [first_zero]
    pr = [0]
    pg = [(0,) * len(slots[0][2])]
    zc = [0]
    for (la, ra, ga, _), (lb, rb, gb, _) in zip(slots, slots[1:]):
        node = la != lb
        zero.append(node)
        zc.append(zc[-1] + node)
        pr.append(pr[-1] if node else (pr[-1] + ra - rb) % denom)
        # one generic vector (one record's repeated slots share it) adds nothing
        pg.append(pg[-1] if node or ga is gb else tuple(map(sub, map(add, pg[-1], ga), gb)))
    zero.append(last_zero)
    labels = [s[3] for s in slots]
    codes = {label: k for k, label in enumerate(dict.fromkeys(labels))}
    a1 = tuple(map(codes.__getitem__, labels))
    return QuotientPoint(n=n, denom=denom, zero=tuple(zero), prefix_root=tuple(pr),
                         prefix_gen=tuple(pg), zero_count=tuple(zc), a1_codes=a1)


# perfbench reads these two in its run metadata; there is one search.
HAS_NUMBA = False


def resolve_backend() -> str:
    return "python"


def _image_lookup(q: QuotientPoint
                  ) -> tuple[Callable[[int, int], Sequence[int]], list[list[int]]]:
    """``images(i, a)``, the ascending admissible images of slot i when slot
    i-1 maps to a (a is not read at slot 0), and the ratio classes.

    Everything but distinctness is decided here: the a1 label, f_0 at slot 0,
    the ratio f_i between consecutive images, and f_n at the last slot.  A
    slot's ratio class is its key (segment, prefix, a1 label), where the
    segments are the runs of slots with no zero coordinate between them.  For
    a nonzero f_i, R(a, x) = f_i exactly when a and x share a segment and
    P[x] = P[a] + f_i, whichever of a, x is larger, so ``images(i, a)`` is the
    class of one key, found by one dict lookup.  For a zero f_i it is every
    slot with slot i's label in a later segment than a's.

    A key holds each generic prefix (of one width, else ValueError) as one int
    in the balanced base B = 6M + 3, M its largest entry's size (Kronecker
    substitution): a digit of P[a] + P[i] - P[i-1] is at most 3M < B/2 in size,
    so its int, the sum of three ints, is a slot's exactly when they are equal.
    """
    n, zero, denom = q.n, q.zero, q.denom
    zc, pr, a1 = q.zero_count, q.prefix_root, q.a1_codes
    widths = set(map(len, q.prefix_gen))
    if len(widths) != 1:
        raise ValueError("the generic prefixes must all have one width")
    base = 6 * max(map(abs, chain.from_iterable(q.prefix_gen)), default=0) + 3
    powers = [base ** k for k in range(widths.pop())]
    pg = [sum(map(mul, v, powers)) for v in q.prefix_gen]
    keys = list(zip(zc, pr, pg, a1))
    classes: dict[tuple, list[int]] = {}
    labelled: dict[int, list[int]] = {}
    for x, key in enumerate(keys):
        classes.setdefault(key, []).append(x)
        labelled.setdefault(a1[x], []).append(x)
    last = keys[n - 1]
    # f_n != 0 keeps the last slot's position: its image lies in its class
    last_fixed = not zero[n]

    def images(i: int, a: int) -> Sequence[int]:
        fixed_last = i == n - 1 and last_fixed
        if i and not zero[i]:
            key = (zc[a], (pr[a] + pr[i] - pr[i - 1]) % denom, pg[a] + pg[i] - pg[i - 1], a1[i])
            return () if fixed_last and key != last else classes.get(key, ())
        if not i and not zero[0]:
            return classes[keys[0]]
        pool = classes[last] if fixed_last else labelled[a1[i]]
        return [x for x in pool if zc[x] > zc[a]] if i else pool

    memo: dict[tuple[int, int], Sequence[int]] = {}

    def lookup(i: int, a: int) -> Sequence[int]:
        # computed when first asked for: the search returns to a slot many times
        got = memo.get((i, a))
        if got is None:
            got = memo[i, a] = images(i, a)
        return got

    return lookup, list(classes.values())


def _fixes(p: Perm, images) -> bool:
    """Membership of one permutation, read off the lookup (p[-1] is not read
    at slot 0)."""
    return all(p[i] in images(i, p[i - 1]) for i in range(len(p)))


def _young_of_classes(n: int, images, classes: list[list[int]]) -> YoungSubgroup:
    """Y, the Young subgroup of the ratio classes, certified inside Stab.

    The swaps of consecutive slots of a class generate its symmetric group,
    so one membership test per such swap, through the lookup, shows that
    every permutation keeping each slot in its class fixes the point (else
    ValueError).  The identity is tested once, if there is a swap; a swap of
    slots i < j then changes only the conditions at slots i, i+1, j and j+1,
    the only ones that read p[i] or p[j], so only those are tested again.
    The blocks of Y are the classes of size >= 2, in the order of their
    first slots.
    """
    swaps = [(i, j) for cls in classes for i, j in zip(cls, cls[1:])]
    t = list(range(n))
    ok = not swaps or _fixes(t, images)
    for i, j in swaps:
        t[i], t[j] = j, i
        ok = ok and all(t[s] in images(s, t[s - 1]) for s in {i, i + 1, j, j + 1} if s < n)
        t[i], t[j] = i, j
    if not ok:
        raise ValueError("ratio class permutations are not a Young subgroup")
    return YoungSubgroup(n, tuple(tuple(cls) for cls in classes if len(cls) >= 2))


def search_stabilizer(q: QuotientPoint) -> CosetUnion:
    """The permutations fixing the quotient point, as a union of cosets r∘Y.

    The point is read as ``quotient_point`` built it from the slot rows: its
    int prefix sums key the ratio classes, and its zero counts the segments.

    Y is the Young subgroup of the ratio classes, and it is the trivial-angle
    part Stab0 by construction.  An element of Stab whose slot ratios
    R(i, p(i)) are all 1 keeps the labels too, so it maps each slot into its
    own class: Stab0 lies in Y.  Conversely, ``_young_of_classes`` certifies
    that every permutation of Y fixes the point, and each is trivial-angle.
    So the stabilizer is a union of cosets r∘Y, and inside one coset the
    images of a class's slots come in every order.  The search keeps them
    increasing, so it visits one representative per coset, the
    lexicographically smallest element, and returns the representatives in
    lexicographic order (one-line notation).

    Two bounds cut the branches that cannot be completed.  A stabilizer
    element maps each segment into itself: a nonzero f_i keeps the images of
    slots i-1 and i in one segment, a zero one puts the image of slot i in a
    later segment, and there are as many segments as targets.  It also keeps
    slot labels and ratios, so it maps a class into one class; a slot takes
    an image x only if x's class has an unused slot above x for each later
    slot of its own class.  With both, the search's cost grows with the
    number of cosets, not with the order of the stabilizer, on trivial
    quotients too.  Whether Y is normal is for the caller to check.
    """
    n = q.n
    images, classes = _image_lookup(q)
    young = _young_of_classes(n, images, classes)
    prev = [-1] * n   # the slot before x in x's ratio class, or -1
    above: list[list[int]] = [[]] * n   # the slots of x's ratio class after x
    for cls in classes:
        for k, x in enumerate(cls):
            prev[x] = cls[k - 1] if k else -1
            above[x] = cls[k + 1:]
    zc = q.zero_count
    reps: list[Perm] = []
    used = [False] * n

    def extend(prefix: Perm, choices) -> None:
        i = len(prefix)
        lo = prefix[prev[i]] if prev[i] >= 0 else -1
        need = len(above[i])
        for x in choices:
            if x <= lo or used[x] or zc[x] != zc[i]:
                continue
            if need and sum(not used[y] for y in above[x]) < need:
                continue
            image = prefix + (x,)
            if i == n - 1:
                reps.append(image)
            else:
                used[x] = True
                extend(image, images(i + 1, x))
                used[x] = False

    extend((), images(0, -1))
    del extend  # it refers to itself: free it and the lookup's memo without the collector
    return CosetUnion(tuple(reps), young)
