"""Exact fixed-point search over S_n for an encoded quotient point.

A permutation fixes the point when slot labels match, the two end
coordinates f_0 and f_n are kept, and each consecutive slot ratio under the
permutation equals the chart coordinate f_k.  These are a handful of integer
comparisons against prefix sums of the encoded coordinates.  Every condition
involves at most two adjacent slots, so ``search_stabilizer`` tabulates the
admissible images of each slot once, given the image of the slot before, and
then runs a depth-first search that only has to keep the images distinct.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

Perm = tuple[int, ...]


@dataclass(frozen=True)
class EncodedPoint:
    """Integer encoding of a quotient point for the S_n search.

    f_1 .. f_{n-1} are the consecutive-slot coordinates; index k of the
    prefix arrays is the number of initial coordinates summed, so the
    group-valued ratio of slots a < b (1-based) is prefix[b-1] - prefix[a-1]
    when zeros[a..b-1] has no entry, and the zero value otherwise.
    """

    n: int
    denom: int                 # common root-part denominator D
    zero: tuple[bool, ...]     # length n+1: is f_k the zero value (k = 0..n)
    prefix_root: tuple[int, ...]   # length n: scaled root-part prefix sums
    prefix_gen: tuple[tuple[int, ...], ...]  # length n: generic prefix sums
    zero_count: tuple[int, ...]    # length n: zeros among f_1..f_k
    a1_codes: tuple[int, ...]      # length n: interned slot labels


def encode_point(n, values, a1_labels) -> EncodedPoint:
    """Encode UnitValue coordinates (f_0..f_n) into integer prefix data."""
    assert len(values) == n + 1 and len(a1_labels) == n
    denom = 1
    for v in values[1:n]:
        if not v.is_zero():
            denom = lcm(denom, v.root.denominator)
    m = 0
    for v in values:
        if not v.is_zero():
            m = max(m, len(v.generic))
    zero = tuple(v.is_zero() for v in values)
    pr = [0]
    pg = [tuple([0] * m)]
    zc = [0]
    for k in range(1, n):
        v = values[k]
        if v.is_zero():
            pr.append(pr[-1])
            pg.append(pg[-1])
            zc.append(zc[-1] + 1)
        else:
            r = v.root * denom
            assert r.denominator == 1
            pr.append((pr[-1] + int(r)) % denom)
            g = tuple(v.generic) + (0,) * (m - len(v.generic))
            pg.append(tuple(x + y for x, y in zip(pg[-1], g)))
            zc.append(zc[-1])
    codes = {}
    a1 = tuple(codes.setdefault(lbl, len(codes)) for lbl in a1_labels)
    return EncodedPoint(n=n, denom=denom, zero=zero, prefix_root=tuple(pr),
                        prefix_gen=tuple(pg), zero_count=tuple(zc), a1_codes=a1)


def unit_matches(enc: EncodedPoint, k: int, a: int, b: int) -> bool:
    """Does f_k equal the slot ratio R(a, b)?  Slots a, b are 0-based here."""
    lo, hi = (a, b) if a <= b else (b, a)
    nozero = enc.zero_count[hi] == enc.zero_count[lo]
    if enc.zero[k]:
        return a < b and not nozero
    if not nozero:
        return False
    sign = 1 if a <= b else -1
    dr = (sign * (enc.prefix_root[hi] - enc.prefix_root[lo])) % enc.denom
    # f_k's own encoding, recovered from the prefixes (f_k is not zero here)
    fr = (enc.prefix_root[k] - enc.prefix_root[k - 1]) % enc.denom
    fg = tuple(x - y for x, y in zip(enc.prefix_gen[k], enc.prefix_gen[k - 1]))
    dg = tuple(sign * (x - y) for x, y in zip(enc.prefix_gen[hi], enc.prefix_gen[lo]))
    return dr == fr and dg == fg


def ratio_is_one(enc: EncodedPoint, a: int, b: int) -> bool:
    """Is R(a, b) the unit 1?  (0-based slots; requires no zero in between.)"""
    lo, hi = (a, b) if a <= b else (b, a)
    if enc.zero_count[hi] != enc.zero_count[lo]:
        return False
    if (enc.prefix_root[hi] - enc.prefix_root[lo]) % enc.denom != 0:
        return False
    return enc.prefix_gen[hi] == enc.prefix_gen[lo]


def trivial_angle(enc: EncodedPoint, p: Perm) -> bool:
    """All forced slot ratios equal 1 (membership is assumed separately)."""
    return all(p[i] == i or ratio_is_one(enc, i, p[i]) for i in range(enc.n))


# perfbench reads these two in its run metadata; there is one search.
HAS_NUMBA = False


def resolve_backend() -> str:
    return "python"


def _image_tables(enc: EncodedPoint) -> tuple[list[int], list[list[list[int]]]]:
    """Ascending admissible images: ``first`` for slot 0, and ``follow[i][a]``
    for slot i >= 1 when slot i-1 maps to a (``follow[0]`` is unused).

    Everything but distinctness is decided here: the a1 label, f_0 at slot 0,
    the ratio f_i between consecutive images, and f_n at the last slot.
    """
    n = enc.n
    a1 = enc.a1_codes

    def fits(i: int, x: int) -> bool:
        if a1[x] != a1[i]:
            return False
        return i < n - 1 or enc.zero[n] or ratio_is_one(enc, x, n - 1)

    first = [x for x in range(n)
             if fits(0, x) and (enc.zero[0] or ratio_is_one(enc, 0, x))]
    follow = [[]] + [[[x for x in range(n) if fits(i, x) and unit_matches(enc, i, a, x)]
                      for a in range(n)]
                     for i in range(1, n)]
    return first, follow


def search_stabilizer(enc: EncodedPoint) -> list[Perm]:
    """All permutations fixing the encoded point, in lexicographic order
    (one-line notation)."""
    n = enc.n
    first, follow = _image_tables(enc)
    out: list[Perm] = []
    used = [False] * n

    def extend(prefix: Perm, choices: list[int]) -> None:
        i = len(prefix)
        for x in choices:
            if used[x]:
                continue
            image = prefix + (x,)
            if i == n - 1:
                out.append(image)
            else:
                used[x] = True
                extend(image, follow[i + 1][x])
                used[x] = False

    extend((), first)
    return out
