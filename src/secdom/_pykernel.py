"""Pure-Python search engine over bitmask adjacency: one level scan
(`first_subset`) for dom, 2dom and 2-SDS, and one defence scan
(`first_undefended`) for the 2-SDS test and the verifier's certificates.

`solve_level` mirrors `_kernel.pyx`; it is the fallback selected at import
time when the extension is unavailable, and the benchmark's reference.
Masks are plain ints, so there is no vertex-count limit.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Optional, Sequence


def dominates(masks: Sequence[int], smask: int, full: int) -> bool:
    """True iff the union of closed neighborhoods over `smask` covers `full`."""
    covered = 0
    m = smask
    while m:
        low = m & -m
        covered |= masks[low.bit_length() - 1]
        m ^= low
    return covered & full == full


def first_subset(
    masks: Sequence[int],
    k: int,
    accept: Optional[Callable[[Sequence[int], int], bool]] = None,
) -> tuple[Optional[tuple[int, ...]], int]:
    """First k-subset in lex order that dominates and passes `accept(masks,
    smask)` (if given), or None, with the k-combinations examined up to it.
    k = 0 examines the empty set once."""
    full = (1 << len(masks)) - 1
    examined = 0
    for combo in combinations(range(len(masks)), k):
        examined += 1
        smask = 0
        covered = 0
        for v in combo:
            smask |= 1 << v
            covered |= masks[v]
        if covered & full == full and (accept is None or accept(masks, smask)):
            return combo, examined
    return None, examined


def first_undefended(
    masks: Sequence[int],
    smask: int,
    table: Optional[dict[tuple[int, int], tuple[int, int]]] = None,
) -> Optional[tuple[int, int]]:
    """First attack pair (u1 < u2, lex order) that S = `smask` cannot
    defend, or None.  Defenders are distinct v1 in N[u1], v2 in N[u2], both
    in S, whose swap (S - {v1,v2}) + {u1,u2} still dominates.  A dict
    `table` receives each defended pair's lex-least ordered defender pair."""
    n = len(masks)
    full = (1 << n) - 1
    for u1 in range(n):
        cand1 = masks[u1] & smask
        for u2 in range(u1 + 1, n):
            cand2 = masks[u2] & smask
            attack = (1 << u1) | (1 << u2)
            ok = False
            c1 = cand1
            while c1 and not ok:
                b1 = c1 & -c1
                c1 ^= b1
                c2 = cand2 & ~b1
                while c2:
                    b2 = c2 & -c2
                    c2 ^= b2
                    swapped = (smask & ~(b1 | b2)) | attack
                    if dominates(masks, swapped, full):
                        ok = True
                        break
            if not ok:
                return u1, u2
            if table is not None:
                table[(u1, u2)] = (b1.bit_length() - 1, b2.bit_length() - 1)
    return None


def solve_level(
    masks: Sequence[int], k: int
) -> tuple[Optional[tuple[int, ...]], int]:
    """First k-subset (lex order) that is a 2-SDS, plus subsets examined.

    A level k <= 0 examines nothing, as in the compiled kernel.
    """
    if k <= 0:
        return None, 0
    return first_subset(masks, k, lambda m, s: first_undefended(m, s) is None)
