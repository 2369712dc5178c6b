"""Pure-Python search kernel over bitmask adjacency.

Mirrors the compiled kernel in `_kernel.pyx`; this is the fallback selected at
import time when the extension is unavailable, and the reference the benchmark
compares against.  Masks are plain ints, so there is no vertex-count limit.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional, Sequence


def dominates(masks: Sequence[int], smask: int, full: int) -> bool:
    """True iff the union of closed neighborhoods over `smask` covers `full`."""
    covered = 0
    m = smask
    while m:
        low = m & -m
        covered |= masks[low.bit_length() - 1]
        m ^= low
    return covered & full == full


def is_2sds(masks: Sequence[int], n: int, smask: int) -> bool:
    """Check the pair-defense condition for a dominating set `smask`.

    For every unordered attack pair (u1,u2) there must be distinct defenders
    v1 in N[u1], v2 in N[u2], both in S, whose swap-out leaves a dominating
    set.  Early-exits on the first found defender pair per attack.
    """
    full = (1 << n) - 1
    for u1 in range(n):
        cand1 = masks[u1] & smask
        if cand1 == 0:
            return False
        for u2 in range(u1 + 1, n):
            cand2 = masks[u2] & smask
            if cand2 == 0:
                return False
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
                return False
    return True


def solve_level(
    masks: Sequence[int], k: int
) -> tuple[Optional[tuple[int, ...]], int]:
    """Scan all k-subsets in lexicographic order for a 2-secure dominating set.

    Candidates failing the plain domination test are pruned before the pair
    check.  Returns (first valid subset or None, subsets examined); a level
    k <= 0 examines nothing, as in the compiled kernel.
    """
    if k <= 0:
        return None, 0
    n = len(masks)
    full = (1 << n) - 1
    examined = 0
    for combo in combinations(range(n), k):
        examined += 1
        smask = 0
        covered = 0
        for v in combo:
            smask |= 1 << v
            covered |= masks[v]
        if covered & full != full:
            continue
        if is_2sds(masks, n, smask):
            return combo, examined
    return None, examined
