"""Pure-Python search engine over bitmask adjacency: one level scan
(`first_subset`) and its test per kind of set (`solve_level`: dom, 2dom or
2-SDS), one per-pair defence search (`defenders`), and one defence scan
(`first_undefended`) for the 2-SDS test and the verifier's certificates.

The level scan is a depth-first search over k-subsets in lex order.  It
covers incrementally, one OR per node, and abandons a prefix together with
every later sibling as soon as a vertex it leaves uncovered has its whole
closed neighbourhood at or below the last pick: no later pick can cover it.
Its count is a lex position, not a count of visited nodes, so it equals what
a flat scan of every k-combination would report.  It carries the layers of
the picks down its path, filled lazily, so its `accept` reads the layers of
a candidate in O(1).

The defence search tests a swap without rebuilding the swapped set.
`layers` sorts the vertices by how many members of S their closed
neighbourhood holds: none (`zero`), exactly one (`ex1`) or exactly two
(`ex2`).  The swap of (v1, v2) for the attack (u1, u2) dominates iff

    (zero | N[v1]&ex1 | N[v2]&ex1 | N[v1]&N[v2]&ex2) & ~(N[u1] | N[u2]) == 0

because a vertex w is left undominated iff it lies outside N[u1] | N[u2]
and N[w] & S is a subset of {v1, v2}: empty, one of them, or both.  The
layers are computed once per set and shared by every attack pair.  The
2-SDS test of `solve_level` retries every attack pair that failed at its
level before it scans every pair.

The C extension `_kernel.c` runs the algorithm of `solve_level` on uint64
masks; `kernel.solve_level` picks this module instead when the extension is
unavailable or the graph has more than 64 vertices, and the tests compare
the two.  Masks are plain ints, so there is no vertex-count limit.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Optional, Sequence

# The kinds of set of `solve_level` and the C kernel: dom, 2dom, 2-SDS.
DOM, TWO_DOM, TWO_SDS = 0, 1, 2


def examined(n: int, k: int, witness: Optional[Sequence[int]]) -> int:
    """The k-combinations a flat lex-order scan of range(n) examines up to
    `witness`: its 1-based lex position, where at each index i the
    combinations that agree before i and pick a smaller vertex at i come
    first; or all C(n, k) when there is none, which is 0 for k < 0."""
    if witness is None:
        return comb(n, k) if k >= 0 else 0
    position = 1
    prev = -1
    for i, c in enumerate(witness):
        position += comb(n - 1 - prev, k - i) - comb(n - c, k - i)
        prev = c
    return position


def first_subset(
    masks: Sequence[int],
    k: int,
    accept: Optional[Callable[[Sequence[int], int, int, int], bool]] = None,
) -> tuple[Optional[tuple[int, ...]], int]:
    """First k-subset in lex order that dominates and passes `accept(masks,
    smask, two, three)` (if given), or None, with the k-combinations examined
    up to it.  `smask` is the subset's mask, `two` and `three` the vertices
    with at least two and at least three of its members in their closed
    neighbourhood; at a dominating subset every vertex has at least one.

    A depth-first search in lex order: `need[j]` holds the vertices the first
    j picks leave uncovered, and `dead[p]` the vertices whose closed
    neighbourhood lies within 0..p.  A pick p that leaves a vertex of
    `dead[p]` uncovered ends its prefix and every later sibling, whose picks
    lie above p too.  The count is the witness's lex position, or C(n, k)
    when there is none: what scanning every k-combination in lex order up to
    the witness would count.  k = 0 examines the empty set once, k < 0 none.

    The first j picks' mask and layers are kept per depth, filled lazily:
    only a dominating leaf with an `accept` fills them, from the deepest
    depth still valid, and a push at depth j marks every deeper depth stale.
    The at-least-one layer of depth j is `full & ~need[j]`.  So the scans
    without `accept` (dom) pay one comparison per push, and `accept` gets its
    arguments in O(1) per leaf of an unchanged prefix.
    """
    n = len(masks)
    full = (1 << n) - 1
    if k <= 0 or k > n:
        if k == 0 and full == 0 and (accept is None or accept(masks, 0, 0, 0)):
            return (), 1
        return None, examined(n, k, None)
    dead = [0] * n
    for v, m in enumerate(masks):
        dead[m.bit_length() - 1] |= 1 << v
    for p in range(1, n):
        dead[p] |= dead[p - 1]
    last = k - 1
    picks = [0] * k
    need = [full] * k
    sets = [0] * k  # the mask of the first j picks, valid for j <= valid
    twos = [0] * k
    threes = [0] * k
    valid = 0
    j = p = 0
    while j >= 0:
        rest = need[j]
        if j == last:
            for q in range(p, n):
                unc = rest & ~masks[q]
                if not unc:
                    picks[j] = q
                    if accept is None:
                        return tuple(picks), examined(n, k, picks)
                    while valid < last:
                        nb = masks[picks[valid]]
                        sets[valid + 1] = sets[valid] | 1 << picks[valid]
                        threes[valid + 1] = threes[valid] | twos[valid] & nb
                        twos[valid + 1] = twos[valid] | ~need[valid] & nb
                        valid += 1
                    nb = masks[q]
                    two = twos[last]
                    if accept(
                        masks,
                        sets[last] | 1 << q,
                        two | ~rest & nb,
                        threes[last] | two & nb,
                    ):
                        return tuple(picks), examined(n, k, picks)
                elif unc & dead[q]:
                    break
        elif p < n - last + j:
            unc = rest & ~masks[p]
            if not unc & dead[p]:
                picks[j] = p
                need[j + 1] = unc
                if valid > j:
                    valid = j
                j += 1
                p += 1
                continue
        # depth j holds no live pick from p on: advance the parent's pick
        j -= 1
        p = picks[j] + 1
    return None, examined(n, k, None)


def layers(masks: Sequence[int], smask: int, full: int) -> tuple[int, int, int]:
    """(zero, ex1, ex2): the vertices with no, exactly one and exactly two
    members of S = `smask` in their closed neighbourhood."""
    one = two = three = 0
    m = smask
    while m:
        low = m & -m
        nb = masks[low.bit_length() - 1]
        three |= two & nb
        two |= one & nb
        one |= nb
        m ^= low
    return full & ~one, one & ~two, two & ~three


def defenders(
    masks: Sequence[int],
    smask: int,
    u1: int,
    u2: int,
    full: int,
    layered: Optional[tuple[int, int, int]] = None,
) -> Optional[tuple[int, int]]:
    """Lex-least ordered defender pair of S = `smask` against the attack
    (u1, u2), or None: distinct v1 in N[u1], v2 in N[u2], both in S, whose
    swap (S - {v1,v2}) + {u1,u2} still dominates.  `layered` is
    `layers(masks, smask, full)`, computed here when not given.

    The swap test: with out = V - (N[u1] | N[u2]), the swap dominates iff
    (zero | N[v1]&ex1 | N[v2]&ex1 | N[v1]&N[v2]&ex2) & out == 0.  Proof: the
    swapped set dominates w iff w is in N[u1] | N[u2] or N[w] & S is not a
    subset of {v1, v2}.  With v1, v2 in S, that subset is empty (w in zero),
    {v1} or {v2} (w in ex1 and N[v1] or N[v2]), or {v1, v2} (w in ex2 and
    both), since w is in N[v] iff v is in N[w].  So a pair whose `zero &
    out` is nonzero has no defender, nor does a v1 with a private neighbour
    (N[v1] & ex1) in out.
    """
    zero, ex1, ex2 = layered or layers(masks, smask, full)
    out = full & ~(masks[u1] | masks[u2])
    if zero & out:
        return None
    cand1 = masks[u1] & smask
    cand2 = masks[u2] & smask
    while cand1:
        b1 = cand1 & -cand1
        cand1 ^= b1
        n1 = masks[b1.bit_length() - 1]
        if n1 & ex1 & out:
            continue  # a private neighbour of v1 in out: no v2 helps
        bad = (ex1 | (n1 & ex2)) & out  # what N[v2] must miss
        c2 = cand2 & ~b1
        while c2:
            b2 = c2 & -c2
            c2 ^= b2
            if not masks[b2.bit_length() - 1] & bad:
                return b1.bit_length() - 1, b2.bit_length() - 1
    return None


def first_undefended(
    masks: Sequence[int],
    smask: int,
    table: Optional[dict[tuple[int, int], tuple[int, int]]] = None,
    layered: Optional[tuple[int, int, int]] = None,
) -> Optional[tuple[int, int]]:
    """First attack pair (u1 < u2, lex order) that S = `smask` cannot
    defend, or None.  A dict `table` receives each defended pair's
    lex-least ordered defender pair.

    The layers of S are computed once per scan (or taken from `layered`),
    and every pair shares them: a swap of (v1, v2) for (u1, u2) dominates iff
    (zero | N[v1]&ex1 | N[v2]&ex1 | N[v1]&N[v2]&ex2) & ~(N[u1] | N[u2]) == 0,
    since a vertex is left undominated iff it lies outside N[u1] | N[u2]
    and its members of S are among v1 and v2 (proof in `defenders`)."""
    n = len(masks)
    full = (1 << n) - 1
    if layered is None:
        layered = layers(masks, smask, full)
    for u1 in range(n):
        for u2 in range(u1 + 1, n):
            pair = defenders(masks, smask, u1, u2, full, layered)
            if pair is None:
                return u1, u2
            if table is not None:
                table[(u1, u2)] = pair
    return None


def solve_level(
    masks: Sequence[int], k: int, kind: int
) -> tuple[Optional[tuple[int, ...]], int]:
    """First k-subset (lex order) of `kind` (DOM, TWO_DOM or TWO_SDS), plus
    the k-combinations examined.  Every such set dominates, so each level is
    one `first_subset` scan, whose `accept` is built for its kind alone.

    D 2-dominates iff every vertex is in D or has two members of D in its
    closed neighbourhood, since N[v] & D = N(v) & D for v outside D: one OR
    with the scan's at-least-two layer.

    The 2-SDS test reads the layers of the candidate from `first_subset`:
    a dominating S has no `zero` vertex, `ex1 = full & ~two` and `ex2 = two &
    ~three`.  It first retries, most recent first, every attack pair that a
    full scan found undefended at this level, moving a pair that defeats the
    candidate to the front, and scans every pair only when none does.  A
    full scan never returns a pair of the list, since the candidate defends
    those, so the list holds distinct pairs and grows only by full scans.
    """
    full = (1 << len(masks)) - 1
    if kind == DOM:
        return first_subset(masks, k)
    if kind == TWO_DOM:
        def two_dominates(masks: Sequence[int], dmask: int, two: int, _: int) -> bool:
            return (dmask | two) == full

        return first_subset(masks, k, two_dominates)
    if kind != TWO_SDS:
        raise ValueError(f"unknown level-scan kind {kind!r}")
    failed: list[tuple[int, int]] = []

    def is_2sds(masks: Sequence[int], smask: int, two: int, three: int) -> bool:
        layered = (0, full & ~two, two & ~three)
        for i, pair in enumerate(failed):
            if defenders(masks, smask, *pair, full, layered) is None:
                if i:
                    del failed[i]
                    failed.insert(0, pair)
                return False
        pair = first_undefended(masks, smask, None, layered)
        if pair is None:
            return True
        failed.insert(0, pair)
        return False

    return first_subset(masks, k, is_2sds)
