"""Pure-Python search engine over bitmask adjacency: one level scan
(`witness`, for dom, 2dom or 2-SDS), one coverage primitive (`layers`), one
per-pair defence search (`defenders`), and one defence scan
(`first_undefended`) for the 2-SDS test and the verifier's certificates.

`layers` is the coverage primitive that secure and domination share outside
the level scan, which keeps the same `one`/`two` recurrence down its path:
the domination checkers, the verifier, the dominating-set patch rules and the
defence search read it on the graph's own closed-neighbourhood masks.

The level scan is a depth-first search over k-subsets in lex order.  It
covers incrementally, one OR per node, and abandons a prefix together with
every later sibling as soon as a vertex it leaves uncovered has its whole
closed neighbourhood at or below the last pick: no later pick can cover it.
It carries the layers of the picks down its path, filled lazily, so the test
of its kind reads the layers of a dominating leaf in O(1).

The defence search tests a swap without rebuilding the swapped set.
`layers` sorts the vertices by how many members of S their closed
neighbourhood holds: none (`zero`), exactly one (`ex1`) or exactly two
(`ex2`).  The swap of (v1, v2) for the attack (u1, u2) dominates iff

    (zero | N[v1]&ex1 | N[v2]&ex1 | N[v1]&N[v2]&ex2) & ~(N[u1] | N[u2]) == 0

because a vertex w is left undominated iff it lies outside N[u1] | N[u2]
and N[w] & S is a subset of {v1, v2}: empty, one of them, or both.  The
layers are computed once per set and shared by every attack pair.  The
2-SDS test of `witness` retries every attack pair that failed at its level
before it scans every pair.

The C extension `_kernel.c` exports the same `witness(masks, k, kind)` on
uint64 masks; `kernel.solve_level` picks this module instead when the
extension is unavailable or the graph has more than 64 vertices, and counts
the k-combinations examined for either.  Masks are plain ints, so there is
no vertex-count limit.
"""

from __future__ import annotations

from typing import Optional, Sequence

# The kinds of set of `witness` and the C kernel: dom, 2dom, 2-SDS.
DOM, TWO_DOM, TWO_SDS = 0, 1, 2


def witness(masks: Sequence[int], k: int, kind: int) -> Optional[tuple[int, ...]]:
    """Lex-least k-subset of range(len(masks)) that is a set of `kind` (DOM,
    TWO_DOM or TWO_SDS) of the graph with closed-neighbourhood bitmasks
    `masks`, or None.  Every such set dominates, so the test of `kind` runs
    only at a dominating leaf.  The empty set is of every kind on the empty
    graph and of none on any other.

    A depth-first search in lex order: `need[j]` holds the vertices the first
    j picks leave uncovered, and `dead[p]` the vertices whose closed
    neighbourhood lies within 0..p.  A pick p that leaves a vertex of
    `dead[p]` uncovered ends its prefix and every later sibling, whose picks
    lie above p too.

    The first j picks' mask and the vertices with at least two and at least
    three picks in their closed neighbourhood are kept per depth, filled
    lazily: only a dominating leaf of TWO_DOM or TWO_SDS fills them, from the
    deepest depth still valid, and a push at depth j marks every deeper depth
    stale.  The at-least-one layer of depth j is `full & ~need[j]`.  So the
    dom scans pay one comparison per push, and the test gets the layers in
    O(1) per leaf of an unchanged prefix.

    D 2-dominates iff every vertex is in D or has two members of D in its
    closed neighbourhood, since N[v] & D = N(v) & D for v outside D: one OR
    with the at-least-two layer.  The 2-SDS test is `_is_2sds`.
    """
    if kind not in (DOM, TWO_DOM, TWO_SDS):
        raise ValueError(f"unknown level-scan kind {kind!r}")
    n = len(masks)
    full = (1 << n) - 1
    if k <= 0 or k > n:
        return () if k == 0 and full == 0 else None
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
    failed: list[tuple[int, int]] = []  # for TWO_SDS, see `_is_2sds`
    j = p = 0
    while j >= 0:
        rest = need[j]
        if j == last:
            for q in range(p, n):
                unc = rest & ~masks[q]
                if not unc:
                    picks[j] = q
                    if kind == DOM:
                        return tuple(picks)
                    while valid < last:
                        nb = masks[picks[valid]]
                        sets[valid + 1] = sets[valid] | 1 << picks[valid]
                        threes[valid + 1] = threes[valid] | twos[valid] & nb
                        twos[valid + 1] = twos[valid] | ~need[valid] & nb
                        valid += 1
                    nb = masks[q]
                    smask = sets[last] | 1 << q
                    two = twos[last] | ~rest & nb
                    if kind == TWO_DOM:
                        if (smask | two) == full:
                            return tuple(picks)
                    elif _is_2sds(
                        masks,
                        smask,
                        full,
                        (0, full & ~two, two & ~(threes[last] | twos[last] & nb)),
                        failed,
                    ):
                        return tuple(picks)
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
    return None


def _is_2sds(
    masks: Sequence[int],
    smask: int,
    full: int,
    layered: tuple[int, int, int],
    failed: list[tuple[int, int]],
) -> bool:
    """Whether the dominating set S = `smask` is a 2-SDS.  `layered` is
    `layers(masks, smask, full)`, which the level scan gives as (0, full &
    ~two, two & ~three), since a dominating S has no `zero` vertex.

    `failed` holds, most recent first, every attack pair that a full scan
    found undefended at this level.  They are retried first, and a pair that
    defeats S moves to the front; every pair is scanned only when none does.
    A full scan never returns a pair of the list, since S defends those, so
    the list holds distinct pairs and grows only by full scans."""
    for i, pair in enumerate(failed):
        if defenders(masks, smask, *pair, full, layered) is None:
            if i:
                del failed[i]
                failed.insert(0, pair)
            return False
    pair = first_undefended(masks, smask, layered)
    if pair is None:
        return True
    failed.insert(0, pair)
    return False


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
    layered: tuple[int, int, int],
) -> Optional[tuple[int, int]]:
    """Lex-least ordered defender pair of S = `smask` against the attack
    (u1, u2), or None: distinct v1 in N[u1], v2 in N[u2], both in S, whose
    swap (S - {v1,v2}) + {u1,u2} still dominates.  `layered` is
    `layers(masks, smask, full)`.

    The swap test: with out = V - (N[u1] | N[u2]), the swap dominates iff
    (zero | N[v1]&ex1 | N[v2]&ex1 | N[v1]&N[v2]&ex2) & out == 0.  Proof: the
    swapped set dominates w iff w is in N[u1] | N[u2] or N[w] & S is not a
    subset of {v1, v2}.  With v1, v2 in S, that subset is empty (w in zero),
    {v1} or {v2} (w in ex1 and N[v1] or N[v2]), or {v1, v2} (w in ex2 and
    both), since w is in N[v] iff v is in N[w].  So a pair whose `zero &
    out` is nonzero has no defender, nor does a v1 with a private neighbour
    (N[v1] & ex1) in out.
    """
    zero, ex1, ex2 = layered
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
    layered: tuple[int, int, int],
    table: Optional[dict[tuple[int, int], tuple[int, int]]] = None,
) -> Optional[tuple[int, int]]:
    """First attack pair (u1 < u2, lex order) that S = `smask` cannot
    defend, or None.  A dict `table` receives each defended pair's
    lex-least ordered defender pair.

    `layered` is `layers(masks, smask, full)`, computed once per set by the
    caller, and every pair shares it: a swap of (v1, v2) for (u1, u2)
    dominates iff
    (zero | N[v1]&ex1 | N[v2]&ex1 | N[v1]&N[v2]&ex2) & ~(N[u1] | N[u2]) == 0,
    since a vertex is left undominated iff it lies outside N[u1] | N[u2]
    and its members of S are among v1 and v2 (proof in `defenders`)."""
    n = len(masks)
    full = (1 << n) - 1
    for u1 in range(n):
        for u2 in range(u1 + 1, n):
            pair = defenders(masks, smask, u1, u2, full, layered)
            if pair is None:
                return u1, u2
            if table is not None:
                table[(u1, u2)] = pair
    return None

