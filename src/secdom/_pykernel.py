"""Pure-Python search engine over bitmask adjacency: one level scan
(`witness`, for dom, 2dom or 2-SDS), one coverage primitive (`layers`), and
the defence primitive in two forms: a single-pair search (`defenders`) and a
row sweep over all attack pairs (`first_undefended`), for the 2-SDS test and
the verifier's certificates.

`layers` is the coverage primitive that secure and domination share outside
the level scan, which keeps the same `one`/`two` recurrence down its path:
the domination checkers, the verifier and the defence search read it on the
graph's own closed-neighbourhood masks.

The level scan is a depth-first search over k-subsets in lex order.  It
covers incrementally, one OR per node, and abandons a prefix together with
every later sibling as soon as a vertex it leaves uncovered has its whole
closed neighbourhood at or below the last pick: no later pick can cover it.
It carries the layers of the picks down its path, so the test of its kind
reads the layers of a dominating leaf in O(1).

For 2-SDS it also applies the shared-sole-defender rule: a dominating S in
which two vertices have the same single member v of S in their closed
neighbourhoods is not a 2-SDS, since the attack on those two needs two
distinct defenders from {v}.  The 2-SDS test checks it at a dominating leaf
before any attack pair, and the scan checks it on every prefix for the
vertices whose count of picks is already final (proof in `witness`).

The defence search tests a swap without rebuilding the swapped set.
`layers` sorts the vertices by how many members of S their closed
neighbourhood holds: none (`zero`), exactly one (`ex1`) or exactly two
(`ex2`).  The swap of (v1, v2) for the attack (u1, u2) dominates iff

    (zero | N[v1]&ex1 | N[v2]&ex1 | N[v1]&N[v2]&ex2) & ~(N[u1] | N[u2]) == 0

because a vertex w is left undominated iff it lies outside N[u1] | N[u2]
and N[w] & S is a subset of {v1, v2}: empty, one of them, or both.  The
layers are computed once per set and shared by every attack pair.
`defenders` applies the test to one attack pair.  `first_undefended` turns
it around, as w is outside N[u2] iff u2 is outside N[w]: for a fixed u1 and
swap it computes the whole set of u2 that the swap defends in a few ANDs,
so one pass over the swaps settles a row of attack pairs.  The 2-SDS test
of `witness` retries every attack pair that failed at its level with
`defenders` before it sweeps every row.

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

    The first j picks' mask and the vertices with at least two picks in
    their closed neighbourhood are kept per depth, and for TWO_SDS, whose
    test reads the exactly-two layer, also the vertices with at least three.
    TWO_DOM and TWO_SDS fill them on every push; DOM, whose test is
    domination itself, fills nothing.  The at-least-one layer of depth j is
    `full & ~need[j]`.  So the test of a dominating leaf gets the layers in
    O(1).

    D 2-dominates iff every vertex is in D or has two members of D in its
    closed neighbourhood, since N[v] & D = N(v) & D for v outside D: one OR
    with the at-least-two layer.  The 2-SDS test is `_is_2sds`.

    The shared-sole-defender rule.  Let S dominate, and call u private to v
    when N[u] & S = {v}.  If some v in S has two private vertices u1, u2,
    then S is not a 2-SDS: the attack (u1, u2) needs distinct defenders
    v1 in N[u1] & S and v2 in N[u2] & S, and both sets are {v}.  In layer
    terms, S fails when N[v] & ex1 has two bits for some v in S; `_is_2sds`
    tests this first, in O(k).

    The prefix rule, for TWO_SDS.  After the push of pick p at depth j, let
    fin1 = dead[p] & (at least one pick) & ~(at least two picks): the
    vertices u with N[u] within 0..p, so that no later pick enters N[u] and
    their count is final, and equal to 1.  If two vertices u1, u2 of fin1
    share their sole pick v, the prefix is abandoned with every later
    sibling, through the exit of the dead rule:

    - every completion keeps N[u1] & S = N[u2] & S = {v}, as its later picks
      lie above p, so no completion is a 2-SDS;
    - a later sibling q > p at depth j cannot enter N[u1] or N[u2], which
      lie within 0..p.  If v was picked before depth j, u1 and u2 stay
      private to v under every completion of the sibling.  If v = p, the
      sibling's prefix holds no member of N[u1], nor does any later pick,
      so u1 stays undominated.

    Only the vertices of fin1 outside dead[picks[j - 1]] need a lookup: the
    older ones had their final count at the parent, since p is not in their
    closed neighbourhood, and the parent found no two sharing a pick.  Each
    new vertex u looks up its sole pick v and fails when N[v] & fin1 has two
    bits.
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
    sets = [0] * k  # the mask of the first j picks
    twos = [0] * k
    threes = [0] * k
    fill = kind != DOM  # fills sets and twos on every push
    sds = kind == TWO_SDS  # fills threes too, and runs the prefix rule
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
                if fill:
                    nb = masks[p]
                    smask = sets[j] | 1 << p
                    two = twos[j] | ~rest & nb
                    if sds:
                        fin1 = dead[p] & ~(unc | two)
                        fresh = fin1 & ~dead[picks[j - 1]] if j else fin1
                        if fresh and _shares_sole_pick(masks, smask, fin1, fresh):
                            # as the dead rule: the prefix ends with its later siblings
                            j -= 1
                            p = picks[j] + 1
                            continue
                        threes[j + 1] = threes[j] | twos[j] & nb
                    sets[j + 1] = smask
                    twos[j + 1] = two
                picks[j] = p
                need[j + 1] = unc
                j += 1
                p += 1
                continue
        # depth j holds no live pick from p on: advance the parent's pick
        j -= 1
        p = picks[j] + 1
    return None


def _shares_sole_pick(masks: Sequence[int], smask: int, fin1: int, fresh: int) -> bool:
    """Whether a vertex of `fresh` shares its sole pick with another vertex
    of `fin1`: the vertices u with N[u] & S = {v} for one v of S = `smask`.
    `fresh` is a subset of `fin1`, and v has two of them iff N[v] & fin1 has
    two bits."""
    while fresh:
        low = fresh & -fresh
        shared = masks[(masks[low.bit_length() - 1] & smask).bit_length() - 1] & fin1
        if shared & (shared - 1):
            return True
        fresh ^= low
    return False


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
    the list holds distinct pairs and grows only by full scans.

    Before any pair, the shared-sole-defender rule (see `witness`): S fails
    when some v of S has two vertices of `ex1` in N[v]."""
    ex1 = layered[1]
    m = smask
    while m:
        low = m & -m
        private = masks[low.bit_length() - 1] & ex1
        if private & (private - 1):
            return False
        m ^= low
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
    defend, or None.  A dict `table` receives each defended pair before it,
    in lex order, with the pair's lex-least ordered defender pair, the pair
    `defenders` returns.  `layered` is `layers(masks, smask, full)`.

    A row sweep: one pass per u1 settles all the u2 > u1 at once, held in
    one bitmask.  By the swap test (see `defenders`), the swap of v1 in
    N[u1] & S and v2 in S - v1 defends (u1, u2) iff u2 is in N[v2] and
    every vertex w of

        B = (zero | N[v1]&ex1 | N[v2]&ex1 | N[v1]&N[v2]&ex2) - N[u1]

    lies in N[u2].  Since w is in N[u2] iff u2 is in N[w], the u2 that the
    swap defends are exactly N[v2] & meet(B), where meet(X) is the
    intersection of N[w] over the w in X (all vertices for an empty X).
    The meet splits along B: the zero part once per row, the N[v1] part
    once per v1, the N[v2] part once per set (per pair for a v2 with a
    private neighbour, in N[v2] & ex1, inside N[u1]), and the N[v1]&N[v2]
    part per pair.  A u2 outside the meet of the zero part has no defender,
    so the first such u2 ends the row: the sweep settles the u2 below it.

    Lex order.  The sweep visits the ordered pairs (v1 in N[u1] & S, v2 in
    S - v1) in lex order and takes each u2 out of the row mask at the first
    pair that defends it, so each defended u2 keeps its lex-least defender
    pair, and the row stops once no u2 is left.  The rows run in increasing
    u1, so the first row with a u2 left holds the first undefended pair,
    (u1, its least u2 left).  Each row's defender pairs go to a buffer
    indexed by u2, which is written to `table` after the row in increasing
    u2, so the table's keys are in lex order.
    """
    zero, ex1, ex2 = layered
    n = len(masks)
    full = (1 << n) - 1
    # per v in S: its bit, N[v], its private neighbours N[v] & ex1, N[v] &
    # ex2, and N[v] & meet(N[v] & ex1), the u2 it can defend when none of
    # its private neighbours lies in N[u1]
    members = []
    m = smask
    while m:
        low = m & -m
        nb = masks[low.bit_length() - 1]
        private = nb & ex1
        reach = nb
        w = private
        while w:
            b = w & -w
            reach &= masks[b.bit_length() - 1]
            w ^= b
        members.append((low, nb, private, nb & ex2, reach))
        m ^= low
    buf = [None] * n if table is not None else None
    for u1 in range(n - 1):
        n_u1 = masks[u1]
        targets = full ^ ((2 << u1) - 1)
        meet = targets
        w = zero & ~n_u1
        while w:
            low = w & -w
            meet &= masks[low.bit_length() - 1]
            w ^= low
        hopeless = targets & ~meet
        first = hopeless & -hopeless  # the least u2 with no defender, or 0
        left = targets & (first - 1)
        for b1, _, private1, two1, _ in members:
            if not b1 & n_u1:
                continue
            reach1 = left
            w = private1 & ~n_u1
            while w:
                b = w & -w
                reach1 &= masks[b.bit_length() - 1]
                w ^= b
            if not reach1:
                continue
            for b2, n2, private2, two2, reach in members:
                if b2 == b1:
                    continue
                if private2 & n_u1:
                    hit = reach1 & n2
                    w = private2 & ~n_u1
                    while w:
                        b = w & -w
                        hit &= masks[b.bit_length() - 1]
                        w ^= b
                else:
                    hit = reach1 & reach
                if not hit:
                    continue
                w = two1 & two2 & ~n_u1
                while w:
                    b = w & -w
                    hit &= masks[b.bit_length() - 1]
                    w ^= b
                if hit:  # the u2 whose lex-least defender pair is (v1, v2)
                    reach1 ^= hit
                    left ^= hit
                    if buf is not None:
                        pair = b1.bit_length() - 1, b2.bit_length() - 1
                        while hit:
                            b = hit & -hit
                            buf[b.bit_length() - 1] = pair
                            hit ^= b
                    if not reach1:
                        break
            if not left:
                break
        left |= first
        end = (left & -left).bit_length() - 1 if left else n
        if buf is not None:
            for u2 in range(u1 + 1, end):
                table[u1, u2] = buf[u2]
        if left:
            return u1, end
    return None
