"""Answer checks that belong to the benchmark, not to secdom.

Everything here works from a plain edge list with its own bitmask
neighbourhoods, so a fault in secdom's graph, verifier or solver code cannot
hide itself.  Vertex sets are bitmasks; each check follows the definition
directly, with no pruning beyond stopping at the first answer.
"""

from __future__ import annotations

from itertools import combinations


def closed_masks(n, edges):
    masks = [1 << v for v in range(n)]
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def to_mask(vertices):
    smask = 0
    for v in vertices:
        smask |= 1 << v
    return smask


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _covered(masks, smask):
    covered = 0
    for v in _bits(smask):
        covered |= masks[v]
    return covered


def dominates(masks, smask):
    return _covered(masks, smask) == (1 << len(masks)) - 1


def defends(masks, smask, u1, u2, v1, v2):
    """The 2-SDS condition for one attack and one defender pair: v1 != v2,
    v1 in N[u1] & S, v2 in N[u2] & S, and (S - {v1, v2}) + {u1, u2}
    dominates."""
    if v1 == v2 or not (smask >> v1) & 1 or not (smask >> v2) & 1:
        return False
    if not ((masks[u1] >> v1) & 1 and (masks[u2] >> v2) & 1):
        return False
    swapped = (smask & ~((1 << v1) | (1 << v2))) | (1 << u1) | (1 << u2)
    return dominates(masks, swapped)


def defendable(masks, smask, u1, u2):
    return any(
        defends(masks, smask, u1, u2, v1, v2)
        for v1 in _bits(masks[u1] & smask)
        for v2 in _bits(masks[u2] & smask)
    )


def first_failure(masks, S):
    """None for a 2-SDS, else ("too-small", size), ("undominated", vertex) or
    ("pair", (u1, u2)) for the lex-first attack pair with no defenders."""
    smask = to_mask(S)
    if bin(smask).count("1") < 2:
        return ("too-small", bin(smask).count("1"))
    covered = _covered(masks, smask)
    for v in range(len(masks)):
        if not (covered >> v) & 1:
            return ("undominated", v)
    for u1, u2 in combinations(range(len(masks)), 2):
        if not defendable(masks, smask, u1, u2):
            return ("pair", (u1, u2))
    return None


def is_dominating_set(masks, S):
    return dominates(masks, to_mask(S))


def is_2sds(masks, S):
    return first_failure(masks, S) is None


def is_2dominating(masks, D):
    """Every vertex outside D has at least two neighbours inside D."""
    dmask = to_mask(D)
    return all(
        (dmask >> v) & 1 or bin(masks[v] & dmask).count("1") >= 2
        for v in range(len(masks))
    )


def certificate_mismatch(masks, S, entries):
    """None if the defence table covers every attack pair and each entry
    defends; else the first bad entry."""
    n = len(masks)
    smask = to_mask(S)
    if len(entries) != n * (n - 1) // 2:
        return f"certificate has {len(entries)} entries, expected {n * (n - 1) // 2}"
    for u1, u2 in combinations(range(n), 2):
        pair = entries.get((u1, u2))
        if pair is None:
            return f"certificate misses attack {u1},{u2}"
        if not defends(masks, smask, u1, u2, *pair):
            return f"certificate entry {u1},{u2}={pair[0]},{pair[1]} does not defend"
    return None


def gamma(masks):
    """Domination number by size-increasing enumeration (small graphs only)."""
    n = len(masks)
    for k in range(1, n + 1):
        if any(dominates(masks, to_mask(c)) for c in combinations(range(n), k)):
            return k
    raise ValueError("gamma of the empty graph")


def lex_least_minimum(masks, witness, predicate):
    """None if `witness` satisfies `predicate`, no smaller set does, and no
    same-size set before it in lexicographic order does.

    Sound only for predicates closed under supersets (domination and
    2-secure domination are), so that checking size |witness| - 1 suffices.
    """
    n = len(masks)
    witness = tuple(witness)
    if not predicate(masks, witness):
        return f"witness {witness} fails the definition"
    for c in combinations(range(n), len(witness) - 1):
        if predicate(masks, c):
            return f"smaller set {c} also qualifies"
    for c in combinations(range(n), len(witness)):
        if c == witness:
            return None
        if predicate(masks, c):
            return f"lex-smaller set {c} also qualifies"
    return f"witness {witness} is not a sorted vertex set"


# Connected graphs on n unlabelled vertices, OEIS A001349.
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}
