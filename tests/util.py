"""Shared test helpers: named small graphs, seeded random instances, the
definition-literal domination and 2-SDS oracles, a flat reference level scan,
a reference Delta+1 approximation on induced subgraphs and the cell
refinement of the class enumerator counted in full.

The oracle is deliberately independent of the package internals: plain sets
read from `G.edges` (never the masks it checks), an unpruned ordered-pair
scan, and its own domination check.
"""

import random
from functools import lru_cache
from itertools import combinations

from secdom import build_graph


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(leaves):
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


K1 = complete(1)
K2 = complete(2)
K3 = complete(3)


def random_connected(n, p, rng):
    """Rejection-sampled G(n,p) conditioned on connectivity."""
    while True:
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
        ]
        G = build_graph(n, edges)
        if G.is_connected():
            return G


def seeded_connected_instances(count, max_n, seed, min_n=2):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        p = rng.uniform(0.25, 0.8) if n > 2 else 1.0
        out.append(random_connected(n, p, rng))
    return out


@lru_cache(maxsize=256)
def open_neighbourhoods(G):
    """N(v) of every vertex as a frozenset, read literally from `G.edges`."""
    nbrs = [set() for _ in range(G.n)]
    for u, v in G.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return tuple(frozenset(a) for a in nbrs)


def oracle_dominating(G, S):
    S = set(S)
    nbrs = open_neighbourhoods(G)
    return all(v in S or not nbrs[v].isdisjoint(S) for v in range(G.n))


def oracle_2dominating(G, D):
    """Every vertex outside D has at least two neighbours in D."""
    D = set(D)
    nbrs = open_neighbourhoods(G)
    return all(v in D or len(nbrs[v] & D) >= 2 for v in range(G.n))


def oracle_defenders(G, S, u1, u2):
    """Literal swap check for one ordered attack: the lex-least ordered pair
    (v1, v2) of distinct members of S, v1 in N[u1] and v2 in N[u2], whose
    swap (S - {v1,v2}) + {u1,u2} dominates, or None."""
    S = set(S)
    nbrs = open_neighbourhoods(G)
    closed1 = nbrs[u1] | {u1}
    closed2 = nbrs[u2] | {u2}
    for v1 in sorted(closed1 & S):
        for v2 in sorted(closed2 & S):
            if v1 != v2 and oracle_dominating(G, (S - {v1, v2}) | {u1, u2}):
                return v1, v2
    return None


def oracle_is_2sds(G, S):
    """Literal reading of the definition, ordered-pair scan, no pruning."""
    S = set(S)
    if not oracle_dominating(G, S):
        return False
    return all(
        oracle_defenders(G, S, u1, u2) is not None
        for u1 in range(G.n)
        for u2 in range(G.n)
        if u1 != u2
    )


def reference_first_subset(masks, k, accept=None):
    """Flat level scan: every k-combination in lex order, the first that
    dominates and passes `accept(masks, smask)`, with the combinations
    examined up to and including it."""
    n = len(masks)
    full = (1 << n) - 1
    examined = 0
    for combo in combinations(range(n), k):
        examined += 1
        smask = covered = 0
        for v in combo:
            smask |= 1 << v
            covered |= masks[v]
        if covered != full:
            continue
        if accept is not None and not accept(masks, smask):
            continue
        return combo, examined
    return None, examined


def reference_greedy_dominating(G):
    """Greedy cover on plain sets: pick the vertex whose closed
    neighbourhood covers the most uncovered vertices, least id on ties."""
    nbrs = open_neighbourhoods(G)
    uncovered = set(range(G.n))
    picked = []
    while uncovered:
        best = max(
            range(G.n),
            key=lambda v: (len(uncovered & (nbrs[v] | {v})), -v),
        )
        picked.append(best)
        uncovered -= nbrs[best] | {best}
    return tuple(sorted(picked))


def reference_greedy_2dominating(G):
    """Set-multicover greedy on a residual list: r(v) starts at 2, a pick
    zeroes its own and decrements each positive neighbour residual; the
    pick maximizes r(v) + #{positive-residual neighbours}, least id on
    ties."""
    nbrs = open_neighbourhoods(G)
    r = [2] * G.n
    picked = set()
    while any(r):
        best = max(
            (v for v in range(G.n) if v not in picked),
            key=lambda v: (r[v] + sum(1 for w in nbrs[v] if r[w] > 0), -v),
        )
        picked.add(best)
        r[best] = 0
        for w in nbrs[best]:
            if r[w] > 0:
                r[w] -= 1
    return tuple(sorted(picked))


def reference_approx_2sds(G):
    """The Delta+1 approximation read literally: a greedy 2-dominating set
    D, then a greedy dominating set of the induced subgraph G[V - D], built,
    renumbered and mapped back."""
    d2 = reference_greedy_2dominating(G)
    rest = [v for v in range(G.n) if v not in d2]
    if not rest:
        return d2
    old_to_new = {old: new for new, old in enumerate(rest)}
    H = build_graph(
        len(rest),
        [
            (old_to_new[u], old_to_new[v])
            for u, v in G.edges
            if u in old_to_new and v in old_to_new
        ],
    )
    dprime = {rest[v] for v in reference_greedy_dominating(H)}
    return tuple(sorted(set(d2) | dprime))


def reference_refined_cells(masks):
    """Ordered equitable refinement of the degree partition, counted in full:
    each round keys every vertex by (its cell, its counts in every cell) and
    orders the new cells by that key; stops when a round splits nothing or
    the partition is discrete."""
    n = len(masks)
    key = [m.bit_count() for m in masks]
    while True:
        rank = {k: i for i, k in enumerate(sorted(set(key)))}
        cells = [0] * len(rank)
        for v in range(n):
            cells[rank[key[v]]] |= 1 << v
        if len(cells) == n:
            return cells
        key = [
            (rank[k], *[(m & c).bit_count() for c in cells])
            for k, m in zip(key, masks)
        ]
        if len(set(key)) == len(cells):
            return cells
