"""Exhaustive enumeration of small graphs, used by the experiment harness and
the oracle test suites.

Graphs on n vertices are encoded as bitmasks over the C(n,2) edge slots in
lexicographic (u,v) order.

Isomorphism classes of connected graphs are generated by vertex addition
(McKay, "Isomorph-free exhaustive generation", J. Algorithms 1998).  Every
connected graph on n >= 2 vertices has a vertex whose removal leaves it
connected, so each class on n vertices arises from a class on n-1 vertices
plus a new vertex joined to a nonempty subset of its vertices.  Candidates are
deduplicated by a canonical code: the least edge-slot mask over all labelings
that respect the ordered equitable refinement of the degree partition (McKay,
"Practical graph isomorphism", 1981).  The refinement is computed from
isomorphism invariants only, so isomorphic graphs admit the same set of
relabeled masks and hence share their code.  The representative of a class is
the graph whose mask is its code; classes come in ascending code order.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .graphs import Graph, build_graph


def edge_slots(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def graph_from_mask(n: int, mask: int) -> Graph:
    slots = edge_slots(n)
    return build_graph(n, [slots[i] for i in range(len(slots)) if (mask >> i) & 1])


def _refined_cells(masks: list[int]) -> list[int]:
    """Ordered equitable refinement of the degree partition of a graph given
    by its closed-neighbourhood masks, as one vertex bitmask per cell, in
    cell order.

    Each round splits every cell by its vertices' neighbour counts in every
    cell and orders the new cells by (old cell, counts); the partition is
    equitable once a round splits nothing.  Counting each vertex in its own
    closed neighbourhood adds the same 1 to every member of a cell, so it
    changes neither the splits nor the order.
    """
    n = len(masks)
    key: list = [m.bit_count() for m in masks]
    while True:
        rank = {k: i for i, k in enumerate(sorted(set(key)))}
        cells = [0] * len(rank)
        for v in range(n):
            cells[rank[key[v]]] |= 1 << v
        key = [
            (rank[k], *[(m & c).bit_count() for c in cells])
            for k, m in zip(key, masks)
        ]
        if len(set(key)) == len(cells):
            return cells


def _canonical_code(masks: list[int]) -> int:
    """Least edge-slot mask over the labelings that give cell i of the
    refined partition the i-th block of labels.

    Labels are placed from n-1 down.  Placing label p fixes the slots (p, q)
    with q > p, which outrank every slot of a lower label, so the least mask
    is found level by level, keeping only the partial labelings whose new
    slots read least.
    """
    n = len(masks)
    allowed = []
    for cell in _refined_cells(masks):
        allowed += [cell] * cell.bit_count()
    # each partial labeling: (vertices used, vertices at labels p+1, p+2, ...)
    partial: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    code = 0
    for p in range(n - 1, -1, -1):
        best = -1
        survivors: list[tuple[int, tuple[int, ...]]] = []
        for used, placed in partial:
            free = allowed[p] & ~used
            while free:
                bit = free & -free
                free ^= bit
                w = bit.bit_length() - 1
                nbrs = masks[w]
                word = 0
                for j, u in enumerate(placed):
                    if (nbrs >> u) & 1:
                        word |= 1 << j
                if best < 0 or word < best:
                    best = word
                    survivors = []
                if word == best:
                    survivors.append((used | bit, (w,) + placed))
        partial = survivors
        code |= best << (p * n - p * (p + 1) // 2)
    return code


def _classes(n: int) -> list[int]:
    """Canonical codes of the connected graphs on n vertices up to
    isomorphism, ascending."""
    if n <= 1:
        return [0]
    new = 1 << (n - 1)
    codes = set()
    for parent in _classes(n - 1):
        base = graph_from_mask(n - 1, parent).closed_masks()
        for nbrs in range(1, new):
            masks = [m | new if (nbrs >> v) & 1 else m for v, m in enumerate(base)]
            masks.append(nbrs | new)
            codes.add(_canonical_code(masks))
    return sorted(codes)


def connected_graphs(n: int, up_to_iso: bool = False) -> Iterator[Graph]:
    """All connected graphs on n labeled vertices, in mask order.

    With up_to_iso=True, one representative per isomorphism class: the graph
    whose mask is the class's canonical code, in ascending code order.
    """
    if up_to_iso:
        for code in _classes(n):
            yield graph_from_mask(n, code)
        return
    for mask in range(1 << (n * (n - 1) // 2)):
        G = graph_from_mask(n, mask)
        if G.is_connected():
            yield G
