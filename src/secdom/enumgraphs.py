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

Two rules cut the children that are canonicalised; neither changes the set
of codes, so the representatives and their order stay the same.

- Orbit rule.  For a parent P and an automorphism s of P, the children P + X
  and P + s(X) are isomorphic: s, extended by the new vertex to itself, maps
  one onto the other.  So the subsets X are walked in ascending mask order,
  each processed X marks its images s(X) under all of Aut(P), and a marked X
  is skipped; each Aut(P)-orbit of subsets is processed once, at its least
  member.  Aut(P) costs nothing extra: P is built from its code, so it is in
  canonical labelling, and `_canonical_code` of P returns it (see there).
- Degree rule.  A child is kept only when no vertex other than the new one
  is both a non-cut vertex of the child and of smaller degree in it.  This
  loses no class: in a class C on n >= 2 vertices, pick a non-cut vertex w of
  least degree among the non-cut vertices.  C - w is connected, so its class
  on n-1 vertices is a parent P, through an isomorphism f from C - w onto P.
  The child P + f(N(w)) is isomorphic to C with the new vertex in the place
  of w, so each of its non-cut vertices other than the new one has degree at
  least deg(w) = |X|, and the rule keeps it.  The new vertex itself is never
  a cut vertex, since removing it leaves P.  The rule reads only degrees and
  cut vertices, which isomorphisms keep, and the isomorphism of the orbit
  rule maps the new vertex to the new vertex, so all children of one orbit
  get the same verdict and the orbit's least member stands for it.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from .graphs import Graph, _connected, build_graph


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


def _canonical_code(masks: list[int]) -> tuple[int, list[tuple[int, ...]]]:
    """Least edge-slot mask over the labelings that give cell i of the
    refined partition the i-th block of labels, and the labelings that reach
    it, each as the tuple of the vertices at labels 0, 1, ..., n-1.

    Labels are placed from n-1 down.  Placing label p fixes the slots (p, q)
    with q > p, which outrank every slot of a lower label, so the least mask
    is found level by level, keeping only the partial labelings whose new
    slots read least.

    When the graph is already in canonical labelling (its own mask is its
    code, as for every graph built by `graph_from_mask(n, code)`), the
    labelings returned are exactly Aut(G), the tuple of s being
    (s(0), ..., s(n-1)): the identity reaches the least mask, since each
    cell is its block of labels; two labelings that read the same mask differ
    by an automorphism; and every automorphism keeps the cells, which are
    built from invariants, so it is one of the labelings tried.
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
    return code, [placed for _, placed in partial]


def _classes(n: int) -> list[int]:
    """Canonical codes of the connected graphs on n vertices up to
    isomorphism, ascending; the children canonicalised are cut by the orbit
    and degree rules of the module docstring."""
    if n <= 1:
        return [0]
    new = 1 << (n - 1)
    full = (1 << n) - 1
    codes = set()
    for parent in _classes(n - 1):
        base = graph_from_mask(n - 1, parent).closed_masks()
        _, autos = _canonical_code(base)
        marked = bytearray(new)
        for nbrs in range(1, new):
            if marked[nbrs]:
                continue
            for s in autos:
                marked[sum(1 << s[v] for v in range(n - 1) if (nbrs >> v) & 1)] = 1
            masks = [m | new if (nbrs >> v) & 1 else m for v, m in enumerate(base)]
            masks.append(nbrs | new)
            size = masks[-1].bit_count()
            if any(
                m.bit_count() < size and _connected(masks, full ^ (1 << v))
                for v, m in enumerate(masks[:-1])
            ):
                continue
            codes.add(_canonical_code(masks)[0])
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
