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
  each processed X marks its whole Aut(P)-orbit, and a marked X is skipped;
  each Aut(P)-orbit of subsets is processed once, at its least member.  The
  orbit is the closure of X under generators of Aut(P), which cost little:
  P is built from its code, so it is in canonical labelling, and the
  labellings that `_canonical_code` of P returns generate Aut(P) with P's
  twin transpositions (see the twin rule).
- Cell rule.  Let c* be the first refined cell (see `_refined_cells`) of a
  child that holds a non-cut vertex; a child is kept only when its new
  vertex lies in c*.  The cells are built from invariants, in an order of
  invariants, so an isomorphism maps cell i onto cell i and cut vertices
  onto cut vertices.  So no class is lost: in a class C on n >= 2 vertices
  take a non-cut vertex w in c*(C).  C - w is connected, so its class on
  n-1 vertices is a parent P, through an isomorphism f from C - w onto P.
  The child P + f(N(w)) is isomorphic to C with the new vertex in the place
  of w, so that vertex lies in the child's c*.  (The new vertex itself is
  never a cut vertex, since removing it leaves P.)  The isomorphism of the
  orbit rule maps the new vertex to itself, so all children of one orbit
  get the same verdict and the orbit's least member stands for it.  Cells
  are ordered by degree first, so a kept child has no non-cut vertex of
  smaller degree than the new one (the degree rule).  That cheap test runs
  first, on the parent's degrees; then only the earlier cells' vertices of
  the new vertex's degree are tested for cuts, and the cells are handed to
  `_canonical_code`.  A parent vertex v is a non-cut vertex of P + X exactly
  when X meets every component of P - v, so the cut tests read components
  found once per parent.

Twin rule.  Two vertices a < b are twins when N[a] = N[b] (closed twins) or
N(a) = N(b) (open twins); the transposition (a b) is then an automorphism.
While `_canonical_code` places a label, it skips a free candidate b that has
a free twin a < b: (a b) fixes every vertex placed so far and maps the
subtree under a onto the subtree under b, so both read the same words and
the least mask is unchanged.  The labellings it returns for a graph in
canonical labelling are then automorphisms that, with the twin
transpositions, generate Aut(G): an automorphism that the rule skips at some
label becomes, composed with the twin transposition there, one that places
a lower vertex at that label and the same vertices above it, so a chain of
such steps ends at a returned labelling.  The orbit rule marks each orbit as
its closure under these generators.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Optional, Sequence

from .graphs import Graph, GraphError, _checked_graph, _component


def edge_slots(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(n), 2))


def graph_from_mask(n: int, mask: int) -> Graph:
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    slots = edge_slots(n)
    # the slots are in range, loop-free and distinct, so skip Graph's checks
    return _checked_graph(n, [slots[i] for i in range(len(slots)) if (mask >> i) & 1])


def _refined_cells(masks: list[int]) -> list[int]:
    """Ordered equitable refinement of the degree partition of a graph given
    by its closed-neighbourhood masks, as one vertex bitmask per cell, in
    cell order.

    Each round splits every cell by its vertices' neighbour counts in the
    cells that the last round created (all cells in the first round) and
    orders the parts by (old cell, counts); it stops when a round splits
    nothing or the partition is discrete.  The counts against the other
    cells would change neither: a cell X after round r+1 has constant counts
    against every cell of round r's input, so also against each cell that
    round r left unsplit.  A vertex's counts are packed into one int key,
    the first cell in the most significant field of n.bit_length() bits,
    whose order is that of the count tuples.  Counting each vertex in its
    own closed neighbourhood adds the same 1 to every member of a cell, so
    it changes neither the splits nor the order.
    """
    n = len(masks)
    width = n.bit_length()
    by_degree: dict[int, int] = {}
    for v, m in enumerate(masks):
        d = m.bit_count()
        by_degree[d] = by_degree.get(d, 0) | 1 << v
    cells = created = [by_degree[d] for d in sorted(by_degree)]
    while created and len(cells) < n:
        splitters, created, refined = created, [], []
        for cell in cells:
            if not cell & (cell - 1):
                refined.append(cell)
                continue
            parts: dict[int, int] = {}
            rest = cell
            while rest:
                bit = rest & -rest
                rest ^= bit
                m = masks[bit.bit_length() - 1]
                key = 0
                for s in splitters:
                    key = key << width | (m & s).bit_count()
                parts[key] = parts.get(key, 0) | bit
            if len(parts) == 1:
                refined.append(cell)
            else:
                split = [parts[k] for k in sorted(parts)]
                refined += split
                created += split
        cells = refined
    return cells


def _twins(masks: list[int]) -> list[int]:
    """For each vertex v, the mask of its twins of lower id: the a < v with
    N[a] = N[v] or N(a) = N(v)."""
    closed: dict[int, int] = {}
    open_: dict[int, int] = {}
    lower = []
    for v, m in enumerate(masks):
        bit = 1 << v
        a, b = closed.get(m, 0), open_.get(m ^ bit, 0)
        lower.append(a | b)
        closed[m] = a | bit
        open_[m ^ bit] = b | bit
    return lower


def _canonical_code(
    masks: list[int],
    twins: Optional[list[int]] = None,
    cells: Optional[list[int]] = None,
) -> tuple[int, list[tuple[int, ...]]]:
    """Least edge-slot mask over the labelings that give cell i of the
    refined partition the i-th block of labels, and the labelings that reach
    it and pass the twin rule of the module docstring, each as the tuple of
    the vertices at labels 0, 1, ..., n-1.  `twins` is `_twins(masks)` and
    `cells` is `_refined_cells(masks)`, when the caller has them.

    Labels are placed from n-1 down.  Placing label p fixes the slots (p, q)
    with q > p, which outrank every slot of a lower label, so the least mask
    is found level by level, keeping only the partial labelings whose new
    slots read least.

    When the graph is already in canonical labelling (its own mask is its
    code, as for every graph built by `graph_from_mask(n, code)`), the
    labelings returned are automorphisms, the tuple of s being
    (s(0), ..., s(n-1)), and with the transpositions of twins they generate
    Aut(G): the identity reaches the least mask, since each cell is its block
    of labels; two labelings that read the same mask differ by an
    automorphism; every automorphism keeps the cells, which are built from
    invariants, so it is one of the labelings tried; and the twin rule skips
    only automorphisms that twin transpositions carry to returned ones.
    """
    n = len(masks)
    if cells is None:
        cells = _refined_cells(masks)
    allowed = []
    for cell in cells:
        allowed += [cell] * cell.bit_count()
    if twins is None:
        twins = _twins(masks)
    # each partial labeling: (vertices used, vertices at labels p+1, p+2, ...)
    partial: list[tuple[int, tuple[int, ...]]] = [(0, ())]
    code = 0
    for p in range(n - 1, -1, -1):
        best = -1
        survivors: list[tuple[int, tuple[int, ...]]] = []
        for used, placed in partial:
            free = rest = allowed[p] & ~used
            while rest:
                bit = rest & -rest
                rest ^= bit
                w = bit.bit_length() - 1
                if twins[w] & free:
                    continue
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


def _image_table(s: Sequence[int], low: int, size: int) -> list[int]:
    """The image under the vertex map s of every subset of the vertices
    low, ..., low + size - 1, indexed by the subset's mask shifted down by
    low."""
    table = [0] * (1 << size)
    for x in range(1, 1 << size):
        table[x] = table[x & (x - 1)] | 1 << s[low + (x & -x).bit_length() - 1]
    return table


def _has_non_cut(sides: list[list[int]], nbrs: int, vertices: int) -> bool:
    """Whether one of the parent's `vertices` v is a non-cut vertex of the
    child P + nbrs: whether nbrs meets each component `sides[v]` of P - v."""
    while vertices:
        bit = vertices & -vertices
        vertices ^= bit
        if all(side & nbrs for side in sides[bit.bit_length() - 1]):
            return True
    return False


def _classes(n: int) -> list[int]:
    """Canonical codes of the connected graphs on n vertices up to
    isomorphism, ascending; the children canonicalised are cut by the orbit
    and cell rules of the module docstring."""
    if n <= 1:
        return [0]
    new = 1 << (n - 1)
    # a subset of the parent's vertices is imaged as its low and high halves
    half = (n - 1) // 2
    low_half = (1 << half) - 1
    identity = tuple(range(n - 1))
    codes = set()
    for parent in _classes(n - 1):
        base = graph_from_mask(n - 1, parent).closed_masks()
        twins = _twins(base)
        _, autos = _canonical_code(base, twins)
        gens = [s for s in autos if s != identity]
        # twins fall into classes, and swapping each member with the next
        # lower one generates every twin transposition of its class
        for b, lower in enumerate(twins):
            if lower:
                s = list(identity)
                a = lower.bit_length() - 1
                s[a], s[b] = b, a
                gens.append(s)
        # le[d]: the parent's vertices v with |N[v]| <= d
        le = [
            sum(1 << v for v, m in enumerate(base) if m.bit_count() <= d)
            for d in range(n)
        ]
        # sides[v]: the components of P - v
        sides = []
        for v in range(n - 1):
            rest, comps = (new - 1) ^ 1 << v, []
            while rest:
                comps.append(_component(base, rest))
                rest ^= comps[-1]
            sides.append(comps)
        tables = [
            (_image_table(s, 0, half), _image_table(s, half, n - 1 - half))
            for s in gens
        ]
        marked = bytearray(new)
        for nbrs in range(1, new):
            if marked[nbrs]:
                continue
            marked[nbrs] = 1
            orbit = [nbrs]
            for x in orbit:
                lo, hi = x & low_half, x >> half
                for lo_image, hi_image in tables:
                    y = lo_image[lo] | hi_image[hi]
                    if not marked[y]:
                        marked[y] = 1
                        orbit.append(y)
            # the child's vertices of smaller degree than the new one
            size = nbrs.bit_count()
            smaller = le[size] & ~nbrs | le[size - 1] & nbrs
            if _has_non_cut(sides, nbrs, smaller):
                continue
            masks = [m | new if (nbrs >> v) & 1 else m for v, m in enumerate(base)]
            masks.append(nbrs | new)
            # the cell rule: every vertex of an earlier cell is a cut vertex;
            # those of smaller degree are already tested
            cells = _refined_cells(masks)
            before = 0
            for cell in cells:
                if cell & new:
                    break
                before |= cell
            if _has_non_cut(sides, nbrs, before & ~smaller):
                continue
            codes.add(_canonical_code(masks, None, cells)[0])
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
