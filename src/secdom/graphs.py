"""Immutable simple undirected graphs and the structural primitives built on them.

Vertices are dense 0-based integers; anything with external labels lives in the
CLI layer.  A graph has one adjacency representation: the closed-neighbourhood
bitmask N[v] of each vertex, bit w set iff w == v or vw is an edge.  The
queries here, the solvers and the checkers all read those masks.  All
functions here are pure and safe to call from multiple threads.
"""

from __future__ import annotations

from typing import Iterable, Sequence


class GraphError(ValueError):
    """Raised for malformed graph input (bad endpoints, self-loops, ...)."""


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Immutable after construction.  It holds the canonical sorted edge tuple
    and one adjacency, the N[v] bitmask of each vertex, built once from the
    edges; every query reads those masks.
    """

    __slots__ = ("n", "edges", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        canon = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"self-loop ({u},{v}) is not allowed")
            canon.add((u, v) if u < v else (v, u))
        self._fill(n, canon)

    def _fill(self, n: int, canon: Iterable[tuple[int, int]]) -> None:
        """Set the fields from checked edges, each once with u < v."""
        self.n = n
        self.edges = tuple(sorted(canon))
        masks = [1 << v for v in range(n)]
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._masks = tuple(masks)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._masks[v].bit_count() - 1

    def closed_neighborhood(self, v: int) -> tuple[int, ...]:
        """N[v] = N(v) + v itself, sorted ascending."""
        self._check_vertex(v)
        mask = self._masks[v]
        return tuple(w for w in range(self.n) if mask >> w & 1)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return u != v and self._masks[u] >> v & 1 == 1

    def max_degree(self) -> int:
        if self.n == 0:
            raise GraphError("max_degree of the empty graph is undefined")
        return max(m.bit_count() for m in self._masks) - 1

    def is_connected(self) -> bool:
        """True iff a flood fill of the masks from vertex 0 reaches every vertex."""
        return _connected(self._masks, (1 << self.n) - 1)

    def closed_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmask of N[v]; the currency of the solver kernels."""
        return self._masks

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise GraphError(f"vertex {v} outside 0..{self.n - 1}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph, collapsing duplicate pairs and orientations.

    Rejects out-of-range endpoints and self-loops.
    """
    return Graph(n, edge_list)


def _checked_graph(n: int, canon: Iterable[tuple[int, int]]) -> Graph:
    """A graph on n >= 0 vertices from edges already checked as `Graph`
    checks them and given each once as (u, v) with u < v, as `graphio`'s
    parser has; it skips the second check."""
    G = Graph.__new__(Graph)
    G._fill(n, canon)
    return G


def check_vertex_set(G: Graph, S: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a vertex subset: sorted, duplicate-free, all ids valid."""
    out = sorted(set(S))
    for v in out:
        G._check_vertex(v)
    return tuple(out)



def _connected(masks: Sequence[int], within: int) -> bool:
    """Whether a flood fill of the closed-neighbourhood `masks`, kept inside
    the vertex mask `within` and started at its least vertex, reaches every
    vertex of `within`: whether `within` induces a connected subgraph.  True
    for an empty `within`."""
    seen = frontier = within & -within
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = masks[low.bit_length() - 1] & within & ~seen
        seen |= new
        frontier |= new
    return seen == within
