"""Immutable simple undirected graphs and the structural primitives built on them.

Vertices are dense 0-based integers; anything with external labels lives in the
CLI layer.  All functions here are pure and safe to call from multiple threads.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence


class GraphError(ValueError):
    """Raised for malformed graph input (bad endpoints, self-loops, ...)."""


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    Immutable after construction.  Neighbor lists are kept sorted so that
    every downstream computation is deterministic.
    """

    __slots__ = ("n", "edges", "adj", "_masks")

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
        self.n = n
        self.edges = tuple(sorted(canon))
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        self.adj = tuple(tuple(sorted(a)) for a in nbrs)
        self._masks: Optional[tuple[int, ...]] = None

    @property
    def m(self) -> int:
        return len(self.edges)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj[v])

    def closed_neighborhood(self, v: int) -> tuple[int, ...]:
        """N[v] = N(v) + v itself, sorted ascending."""
        self._check_vertex(v)
        return tuple(sorted(self.adj[v] + (v,)))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.adj[u]

    def max_degree(self) -> int:
        if self.n == 0:
            raise GraphError("max_degree of the empty graph is undefined")
        return max(len(a) for a in self.adj)

    def is_connected(self) -> bool:
        """True iff a traversal from vertex 0 reaches every vertex."""
        if self.n <= 1:
            return True
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    count += 1
                    stack.append(w)
        return count == self.n

    def closed_masks(self) -> tuple[int, ...]:
        """Per-vertex bitmask of N[v]; the currency of the solver kernels."""
        if self._masks is None:
            masks = []
            for v in range(self.n):
                m = 1 << v
                for w in self.adj[v]:
                    m |= 1 << w
                masks.append(m)
            self._masks = tuple(masks)
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


def check_vertex_set(G: Graph, S: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a vertex subset: sorted, duplicate-free, all ids valid."""
    out = sorted(set(S))
    for v in out:
        G._check_vertex(v)
    return tuple(out)


def induced_subgraph(
    G: Graph, keep: Sequence[int]
) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on `keep`, renumbered contiguously.

    Returns the subgraph and the old->new index map (invertible).
    """
    kept = check_vertex_set(G, keep)
    if not kept:
        raise GraphError("induced subgraph on an empty vertex set")
    old_to_new = {old: new for new, old in enumerate(kept)}
    edges = [
        (old_to_new[u], old_to_new[v])
        for u, v in G.edges
        if u in old_to_new and v in old_to_new
    ]
    return Graph(len(kept), edges), old_to_new


def _maximum_neighbor(masks: Sequence[int], alive: int, v: int) -> Optional[int]:
    """Least u in N[v] whose closed neighborhood contains N[w] for all w in
    N[v], in the subgraph induced by the vertices of the mask `alive`."""
    closed = masks[v] & alive
    nbrs = [w for w in range(len(masks)) if closed >> w & 1]
    for u in nbrs:
        if all(masks[w] & alive & ~masks[u] == 0 for w in nbrs):
            return u
    return None


def has_maximum_neighbor(G: Graph, v: int) -> Optional[int]:
    """Least u in N[v] whose closed neighborhood contains N[w] for all w in N[v]."""
    G._check_vertex(v)
    return _maximum_neighbor(G.closed_masks(), (1 << G.n) - 1, v)


def find_dpeo(G: Graph) -> Optional[tuple[int, ...]]:
    """Greedy doubly-simplicial peel.

    Repeatedly removes the least-indexed vertex that is simplicial and has a
    maximum neighbor in the current induced subgraph.  Returns the removal
    order if all vertices peel, None otherwise.  A successful ordering is
    self-certifying: replaying the peel re-validates every step.
    """
    masks = G.closed_masks()
    alive = (1 << G.n) - 1
    order: list[int] = []
    while alive:
        for v in range(G.n):
            closed = masks[v] & alive
            # simplicial: N[v] lies in the closed neighborhood of each member
            if (
                alive >> v & 1
                and all(closed & ~masks[w] == 0 for w in range(G.n) if closed >> w & 1)
                and _maximum_neighbor(masks, alive, v) is not None
            ):
                break
        else:
            return None
        order.append(v)
        alive &= ~(1 << v)
    return tuple(order)
