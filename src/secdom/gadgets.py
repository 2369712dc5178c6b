"""Constructors for the three hardness-gadget graph constructions and
generators for standard test families.

All constructors keep the original vertices at ids 0..n-1 and label every
vertex with a 1-based textbook-style role ("v_3", "w1", "x_2^1", "b_4", ...).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Graph, GraphError, build_graph


@dataclass(frozen=True)
class GadgetResult:
    """A constructed graph plus the vertex-role map and the parameter
    translation tying it back to the source instance."""

    graph: Graph
    roles: dict[int, str]
    param_map: dict[str, str]


def inapprox_gadget(G: Graph) -> GadgetResult:
    """Attach w1, w2 adjacent to every original vertex, pendant z1 on w1,
    and pendant path z2-z3 on w2.

    The output has exactly n+5 vertices.  There is no w1-w2 edge: the edge
    set follows the formal construction, in which the size bound
    gamma2s(G') <= gamma(G) + 3 verifies without it.
    """
    if G.n < 1:
        raise GraphError("inapprox_gadget needs at least one vertex")
    n = G.n
    w1, w2, z1, z2, z3 = n, n + 1, n + 2, n + 3, n + 4
    edges = list(G.edges)
    for v in range(n):
        edges.append((v, w1))
        edges.append((v, w2))
    edges += [(w1, z1), (w2, z2), (z2, z3)]
    roles = {v: f"v_{v + 1}" for v in range(n)}
    roles.update({w1: "w1", w2: "w2", z1: "z1", z2: "z2", z3: "z3"})
    param_map = {
        "vertices": "|V'| = |V| + 5",
        "forward": "dominating set of size d in G gives a 2-SDS of size <= d+3 in G'",
        "backward": "2-SDS of size s in G' gives a dominating set of size <= s in G",
    }
    return GadgetResult(build_graph(n + 5, edges), roles, param_map)


def apx_gadget(G: Graph) -> GadgetResult:
    """Attach one pendant path x_i^1-x_i^2-x_i^3 to each consecutive pair of
    original vertices (the odd last vertex gets its own).

    Intended for inputs with max degree 3, where
    gamma2s(G') = gamma(G) + 2*ceil(n/2) and Delta(G') <= 4.  Higher-degree
    input is accepted but flagged in the param map.
    """
    if G.n < 1:
        raise GraphError("apx_gadget needs at least one vertex")
    n = G.n
    groups = (n + 1) // 2
    edges = list(G.edges)
    roles = {v: f"v_{v + 1}" for v in range(n)}
    for i in range(1, groups + 1):
        x1 = n + 3 * (i - 1)
        x2, x3 = x1 + 1, x1 + 2
        roles[x1] = f"x_{i}^1"
        roles[x2] = f"x_{i}^2"
        roles[x3] = f"x_{i}^3"
        # group i serves original vertices v_{2i-1} and v_{2i} (1-based)
        edges.append((2 * i - 2, x1))
        if 2 * i - 1 < n:
            edges.append((2 * i - 1, x1))
        edges += [(x1, x2), (x2, x3)]
    param_map = {
        "identity": f"gamma2s(G') = gamma(G) + 2*ceil(n/2) = gamma(G) + {2 * groups}",
        "max-degree": "Delta(G') <= Delta(G) + 1",
        "pairing": "originals (2i-1, 2i) share x_i^1",
    }
    if G.n >= 2 and G.max_degree() > 3:
        param_map["warning"] = (
            f"input max degree {G.max_degree()} exceeds 3; the identity is "
            "only stated for max degree 3"
        )
    return GadgetResult(build_graph(n + 3 * groups, edges), roles, param_map)


def gs_graph(G: Graph) -> GadgetResult:
    """Attach a 4-vertex star (center b_i, leaves a_i, c_i, d_i) to each
    original vertex via the bridge v_i-a_i.

    The output has 5n vertices and gamma(G') = gamma(G) + n.  For n >= 2,
    gamma2s(G') = 3n with witness {v_i, b_i, c_i}; the single-vertex input
    is degenerate (v_1 has no neighbor inside G to co-defend with, and the
    optimum is 4 instead of 3).
    """
    if G.n < 1:
        raise GraphError("gs_graph needs at least one vertex")
    if not G.is_connected():
        raise GraphError("gs_graph requires a connected input graph")
    n = G.n
    edges = list(G.edges)
    roles = {v: f"v_{v + 1}" for v in range(n)}
    for i in range(n):
        a, b, c, d = (n + 4 * i + j for j in range(4))
        roles[a] = f"a_{i + 1}"
        roles[b] = f"b_{i + 1}"
        roles[c] = f"c_{i + 1}"
        roles[d] = f"d_{i + 1}"
        edges += [(b, a), (b, c), (b, d), (i, a)]
    param_map = {
        "identity": f"gamma2s(G') = 3n = {3 * n}",
        "domination": "G has a dominating set of size <= k iff G' has one of size <= k+n",
        "witness": "the set of all v_i, b_i, c_i is a minimum 2-SDS",
    }
    if n == 1:
        param_map["identity"] = "gamma2s(G') = 4, not 3n = 3"
        param_map["witness"] = (
            "{v_1, a_1, b_1, c_1} is a minimum 2-SDS; {v_1, b_1, c_1} is not "
            "(the attack on v_1, a_1 is undefended)"
        )
        param_map["warning"] = (
            "single-vertex input: the 3n identity does not hold (optimum is 4)"
        )
    return GadgetResult(build_graph(5 * n, edges), roles, param_map)


_FAMILIES = (
    "path",
    "cycle",
    "complete",
    "star",
    "comb",
    "random-connected",
    "random-split",
)

_MAX_REJECTION_TRIES = 100000


def check_family(family: str) -> None:
    """Raise GraphError if `generate` has no family of that name."""
    if family not in _FAMILIES:
        raise GraphError(f"unknown family {family!r}; choose from {_FAMILIES}")


def check_params(family: str, params: Sequence[float]) -> None:
    """Raise GraphError unless `generate` builds `family` from `params`: a
    known family, a finite positive size, at least 3 vertices for a cycle,
    and for the random families an edge probability p in (0, 1]."""
    check_family(family)
    if not params:
        raise GraphError(f"family {family!r} needs at least a size parameter")
    if not math.isfinite(params[0]):
        raise GraphError("size parameter must be finite")
    n = int(params[0])
    if n < 1:
        raise GraphError("size parameter must be positive")
    if family == "cycle" and n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    if family in ("random-connected", "random-split"):
        if len(params) < 2:
            raise GraphError(f"family {family!r} needs (n, p)")
        if not 0 < float(params[1]) <= 1:
            raise GraphError("edge probability must be in (0, 1]")


def generate(
    family: str, params: Sequence[float], seed: Optional[int] = None
) -> Graph:
    """Build a named graph family.

    Deterministic families take a single size parameter; star takes the leaf
    count, comb the tooth count (2n vertices).  random-connected and
    random-split take (n, p) and a seed, and are bit-reproducible for a fixed
    seed.  `check_params` says which parameters are rejected.
    """
    check_params(family, params)
    n = int(params[0])

    if family == "path":
        return build_graph(n, [(i, i + 1) for i in range(n - 1)])
    if family == "cycle":
        return build_graph(n, [(i, (i + 1) % n) for i in range(n)])
    if family == "complete":
        return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    if family == "star":
        # center 0 plus n leaves
        return build_graph(n + 1, [(0, i) for i in range(1, n + 1)])
    if family == "comb":
        # spine 0..n-1, tooth i attached at spine vertex i
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [(i, n + i) for i in range(n)]
        return build_graph(2 * n, edges)

    p = float(params[1])
    rng = random.Random(seed)

    if family == "random-connected":
        for _ in range(_MAX_REJECTION_TRIES):
            edges = [
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if rng.random() < p
            ]
            G = build_graph(n, edges)
            if G.is_connected():
                return G
        raise GraphError(
            f"no connected sample after {_MAX_REJECTION_TRIES} tries "
            f"(n={n}, p={p}); raise p"
        )

    # random-split: clique on the low ids, independent set on the rest,
    # every independent vertex wired to at least one clique vertex
    clique = (n + 1) // 2
    edges = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
    for v in range(clique, n):
        edges.append((rng.randrange(clique), v))
        for u in range(clique):
            if rng.random() < p:
                edges.append((u, v))
    return build_graph(n, edges)
