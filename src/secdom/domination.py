"""Checkers and solvers for classical domination and 2-domination.

Includes the two greedy subroutines consumed by the 2-SDS approximation
pipeline and an exact solver, run on the level scan of `kernel` (compiled or
pure, as for 2-SDS), used as the oracle for all optimum comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional

from . import kernel
from .graphs import Graph, check_vertex_set

DOMINATING = "dominating"
TWO_DOMINATING = "two-dominating"
KINDS = {DOMINATING: kernel.DOM, TWO_DOMINATING: kernel.TWO_DOM}

DEFAULT_DOMINATION_BUDGET = 24


class BudgetExceededError(RuntimeError):
    """Exact search refused: the instance exceeds the enumeration budget."""

    def __init__(self, n: int, budget: int):
        super().__init__(f"instance has {n} vertices, exact budget is {budget}")
        self.n = n
        self.budget = budget


@dataclass(frozen=True)
class SolveReport:
    """Outcome of an exact solve: optimum value, witness, search statistics."""

    problem: str
    value: int
    witness: tuple[int, ...]
    certificate: Optional[Any] = None
    subsets_examined: int = 0


def is_dominating(G: Graph, S: Iterable[int]) -> bool:
    """True iff every vertex outside S has a neighbor in S.

    The empty set dominates only the empty graph.
    """
    S = check_vertex_set(G, S)
    masks = G.closed_masks()
    covered = 0
    for v in S:
        covered |= masks[v]
    return covered == (1 << G.n) - 1


def is_2dominating(G: Graph, D: Iterable[int]) -> bool:
    """True iff every vertex outside D has at least 2 neighbors inside D.

    Vertices inside D impose no requirement, so a leaf can only be satisfied
    by joining D.
    """
    D = check_vertex_set(G, D)
    inside = set(D)
    for v in range(G.n):
        if v in inside:
            continue
        if sum(1 for w in G.adj[v] if w in inside) < 2:
            return False
    return True


def greedy_dominating(G: Graph) -> tuple[int, ...]:
    """Standard greedy cover: a vertex covers its closed neighborhood.

    Repeatedly picks the vertex covering the most currently-uncovered
    vertices, ties broken by least id.  Disconnected input is allowed (the
    2-SDS pipeline applies this to induced subgraphs).
    """
    masks = G.closed_masks()
    full = (1 << G.n) - 1
    covered = 0
    picked: list[int] = []
    while covered != full:
        best, best_gain = -1, 0
        for v in range(G.n):
            gain = bin(masks[v] & ~covered).count("1")
            if gain > best_gain:
                best, best_gain = v, gain
        picked.append(best)
        covered |= masks[best]
    return tuple(sorted(picked))


def greedy_2dominating(G: Graph) -> tuple[int, ...]:
    """Set-multicover greedy for 2-domination.

    Every vertex outside the growing set carries a residual requirement
    r(v), initialized to 2.  Selecting v zeroes r(v) and decrements each
    positive neighbor residual; the pick maximizes total residual reduction
    gain(v) = r(v) + #{positive-residual neighbors}, ties by least id.
    """
    r = [2] * G.n
    picked: set[int] = set()
    while any(r):
        best, best_gain = -1, 0
        for v in range(G.n):
            if v in picked:
                continue
            gain = r[v] + sum(1 for w in G.adj[v] if r[w] > 0)
            if gain > best_gain:
                best, best_gain = v, gain
        picked.add(best)
        r[best] = 0
        for w in G.adj[best]:
            if r[w] > 0:
                r[w] -= 1
    return tuple(sorted(picked))


def exact_minimum(
    G: Graph, kind: str, budget: int = DEFAULT_DOMINATION_BUDGET
) -> SolveReport:
    """Smallest set of the requested kind via size-increasing enumeration.

    `kernel.least_set` scans the levels from size 0, so the 2-domination
    test runs only on dominating subsets (every 2-dominating set dominates).
    Among minimum sets the lexicographically least is reported.  Refuses
    instances over the enumeration budget rather than degrading silently.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown domination kind {kind!r}")
    if G.n < 1:
        raise ValueError("exact_minimum needs at least one vertex")
    if G.n > budget:
        raise BudgetExceededError(G.n, budget)
    witness, examined = kernel.least_set(G.closed_masks(), KINDS[kind])
    return SolveReport(
        problem=kind, value=len(witness), witness=witness, subsets_examined=examined
    )
