"""Checkers and solvers for classical domination and 2-domination.

Includes the two greedy subroutines consumed by the 2-SDS approximation
pipeline and an exact solver, run on the level scan of `kernel` (compiled or
pure, as for 2-SDS), used as the oracle for all optimum comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Optional, Sequence

from . import kernel
from ._pykernel import layers
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

    value: int
    witness: tuple[int, ...]
    certificate: Optional[Any] = None
    subsets_examined: int = 0


def coverage(G: Graph, S: Iterable[int]) -> tuple[int, tuple[int, int, int]]:
    """The mask of S and its `_pykernel.layers` (zero, ex1, ex2) on G's
    closed masks.  S is canonicalized by `check_vertex_set` first, so
    duplicate ids count once and an id outside G raises GraphError."""
    smask = sum(1 << v for v in check_vertex_set(G, S))
    return smask, layers(G.closed_masks(), smask, (1 << G.n) - 1)


def is_dominating(G: Graph, S: Iterable[int]) -> bool:
    """True iff every vertex outside S has a neighbor in S.

    The empty set dominates only the empty graph.
    """
    _, (zero, _, _) = coverage(G, S)
    return not zero


def is_2dominating(G: Graph, D: Iterable[int]) -> bool:
    """True iff every vertex outside D has at least 2 neighbors inside D.

    Vertices inside D impose no requirement, so a leaf can only be satisfied
    by joining D.  N[v] & D = N(v) & D for v outside D.
    """
    dmask, (zero, ex1, _) = coverage(G, D)
    return not (zero | ex1) & ~dmask


def _greedy_cover(masks: Sequence[int], target: int) -> list[int]:
    """Greedy cover of the vertex set `target` by the closed neighbourhoods
    of its own vertices, in pick order: each round picks the vertex v of
    `target` whose mask covers the most of `target` still uncovered, ties
    broken by least id, until all of `target` is covered."""
    candidates = [v for v in range(len(masks)) if target >> v & 1]
    picked: list[int] = []
    while target:
        best, best_gain = -1, 0
        for v in candidates:
            gain = (masks[v] & target).bit_count()
            if gain > best_gain:
                best, best_gain = v, gain
        picked.append(best)
        target &= ~masks[best]
    return picked


def greedy_dominating(G: Graph) -> tuple[int, ...]:
    """Standard greedy cover: a vertex covers its closed neighborhood.

    Repeatedly picks the vertex covering the most currently-uncovered
    vertices, ties broken by least id.  Disconnected input is allowed.  The
    2-SDS pipeline runs the same cover loop on the vertices outside its
    2-dominating set.
    """
    return tuple(sorted(_greedy_cover(G.closed_masks(), (1 << G.n) - 1)))


def greedy_2dominating(G: Graph) -> tuple[int, ...]:
    """Set-multicover greedy for 2-domination.

    Every vertex outside the growing set carries a residual requirement
    r(v) = max(0, 2 - |N(v) & picked|).  N[v] & picked = N(v) & picked for v
    not picked, so r(v) is 0, 1 or 2 as v lies in `two`, in `one` only or in
    neither: the vertices with at least two and at least one pick in their
    closed neighbourhood.  The pick maximizes total residual reduction
    gain(v) = r(v) + #{positive-residual neighbors}, ties by least id.
    """
    masks = G.closed_masks()
    full = (1 << G.n) - 1
    picked = one = two = 0
    pos = full  # the vertices of positive residual
    while pos:
        best, best_gain = -1, 0
        for v in range(G.n):
            bit = 1 << v
            if picked & bit:
                continue
            residual = 0 if two & bit else 1 if one & bit else 2
            gain = residual + (masks[v] & ~bit & pos).bit_count()
            if gain > best_gain:
                best, best_gain = v, gain
        picked |= 1 << best
        two |= one & masks[best]
        one |= masks[best]
        pos = full & ~(picked | two)
    return tuple(v for v in range(G.n) if picked >> v & 1)


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
        value=len(witness), witness=witness, subsets_examined=examined
    )
