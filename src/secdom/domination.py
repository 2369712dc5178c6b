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


def _greedy_cover(masks: Sequence[int], need1: int, need2: int) -> list[int]:
    """Greedy set multicover by closed neighbourhoods, in pick order.

    A vertex of `need2` still needs two picks in its closed neighbourhood,
    a vertex of `need1` only one (need2 is a subset of need1), and any
    other vertex, or a picked one, none.  The candidates are the starting
    `need1` less the picks.  The gain of v is its cut of the total residual,
    r(v) + #{w in N(v) : r(w) > 0} = `(masks[v] & need1).bit_count() +
    (need2 >> v & 1)`, ties to the least id.  Picking b, nb = masks[b], sets
    `need1 = (need1 & ~nb | need2 & nb) & ~(1 << b)` and `need2 &= ~nb`,
    exactly: a neighbour that needed two now needs one, a neighbour that
    needed one is done, and b needs none.
    """
    candidates = [v for v in range(len(masks)) if need1 >> v & 1]
    picked: list[int] = []
    while need1:
        best, best_gain = -1, 0
        for v in candidates:
            gain = (masks[v] & need1).bit_count() + (need2 >> v & 1)
            if gain > best_gain:
                best, best_gain = v, gain
        picked.append(best)
        candidates.remove(best)
        nb = masks[best]
        need1 = (need1 & ~nb | need2 & nb) & ~(1 << best)
        need2 &= ~nb
    return picked


def greedy_dominating(G: Graph) -> tuple[int, ...]:
    """Standard greedy cover: a vertex covers its closed neighborhood.

    Repeatedly picks the vertex covering the most currently-uncovered
    vertices, ties broken by least id.  Disconnected input is allowed.  The
    2-SDS pipeline runs the same cover loop on the vertices outside its
    2-dominating set.
    """
    return tuple(sorted(_greedy_cover(G.closed_masks(), (1 << G.n) - 1, 0)))


def greedy_2dominating(G: Graph) -> tuple[int, ...]:
    """Set-multicover greedy for 2-domination: `_greedy_cover` with every
    vertex needing two picks in its closed neighbourhood.

    Every vertex outside the growing set carries a residual requirement
    r(v) = max(0, 2 - |N(v) & picked|), as N[v] & picked = N(v) & picked
    for v not picked.  The pick maximizes total residual reduction
    gain(v) = r(v) + #{positive-residual neighbors}, ties by least id.
    """
    full = (1 << G.n) - 1
    return tuple(sorted(_greedy_cover(G.closed_masks(), full, full)))


def exact_minimum(
    G: Graph, kind: str, budget: int = DEFAULT_DOMINATION_BUDGET
) -> SolveReport:
    """Smallest set of the requested kind via size-increasing enumeration.

    One `kernel.solve_level` call scans the levels from size 0, and the
    2-domination test runs only on dominating subsets (every 2-dominating
    set dominates).  A level below n / widest (dominating) or 2n / (widest + 1)
    (2-dominating), with widest the largest closed neighbourhood, or below
    the size of a greedy 2-packing, is proved empty without a search, and a
    prefix is dropped when it leaves more vertices of the packing uncovered
    than picks remain.  For 2-domination, every vertex of degree <= 1 is in
    the set, so a level with more such vertices is empty, and a prefix is
    dropped when more of them lie above its last pick than picks remain,
    when it leaves two vertices uncovered before its last pick, when the
    picks left are too few to give two members to every vertex it leaves
    uncovered but one per pick, or, with its later siblings, when a vertex
    outside it whose count is final, or a vertex of degree <= 1 below its
    last pick, has fewer than two members (proofs in `_pykernel.least`).
    Among minimum sets the lexicographically least is reported.  Refuses
    instances over the enumeration budget rather than degrading silently.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown domination kind {kind!r}")
    if G.n < 1:
        raise ValueError("exact_minimum needs at least one vertex")
    if G.n > budget:
        raise BudgetExceededError(G.n, budget)
    witness, examined = kernel.solve_level(G.closed_masks(), KINDS[kind], 0, G.n)
    return SolveReport(
        value=len(witness), witness=witness, subsets_examined=examined
    )
