"""2-secure domination: certificate verifier, exact solver, and the two
approximation pipelines (the greedy 2-SDS algorithm and the derived
dominating-set approximation)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import _pykernel, kernel
from .domination import (
    BudgetExceededError,
    SolveReport,
    _greedy_cover,
    coverage,
    greedy_2dominating,
)
from .gadgets import inapprox_gadget
from .graphs import Graph, check_vertex_set

DEFAULT_2SDS_BUDGET = 16


class DisconnectedGraphError(ValueError):
    """Solver entry points require connected input."""


@dataclass(frozen=True)
class DefenseCertificate:
    """Per attack pair {u1,u2}, the defender pair (v1,v2) witnessing the
    2-secure condition.  Entries cover all C(n,2) unordered pairs, which the
    verifier fills in lex order of (u1, u2)."""

    entries: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)

    def replay(self, G: Graph, S: tuple[int, ...]) -> bool:
        """Re-check every stored swap from scratch with its own mask loop,
        independent of the search kernel; certificates are self-validating.
        A vertex of S outside G raises GraphError once an entry's defenders
        pass the membership checks."""
        sset = set(S)
        pairs = {
            (u1, u2) for u1 in range(G.n) for u2 in range(u1 + 1, G.n)
        }
        if set(self.entries) != pairs:
            return False
        n = G.n
        masks = G.closed_masks()
        full = (1 << n) - 1
        smask = None
        for (u1, u2), (v1, v2) in self.entries.items():
            if v1 == v2 or v1 not in sset or v2 not in sset:
                return False
            if not (0 <= v1 < n and (masks[u1] >> v1) & 1):
                return False
            if not (0 <= v2 < n and (masks[u2] >> v2) & 1):
                return False
            if smask is None:
                smask = sum(1 << v for v in check_vertex_set(G, sset))
            m = (smask & ~((1 << v1) | (1 << v2))) | (1 << u1) | (1 << u2)
            covered = 0
            while m:
                low = m & -m
                covered |= masks[low.bit_length() - 1]
                m ^= low
            if covered != full:
                return False
        return True


def find_defenders(
    G: Graph, S, u1: int, u2: int
) -> Optional[tuple[int, int]]:
    """Lexicographically least ordered defender pair for the attack (u1,u2).

    Requires v1 in N[u1] and v2 in N[u2], both in S, v1 != v2, and the
    swapped set (S - {v1,v2}) + {u1,u2} dominating.  None if no pair works.
    No solve or verify path calls it; it stays as the public one-pair query,
    and perfbench's tracer wraps it by name.
    """
    if u1 == u2:
        raise ValueError("attack vertices must be distinct")
    # S need not dominate, so its layers are computed here
    smask, layered = coverage(G, S)
    check_vertex_set(G, (u1, u2))
    return _pykernel.defenders(
        G.closed_masks(), smask, u1, u2, (1 << G.n) - 1, layered
    )


def _scan_2sds(G: Graph, S, build_certificate: bool):
    """Shared verifier core: returns (certificate|None, failure description).

    Failure is None on success, otherwise one of
    ("too-small", size), ("undominated", vertex), ("pair", (u1, u2)).
    """
    if G.n < 2:
        raise ValueError("2-SDS verification needs at least 2 vertices")
    smask, layered = coverage(G, S)
    if smask.bit_count() < 2:
        return None, ("too-small", smask.bit_count())
    zero = layered[0]
    if zero:
        return None, ("undominated", (zero & -zero).bit_length() - 1)
    entries: dict[tuple[int, int], tuple[int, int]] = {}
    table = entries if build_certificate else None
    pair = _pykernel.first_undefended(G.closed_masks(), smask, layered, table)
    if pair is not None:
        return None, ("pair", pair)
    return DefenseCertificate(entries=entries), None


def verify_2sds(G: Graph, S) -> Optional[DefenseCertificate]:
    """Full certificate if S is a 2-SDS of G, else None.

    Rejects |S| < 2 outright (two distinct defenders are required) and
    non-dominating sets before any pair work.
    """
    cert, _ = _scan_2sds(G, S, build_certificate=True)
    return cert


def first_failure(G: Graph, S):
    """None if S is a 2-SDS; otherwise the first failure, one of
    ("too-small", size), ("undominated", vertex), ("pair", (u1, u2))."""
    _, failure = _scan_2sds(G, S, build_certificate=False)
    return failure


def exact_gamma_2s(G: Graph, budget: int = DEFAULT_2SDS_BUDGET) -> SolveReport:
    """Minimum 2-SDS by size-increasing enumeration.

    Starts at size 2; candidates are pruned to dominating sets before the
    pair check, so the levels below gamma(G) find none.  A dominating
    candidate, and every prefix that leads only to such candidates, is also
    dropped when two vertices u1, u2 have N[u1] & S = N[u2] & S = {v}, since
    the attack (u1, u2) needs two distinct defenders (proof in
    `_pykernel.witness`).  Always terminates:
    V itself is a 2-SDS of a connected graph.  The witness is the
    lexicographically least minimum set and ships with its defense
    certificate.
    """
    if G.n < 2:
        raise ValueError("exact_gamma_2s needs at least 2 vertices")
    if not G.is_connected():
        raise DisconnectedGraphError("exact_gamma_2s requires a connected graph")
    if G.n > budget:
        raise BudgetExceededError(G.n, budget)
    witness, examined = kernel.least_set(G.closed_masks(), kernel.TWO_SDS)
    cert, _ = _scan_2sds(G, witness, build_certificate=True)
    assert cert is not None
    return SolveReport(
        value=len(witness),
        witness=witness,
        certificate=cert,
        subsets_examined=examined,
    )


def approx_2sds(G: Graph) -> tuple[int, ...]:
    """Greedy 2-SDS: a greedy 2-dominating set D, then a greedy dominating
    set of G[V - D], unioned; both phases run `domination._greedy_cover` on
    G's own masks.

    The output always passes the verifier, within Delta(G)+1 times the
    optimum.
    """
    if G.n < 2:
        raise ValueError("approx_2sds needs at least 2 vertices")
    if not G.is_connected():
        raise DisconnectedGraphError("approx_2sds requires a connected graph")
    d2 = greedy_2dominating(G)
    rest = ((1 << G.n) - 1) & ~sum(1 << v for v in d2)
    return tuple(sorted(d2 + tuple(_greedy_cover(G.closed_masks(), rest, 0))))


def dom_set_approx(G: Graph, k: int) -> tuple[int, ...]:
    """Dominating-set approximation built on the 2-SDS pipeline.

    If a dominating set of size at most k exists, return the lex-least
    smallest one, the set `kernel.least_set` returns.  The level scan runs
    on every size from 1 up to min(k, gamma(G)), so it examines at most
    sum over j <= k of C(n, j) combinations; no budget applies.  Otherwise
    run the greedy 2-SDS algorithm on the inapproximability gadget G' and
    return its set S' restricted to V, which always dominates G:

    - The gadget branch runs only when gamma(G) > k >= 1, so no vertex of G
      is universal: deg_G(v) <= n - 2 for every v in V.
    - `greedy_2dominating(G')` scores a vertex as its residual plus its
      neighbours of positive residual, ties to the least id.  In round 1,
      w1 = n and w2 = n + 1 score n + 3, a vertex of V at most n + 2 and
      z1, z2, z3 score 3, 4, 3, so w1 is picked.  In round 2, w2 scores
      n + 3, a vertex of V at most n and each z at most 4, so w2 is picked.
    - The cover phase covers each x of rest = V' - D with a vertex of
      rest in N[x].  For x in V that vertex lies in V, since w1 and w2 are
      in D.  So each vertex of V is in D or is covered from V, and S'
      restricted to V dominates G.
    """
    if G.n < 1:
        raise ValueError("dom_set_approx needs at least one vertex")
    if not G.is_connected():
        raise DisconnectedGraphError("dom_set_approx requires a connected graph")
    if k < 1:
        raise ValueError("k must be a positive integer")
    masks = G.closed_masks()
    for size in range(1, min(k, G.n) + 1):
        witness, _ = kernel.solve_level(masks, size, kernel.DOM)
        if witness is not None:
            return witness
    return tuple(v for v in approx_2sds(inapprox_gadget(G).graph) if v < G.n)
