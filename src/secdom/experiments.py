"""Experiment harness: structural-identity replays and approximation-ratio
tables over generated instances."""

from __future__ import annotations

import csv
from typing import Sequence, TextIO

from .domination import DEFAULT_DOMINATION_BUDGET, DOMINATING, exact_minimum
from .enumgraphs import connected_graphs
from .gadgets import (
    apx_gadget,
    check_family,
    check_params,
    generate,
    gs_graph,
    inapprox_gadget,
)
from .graphs import Graph
from .secure import DEFAULT_2SDS_BUDGET, approx_2sds, exact_gamma_2s, verify_2sds

# `run_ratios` solves exactly only the instances with at most this many vertices.
RATIO_EXACT_MAX_N = 9


def run_identities(max_n: int = 4) -> tuple[int, int]:
    """Replay the gadget identities on all connected graphs up to
    isomorphism with at most max_n vertices.

    Prints one PASS/FAIL line per instance check and a summary; returns
    (passed, failed).
    """
    passed = failed = 0

    def report(ok: bool, check: str, detail: str) -> None:
        """One PASS/FAIL line for the current graph `label`, and its tally."""
        nonlocal passed, failed
        if ok:
            passed += 1
        else:
            failed += 1
        status = "PASS" if ok else "FAIL"
        print(f"{status} {check} graph={label} {detail}")

    for n in range(1, max_n + 1):
        for idx, G in enumerate(connected_graphs(n, up_to_iso=True)):
            label = f"n{n}#{idx}"
            dominating = exact_minimum(G, DOMINATING)
            gamma = dominating.value

            # w1/w2 gadget: vertex count, size bound, explicit witness
            gadget = inapprox_gadget(G).graph
            report(
                gadget.n == G.n + 5,
                "inapprox-vertex-count",
                f"value={gadget.n} expected={G.n + 5}",
            )
            if gadget.n <= DEFAULT_2SDS_BUDGET:
                g2s = exact_gamma_2s(gadget).value
                report(
                    g2s <= gamma + 3,
                    "inapprox-bound",
                    f"gamma2s={g2s} bound={gamma + 3}",
                )
            witness = tuple(sorted(set(dominating.witness) | {G.n, G.n + 1, G.n + 3}))
            report(
                verify_2sds(gadget, witness) is not None,
                "inapprox-witness",
                f"witness_size={len(witness)}",
            )

            # pendant-path gadget identity (stated for max degree <= 3)
            if G.max_degree() <= 3:
                result = apx_gadget(G)
                ceil_half = (G.n + 1) // 2
                report(
                    result.graph.max_degree() <= 4,
                    "apx-max-degree",
                    f"delta={result.graph.max_degree()}",
                )
                if result.graph.n <= DEFAULT_2SDS_BUDGET:
                    g2s = exact_gamma_2s(result.graph).value
                    expected = gamma + 2 * ceil_half
                    report(
                        g2s == expected,
                        "apx-identity",
                        f"gamma2s={g2s} expected={expected}",
                    )

            # star-attachment construction; the 3n identity and its witness
            # need n >= 2 (the pair (v_i, a_i) is only defendable when v_i
            # has a neighbor inside G)
            result = gs_graph(G)
            gs = result.graph
            if G.n >= 2 and gs.n <= DEFAULT_2SDS_BUDGET:
                g2s = exact_gamma_2s(gs).value
                report(
                    g2s == 3 * G.n,
                    "gs-identity",
                    f"gamma2s={g2s} expected={3 * G.n}",
                )
            if gs.n <= DEFAULT_DOMINATION_BUDGET:
                gs_gamma = exact_minimum(gs, DOMINATING).value
                report(
                    gs_gamma == gamma + G.n,
                    "gs-domination",
                    f"gamma={gs_gamma} expected={gamma + G.n}",
                )
            if G.n >= 2:
                witness = tuple(range(G.n)) + tuple(
                    G.n + 4 * i + j for i in range(G.n) for j in (1, 2)
                )
                report(
                    verify_2sds(gs, witness) is not None,
                    "gs-witness",
                    f"witness_size={len(witness)}",
                )
    print(f"passed={passed} failed={failed}")
    return passed, failed


def ratio_instances(
    family: str, n: int, trials: int, seed: int, p: float = 0.4
) -> list[Graph]:
    """The instances of a `run_ratios` table.  Random families draw `trials`
    seeded samples at size n; deterministic families give one graph per size
    up to n.  An unknown family, at every n, or a random family's n or p
    that `generate` rejects raises GraphError here, before any row is
    written, also when `trials` is 0."""
    if family in ("random-connected", "random-split"):
        check_params(family, (n, p))
        return [generate(family, (n, p), seed=seed + t) for t in range(trials)]
    check_family(family)
    low = 3 if family == "cycle" else 2
    return [generate(family, (size,)) for size in range(low, n + 1)]


def run_ratios(
    family: str, instances: Sequence[Graph], csv_out: TextIO
) -> tuple[int, int]:
    """Tabulate the greedy 2-SDS size against the exact optimum, one CSV row
    per instance of `family` (see `ratio_instances`) to `csv_out`; the exact
    columns stay empty above `RATIO_EXACT_MAX_N` vertices.

    Returns (rows, violations) where a violation is a ratio above Delta+1.
    """
    writer = csv.writer(csv_out)
    header = [
        "family", "n", "m", "delta", "gamma", "gamma2s",
        "approx_size", "ratio",
    ]
    writer.writerow(header)
    rows = violations = 0
    for G in instances:
        approx = approx_2sds(G)
        delta = G.max_degree()
        gamma = gamma2s = None
        if G.n <= RATIO_EXACT_MAX_N:
            gamma = exact_minimum(G, DOMINATING).value
            gamma2s = exact_gamma_2s(G).value
        ratio = len(approx) / gamma2s if gamma2s else None
        row = [
            family, G.n, G.m, delta,
            gamma if gamma is not None else "",
            gamma2s if gamma2s is not None else "",
            len(approx),
            f"{ratio:.4f}" if ratio is not None else "",
        ]
        writer.writerow(row)
        rows += 1
        if ratio is not None and ratio > delta + 1:
            violations += 1
            print(f"FAIL ratio graph=n{G.n} ratio={ratio:.4f} bound={delta + 1}")
    print(f"rows={rows} violations={violations}")
    return rows, violations
