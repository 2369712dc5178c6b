"""Acceptance suite: one test per shipping criterion, each emitting a single
PASS/FAIL line.

These tests are deliberately slower and broader than the per-module suites:
exhaustive small-graph sweeps against the definition-literal oracle, the
structural identities at exact tolerance, and large seeded soundness runs.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import math
import random
from itertools import combinations

import pytest

from secdom import (
    DOMINATING,
    TWO_DOMINATING,
    apx_gadget,
    approx_2sds,
    dom_set_approx,
    exact_gamma_2s,
    exact_minimum,
    first_failure,
    greedy_2dominating,
    greedy_dominating,
    gs_graph,
    inapprox_gadget,
    is_dominating,
    verify_2sds,
)
from secdom.cli import main as cli_main
from secdom.enumgraphs import connected_graphs
from util import (
    K1,
    K2,
    K3,
    cycle,
    oracle_is_2sds,
    path,
    random_connected,
    seeded_connected_instances,
    star,
)


def _finish(name, failures, findings=()):
    """Print the one-line verdict, then fail the test if needed."""
    for line in findings:
        print(f"  finding: {line}")
    if failures:
        print(f"{name}: FAIL ({len(failures)} problem(s); first: {failures[0]})")
        pytest.fail("; ".join(str(f) for f in failures[:5]))
    print(f"{name}: PASS")


def _subsets(n):
    """All vertex subsets of size >= 2, as sorted tuples."""
    for k in range(2, n + 1):
        yield from combinations(range(n), k)


class TestAcceptance:
    def test_01_verifier_matches_literal_oracle(self):
        # exhaustive up to isomorphism, n <= 6, every subset of size >= 2
        failures = []
        for n in range(2, 7):
            for G in connected_graphs(n, up_to_iso=True):
                for S in _subsets(G.n):
                    got = verify_2sds(G, S) is not None
                    want = oracle_is_2sds(G, S)
                    if got != want:
                        failures.append((G.edges, S, got, want))
        _finish("criterion-01 verifier-oracle-equivalence", failures)

    def test_02_exact_values_desk_scale(self):
        failures = []
        for G, expected in ((path(3), 2), (cycle(4), 2), (star(3), 3)):
            got = exact_gamma_2s(G).value
            if got != expected:
                failures.append((G.edges, got, expected))
        # bounds hold on every instance we solve exactly
        graphs = [G for n in range(2, 8) for G in connected_graphs(n, up_to_iso=True)]
        graphs += seeded_connected_instances(40, 9, seed=2101)
        for G in graphs:
            value = exact_gamma_2s(G).value
            gamma = exact_minimum(G, DOMINATING).value
            if not (max(2, gamma) <= value <= G.n):
                failures.append((G.edges, value, gamma))
        _finish("criterion-02 gamma2s-desk-table", failures)

    def test_03_star_attachment_identity(self):
        failures = []
        # gamma2s(G') = 3n needs n >= 2
        for G in (K2, K3, path(3)):
            got = exact_gamma_2s(gs_graph(G).graph).value
            if got != 3 * G.n:
                failures.append(("identity", G.edges, got, 3 * G.n))
        # single-vertex base: the optimum is 4, grounded in the literal
        # oracle (no subset of size <= 3 is a 2-SDS, the solver's witness is)
        gs1 = gs_graph(K1).graph
        report = exact_gamma_2s(gs1)
        if report.value != 4:
            failures.append(("identity", 1, report.value, 4))
        small = [
            S
            for k in range(4)
            for S in combinations(range(gs1.n), k)
            if oracle_is_2sds(gs1, S)
        ]
        if small:
            failures.append(("oracle-accepts-small", 1, small))
        if not oracle_is_2sds(gs1, report.witness):
            failures.append(("oracle-rejects-witness", 1, report.witness))
        # explicit witness {v_i, b_i, c_i} on every connected base, n <= 6:
        # a 2-SDS for n >= 2; for n = 1 the attack on (v_1, a_1) is undefended
        for n in range(1, 7):
            for G in connected_graphs(n, up_to_iso=True):
                gs = gs_graph(G).graph
                witness = tuple(range(G.n)) + tuple(
                    G.n + 4 * i + j for i in range(G.n) for j in (1, 2)
                )
                if n == 1:
                    failure = first_failure(gs, witness)
                    if failure != ("pair", (0, 1)):
                        failures.append(("witness", 1, failure))
                elif verify_2sds(gs, witness) is None:
                    failures.append(("witness", G.edges))
        _finish("criterion-03 star-attachment-identity", failures)

    def test_04_star_attachment_domination(self):
        failures = []
        for G in (K1, K2, K3, path(4), cycle(4)):
            gs = gs_graph(G).graph
            got = exact_minimum(gs, DOMINATING).value
            want = exact_minimum(G, DOMINATING).value + G.n
            if got != want:
                failures.append((G.edges or G.n, got, want))
        _finish("criterion-04 star-attachment-domination", failures)

    def test_05_pendant_path_identity(self):
        failures = []
        for n in range(1, 6):
            for G in connected_graphs(n, up_to_iso=True):
                if G.max_degree() > 3:
                    continue
                H = apx_gadget(G).graph
                if H.max_degree() > 4:
                    failures.append(("degree", G.edges or G.n, H.max_degree()))
                got = exact_gamma_2s(H).value
                want = exact_minimum(G, DOMINATING).value + 2 * ((G.n + 1) // 2)
                if got != want:
                    failures.append(("identity", G.edges or G.n, got, want))
        # the degree cap also holds on larger subcubic inputs
        rng = random.Random(5)
        larger = [path(12), cycle(15)]
        while len(larger) < 10:
            G = random_connected(10, 0.25, rng)
            if G.max_degree() <= 3:
                larger.append(G)
        for G in larger:
            if apx_gadget(G).graph.max_degree() > 4:
                failures.append(("degree-subcubic", G.edges))
        _finish("criterion-05 pendant-path-identity", failures)

    def test_06_dual_apex_gadget_bound(self):
        failures = []
        for n in range(1, 7):
            for G in connected_graphs(n, up_to_iso=True):
                H = inapprox_gadget(G).graph
                if H.n != G.n + 5:
                    failures.append(("count", G.edges or G.n, H.n))
                    continue
                report = exact_minimum(G, DOMINATING)
                got = exact_gamma_2s(H).value
                if got > report.value + 3:
                    failures.append(("bound", G.edges or G.n, got, report.value + 3))
                witness = tuple(sorted(set(report.witness) | {G.n, G.n + 1, G.n + 3}))
                if verify_2sds(H, witness) is None:
                    failures.append(("witness", G.edges or G.n))
        _finish("criterion-06 dual-apex-gadget-bound", failures)

    def test_07_greedy_2sds_soundness_and_ratio(self):
        failures = []
        instances = seeded_connected_instances(500, 20, seed=7001)
        for G in instances:
            D = approx_2sds(G)
            if verify_2sds(G, D) is None:
                failures.append(("unsound", G.edges))
            if G.n <= 9:
                opt = exact_gamma_2s(G).value
                if len(D) > (G.max_degree() + 1) * opt:
                    failures.append(("ratio", G.edges, len(D), opt))
        small = sum(1 for G in instances if G.n <= 9)
        assert small >= 50, "sample must exercise the exact-ratio regime"
        _finish("criterion-07 greedy-2sds-soundness", failures)

    def test_08_domination_via_reduction_soundness(self):
        failures = []
        branches = {"exact": 0, "gadget": 0}
        for G in seeded_connected_instances(200, 12, seed=8001):
            for k in (G.n, 1):
                gamma = exact_minimum(G, DOMINATING).value
                branches["exact" if gamma <= k else "gadget"] += 1
                D = dom_set_approx(G, k)
                if not is_dominating(G, D):
                    failures.append(("not-dominating", G.edges, k))
        if not (branches["exact"] and branches["gadget"]):
            failures.append(("branch-coverage", branches))
        _finish("criterion-08 domination-reduction-soundness", failures)

    def test_09_greedy_ln_ratio_spot_checks(self):
        failures = []
        findings = []
        for G in seeded_connected_instances(300, 9, seed=9001):
            bound = 1 + math.log(G.max_degree() + 1)
            gamma = exact_minimum(G, DOMINATING).value
            if len(greedy_dominating(G)) > bound * gamma:
                failures.append(("dominating", G.edges, gamma))
            opt2 = exact_minimum(G, TWO_DOMINATING).value
            size2 = len(greedy_2dominating(G))
            if size2 > bound * opt2:
                # reported, not enforced: the 2-domination ratio is open
                findings.append(
                    f"2-domination ratio {size2 / opt2:.3f} above "
                    f"{bound:.3f} on edges={G.edges}"
                )
        _finish("criterion-09 greedy-ln-ratio", failures, findings)

    def test_10_cli_contract(self, tmp_path, capsys):
        failures = []

        def run(*argv):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        # deterministic seeded generation is byte-identical
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        for out in (a, b):
            run("gen", "random-connected", "9", "0.3", "--seed", "3", "-o", out)
        if open(a, "rb").read() != open(b, "rb").read():
            failures.append("seeded generation not byte-identical")

        # write/parse round trip is the identity on canonical files
        g = str(tmp_path / "g.txt")
        run("gen", "random-split", "8", "0.4", "--seed", "2", "-o", g)
        before = open(g).read()
        code, out, _ = run("solve", g, "--problem", "dom")
        if code != 0 or open(g).read() != before:
            failures.append("round-trip or solve exit broke")

        # exit-code table: 0 yes, 1 no, 2 bad input, 3 budget
        p3 = str(tmp_path / "p3.txt")
        open(p3, "w").write("3 2\n0 1\n1 2\n")
        bad = str(tmp_path / "bad.txt")
        open(bad, "w").write("2 1\n0 0\n")
        p20 = str(tmp_path / "p20.txt")
        open(p20, "w").write("20 19\n" + "".join(f"{i} {i + 1}\n" for i in range(19)))
        table = [
            (("verify", p3, "0", "2"), 0),
            (("verify", p3, "0"), 1),
            (("verify", bad, "0"), 2),
            (("solve", p20, "--problem", "2sds"), 3),
        ]
        for argv, want in table:
            code, _, _ = run(*argv)
            if code != want:
                failures.append(("exit-code", argv, code, want))

        code, out, _ = run("experiment", "identities", "--max-n", "4")
        if code != 0:
            failures.append(("identities-harness", code))
        _finish("criterion-10 cli-contract", failures)
