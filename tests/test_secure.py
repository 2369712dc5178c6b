import random
import signal
import time
from itertools import combinations
from math import comb

import pytest

from secdom import (
    DOMINATING,
    TWO_DOMINATING,
    BudgetExceededError,
    DisconnectedGraphError,
    GraphError,
    approx_2sds,
    apx_gadget,
    build_graph,
    dom_set_approx,
    exact_gamma_2s,
    exact_minimum,
    find_defenders,
    first_failure,
    generate,
    greedy_2dominating,
    greedy_dominating,
    gs_graph,
    inapprox_gadget,
    is_dominating,
    verify_2sds,
)
from secdom import _pykernel, kernel
from secdom.enumgraphs import connected_graphs
from secdom.secure import DefenseCertificate
from util import (
    K3,
    complete,
    cycle,
    oracle_defenders,
    oracle_dominating,
    oracle_is_2sds,
    open_neighbourhoods,
    path,
    random_connected,
    reference_approx_2sds,
    reference_first_subset,
    reference_greedy_2dominating,
    reference_greedy_dominating,
    seeded_connected_instances,
    star,
)


class TestFindDefenders:
    def test_c4(self):
        assert find_defenders(cycle(4), [0, 1], 2, 3) == (1, 0)

    def test_star_undefendable_pair(self):
        assert find_defenders(star(3), [0, 1], 2, 3) is None

    def test_full_set_always_defendable_and_lex_least(self):
        G = random_connected(6, 0.5, random.Random(3))
        S = set(range(G.n))
        nbrs = open_neighbourhoods(G)
        expected = min(
            (v1, v2)
            for v1 in nbrs[1] | {1}
            for v2 in nbrs[4] | {4}
            if v1 != v2 and oracle_dominating(G, (S - {v1, v2}) | {1, 4})
        )
        assert find_defenders(G, range(G.n), 1, 4) == expected

    def test_equal_attackers_rejected(self):
        with pytest.raises(ValueError):
            find_defenders(K3, [0, 1], 2, 2)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_attack_vertex_outside_graph_rejected(self, bad):
        with pytest.raises(GraphError):
            find_defenders(K3, [0, 1], bad, 1)
        with pytest.raises(GraphError):
            find_defenders(K3, [0, 1], 1, bad)


class TestDefenceTest:
    """`_pykernel.defenders`, whose swap test reads the layers of S, against
    the literal swap check of `tests/util.py`: every set, dominating or not,
    and every ordered attack pair."""

    @staticmethod
    def _assert_agree(G, subsets):
        masks = G.closed_masks()
        full = (1 << G.n) - 1
        for S in subsets:
            smask = sum(1 << v for v in S)
            layered = _pykernel.layers(masks, smask, full)
            for u1 in range(G.n):
                for u2 in range(G.n):
                    if u1 != u2:
                        got = _pykernel.defenders(masks, smask, u1, u2, full, layered)
                        want = oracle_defenders(G, S, u1, u2)
                        assert got == want, (G.edges, S, u1, u2)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_class_every_set(self, n):
        for G in connected_graphs(n, up_to_iso=True):
            subsets = [[v for v in range(n) if m >> v & 1] for m in range(1 << n)]
            self._assert_agree(G, subsets)

    @pytest.mark.parametrize("n", [7, 9, 12, 16, 20, 24])
    def test_random_graphs(self, n):
        rng = random.Random(n)
        G = random_connected(n, min(1.0, rng.uniform(2.5, 6.0) / (n - 1)), rng)
        sizes = [0, 1, 2, rng.randint(2, n), rng.randint(n // 2, n), n]
        subsets = [sorted(rng.sample(range(n), k)) for k in sizes]
        greedy = list(approx_2sds(G))
        subsets += [greedy] + [
            sorted(rng.sample(greedy, len(greedy) - k)) for k in (1, 1, 2, 3)
        ]
        self._assert_agree(G, subsets)


class TestDefenceScan:
    """`_pykernel.first_undefended`, the row sweep, against the literal swap
    check of `tests/util.py` on every attack pair in lex order: the same
    first undefended pair, and a table holding each defended pair before it
    with its lex-least defender pair, in lex order."""

    @staticmethod
    def _assert_agree(G, subsets):
        """Checks every set of `subsets`; returns how many were dominating,
        not dominating and not a 2-SDS."""
        masks = G.closed_masks()
        full = (1 << G.n) - 1
        kinds = [0, 0, 0]
        for S in subsets:
            smask = sum(1 << v for v in S)
            layered = _pykernel.layers(masks, smask, full)
            want_table, want = {}, None
            for u1, u2 in combinations(range(G.n), 2):
                pair = oracle_defenders(G, S, u1, u2)
                if pair is None:
                    want = u1, u2
                    break
                want_table[u1, u2] = pair
            table = {}
            got = _pykernel.first_undefended(masks, smask, layered, table)
            assert got == want, (G.edges, S)
            assert _pykernel.first_undefended(masks, smask, layered) == want
            assert table == want_table, (G.edges, S)
            assert list(table) == sorted(table), (G.edges, S)
            kinds[0] += not layered[0]
            kinds[1] += bool(layered[0])
            kinds[2] += want is not None
        return kinds

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_class(self, n):
        """Every set of each class up to n = 5, and a seeded sample of sets
        with V and the greedy 2-SDS above that."""
        rng = random.Random(n)
        kinds = [0, 0, 0]
        for G in connected_graphs(n, up_to_iso=True):
            if n <= 5:
                subsets = [[v for v in range(n) if m >> v & 1] for m in range(1 << n)]
            else:
                subsets = [list(range(n)), list(approx_2sds(G))] + [
                    sorted(rng.sample(range(n), rng.randint(1, n - 1)))
                    for _ in range(6)
                ]
            for i, count in enumerate(self._assert_agree(G, subsets)):
                kinds[i] += count
        # K1 has no attack pair, so each of its sets passes
        assert all(kinds[:2]) and (kinds[2] or n == 1), kinds

    @pytest.mark.parametrize("n", [9, 12, 16, 20, 24, 32, 40])
    def test_random_graphs(self, n):
        """The greedy 2-SDS of a seeded sparse graph, supersets of it (full
        scans), subsets of it (mostly failing) and random sets."""
        rng = random.Random(n)
        G = random_connected(n, min(1.0, rng.uniform(2.5, 6.0) / (n - 1)), rng)
        greedy = list(approx_2sds(G))
        outside = [v for v in range(n) if v not in greedy]
        subsets = [greedy, list(range(n))]
        subsets += [sorted(greedy + rng.sample(outside, k)) for k in (1, 2)]
        subsets += [sorted(rng.sample(greedy, len(greedy) - k)) for k in (1, 1, 2)]
        subsets += [sorted(rng.sample(range(n), rng.randint(1, n))) for _ in range(3)]
        kinds = self._assert_agree(G, subsets)
        assert all(kinds), kinds


class TestVerify:
    def test_p3_witness(self):
        cert = verify_2sds(path(3), [0, 2])
        assert cert is not None
        assert set(cert.entries) == {(0, 1), (0, 2), (1, 2)}

    def test_star_rejection_names_pair(self):
        assert verify_2sds(star(3), [0, 1]) is None
        assert first_failure(star(3), [0, 1]) == ("pair", (1, 2))

    def test_full_vertex_set_always_passes(self):
        G = random_connected(7, 0.4, random.Random(5))
        assert verify_2sds(G, range(G.n)) is not None

    def test_too_small(self):
        assert first_failure(K3, [0]) == ("too-small", 1)

    def test_undominated_named(self):
        G = path(5)
        assert first_failure(G, [0, 1]) == ("undominated", 3)

    def test_certificate_replays(self):
        G = random_connected(8, 0.4, random.Random(9))
        S = tuple(approx_2sds(G))
        cert = verify_2sds(G, S)
        assert cert is not None
        assert cert.replay(G, S)

    @pytest.mark.parametrize(
        "tamper",
        ["missing-pair", "equal-defenders", "defender-outside-S",
         "v1-outside-N[u1]", "swap-undominated"],
    )
    def test_replay_rejects_tampered_certificate(self, tamper):
        # P5 = 0-1-2-3-4 with S = {0,1,3,4}; swapping out {1,3} against the
        # attack (0,4) leaves 2 undominated
        G, S = path(5), (0, 1, 3, 4)
        cert = verify_2sds(G, S)
        assert cert.replay(G, S)
        entries = dict(cert.entries)
        if tamper == "missing-pair":
            del entries[(0, 1)]
        elif tamper == "equal-defenders":
            entries[(0, 1)] = (1, 1)
        elif tamper == "defender-outside-S":
            entries[(0, 1)] = (0, 2)
        elif tamper == "v1-outside-N[u1]":
            entries[(0, 1)] = (3, 1)
        else:
            entries[(0, 4)] = (1, 3)
        assert not DefenseCertificate(entries=entries).replay(G, S)

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_literal_oracle(self, seed):
        rng = random.Random(400 + seed)
        G = random_connected(rng.randint(2, 7), 0.45, rng)
        for _ in range(8):
            size = rng.randint(2, G.n)
            S = tuple(sorted(rng.sample(range(G.n), size)))
            assert (verify_2sds(G, S) is not None) == oracle_is_2sds(G, S)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_exhaustive_small_classes(self, n):
        # every class n <= 5, every |S| >= 2: the whole-set defence scan
        # against the literal oracle and the per-pair find_defenders
        for G in connected_graphs(n, up_to_iso=True):
            accepted = []
            for k in range(2, n + 1):
                for S in combinations(range(n), k):
                    ok = oracle_is_2sds(G, S)
                    assert (first_failure(G, S) is None) == ok, (G.edges, S)
                    if not ok:
                        continue
                    accepted.append(S)
                    cert = verify_2sds(G, S)
                    for (u1, u2), defenders in cert.entries.items():
                        assert defenders == find_defenders(G, S, u1, u2)
                    assert cert.replay(G, S)
            least = min(accepted, key=lambda S: (len(S), S))
            assert exact_gamma_2s(G).witness == least, G.edges


class TestExactGamma2s:
    def test_p3(self):
        report = exact_gamma_2s(path(3))
        assert report.value == 2
        # {0,1} is a valid 2-SDS of P3 and lexicographically least
        assert report.witness == (0, 1)
        assert oracle_is_2sds(path(3), report.witness)

    def test_c4(self):
        report = exact_gamma_2s(cycle(4))
        assert (report.value, report.witness) == (2, (0, 1))

    def test_star(self):
        assert exact_gamma_2s(star(3)).value == 3

    def test_bounds(self):
        rng = random.Random(17)
        for _ in range(10):
            G = random_connected(rng.randint(2, 8), 0.4, rng)
            report = exact_gamma_2s(G)
            assert 2 <= report.value <= G.n
            assert report.certificate is not None
            assert report.certificate.replay(G, report.witness)

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            exact_gamma_2s(path(20))

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            exact_gamma_2s(build_graph(4, [(0, 1), (2, 3)]))


class TestApprox2sds:
    def test_star_trace(self):
        D = approx_2sds(star(3))
        assert D == (0, 1, 2, 3)
        assert len(D) <= (star(3).max_degree() + 1) * exact_gamma_2s(star(3)).value

    def test_c4_trace(self):
        assert approx_2sds(cycle(4)) == (0, 1, 2, 3)

    def test_k2(self):
        assert approx_2sds(complete(2)) == (0, 1)
        assert exact_gamma_2s(complete(2)).value == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            approx_2sds(build_graph(4, [(0, 1), (2, 3)]))

    @pytest.mark.parametrize("seed", range(15))
    def test_output_verifies(self, seed):
        rng = random.Random(700 + seed)
        G = random_connected(rng.randint(2, 15), 0.35, rng)
        assert verify_2sds(G, approx_2sds(G)) is not None

    @pytest.mark.parametrize(
        "family, n",
        [(f, n) for f in ("random-connected", "random-split") for n in (24, 40, 56)]
        + [("classes", 7), ("inapprox-gadget", 7)],
    )
    def test_matches_induced_subgraph_reference(self, family, n):
        """The greedies agree with the plain-set references, and the second
        greedy on G's masks restricted to V - D picks what the greedy on the
        renumbered induced subgraph G[V - D] picks.  The small classes and
        their gadgets are where ties decide most picks."""
        if family in ("classes", "inapprox-gadget"):
            graphs = [
                G for m in range(1, n + 1) for G in connected_graphs(m, up_to_iso=True)
            ]
            assert len(graphs) == 996
            if family == "inapprox-gadget":
                graphs = [inapprox_gadget(G).graph for G in graphs]
        else:
            p = 6 / n if family == "random-connected" else 0.3
            graphs = [
                generate(family, (n, p), seed=1000 * n + seed) for seed in range(6)
            ]
        for G in graphs:
            assert greedy_dominating(G) == reference_greedy_dominating(G), G.edges
            assert greedy_2dominating(G) == reference_greedy_2dominating(G), G.edges
            if G.n >= 2:
                assert approx_2sds(G) == reference_approx_2sds(G), G.edges


class TestDomSetApprox:
    def test_p3_exact_branch(self):
        assert dom_set_approx(path(3), 1) == (1,)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            dom_set_approx(star(3), 0)

    def test_star_exact_branch(self):
        assert dom_set_approx(star(3), 1) == (0,)

    def test_c5_gadget_branch(self):
        D = dom_set_approx(cycle(5), 1)
        assert is_dominating(cycle(5), D)

    @pytest.mark.parametrize("seed", range(10))
    def test_gadget_branch_dominates(self, seed):
        rng = random.Random(900 + seed)
        G = random_connected(rng.randint(4, 14), 0.3, rng)
        assert is_dominating(G, dom_set_approx(G, 1))

    @pytest.mark.parametrize(
        "family,count", [("classes-n2-7", 787), ("seeded-n4-24", 54)]
    )
    def test_gadget_branch_is_the_gadget_2sds_on_v(self, family, count):
        """On every graph with gamma(G) >= 2, the greedy 2-dominating set of
        the gadget G' holds w1 = n and w2 = n + 1, and dom_set_approx(G, 1) is
        approx_2sds(G') restricted to V, which dominates G."""
        if family == "classes-n2-7":
            graphs = [
                G for n in range(2, 8) for G in connected_graphs(n, up_to_iso=True)
            ]
        else:
            graphs = seeded_connected_instances(60, 24, seed=1300, min_n=4)
        graphs = [G for G in graphs if exact_minimum(G, DOMINATING).value >= 2]
        assert len(graphs) == count
        for G in graphs:
            H = inapprox_gadget(G).graph
            assert {G.n, G.n + 1} <= set(greedy_2dominating(H)), G.edges
            D = dom_set_approx(G, 1)
            assert D == tuple(v for v in approx_2sds(H) if v < G.n), G.edges
            assert oracle_dominating(G, D), G.edges

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize(
        "name", ["path30", "comb15", "cycle40", "random-connected56"]
    )
    def test_dominates_past_the_exact_budget(self, name, k):
        """The exact step scans only the sizes up to k, so graphs over the
        24-vertex domination budget get a dominating set."""
        if name == "random-connected56":
            G = generate("random-connected", (56, 6 / 56), seed=56)
        else:
            family = name.rstrip("0123456789")
            G = generate(family, (int(name[len(family):]),))
        assert G.n >= 30
        assert oracle_dominating(G, dom_set_approx(G, k)), (name, k)

    def test_star30_exact_branch(self):
        assert dom_set_approx(star(30), 1) == (0,)

    def test_matches_exact_witness_or_gadget_reference(self):
        """On every class with n <= 7 and k = 1, 2, 3: the lex-least minimum
        dominating set when gamma(G) <= k, else the gadget's greedy 2-SDS
        restricted to V."""
        graphs = [
            G for n in range(1, 8) for G in connected_graphs(n, up_to_iso=True)
        ]
        assert len(graphs) == 996
        for G in graphs:
            exact = exact_minimum(G, DOMINATING).witness
            for k in (1, 2, 3):
                if len(exact) <= k:
                    expected = exact
                else:
                    H = inapprox_gadget(G).graph
                    expected = tuple(v for v in approx_2sds(H) if v < G.n)
                assert dom_set_approx(G, k) == expected, (G.edges, k)


def level_scan_family(graphs):
    """The graphs of a level-scan family: every connected graph on n vertices
    up to isomorphism for "classes-n<n>", or 12 seeded connected graphs with
    7-12 vertices for "random"."""
    if graphs == "random":
        return seeded_connected_instances(12, 12, 1500, min_n=7)
    return connected_graphs(int(graphs[len("classes-n"):]), up_to_iso=True)


# Graphs whose 2-SDS scan sees several failing attack pairs alternate.
ALTERNATING_PAIRS = (
    [f"comb{n}" for n in (6, 7, 8)] + [f"cycle{n}" for n in range(12, 17)] + ["gs(P3)"]
)


def alternating_pairs_graph(name):
    """The graph of an `ALTERNATING_PAIRS` name: "comb<teeth>",
    "cycle<n>" or "gs(P3)"."""
    if name == "gs(P3)":
        return gs_graph(path(3)).graph
    family = name.rstrip("0123456789")
    return generate(family, (int(name[len(family):]),))


def is_2sds(masks, smask):
    """The 2-SDS test as an `accept` of the flat reference scan, from a full
    defence scan."""
    layered = _pykernel.layers(masks, smask, (1 << len(masks)) - 1)
    return _pykernel.first_undefended(masks, smask, layered) is None


KINDS = (kernel.DOM, kernel.TWO_DOM, kernel.TWO_SDS)


class TestKernelBackends:
    """The compiled kernel, built by the `compiled_kernel` fixture, against
    the pure one: `kernel.solve_level` on the compiled kernel must return the
    pure `least` and its count, for every kind."""

    @pytest.fixture
    def compiled(self, compiled_kernel, monkeypatch):
        monkeypatch.setattr(kernel, "_kernel", compiled_kernel)
        return compiled_kernel

    @staticmethod
    def assert_agree(G, ks):
        masks = list(G.closed_masks())
        for kind in KINDS:
            for k in ks:
                w = _pykernel.least(masks, kind, k, k)
                assert kernel.solve_level(masks, kind, k, k) == (
                    w, kernel.examined(G.n, k, w)
                ), (G.edges, k, kind)

    @pytest.mark.parametrize("seed", range(8))
    def test_solve_level_agreement(self, seed, compiled):
        rng = random.Random(1300 + seed)
        G = random_connected(rng.randint(3, 9), 0.4, rng)
        self.assert_agree(G, range(2, G.n + 1))

    @pytest.mark.parametrize(
        "graphs", [f"classes-n{n}" for n in range(1, 8)] + ["random"]
    )
    def test_agreement_on_level_scan_families(self, graphs, compiled):
        for G in level_scan_family(graphs):
            self.assert_agree(G, range(-1, G.n + 2))

    @pytest.mark.parametrize("name", ALTERNATING_PAIRS)
    def test_agreement_where_failing_pairs_alternate(self, name, compiled):
        G = alternating_pairs_graph(name)
        self.assert_agree(G, range(1, G.n + 1))

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_agreement_at_64_vertices(self, k, compiled):
        # the full mask is ~0: bit 63 is a vertex
        matching_removed = build_graph(
            64, [(i, j) for i in range(64) for j in range(i + 1, 64) if j != i ^ 1]
        )
        for G in (complete(64), matching_removed):
            self.assert_agree(G, [k])

    def test_more_than_64_vertices_take_the_pure_kernel(self, compiled):
        masks = list(complete(65).closed_masks())
        with pytest.raises(ValueError):
            compiled.least(masks, kernel.TWO_SDS, 2, 2)
        assert kernel.solve_level(masks, kernel.TWO_SDS, 2, 2) == ((0, 1), 1)

    @pytest.mark.parametrize(
        "masks, error",
        [([3, -1], OverflowError), ([3, 7], ValueError), ([3, "3"], TypeError)],
    )
    def test_bad_masks_rejected(self, masks, error, compiled):
        with pytest.raises(error):
            compiled.least(masks, kernel.TWO_SDS, 1, 1)

    @pytest.mark.parametrize("kind", [3, -1])
    def test_unknown_kind_rejected(self, kind, compiled):
        masks = list(path(3).closed_masks())
        with pytest.raises(ValueError):
            compiled.least(masks, kind, 1, 1)
        with pytest.raises(ValueError):
            _pykernel.least(masks, kind, 1, 1)

    # The count of a flat scan of the k-combinations: none for k < 0 or
    # k > n, and the empty set, once, for k = 0.  Both backends run the same
    # checks, each given by its fixture, which `kernel.solve_level` takes.
    @pytest.fixture
    def pure(self, monkeypatch):
        monkeypatch.setattr(kernel, "_kernel", None)
        return _pykernel

    @staticmethod
    def assert_outside_range_examines_nothing(backend, k):
        masks = list(path(3).closed_masks())
        for kind in KINDS:
            assert backend.least(masks, kind, k, k) is None
            assert kernel.solve_level(masks, kind, k, k) == (None, 0)

    @staticmethod
    def assert_zero_examines_the_empty_set(backend):
        masks = list(path(3).closed_masks())
        for kind in KINDS:
            assert backend.least(masks, kind, 0, 0) is None
            assert kernel.solve_level(masks, kind, 0, 0) == (None, 1)
            # the empty set dominates the empty graph, and is of every kind
            assert backend.least([], kind, 0, 0) == ()
            assert kernel.solve_level([], kind, 0, 0) == ((), 1)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_pure_level_outside_range_examines_nothing(self, k, pure):
        self.assert_outside_range_examines_nothing(pure, k)

    @pytest.mark.parametrize("k", [-1, 4])
    def test_compiled_level_outside_range_examines_nothing(self, k, compiled):
        self.assert_outside_range_examines_nothing(compiled, k)

    def test_pure_level_zero_examines_the_empty_set(self, pure):
        self.assert_zero_examines_the_empty_set(pure)

    def test_compiled_level_zero_examines_the_empty_set(self, compiled):
        self.assert_zero_examines_the_empty_set(compiled)

    # The solves of the exact-solve benchmark workload that fit the default
    # budgets: name -> (graph, problem).
    EXACT_SOLVES = {
        "gs(K3)": (lambda: gs_graph(generate("complete", (3,))).graph, "2sds"),
        "gs(P3)": (lambda: gs_graph(generate("path", (3,))).graph, "2sds"),
        "inapprox(C6)": (lambda: inapprox_gadget(generate("cycle", (6,))).graph, "2sds"),
        "inapprox(C10)": (
            lambda: inapprox_gadget(generate("cycle", (10,))).graph, "2sds"
        ),
        "apx(C6)": (lambda: apx_gadget(generate("cycle", (6,))).graph, "2sds"),
        "rand13": (lambda: generate("random-connected", (13, 0.25), seed=42), "2sds"),
        "rand14": (lambda: generate("random-connected", (14, 0.25), seed=14), "2sds"),
        "rand16": (lambda: generate("random-connected", (16, 0.25), seed=16), "2sds"),
        "cycle16": (lambda: generate("cycle", (16,)), "2sds"),
        "path16": (lambda: generate("path", (16,)), "2sds"),
        "comb8": (lambda: generate("comb", (8,)), "2sds"),
        "split16": (lambda: generate("random-split", (16, 0.3), seed=16), "2sds"),
        "comb10.dom": (lambda: generate("comb", (10,)), DOMINATING),
        "comb11.dom": (lambda: generate("comb", (11,)), DOMINATING),
        "cycle22.dom": (lambda: generate("cycle", (22,)), DOMINATING),
        "path22.dom": (lambda: generate("path", (22,)), DOMINATING),
        "comb8.2dom": (lambda: generate("comb", (8,)), TWO_DOMINATING),
        "cycle16.2dom": (lambda: generate("cycle", (16,)), TWO_DOMINATING),
        "rand16.2dom": (
            lambda: generate("random-connected", (16, 0.25), seed=16), TWO_DOMINATING
        ),
    }

    @pytest.mark.parametrize("name", list(EXACT_SOLVES))
    def test_exact_minimum_agreement(self, name, compiled, monkeypatch):
        """The same report on either backend: value, witness, count and, for
        2-SDS, certificate.  The count is that of a flat scan from the first
        level of the solver's one `kernel.solve_level` call: size 2 for
        2-SDS, else 0."""
        build, problem = self.EXACT_SOLVES[name]
        G = build()

        def solve():
            if problem == "2sds":
                return exact_gamma_2s(G)
            return exact_minimum(G, problem)

        on_compiled = solve()
        monkeypatch.setattr(kernel, "_kernel", None)
        report = solve()
        assert report == on_compiled
        position = 1 + next(
            i
            for i, combo in enumerate(combinations(range(G.n), report.value))
            if combo == report.witness
        )
        first = 2 if problem == "2sds" else 0
        flat = sum(comb(G.n, k) for k in range(first, report.value))
        assert report.subsets_examined == flat + position

    def test_long_scan_answers_a_signal(self, compiled):
        """A handler that raises (as Ctrl-C's does) stops a compiled scan
        that would run for minutes."""

        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        masks = list(generate("comb", (24,)).closed_masks())
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            start = time.monotonic()
            signal.setitimer(signal.ITIMER_REAL, 0.3)
            with pytest.raises(Interrupted):
                kernel.solve_level(masks, kernel.TWO_SDS, 30, 30)
            assert time.monotonic() - start < 1.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


class TestLevelScan:
    """The depth-first level scan against the flat scan in tests/util.py:
    the same witness and the same count of k-combinations examined."""

    PREDICATES = {
        "dom": None,
        "2dom": lambda masks, smask: all(
            smask >> v & 1 or (m & smask).bit_count() >= 2
            for v, m in enumerate(masks)
        ),
        "2sds": is_2sds,
    }
    KIND = {"dom": kernel.DOM, "2dom": kernel.TWO_DOM, "2sds": kernel.TWO_SDS}

    @pytest.mark.parametrize("predicate", sorted(PREDICATES))
    @pytest.mark.parametrize(
        "graphs", [f"classes-n{n}" for n in range(1, 7)] + ["random"]
    )
    def test_matches_flat_scan(self, graphs, predicate, monkeypatch):
        monkeypatch.setattr(kernel, "_kernel", None)
        accept = self.PREDICATES[predicate]
        kind = self.KIND[predicate]
        for G in level_scan_family(graphs):
            masks = list(G.closed_masks())
            for k in range(0, G.n + 2):
                expected = reference_first_subset(masks, k, accept)
                assert kernel.solve_level(masks, kind, k, k) == expected, (G.edges, k)

    @pytest.mark.parametrize("name", ALTERNATING_PAIRS)
    def test_solve_level_where_failing_pairs_alternate(self, name, monkeypatch):
        monkeypatch.setattr(kernel, "_kernel", None)
        G = alternating_pairs_graph(name)
        masks = list(G.closed_masks())
        for k in range(1, G.n + 1):
            expected = reference_first_subset(masks, k, is_2sds)
            got = kernel.solve_level(masks, kernel.TWO_SDS, k, k)
            assert got == expected, (G.edges, k)

    @staticmethod
    def count_calls(monkeypatch, G):
        """The pure exact solve of G, and its calls of `_is_2sds` (dominating
        leaves tested), `first_undefended` (full defence scans) and
        `defenders` (single-pair defence searches, which only the retry of
        failed pairs runs), the certificate's included."""
        calls = {"_is_2sds": 0, "first_undefended": 0, "defenders": 0}

        def counting(name):
            search = getattr(_pykernel, name)

            def counted(*args):
                calls[name] += 1
                return search(*args)

            return counted

        monkeypatch.setattr(kernel, "_kernel", None)
        for name in calls:
            monkeypatch.setattr(_pykernel, name, counting(name))
        return exact_gamma_2s(G, budget=G.n), calls

    def test_defence_calls_of_comb8(self, monkeypatch):
        """A machine-independent guard on the shared-sole-defender rule and
        on the retry of every failing pair, most recent first: the pure exact
        solve of comb8 tests 1,126 dominating leaves (1,253 without the
        private-vertex counts, 3,086 without the rule either), and runs 17
        full defence scans and 1,131 single-pair defence searches (4,433
        without the rule; 319 scans when only the last failing pair is
        retried; 1,500 searches when a pair that defeats a set is not moved
        to the front)."""
        report, calls = self.count_calls(monkeypatch, generate("comb", (8,)))
        assert (report.value, report.subsets_examined) == (11, 58648)
        assert calls == {"_is_2sds": 1126, "first_undefended": 17, "defenders": 1131}

    def test_defence_calls_of_gs_p4(self, monkeypatch):
        """The rule at work on gs(P4): 81 dominating leaves tested, 2 full
        defence scans, both of the witness (its leaf and its certificate),
        and so no single-pair search: every other leaf falls to the rule and
        the list of failed pairs stays empty.  The private-vertex counts
        drop the prefixes whose leaves the rule would all reject, so 81
        leaves are tested, not 1,621 (26,290, 27 and 30,383 without the
        rule either)."""
        report, calls = self.count_calls(monkeypatch, gs_graph(path(4)).graph)
        assert (report.value, report.subsets_examined) == (12, 792393)
        assert calls == {"_is_2sds": 81, "first_undefended": 2, "defenders": 0}

    def test_defence_calls_of_cycle20(self, monkeypatch):
        """The degree bound at work on C20: every level below 10 holds fewer
        than 2n / (widest + 1) = 10 vertices, so no search runs there, and
        the pure exact solve tests 14 dominating leaves (213 without the
        private-vertex counts, 229 without the bound either, whose level 9
        searches to the end)."""
        report, calls = self.count_calls(monkeypatch, generate("cycle", (20,)))
        assert (report.value, report.subsets_examined) == (10, 491169)
        assert calls == {"_is_2sds": 14, "first_undefended": 3, "defenders": 1}


class TestSharedSoleDefender:
    """The leaf rule of the 2-SDS test: a dominating S is rejected before any
    defence search iff some v of S has two vertices u of N[v] with
    N[u] & S = {v}, and every S so rejected is not a 2-SDS."""

    class Searched(Exception):
        pass

    @pytest.mark.parametrize(
        "graphs", [f"classes-n{n}" for n in range(1, 8)] + ["random"]
    )
    def test_leaf_rule_is_sound(self, graphs, monkeypatch):
        def search(*args):
            raise self.Searched

        monkeypatch.setattr(_pykernel, "first_undefended", search)
        fired = 0
        for G in level_scan_family(graphs):
            masks = list(G.closed_masks())
            full = (1 << G.n) - 1
            closed = [nbrs | {v} for v, nbrs in enumerate(open_neighbourhoods(G))]
            for smask in range(1, full + 1):
                layered = _pykernel.layers(masks, smask, full)
                if layered[0]:
                    continue
                S = {v for v in range(G.n) if smask >> v & 1}
                try:
                    rejected = not _pykernel._is_2sds(masks, smask, full, layered, [])
                except self.Searched:
                    rejected = False
                shared = any(
                    sum(closed[u] & S == {v} for u in closed[v]) >= 2 for v in S
                )
                assert rejected == shared, (G.edges, S)
                if rejected:
                    fired += 1
                    assert not oracle_is_2sds(G, S), (G.edges, S)
        # K1, the one graph of classes-n1, has no two vertices to share one
        assert fired or graphs == "classes-n1"


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    """Each kernel module: `_pykernel`, and the built `_kernel`."""
    if request.param == "pure":
        return _pykernel
    return request.getfixturevalue("compiled_kernel")


class TestLowerBounds:
    """The 2-packing and degree bounds of the level scan where they are
    tight, on both backends: they return None exactly on the levels that
    hold no set of the kind, and leave every witness as the flat scan finds
    it."""

    # kind -> (the flat scan's `accept`, the least size of the kind on C_n)
    CYCLE = {
        kernel.DOM: (None, lambda n: -(-n // 3)),
        kernel.TWO_DOM: (TestLevelScan.PREDICATES["2dom"], lambda n: -(-n // 2)),
        kernel.TWO_SDS: (is_2sds, lambda n: -(-n // 2)),
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_cycles(self, backend, kind):
        """C_n has widest = 3, so the degree bound proves every level below
        ceil(n/3) empty for dom, and below ceil(n/2) for 2dom and 2-SDS: the
        least size of each kind."""
        accept, least = self.CYCLE[kind]
        for n in range(4, 17):
            masks = list(cycle(n).closed_masks())
            gamma = least(n)
            assert reference_first_subset(masks, gamma - 1, accept)[0] is None, n
            witness, _ = reference_first_subset(masks, gamma, accept)
            assert witness is not None, n
            assert backend.least(masks, kind, gamma, gamma) == witness, n
            assert backend.least(masks, kind, gamma - 1, gamma - 1) is None, n

    def test_combs(self, backend):
        """The k teeth of comb_k form a 2-packing, so dom level k - 1 is
        empty, and at level k every pick must cover a tooth of its own: the
        spine is the witness."""
        for k in range(3, 13):
            masks = list(generate("comb", (k,)).closed_masks())
            assert backend.least(masks, kernel.DOM, k - 1, k - 1) is None, k
            assert backend.least(masks, kernel.DOM, k, k) == tuple(range(k)), k

    def test_compiled_bound_runs_before_the_search(self, compiled_kernel):
        """C64 has 2dom and 2-SDS number 32, and the degree bound proves
        level 31 empty at once; the compiled search of that level runs for
        seconds.  An alarm whose handler raises (as Ctrl-C's does) stops a
        scan that searches."""

        class Searched(Exception):
            pass

        def interrupt(signum, frame):
            raise Searched

        masks = list(cycle(64).closed_masks())
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            for kind in (kernel.TWO_DOM, kernel.TWO_SDS):
                assert compiled_kernel.least(masks, kind, 31, 31) is None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    class Reads(list):
        """Masks that count the reads by index, which only the search makes:
        the bounds read the masks by iteration."""

        def __init__(self, masks):
            super().__init__(masks)
            self.reads = 0

        def __getitem__(self, i):
            self.reads += 1
            return super().__getitem__(i)

    def test_bounds_run_before_the_search(self):
        """The pure scan returns None on the tight levels above without
        searching them."""
        for n in range(4, 17):
            masks = self.Reads(cycle(n).closed_masks())
            for kind, (_, least) in self.CYCLE.items():
                assert _pykernel.least(masks, kind, least(n) - 1, least(n) - 1) is None
            assert masks.reads == 0, n
        for k in range(3, 13):
            masks = self.Reads(generate("comb", (k,)).closed_masks())
            assert _pykernel.least(masks, kernel.DOM, k - 1, k - 1) is None
            assert masks.reads == 0, k

    def test_packing_bound_cuts_a_prefix(self):
        """P12 has the 2-packing {11, 8, 5, 2} and domination number 4, so
        at dom level 4 every pick must cover a packing vertex no earlier pick
        covers: the search of the level reads 11 masks (103 without the cut
        of each prefix that misses one)."""
        masks = self.Reads(path(12).closed_masks())
        assert _pykernel.least(masks, kernel.DOM, 4, 4) == (1, 4, 7, 10)
        assert masks.reads == 11


def graph_with_leaves(rng):
    """A seeded graph on 4-10 vertices, often disconnected, with some
    vertices of degree 0 or 1: a sparse random graph, then a few pendant
    vertices hung on random vertices."""
    n = rng.randint(3, 8)
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.3]
    for leaf in range(n, n + rng.randint(1, 2)):
        edges.append((rng.randrange(leaf), leaf))
    return build_graph(leaf + 1, edges)


class TestPrivateVertexCounts:
    """The private-vertex counts of the 2dom and 2-SDS level scans: the last
    pick, the prefix count, the final count of 2dom and its forced
    vertices (proofs in `_pykernel.least`).  They drop only nodes that
    hold no set of the kind, so both backends keep the flat scan's witness,
    also on graphs with isolated and pendant vertices."""

    @pytest.mark.parametrize("kind", (kernel.TWO_DOM, kernel.TWO_SDS))
    def test_matches_flat_scan_with_leaves(self, backend, kind):
        accept = TestLevelScan.PREDICATES["2dom" if kind == kernel.TWO_DOM else "2sds"]
        rng = random.Random(28)
        for _ in range(60):
            G = graph_with_leaves(rng)
            masks = list(G.closed_masks())
            for k in range(1, G.n + 1):
                expected, _ = reference_first_subset(masks, k, accept)
                assert backend.least(masks, kind, k, k) == expected, (G.edges, k)

    def test_forced_vertices_bound_the_level(self):
        """A 2-dominating set holds every vertex of degree <= 1, so the five
        leaves of the star K1,5 prove 2dom level 4 empty before any search;
        the degree and packing bounds do not."""
        masks = TestLowerBounds.Reads(star(5).closed_masks())
        assert _pykernel.least(masks, kernel.TWO_DOM, 4, 4) is None
        assert masks.reads == 0
        assert _pykernel.least(masks, kernel.TWO_DOM, 5, 5) == (1, 2, 3, 4, 5)

    def test_forced_vertices_cut_the_2dom_search(self):
        """comb8 has 8 teeth of degree 1 and 2-domination number 11.  On
        level 10 a prefix ends with its later siblings once it passes a
        tooth, and a node is dropped when more teeth lie above it than
        picks remain: the search of the level reads 300 masks (14,914
        without the private-vertex counts)."""
        masks = TestLowerBounds.Reads(generate("comb", (8,)).closed_masks())
        assert _pykernel.least(masks, kernel.TWO_DOM, 10, 10) is None
        assert masks.reads == 300


class TestLevelRange:
    """`least(masks, kind, first, last)` on both backends: the witness of
    the first non-empty level among the per-level calls `least(masks, kind,
    k, k)` for k from `first` to `last`, or None; and the count of
    `kernel.solve_level`, which sums the flat levels up to it."""

    @pytest.mark.parametrize(
        "graphs", [f"classes-n{n}" for n in range(1, 7)] + ["random"]
    )
    def test_first_non_empty_level(self, graphs, backend):
        for G in level_scan_family(graphs):
            masks = list(G.closed_masks())
            sizes = range(-1, G.n + 2)
            for kind in KINDS:
                levels = {k: backend.least(masks, kind, k, k) for k in sizes}
                for first in sizes:
                    for last in sizes:
                        found = (levels[k] for k in range(first, last + 1))
                        expected = next((w for w in found if w is not None), None)
                        got = backend.least(masks, kind, first, last)
                        assert got == expected, (G.edges, kind, first, last)

    @pytest.mark.parametrize("graphs", ["classes-n5", "random"])
    def test_count_sums_the_levels(self, graphs):
        for G in level_scan_family(graphs):
            masks = list(G.closed_masks())
            for kind in KINDS:
                for first in range(-1, G.n + 2):
                    count = 0
                    for k in range(first, G.n + 2):
                        witness, examined = kernel.solve_level(masks, kind, k, k)
                        count += examined
                        if witness is not None:
                            break
                    assert kernel.solve_level(masks, kind, first, G.n + 1) == (
                        witness,
                        count,
                    ), (G.edges, kind, first)

    def test_below_the_least_size_or_an_empty_range(self, backend):
        for G in (cycle(9), generate("comb", (5,)), gs_graph(path(3)).graph):
            masks = list(G.closed_masks())
            for kind in KINDS:
                gamma = len(backend.least(masks, kind, 0, G.n))
                assert backend.least(masks, kind, 0, gamma - 1) is None
                assert backend.least(masks, kind, gamma, gamma - 1) is None
                assert backend.least(masks, kind, gamma + 1, gamma) is None

    def test_a_huge_last_is_clipped_at_n(self):
        """`dom_set_approx(G, 10**9)` gives the set of k = n at once, and a
        range above n counts nothing: the flat count is summed up to n, not
        up to `last`."""

        class Slow(Exception):
            pass

        def interrupt(signum, frame):
            raise Slow

        G = generate("comb", (5,))
        masks = list(G.closed_masks())
        previous = signal.signal(signal.SIGALRM, interrupt)
        try:
            signal.setitimer(signal.ITIMER_REAL, 1.0)
            assert dom_set_approx(G, 10**9) == dom_set_approx(G, G.n)
            for kind in KINDS:
                assert kernel.solve_level(masks, kind, G.n + 1, 10**9) == (None, 0)
                assert kernel.solve_level(masks, kind, 0, 10**9) == kernel.solve_level(
                    masks, kind, 0, G.n
                )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
