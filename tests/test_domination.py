import math
import random
from itertools import combinations

import pytest

from secdom import (
    BudgetExceededError,
    DOMINATING,
    GraphError,
    TWO_DOMINATING,
    build_graph,
    exact_minimum,
    greedy_2dominating,
    greedy_dominating,
    is_2dominating,
    is_dominating,
)
from secdom.enumgraphs import connected_graphs
from util import (
    K3,
    complete,
    cycle,
    oracle_2dominating,
    oracle_dominating,
    path,
    random_connected,
    star,
)


class TestCheckers:
    def test_star_center_dominates(self):
        assert is_dominating(star(3), [0])

    def test_p3_endpoint_fails(self):
        assert not is_dominating(path(3), [0])

    def test_whole_vertex_set(self):
        G = random_connected(7, 0.4, random.Random(0))
        assert is_dominating(G, range(G.n))

    def test_empty_set_fails_on_nonempty_graph(self):
        assert not is_dominating(path(2), [])

    def test_leaves_2dominate_star(self):
        assert is_2dominating(star(3), [1, 2, 3])

    def test_center_alone_not_2dominating(self):
        assert not is_2dominating(star(3), [0])

    def test_c4_opposite_pair(self):
        assert is_2dominating(cycle(4), [0, 2])

    def test_members_impose_no_requirement(self):
        # a leaf is fine inside D even with a single neighbor
        assert is_2dominating(path(2), [0, 1])

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_class_every_set(self, n):
        for G in connected_graphs(n, up_to_iso=True):
            for m in range(1 << n):
                S = [v for v in range(n) if m >> v & 1]
                assert is_dominating(G, S) == oracle_dominating(G, S), (G.edges, S)
                assert is_2dominating(G, S) == oracle_2dominating(G, S), (G.edges, S)

    @pytest.mark.parametrize("check", [is_dominating, is_2dominating])
    @pytest.mark.parametrize(
        "G,S",
        [
            (path(3), [1, 1]),
            (path(3), [0, 0, 2]),
            (star(3), [0, 1, 0]),
            (cycle(5), [0, 2, 2]),
        ],
    )
    def test_duplicate_ids_count_once(self, check, G, S):
        assert check(G, S) == check(G, set(S))

    def test_duplicate_centre_does_not_2dominate(self):
        # each leaf sees the centre once, however often it is listed
        assert not is_2dominating(path(3), [1, 1])
        assert not is_2dominating(star(3), [0, 0, 0])
        assert is_2dominating(path(3), [0, 2, 2])

    @pytest.mark.parametrize("check", [is_dominating, is_2dominating])
    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_id_rejected(self, check, bad):
        with pytest.raises(GraphError):
            check(K3, [0, bad])


class TestGreedyDominating:
    def test_star_picks_center(self):
        assert greedy_dominating(star(4)) == (0,)

    def test_edgeless(self):
        assert greedy_dominating(build_graph(3, [])) == (0, 1, 2)

    def test_p5_trace(self):
        # 1 wins the first tie on ids, then 3 covers the rest
        assert greedy_dominating(path(5)) == (1, 3)

    @pytest.mark.parametrize("seed", range(20))
    def test_output_dominates(self, seed):
        rng = random.Random(seed)
        G = random_connected(rng.randint(2, 14), 0.35, rng)
        assert is_dominating(G, greedy_dominating(G))


class TestGreedy2Dominating:
    def test_c4(self):
        assert greedy_2dominating(cycle(4)) == (0, 2)

    def test_star_takes_everything(self):
        assert greedy_2dominating(star(3)) == (0, 1, 2, 3)

    def test_k3(self):
        assert greedy_2dominating(K3) == (0, 1)

    def test_k2_leaf_rule(self):
        assert greedy_2dominating(complete(2)) == (0, 1)

    @pytest.mark.parametrize("n", [0, 3])
    def test_edgeless_takes_everything(self, n):
        assert greedy_2dominating(build_graph(n, [])) == tuple(range(n))

    @pytest.mark.parametrize("seed", range(20))
    def test_output_2dominates(self, seed):
        rng = random.Random(100 + seed)
        G = random_connected(rng.randint(2, 14), 0.35, rng)
        assert is_2dominating(G, greedy_2dominating(G))


class TestExactMinimum:
    def test_p3_dominating(self):
        report = exact_minimum(path(3), DOMINATING)
        assert (report.value, report.witness) == (1, (1,))

    def test_c4_2dominating(self):
        report = exact_minimum(cycle(4), TWO_DOMINATING)
        assert (report.value, report.witness) == (2, (0, 2))

    def test_star_2dominating_leaves_forced(self):
        report = exact_minimum(star(3), TWO_DOMINATING)
        assert (report.value, report.witness) == (3, (1, 2, 3))

    def test_budget_refusal(self):
        with pytest.raises(BudgetExceededError):
            exact_minimum(path(30), DOMINATING)

    @pytest.mark.parametrize(
        "kind, check",
        [(DOMINATING, is_dominating), (TWO_DOMINATING, is_2dominating)],
        ids=["dom", "2dom"],
    )
    def test_witness_is_lex_least_minimum(self, kind, check):
        rng = random.Random(7)
        for _ in range(10):
            G = random_connected(rng.randint(2, 8), 0.4, rng)
            report = exact_minimum(G, kind)
            mins = [
                S
                for S in combinations(range(G.n), report.value)
                if check(G, S)
            ]
            assert report.witness == min(mins)
            assert not any(
                check(G, S)
                for k in range(report.value)
                for S in combinations(range(G.n), k)
            )

    def test_gamma_lower_bound(self):
        # gamma(G) >= n / (Delta(G) + 1)
        rng = random.Random(11)
        for _ in range(15):
            G = random_connected(rng.randint(2, 10), 0.35, rng)
            gamma = exact_minimum(G, DOMINATING).value
            assert gamma >= G.n / (G.max_degree() + 1)


class TestLnRatioBounds:
    @pytest.mark.parametrize("seed", range(15))
    def test_greedy_dominating_within_ln_ratio(self, seed):
        rng = random.Random(200 + seed)
        G = random_connected(rng.randint(2, 9), 0.4, rng)
        gamma = exact_minimum(G, DOMINATING).value
        bound = (1 + math.log(G.max_degree() + 1)) * gamma
        assert len(greedy_dominating(G)) <= bound

    def test_2dominating_is_dominating_without_isolates(self):
        rng = random.Random(13)
        for _ in range(15):
            G = random_connected(rng.randint(2, 10), 0.4, rng)
            assert is_dominating(G, greedy_2dominating(G))
