import pytest

from secdom import (
    DOMINATING,
    GraphError,
    build_graph,
    exact_gamma_2s,
    exact_minimum,
    generate,
    gs_graph,
    inapprox_gadget,
    apx_gadget,
    verify_2sds,
)
from util import K1, K2, K3, complete, cycle, path


class TestInapproxGadget:
    def test_p3_counts(self):
        result = inapprox_gadget(path(3))
        # m + 2n + 3 edges
        assert (result.graph.n, result.graph.m) == (8, 11)

    def test_roles_cover_everything(self):
        result = inapprox_gadget(path(3))
        assert sorted(result.roles) == list(range(8))
        assert [result.roles[v] for v in (3, 4, 5, 6, 7)] == [
            "w1", "w2", "z1", "z2", "z3",
        ]

    def test_w1_w2_adjacent_to_all_originals_but_not_each_other(self):
        G = path(4)
        gadget = inapprox_gadget(G).graph
        w1, w2 = G.n, G.n + 1
        masks = gadget.closed_masks()
        for v in range(G.n):
            assert masks[v] >> w1 & 1 and masks[v] >> w2 & 1
        assert not masks[w1] >> w2 & 1

    def test_k1_bound(self):
        result = inapprox_gadget(K1)
        assert result.graph.n == 6
        gamma = exact_minimum(K1, DOMINATING).value
        assert exact_gamma_2s(result.graph).value <= gamma + 3

    def test_figure_sized_instance(self):
        # the illustrated construction starts from a 6-vertex graph
        G = generate("random-connected", (6, 0.6), seed=1)
        assert inapprox_gadget(G).graph.n == 11


class TestApxGadget:
    def test_four_vertex_input(self):
        G = build_graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        result = apx_gadget(G)
        assert result.graph.n == 10
        assert result.graph.max_degree() <= 4

    def test_p3_odd_vertex_gets_own_attachment(self):
        result = apx_gadget(path(3))
        assert result.graph.n == 9
        # v_3 (id 2) alone on x_2^1 (id 6)
        assert (2, 6) in result.graph.edges
        assert result.roles[6] == "x_2^1"

    def test_k2_identity(self):
        result = apx_gadget(K2)
        assert result.graph.n == 5
        assert exact_gamma_2s(result.graph).value == 1 + 2

    def test_pendant_paths(self):
        result = apx_gadget(path(4))
        for i in (0, 1):
            x1 = 4 + 3 * i
            assert (x1, x1 + 1) in result.graph.edges
            assert (x1 + 1, x1 + 2) in result.graph.edges
            assert result.graph.closed_masks()[x1 + 2].bit_count() == 2

    def test_high_degree_warning(self):
        result = apx_gadget(generate("star", (4,)))
        assert "warning" in result.param_map


class TestGsGraph:
    def test_k3(self):
        result = gs_graph(K3)
        assert (result.graph.n, result.graph.m) == (15, 15)
        assert exact_gamma_2s(result.graph).value == 9

    def test_k1_degenerate(self):
        # the 3n identity needs n >= 2; the single-star case optimum is 4
        result = gs_graph(K1)
        assert result.graph.n == 5
        assert exact_gamma_2s(result.graph).value == 4
        assert "warning" in result.param_map
        assert result.param_map["identity"].startswith("gamma2s(G') = 4")

    def test_k2_domination_count(self):
        result = gs_graph(K2)
        assert result.graph.n == 10
        assert exact_minimum(result.graph, DOMINATING).value == 1 + 2

    def test_witness_verifies(self):
        G = cycle(4)
        result = gs_graph(G)
        witness = list(range(4)) + [4 + 4 * i + j for i in range(4) for j in (1, 2)]
        assert verify_2sds(result.graph, witness) is not None

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            gs_graph(build_graph(4, [(0, 1), (2, 3)]))


class TestGenerate:
    def test_star(self):
        G = generate("star", (3,))
        assert (G.n, G.m) == (4, 3)
        assert G.max_degree() == 3

    def test_comb(self):
        G = generate("comb", (3,))
        assert (G.n, G.m) == (6, 5)
        assert sum(m.bit_count() == 2 for m in G.closed_masks()) == 3  # the teeth

    def test_path_cycle_complete(self):
        assert generate("path", (5,)).m == 4
        assert generate("cycle", (5,)).m == 5
        assert generate("complete", (4,)).m == 6

    def test_random_connected_deterministic(self):
        a = generate("random-connected", (8, 0.3), seed=7)
        b = generate("random-connected", (8, 0.3), seed=7)
        assert a == b
        assert a.is_connected()

    def test_random_split_connected_and_split(self):
        G = generate("random-split", (9, 0.3), seed=5)
        assert G.is_connected()
        clique = (9 + 1) // 2
        masks = G.closed_masks()
        for i in range(9):
            for j in range(i + 1, 9):
                if j < clique:
                    assert masks[i] >> j & 1
                elif i >= clique:
                    assert not masks[i] >> j & 1

    def test_bad_inputs(self):
        with pytest.raises(GraphError):
            generate("petersen", (10,))
        with pytest.raises(GraphError):
            generate("path", (0,))
        with pytest.raises(GraphError):
            generate("random-connected", (5, 1.5), seed=1)

    @pytest.mark.parametrize("size", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_size_rejected(self, size):
        with pytest.raises(GraphError, match="finite"):
            generate("path", (size,))

    @pytest.mark.parametrize(
        "family, params", [("path", (2.7,)), ("random-connected", (3.5, 0.5))]
    )
    def test_fractional_size_rejected(self, family, params):
        with pytest.raises(GraphError, match="whole number"):
            generate(family, params, seed=1)
        # a whole size given as a float builds the graph
        whole = (float(int(params[0])),) + params[1:]
        assert generate(family, whole, seed=1).n == int(params[0])
