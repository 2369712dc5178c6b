import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from secdom import GraphError, build_graph
from secdom.graphs import check_vertex_set
from util import K1, K3, complete, cycle, open_neighbourhoods, path, star


def small_graphs():
    """Hypothesis strategy: arbitrary simple graphs with up to 8 vertices."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=8))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return build_graph(n, chosen)

    return build()


class TestBuildGraph:
    def test_duplicates_collapse(self):
        G = build_graph(3, [(0, 1), (1, 2), (1, 0)])
        assert G.m == 2
        assert G.edges == ((0, 1), (1, 2))

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError, match=r"\(0,0\)"):
            build_graph(2, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match=r"\(0,5\)"):
            build_graph(3, [(0, 5)])

    def test_c4_degrees(self):
        assert [m.bit_count() - 1 for m in cycle(4).closed_masks()] == [2, 2, 2, 2]

    def test_adjacency_sorted_and_symmetric(self):
        G = build_graph(4, [(3, 0), (2, 0), (1, 0)])
        masks = G.closed_masks()
        assert masks == (0b1111, 0b0011, 0b0101, 0b1001)
        for u in range(4):
            for v in range(4):
                assert masks[u] >> v & 1 == masks[v] >> u & 1


class TestMaskQueries:
    @given(small_graphs())
    @example(build_graph(0, []))
    def test_match_literal_edge_reading(self, G):
        """Every mask-based query against plain sets read from G.edges and a
        plain-set BFS from vertex 0, disconnected graphs and n = 0 included."""
        nbrs = open_neighbourhoods(G)
        closed = [sorted(nbrs[v] | {v}) for v in range(G.n)]
        assert G.closed_masks() == tuple(sum(1 << w for w in c) for c in closed)
        if G.n == 0:
            with pytest.raises(GraphError):
                G.max_degree()
        else:
            assert G.max_degree() == max(len(a) for a in nbrs)
        reached = {0} if G.n else set()
        frontier = set(reached)
        while frontier:
            frontier = {w for v in frontier for w in nbrs[v]} - reached
            reached |= frontier
        assert G.is_connected() == (len(reached) == G.n)


class TestNeighborhoods:
    def test_closed_neighborhood_c4(self):
        assert cycle(4).closed_masks()[0] == 0b1011

    def test_closed_neighborhood_k3(self):
        assert K3.closed_masks()[2] == 0b111

    def test_isolated(self):
        assert K1.closed_masks() == (0b1,)

    def test_invalid_vertex(self):
        assert check_vertex_set(K3, [2, 0, 2]) == (0, 2)
        for S in ([5], [0, -1], [2, 3]):
            with pytest.raises(GraphError, match="outside 0..2"):
                check_vertex_set(K3, S)

    @given(small_graphs())
    def test_size_is_degree_plus_one(self, G):
        nbrs = open_neighbourhoods(G)
        for v, m in enumerate(G.closed_masks()):
            assert m.bit_count() == len(nbrs[v]) + 1


class TestConnectivityAndDegree:
    def test_p3_connected(self):
        assert path(3).is_connected()

    def test_two_disjoint_edges(self):
        assert not build_graph(4, [(0, 1), (2, 3)]).is_connected()

    def test_single_vertex(self):
        assert K1.is_connected()

    def test_max_degree(self):
        assert star(3).max_degree() == 3
        assert cycle(5).max_degree() == 2
        assert complete(4).max_degree() == 3

