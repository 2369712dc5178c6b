import pytest

from secdom.enumgraphs import connected_graphs

# connected graphs on n unlabeled vertices, OEIS A001349
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.fixture(scope="module")
def classes():
    return {n: list(connected_graphs(n, up_to_iso=True)) for n in A001349}


def test_class_counts_match_oeis(classes):
    assert {n: len(reps) for n, reps in classes.items()} == A001349


def test_representatives_are_connected(classes):
    for n, reps in classes.items():
        for G in reps:
            assert G.n == n
            assert G.is_connected()


def test_order_is_deterministic(classes):
    again = [G.edges for G in connected_graphs(7, up_to_iso=True)]
    assert again == [G.edges for G in classes[7]]


@pytest.mark.parametrize("up_to_iso", [False, True])
def test_returns_an_iterator(up_to_iso):
    it = connected_graphs(3, up_to_iso=up_to_iso)
    assert iter(it) is it


def test_labeled_counts():
    # connected graphs on n labeled vertices, OEIS A001187
    counts = [sum(1 for _ in connected_graphs(n)) for n in range(1, 6)]
    assert counts == [1, 1, 4, 38, 728]


def test_one_representative_per_atlas_class(classes):
    nx = pytest.importorskip("networkx")
    reps = {}
    for n, graphs in classes.items():
        for G in graphs:
            H = nx.Graph()
            H.add_nodes_from(range(n))
            H.add_edges_from(G.edges)
            key = (n, H.number_of_edges(), tuple(sorted(d for _, d in H.degree())))
            reps.setdefault(key, []).append([H, 0])
    atlas = [g for g in nx.graph_atlas_g() if len(g) and nx.is_connected(g)]
    for g in atlas:
        key = (len(g), g.number_of_edges(), tuple(sorted(d for _, d in g.degree())))
        matches = [r for r in reps.get(key, []) if nx.is_isomorphic(r[0], g)]
        assert len(matches) == 1, f"{len(matches)} representatives of {sorted(g.edges)}"
        matches[0][1] += 1
    # every representative matched exactly one atlas graph, so no two are
    # isomorphic and together they cover the atlas
    assert all(hits == 1 for bucket in reps.values() for _, hits in bucket)
    assert sum(len(bucket) for bucket in reps.values()) == len(atlas)
