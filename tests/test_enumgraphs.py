import hashlib
import random
from itertools import combinations, permutations

import pytest

from secdom import enumgraphs
from secdom.enumgraphs import _canonical_code, _classes, connected_graphs
from secdom.graphs import GraphError
from util import reference_refined_cells

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


def sha256(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


def test_representatives_are_pinned(classes):
    """The same representatives in the same order as the generator that
    canonicalised every child."""
    reps = [(n, G.edges) for n in sorted(classes) for G in classes[n]]
    assert sha256(reps) == (
        "9258d3746c0ba7407c3416c15ae91853aded80e1093072b78110e82bac3ac72c"
    )


def test_eight_vertices():
    codes = _classes(8)
    assert len(codes) == 11117  # OEIS A001349
    assert sha256(codes) == (
        "d05ca11caed8fd2918727c804c61123513963694a5e1b1065f5056b7d422ed90"
    )


def closure(gens, n):
    """The group that the permutations `gens` of range(n) generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    for s in frontier:
        for g in gens:
            t = tuple(g[v] for v in s)
            if t not in group:
                group.add(t)
                frontier.append(t)
    return group


def test_labellings_of_a_representative_are_its_automorphisms(classes):
    """On a graph in canonical labelling, `_canonical_code` returns its code
    and automorphisms that, with the transpositions of twins, generate the
    whole automorphism group; checked against all n! permutations."""
    for n in range(1, 7):
        for G in classes[n]:
            edges = set(G.edges)
            autos = {
                s
                for s in permutations(range(n))
                if all(tuple(sorted((s[u], s[v]))) in edges for u, v in edges)
            }
            masks = G.closed_masks()
            code, labellings = _canonical_code(list(masks))
            assert G == enumgraphs.graph_from_mask(n, code)
            assert set(labellings) <= autos, G.edges
            swaps = []
            for a, b in combinations(range(n), 2):
                if masks[a] == masks[b] or masks[a] ^ 1 << a == masks[b] ^ 1 << b:
                    s = list(range(n))
                    s[a], s[b] = b, a
                    swaps.append(s)
            assert closure(labellings + swaps, n) == autos, G.edges


def test_refined_cells_match_the_full_count_on_labelled_graphs():
    """The splitter refinement, which counts only against the cells the last
    round created, gives the ordered cells of the reference, which counts
    against every cell in every round, on every labelled connected graph
    with n <= 5."""
    for n in range(1, 6):
        for G in connected_graphs(n):
            masks = list(G.closed_masks())
            cells = enumgraphs._refined_cells(masks)
            assert cells == reference_refined_cells(masks), G.edges


def test_refined_cells_match_the_full_count_on_relabelled_classes(classes):
    """The same on a seeded random relabelling of every class with n <= 7."""
    rng = random.Random(1)
    for n, reps in classes.items():
        for G in reps:
            s = list(range(n))
            rng.shuffle(s)
            # the closed-neighbourhood masks with each vertex v renamed s[v]
            masks = [0] * n
            for v, m in enumerate(G.closed_masks()):
                masks[s[v]] = sum(1 << s[u] for u in range(n) if (m >> u) & 1)
            cells = enumgraphs._refined_cells(masks)
            assert cells == reference_refined_cells(masks), (G.edges, s)


def test_negative_vertex_count_is_rejected():
    for up_to_iso in (False, True):
        with pytest.raises(GraphError):
            list(connected_graphs(-1, up_to_iso=up_to_iso))


def test_canonical_code_calls(monkeypatch):
    """A machine-independent guard on the orbit and cell rules:
    `_classes(7)` canonicalises its 143 parents, for generators of their
    automorphisms, and 996 children, one per Aut(parent)-orbit of subsets
    that passes the cell rule, for the 995 classes of sizes 2..7.  Without
    the rules that is all 7,815 children; 2,207 calls without the orbit rule
    (or with each subset marking only itself), 1,325 with orbits closed
    under the parents' labellings without their twin transpositions, 1,504
    with the degree rule in place of the cell rule, 4,302 with neither."""
    calls = 0
    search = enumgraphs._canonical_code

    def counted(*args):
        nonlocal calls
        calls += 1
        return search(*args)

    monkeypatch.setattr(enumgraphs, "_canonical_code", counted)
    assert len(_classes(7)) == 853
    assert calls == 1139


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
