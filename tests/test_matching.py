import corpus
from permdet import Graph, bipartition
from permdet.matching import elementary_pieces, perfect_matching


def pieces(g):
    return [tuple(i + 1 for i in range(g.n) if mask >> i & 1)
            for mask in elementary_pieces(g, bipartition(g))]


def test_perfect_matching_pairs_every_vertex_along_an_edge():
    for g in corpus.connected_bipartite_upto(8):
        mate = perfect_matching(g, bipartition(g))
        if mate is None:
            continue
        assert all(mate[mate[v]] == v and g.has_edge(v, mate[v]) for v in range(g.n))


def test_no_perfect_matching_means_no_pieces():
    for g in (corpus.complete_bipartite(2, 4), corpus.path_graph(5),
              Graph.from_edge_labels(4, [(1, 2), (1, 4)])):
        assert perfect_matching(g, bipartition(g)) is None
        assert elementary_pieces(g, bipartition(g)) == []


def test_elementary_graphs_are_one_piece():
    for g in (corpus.cycle_graph(4), corpus.cycle_graph(6), corpus.grid_graph(4, 4),
              corpus.complete_bipartite(3, 3)):
        assert pieces(g) == [tuple(range(1, g.n + 1))]


def test_inadmissible_edges_split_the_graph():
    # a unique perfect matching: every matching edge is its own piece
    assert pieces(corpus.path_graph(6)) == [(1, 2), (3, 4), (5, 6)]
    assert pieces(corpus.example10()) == [(1, 2, 3, 4, 5, 6), (7, 8, 9, 10)]
    assert pieces(corpus.bridged_c8_chain(3)) == [
        tuple(range(8 * b + 1, 8 * b + 9)) for b in range(3)
    ]

