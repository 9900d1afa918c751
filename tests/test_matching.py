import random

import corpus
from permdet import (
    Graph,
    bipartition,
    count_perfect_matchings,
    graph_from_biadjacency,
    permanent_auto,
)
from permdet.matching import elementary_pieces, perfect_matching


def pieces(g):
    left = bipartition(g).mask
    return [tuple(i + 1 for i in range(g.n) if mask >> i & 1)
            for mask in elementary_pieces(g, left, perfect_matching(g, left))]


def test_perfect_matching_pairs_every_vertex_along_an_edge():
    for g in corpus.connected_bipartite_upto(8):
        mate = perfect_matching(g, bipartition(g).mask)
        if mate is None:
            continue
        assert all(mate[mate[v]] == v and mate[v] in g.neighbors[v] for v in range(g.n))


def test_no_perfect_matching_means_no_pieces():
    for g in (corpus.complete_bipartite(2, 4), corpus.path_graph(5),
              Graph.from_edge_labels(4, [(1, 2), (1, 4)])):
        assert perfect_matching(g, bipartition(g).mask) is None
        report = permanent_auto(g)
        assert (report.value, report.pieces) == (0, ())


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


# The searches below go one level deeper per left vertex, past Python's
# default recursion limit of 1,000 for a recursive search.


def test_long_cycle_is_one_piece_without_recursion():
    # The alternating digraph of the 2,000-cycle is one directed
    # 1,000-cycle, which Tarjan's search walks to its end.
    g = corpus.cycle_graph(2000)
    assert pieces(g) == [tuple(range(1, 2001))]
    assert permanent_auto(g).value == 4
    assert count_perfect_matchings(corpus.biadjacency_of(g, range(0, 2000, 2))) == 2


def test_long_cyclic_biadjacency():
    # Row i has 1s in columns i and i + 1 mod 1000: the 2,000-cycle again.
    b = tuple(tuple(int(j in (i, (i + 1) % 1000)) for j in range(1000)) for i in range(1000))
    assert count_perfect_matchings(b) == 2
    assert permanent_auto(graph_from_biadjacency(b)).value == 4


def test_long_augmenting_path():
    # The path L1 R1 L2 R2 ... L1500 R1500, numbered so that the greedy
    # pass meets L1500 first and gives every L_k with k > 1 the vertex
    # R_(k-1).  L1 is left free, and its augmenting path runs the length
    # of the graph.
    n = 1500
    left = {k: 2 * (n - k) for k in range(1, n + 1)}
    right = {k: 2 * k - 1 for k in range(1, n + 1)}
    edges = [(left[k], right[k]) for k in range(1, n + 1)]
    edges += [(left[k + 1], right[k]) for k in range(1, n)]
    g = Graph.from_edges(2 * n, edges)
    mate = perfect_matching(g, bipartition(g).mask)
    assert mate is not None
    assert all(mate[left[k]] == right[k] for k in range(1, n + 1))



def _recursive_kuhn(g, left):
    """Reference: the same greedy pass, then Kuhn's augmenting-path search
    from each vertex it left free, recursive, neighbours in list order.
    Returns the mate list (or None) and the number of searches."""
    rows = [u for u in range(g.n) if left >> u & 1]
    mate = [-1] * g.n
    for u in rows:
        for w in g.neighbors[u]:
            if mate[w] < 0:
                mate[u], mate[w] = w, u
                break

    def augment(u, visited):
        for w in g.neighbors[u]:
            if not visited[w]:
                visited[w] = 1
                if mate[w] < 0 or augment(mate[w], visited):
                    mate[u], mate[w] = w, u
                    return True
        return False

    searches = 0
    for u in rows:
        if mate[u] < 0:
            searches += 1
            if not augment(u, bytearray(g.n)):
                return None, searches
    return mate, searches


def test_augmenting_search_visits_in_recursive_order():
    # The explicit stack must find the same matching as the recursion, or
    # the signing, the bad cycles, m and families would all change.
    rng = random.Random(8)
    graphs = [g for g in corpus.connected_bipartite_upto(8) + corpus.random_corpus()
              if 2 * bipartition(g).mask.bit_count() == g.n]
    for _ in range(60):
        g = rng.choice((corpus.random_cubic_bipartite(rng.randint(4, 12), rng),
                        corpus.grid_graph(4, 5), corpus.bridged_c8_chain(3)))
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(corpus.relabel(g, perm))
    augmented = 0
    for g in graphs:
        left = bipartition(g).mask
        mate, searches = _recursive_kuhn(g, left)
        assert perfect_matching(g, left) == mate, g.edges
        augmented += mate is not None and searches > 0
    assert augmented >= 40
