import random

import corpus
import pytest
from permdet import (
    Graph,
    NotBipartiteError,
    ParseError,
    VertexSet,
    adjacency_after_removal,
    bipartition,
    graph_from_biadjacency,
    induced_subgraph,
    parse_adjacency_matrix,
    parse_biadjacency,
    parse_edge_list,
    render_edge_list,
)


def test_vertexset_basics():
    s = VertexSet.from_indices([2, 0, 6])
    assert s.mask == 0b1000101
    assert s.labels() == (1, 3, 7)
    assert s.indices() == (0, 2, 6)
    assert 0 in s and 2 in s and 1 not in s and -1 not in s
    assert VertexSet().indices() == ()


def test_vertexset_rejects_negative():
    with pytest.raises(ValueError):
        VertexSet.from_indices([-1])


def test_from_edges_collapses_duplicates():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))
    assert g.adj == ((0, 1, 0), (1, 0, 1), (0, 1, 0))
    assert g.neighbors[1] == (0, 2)


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    big = Graph.from_edges(200, [])
    assert big.n == 200 and big.edges == ()


def test_from_edge_labels_is_one_indexed():
    g = Graph.from_edge_labels(3, [(1, 2), (2, 3)])
    assert g.edges == ((0, 1), (1, 2))


def test_from_adjacency_validation():
    with pytest.raises(ValueError):
        Graph.from_adjacency([(0, 1), (0, 0)])  # asymmetric
    with pytest.raises(ValueError):
        Graph.from_adjacency([(1,)])  # nonzero diagonal
    with pytest.raises(ValueError):
        Graph.from_adjacency([(0, 2), (2, 0)])  # entry outside 0/1
    with pytest.raises(ValueError):
        Graph.from_adjacency([(0, 1)])  # not square


def test_parse_edge_list_example10():
    g = parse_edge_list(corpus.fixture_text("example10.edges"))
    assert g.n == 10
    assert g.edges == tuple(sorted((u - 1, v - 1) for u, v in corpus.EXAMPLE10_EDGES))


def test_parse_edge_list_round_trip():
    g = corpus.example10()
    assert parse_edge_list(render_edge_list(g)).edges == g.edges


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty input"),
        ("2\n", "expected 'n m'"),
        ("2 1\n", "edge lines"),
        ("2 1\n1 x\n", "non-integer"),
        ("2 1\n1 3\n", "out of range"),
        ("2 1\n1 1\n", "self-loop"),
        ("2 2\n1 2\n", "edge lines"),
    ],
)
def test_parse_edge_list_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_edge_list(text)
    assert fragment in str(exc.value)


def test_parse_error_reports_line_number():
    with pytest.raises(ParseError) as exc:
        parse_edge_list("2 2\n1 2\n1 zz\n")
    assert exc.value.line_no == 3
    assert str(exc.value).startswith("line 3:")


@pytest.mark.parametrize(
    "body,message",
    [
        ("x 2", "line 3: non-integer token 'x'"),
        ("1 y", "line 3: non-integer token 'y'"),
        ("x y", "line 3: non-integer token 'x'"),
        ("1.0 2", "line 3: non-integer token '1.0'"),
        ("0 2", "line 3: vertex index out of range 1..3 in edge (0, 2)"),
        ("2 4", "line 3: vertex index out of range 1..3 in edge (2, 4)"),
        ("-1 2", "line 3: vertex index out of range 1..3 in edge (-1, 2)"),
        ("3 3", "line 3: self-loop at vertex 3"),
        ("1 2 3", "line 3: expected 'u v', got '1 2 3'"),
    ],
)
def test_parse_edge_list_error_text(body, message):
    # The bad line comes after a blank line, so the number counts it.
    with pytest.raises(ParseError) as exc:
        parse_edge_list(f"3 1\n\n{body}\n")
    assert str(exc.value) == message
    assert exc.value.line_no == 3


def _random_edges(rng, n, p):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _from_messy_pairs(rng):
    # Pairs in random order and orientation, each given twice.
    pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in _random_edges(rng, 9, 0.4)]
    pairs += pairs
    rng.shuffle(pairs)
    return Graph.from_edges(9, pairs)


def _from_adjacency(rng):
    return Graph.from_adjacency(Graph.from_edges(9, _random_edges(rng, 9, 0.4)).adj)


def _from_shuffled_text(rng):
    lines = [f"{v + 1} {u + 1}" if rng.random() < 0.5 else f"{u + 1} {v + 1}"
             for u, v in _random_edges(rng, 9, 0.4)]
    lines += lines[: len(lines) // 2]
    rng.shuffle(lines)
    return parse_edge_list("\n".join([f"9 {len(lines)}", *lines]) + "\n")


def _from_biadjacency(rng):
    return graph_from_biadjacency(
        tuple(tuple(int(rng.random() < 0.5) for _ in range(5)) for _ in range(4))
    )


@pytest.mark.parametrize(
    "build",
    [_from_messy_pairs, _from_adjacency, _from_shuffled_text, _from_biadjacency],
    ids=["from_edges", "from_adjacency", "parse_edge_list", "graph_from_biadjacency"],
)
def test_neighbors_sorted_for_every_constructor(build):
    # Graph reads neighbors off its sorted edges without sorting them.
    rng = random.Random(17)
    for _ in range(20):
        g = build(rng)
        assert list(g.edges) == sorted(set(g.edges))
        assert all(u < v for u, v in g.edges)
        for v, nbrs in enumerate(g.neighbors):
            expected = sorted({b for a, b in g.edges if a == v} | {a for a, b in g.edges if b == v})
            assert list(nbrs) == expected


def test_parse_adjacency_round_trip():
    g = corpus.example10()
    text = "\n".join(" ".join(str(a) for a in row) for row in g.adj) + "\n"
    assert parse_adjacency_matrix(text).edges == g.edges
    for g in corpus.connected_bipartite_upto(8):
        assert Graph.from_adjacency(g.adj) == g


def test_parse_adjacency_rejects_nonsquare():
    with pytest.raises(ParseError):
        parse_adjacency_matrix("0 1\n")


def test_parse_biadjacency():
    rows = parse_biadjacency("2 3\n1 0 1\n0 1 0\n")
    assert rows == ((1, 0, 1), (0, 1, 0))
    with pytest.raises(ParseError):
        parse_biadjacency("2 3\n1 0 1\n")
    with pytest.raises(ParseError):
        parse_biadjacency("1 2\n1 2\n")


@pytest.mark.parametrize("header", ["0 5", "3 0", "0 1"])
def test_parse_biadjacency_rejects_one_empty_side(header):
    # Blank rows are skipped, so 0 x q would lose q and read as 0 x 0.
    p, q = header.split()
    with pytest.raises(ParseError, match=f"line 1: header declares a {p} x {q} matrix"):
        parse_biadjacency(header + "\n")


def test_bipartition_example10_sides():
    bp = bipartition(corpus.example10())
    assert bp.left.labels() == (1, 3, 5, 7, 9)
    assert bp.right.labels() == (2, 4, 6, 8, 10)


def test_bipartition_covers_disconnected_graphs():
    g = Graph.from_edge_labels(5, [(1, 2), (3, 4)])  # vertex 5 isolated
    bp = bipartition(g)
    assert set(bp.left.labels()) | set(bp.right.labels()) == {1, 2, 3, 4, 5}
    assert bp.left.mask & bp.right.mask == 0


def _assert_odd_cycle_witness(g, witness):
    assert len(witness) >= 3 and len(witness) % 2 == 1
    assert len(set(witness)) == len(witness)
    ring = list(witness) + [witness[0]]
    for a, b in zip(ring, ring[1:]):
        assert b - 1 in g.neighbors[a - 1]


def test_not_bipartite_witness_triangle():
    g = Graph.from_edge_labels(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(NotBipartiteError) as exc:
        bipartition(g)
    _assert_odd_cycle_witness(g, exc.value.odd_cycle)


def test_not_bipartite_witness_c5_with_tail():
    g = Graph.from_edge_labels(7, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (5, 6), (6, 7)])
    with pytest.raises(NotBipartiteError) as exc:
        bipartition(g)
    _assert_odd_cycle_witness(g, exc.value.odd_cycle)


def test_graph_from_biadjacency_builds_k33():
    g = graph_from_biadjacency(((1, 1, 1),) * 3)
    assert g.n == 6
    assert g.edges == tuple((u, v) for u in (0, 1, 2) for v in (3, 4, 5))
    bp = bipartition(g)
    assert (bp.left.labels(), bp.right.labels()) == ((1, 2, 3), (4, 5, 6))


def test_adjacency_after_removal():
    c4 = corpus.cycle_graph(4)
    sub = adjacency_after_removal(c4, VertexSet.from_indices([0]))
    # remaining vertices 1,2,3 keep edges 1-2 and 2-3
    assert sub == ((0, 1, 0), (1, 0, 1), (0, 1, 0))
    assert adjacency_after_removal(c4, VertexSet(0b1111)) == ()
    with pytest.raises(ValueError):
        adjacency_after_removal(c4, VertexSet.from_indices([9]))


def test_removal_composes():
    # Removing A then B (reindexed) matches removing A | B in one step.
    rng = random.Random(7)
    graphs = [corpus.example10()] + [
        corpus.random_bipartite(9, 0.4, rng) for _ in range(10)
    ]
    for g in graphs:
        verts = list(range(g.n))
        picked = rng.sample(verts, 5)
        a, b = picked[:2], picked[2:]
        direct = adjacency_after_removal(g, VertexSet.from_indices(a + b))
        kept = sorted(set(verts) - set(a))
        mid = induced_subgraph(g, VertexSet.from_indices(kept))
        b_mid = [kept.index(v) for v in b]
        two_step = adjacency_after_removal(mid, VertexSet.from_indices(b_mid))
        assert two_step == direct


def test_induced_subgraph():
    g = corpus.example10()
    sub = induced_subgraph(g, VertexSet.from_indices([6, 7, 8, 9]))
    assert sub.n == 4
    assert len(sub.edges) == 4  # the C3 square survives intact
