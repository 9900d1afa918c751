import os
import random
import subprocess
import sys
from pathlib import Path

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
)

SRC = Path(__file__).resolve().parents[1] / "src"


def test_vertexset_basics():
    s = VertexSet(0b1000101)
    assert s.labels() == (1, 3, 7)
    assert s.indices() == (0, 2, 6)
    assert 0 in s and 2 in s and 1 not in s and -1 not in s
    assert VertexSet(0).indices() == ()


@pytest.mark.parametrize(
    "call",
    ["VertexSet(-2).labels()", "adjacency_after_removal(Graph.from_edges(3, []), VertexSet(-1))"],
    ids=["labels", "adjacency_after_removal"],
)
def test_negative_mask_raises_instead_of_hanging(call):
    # A negative mask has no highest set bit, so a walk over its bits
    # never ends; a subprocess with a timeout turns a hang into a failure.
    code = (
        "from permdet import Graph, VertexSet, adjacency_after_removal\n"
        "try:\n"
        f"    {call}\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=20, check=True
    )
    assert done.stdout.startswith("negative vertex mask -"), done.stdout


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


def test_non_ascii_whitespace_still_separates_tokens():
    # Only the tokens must be ASCII: a no-break space splits them as before.
    assert parse_edge_list("2\u00a01\n1 2\n").edges == ((0, 1),)


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


@pytest.mark.parametrize(
    "parse,text,kind,message,line_no",
    [
        (parse_biadjacency, "", ParseError, "empty input, expected 'p q' header", None),
        (parse_biadjacency, "\n2 3 4\n", ParseError,
         "line 2: malformed header '2 3 4', expected 'p q'", 2),
        (parse_biadjacency, "2 x\n", ParseError, "line 1: non-integer token 'x'", 1),
        (parse_biadjacency, "-1 2\n", ParseError,
         "line 1: header counts must be nonnegative", 1),
        (parse_biadjacency, "2 -2\n", ParseError,
         "line 1: header counts must be nonnegative", 1),
        (parse_biadjacency, "2 3\n1 0 1\n\n0 1\n", ParseError,
         "line 4: row has 2 entries, expected 3", 4),
        (parse_edge_list, "-1 0\n", ParseError, "line 1: header counts must be nonnegative", 1),
        (parse_edge_list, "\n3 -1\n", ParseError,
         "line 2: header counts must be nonnegative", 2),
        (parse_adjacency_matrix, "  \n\n", ParseError,
         "empty input, expected adjacency rows", None),
        (parse_adjacency_matrix, "0 1\n0 0\n", ParseError,
         "matrix is asymmetric at (2, 1)", None),
        (parse_adjacency_matrix, "0 2\n2 0\n", ParseError,
         "entry (1, 2) is 2, expected 0 or 1", None),
        (parse_adjacency_matrix, "0 1\n1 1\n", ParseError, "nonzero diagonal at vertex 2", None),
        (lambda text: Graph.from_edges(-1, []), "", ValueError,
         "vertex count must be nonnegative", None),
    ],
    ids=["biadj empty", "biadj malformed header", "biadj non-integer header",
         "biadj negative p", "biadj negative q", "biadj short row", "edge-list negative n",
         "edge-list negative m", "adjacency empty", "adjacency asymmetric",
         "adjacency entry", "adjacency diagonal", "from_edges negative n"],
)
def test_input_checks_raise_with_message_and_line(parse, text, kind, message, line_no):
    with pytest.raises(kind) as exc:
        parse(text)
    assert type(exc.value) is kind
    assert str(exc.value) == message
    if kind is ParseError:
        assert exc.value.line_no == line_no


@pytest.mark.parametrize("header", ["0 5", "3 0", "0 1"])
def test_parse_biadjacency_rejects_one_empty_side(header):
    # Blank rows are skipped, so 0 x q would lose q and read as 0 x 0.
    p, q = header.split()
    with pytest.raises(ParseError, match=f"line 1: header declares a {p} x {q} matrix"):
        parse_biadjacency(header + "\n")


def test_bipartition_example10_sides():
    # bipartition returns the left side; the right side is the rest.
    left = bipartition(corpus.example10())
    assert type(left) is VertexSet
    assert left == VertexSet(0b0101010101)
    assert left.labels() == (1, 3, 5, 7, 9)


def test_bipartition_covers_disconnected_graphs():
    # The smallest vertex of each component goes left; vertex 5 is isolated.
    g = Graph.from_edge_labels(6, [(2, 1), (4, 3), (6, 3)])
    assert bipartition(g).labels() == (1, 3, 5)
    for g in corpus.random_corpus(100):
        left = bipartition(g)
        assert all((u in left) != (v in left) for u, v in g.edges), g.edges


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
    assert bipartition(g).labels() == (1, 2, 3)


def test_adjacency_after_removal():
    c4 = corpus.cycle_graph(4)
    sub = adjacency_after_removal(c4, VertexSet(0b1))
    # remaining vertices 1,2,3 keep edges 1-2 and 2-3
    assert sub == ((0, 1, 0), (1, 0, 1), (0, 1, 0))
    assert adjacency_after_removal(c4, VertexSet(0b1111)) == ()
    with pytest.raises(ValueError):
        adjacency_after_removal(c4, VertexSet(1 << 9))


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
        direct = adjacency_after_removal(g, VertexSet(sum(1 << v for v in a + b)))
        kept = sorted(set(verts) - set(a))
        mid = induced_subgraph(g, VertexSet(sum(1 << v for v in kept)))
        b_mid = [kept.index(v) for v in b]
        two_step = adjacency_after_removal(mid, VertexSet(sum(1 << v for v in b_mid)))
        assert two_step == direct


def test_induced_subgraph():
    g = corpus.example10()
    sub = induced_subgraph(g, VertexSet(0b1111000000))
    assert sub.n == 4
    assert len(sub.edges) == 4  # the C3 square survives intact


def test_induced_subgraph_matches_the_dense_submatrix():
    # Relabelled by rank, with sorted edges and neighbours; members of
    # ``keep`` at or above n are ignored.
    rng = random.Random(5)
    for g in corpus.random_corpus(60) + (corpus.grid_graph(4, 5), Graph.from_edges(3, [])):
        for _ in range(8):
            keep = rng.getrandbits(g.n + 2)
            removed = VertexSet(((1 << g.n) - 1) & ~keep)
            sub = induced_subgraph(g, VertexSet(keep))
            assert sub == Graph.from_adjacency(adjacency_after_removal(g, removed)), g.edges
            assert sub.neighbors == tuple(tuple(sorted(b)) for b in sub.neighbors)
