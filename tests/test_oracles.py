import importlib
import random

import corpus
import pytest
from permdet import (
    Graph,
    InternalInvariantError,
    SizeGuardExceeded,
    VertexSet,
    check_parity_identity,
    check_removal_identity,
    det_via_sachs,
    determinant,
    enumerate_sachs,
    per_naive,
    per_ryser,
    per_via_sachs,
    permanent_theorem1,
    verify_theorem2,
)


def test_ryser_known_values():
    assert per_ryser(()) == 1
    assert per_ryser(((1,),)) == 1
    assert per_ryser(((0,),)) == 0
    assert per_ryser(((1, 1), (1, 1))) == 2
    # all-ones n x n has permanent n!
    assert per_ryser([[1] * 5 for _ in range(5)]) == 120
    assert per_ryser([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 1
    assert per_ryser(corpus.example10().adj) == 36


def test_naive_known_values():
    assert per_naive(()) == 1
    assert per_naive(((1, 1), (1, 1))) == 2
    assert per_naive([[1] * 4 for _ in range(4)]) == 24


def test_ryser_agrees_with_naive_on_random_matrices():
    rng = random.Random(5150)
    for _ in range(80):
        n = rng.randint(0, 6)
        m = [[1 if rng.random() < 0.5 else 0 for _ in range(n)] for _ in range(n)]
        assert per_ryser(m) == per_naive(m), m
    # both formulas hold for arbitrary integer entries too
    for _ in range(20):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert per_ryser(m) == per_naive(m), m


def test_oracle_guards():
    big = [[0] * 31 for _ in range(31)]
    with pytest.raises(SizeGuardExceeded):
        per_ryser(big)
    with pytest.raises(SizeGuardExceeded):
        per_naive([[0] * 11 for _ in range(11)])
    wide = Graph.from_edges(15, [])
    with pytest.raises(SizeGuardExceeded):
        per_via_sachs(wide)
    with pytest.raises(SizeGuardExceeded):
        det_via_sachs(wide)
    with pytest.raises(SizeGuardExceeded):
        verify_theorem2(wide, 0)
    with pytest.raises(SizeGuardExceeded):
        check_removal_identity(Graph.from_edges(13, []))


def test_ryser_rejects_nonsquare():
    with pytest.raises(ValueError):
        per_ryser(((1, 0),))


def test_sachs_subgraph_counts_example10():
    g = corpus.example10()
    assert len(enumerate_sachs(g, 2)) == 12
    assert len(enumerate_sachs(g, 4)) == 51
    assert len(enumerate_sachs(g, 6)) == 94


def test_sachs_component_classification():
    g = corpus.example10()
    for u in enumerate_sachs(g, 10):
        assert u.p == u.c + u.r
        assert u.c == u.s + u.t  # bipartite host: every cycle is even
        assert u.i == 10
        assert len(u.covered) == 10


def test_sachs_empty_and_odd_sizes():
    g = corpus.example10()
    empty = enumerate_sachs(g, 0)
    assert len(empty) == 1 and empty[0].p == 0
    # a bipartite graph covers only even vertex counts
    assert enumerate_sachs(g, 3) == []
    with pytest.raises(ValueError):
        enumerate_sachs(g, 11)


def test_sachs_handles_odd_cycles():
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    spanning = enumerate_sachs(k3, 3)
    assert len(spanning) == 1
    assert spanning[0].c == 1 and spanning[0].s == 0 and spanning[0].t == 0
    assert det_via_sachs(k3) == determinant(k3.adj) == 2
    assert per_via_sachs(k3) == per_ryser(k3.adj) == 2


def test_sachs_oracles_match_on_small_corpus():
    for g in corpus.connected_bipartite_upto(6):
        assert per_via_sachs(g) == per_ryser(g.adj), g.edges
        assert det_via_sachs(g) == determinant(g.adj), g.edges


def test_sachs_grouping_mismatch_raises_invariant_error(monkeypatch):
    from permdet import oracles

    monkeypatch.setattr(oracles, "_grouped_sachs_sum", lambda spanning: 0)
    with pytest.raises(InternalInvariantError, match="Sachs grouping mismatch"):
        per_via_sachs(corpus.example10())


def test_theorem1_reference_is_independent_of_the_engine(monkeypatch):
    from permdet import engine

    # the package re-exports the function under the submodule's name
    determinant_module = importlib.import_module("permdet.determinant")

    graphs = [*corpus.connected_bipartite_upto(8), corpus.example10(), corpus.grid_graph(4, 4)]
    expected = [per_ryser(g.adj) for g in graphs]

    def forbidden(*args):
        raise AssertionError("the reference reached the engine")

    monkeypatch.setattr(engine, "_signed_sum", forbidden)
    monkeypatch.setattr(engine, "signed_block_det", forbidden)
    monkeypatch.setattr(determinant_module, "signed_block_det", forbidden)
    for g, value in zip(graphs, expected):
        assert permanent_theorem1(g).value == value, g.edges


def test_sachs_size_monotone_on_bipartite():
    # If some Sachs subgraph covers i >= 2 vertices, one covers i - 2:
    # drop an edge component, or swap a cycle for all but one edge of its
    # perfect matching.
    for g in (*corpus.connected_bipartite_upto(6), corpus.example10()):
        counts = {i: len(enumerate_sachs(g, i)) for i in range(2, g.n + 1, 2)}
        for i in range(4, g.n + 1, 2):
            if counts[i]:
                assert counts[i - 2], (g.edges, i)


def test_identities_on_example10():
    g = corpus.example10()
    assert check_parity_identity(g)
    assert check_removal_identity(g)


def test_identities_on_small_corpus():
    for g in corpus.connected_bipartite_upto(6):
        assert check_parity_identity(g), g.edges
        assert check_removal_identity(g), g.edges


def test_removal_identity_trivial_when_no_4k_cycles():
    assert check_removal_identity(corpus.cycle_graph(6))
    assert check_removal_identity(corpus.path_graph(5))


def test_theorem2_example10():
    g = corpus.example10()
    assert verify_theorem2(g, 2).holds_for_all
    report = verify_theorem2(g, 1)
    assert not report.holds_for_all
    assert report.violating_subset.labels() == (1, 2, 3, 4, 7, 8, 9, 10)


def test_theorem2_c4():
    c4 = corpus.cycle_graph(4)
    assert verify_theorem2(c4, 1).holds_for_all
    report = verify_theorem2(c4, 0)
    assert not report.holds_for_all
    assert report.violating_subset.labels() == (1, 2, 3, 4)


def test_theorem2_tree_holds_at_zero():
    assert verify_theorem2(corpus.path_graph(6), 0).holds_for_all


def test_theorem2_empty_subset_convention():
    # the induced subgraph on no vertices has per = det = 1
    g = Graph.from_edges(2, [(0, 1)])
    assert verify_theorem2(g, 0).holds_for_all
