import importlib
import random

import corpus
import pytest
from permdet import (
    EnumerationCapExceeded,
    Graph,
    SizeGuardExceeded,
    VertexSet,
    check_parity_identity,
    check_removal_identity,
    det_after_removal,
    det_via_sachs,
    determinant,
    enumerate_cycles,
    enumerate_sachs,
    four_k_cycles,
    induced_subgraph,
    oracles,
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
    big = [[0] * 21 for _ in range(21)]
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
    # The removal check shares the Sachs guard: 15 vertices, one past it.
    with pytest.raises(SizeGuardExceeded):
        check_removal_identity(wide)


def test_ryser_rejects_nonsquare():
    with pytest.raises(ValueError):
        per_ryser(((1, 0),))


def test_sachs_subgraph_counts_example10():
    g = corpus.example10()
    assert len(enumerate_sachs(g, 2)) == 12
    assert len(enumerate_sachs(g, 4)) == 51
    assert len(enumerate_sachs(g, 6)) == 94


def test_sachs_cap_counts_component_trials(monkeypatch):
    # example10's spanning search tries 1,196 components to find its 18
    # subgraphs; the empty subgraph takes no trial.
    g = corpus.example10()
    monkeypatch.setattr(oracles, "DEFAULT_SACHS_CAP", 1196)
    assert len(enumerate_sachs(g, g.n)) == 18
    monkeypatch.setattr(oracles, "DEFAULT_SACHS_CAP", 1195)
    with pytest.raises(EnumerationCapExceeded, match="cap of 1195"):
        enumerate_sachs(g, g.n)
    monkeypatch.setattr(oracles, "DEFAULT_SACHS_CAP", 0)
    assert len(enumerate_sachs(g, 0)) == 1
    # K_{6,6} has 113,865 cycles to try; the cap stops its search long
    # before the spanning subgraphs run out.
    monkeypatch.setattr(oracles, "DEFAULT_SACHS_CAP", 10**6)
    with pytest.raises(EnumerationCapExceeded, match="cap of 1000000"):
        enumerate_sachs(corpus.complete_bipartite(6, 6), 12)


def test_sachs_component_classification():
    g = corpus.example10()
    for u in enumerate_sachs(g, 10):
        assert u.p == u.c + u.r
        assert u.c == u.s + u.t  # bipartite host: every cycle is even
        assert u.covered.mask.bit_count() == 10


def test_sachs_empty_and_odd_sizes():
    g = corpus.example10()
    empty = enumerate_sachs(g, 0)
    assert len(empty) == 1 and empty[0].p == 0
    # a bipartite graph covers only even vertex counts
    assert enumerate_sachs(g, 3) == []
    with pytest.raises(ValueError):
        enumerate_sachs(g, 11)


def test_sachs_odd_size_on_a_bipartite_graph_takes_no_trial(monkeypatch):
    # Edges and even cycles cover an even number of vertices, so an odd i
    # returns [] before a cycle is listed or a component tried: K_{6,7}
    # has 526,155 cycles.  The triangle's cycle is odd; its search runs.
    monkeypatch.setattr(oracles, "DEFAULT_SACHS_CAP", 0)
    assert enumerate_sachs(corpus.complete_bipartite(6, 7), 13) == []
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(EnumerationCapExceeded, match="cap of 0"):
        enumerate_sachs(k3, 3)
    monkeypatch.undo()
    assert [u.c for u in enumerate_sachs(k3, 3)] == [1]


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


def test_theorem1_table_evaluates_one_determinant_per_cover(monkeypatch):
    # The 4x4 grid's 170 families cover 123 distinct vertex sets.
    determinant_module = importlib.import_module("permdet.determinant")
    calls = []
    full = determinant_module.determinant
    monkeypatch.setattr(determinant_module, "determinant", lambda a: calls.append(1) or full(a))
    report = permanent_theorem1(corpus.grid_graph(4, 4))
    assert report.value == 36**2
    covers = {term.covered.mask for term in report.per_family_terms}
    assert len(calls) == len(covers) < len(report.per_family_terms)


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


def _pairwise_removal_sums(g):
    """Both sides of the cycle-removal identity, the right one summed over
    the pairs (R, u) of a 4k-cycle R and a spanning Sachs subgraph u that
    has R as a component: the reference for the one-pass check."""
    c4k = four_k_cycles(enumerate_cycles(g))
    lhs = sum(det_after_removal(g, VertexSet(r.mask)) for r in c4k)
    spanning = enumerate_sachs(g, g.n)
    half = g.n // 2
    rhs = 0
    for r in c4k:
        for u in spanning:
            if r in u.cycle_components:
                term = 1 << (u.s + u.t - 1)
                rhs += -term if (u.s - 1 + half) & 1 else term
    return lhs, rhs


REMOVAL_CORPORA = {
    "connected_upto_8": lambda: corpus.connected_bipartite_upto(8),
    "random_corpus": lambda: [g for g in corpus.random_corpus() if g.n <= 12],
    "k44": lambda: [corpus.complete_bipartite(4, 4)],
    # 13 and 14 vertices, inside SACHS_GUARD: the 2 x 7 ladder, and the
    # ladder less a corner, where both sides are 0 (odd n).
    "n13_n14": lambda: [
        corpus.grid_graph(2, 7),
        induced_subgraph(corpus.grid_graph(2, 7), VertexSet((1 << 13) - 1)),
    ],
}


@pytest.mark.parametrize("graphs", REMOVAL_CORPORA.values(), ids=REMOVAL_CORPORA)
def test_one_pass_removal_check_matches_the_pairwise_sum(graphs):
    # The check computes the same left side, so passing it and matching
    # the pairwise sum means its one-pass right side is the pairwise one.
    nonzero = 0
    for g in graphs():
        lhs, rhs = _pairwise_removal_sums(g)
        assert lhs == rhs, g.edges
        assert check_removal_identity(g), g.edges
        nonzero += lhs != 0
    assert nonzero


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
