"""Property-based checks of the permanent's invariances."""

import corpus
import pytest
from permdet import (
    Graph,
    bipartition,
    count_perfect_matchings,
    graph_from_biadjacency,
    per_ryser,
    permanent_auto,
)
from permdet import engine

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def bipartite(draw, balanced=False):
    """A bipartite graph with at most 5 vertices a side, both sides equal
    when ``balanced`` (unbalanced graphs have permanent 0)."""
    p = draw(st.integers(1, 5))
    q = p if balanced else draw(st.integers(1, 5))
    pairs = [(i, p + j) for i in range(p) for j in range(q)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(p + q, [pair for pair, kept in zip(pairs, keep) if kept])


@st.composite
def labelled_bipartite(draw):
    """A bipartite graph plus a relabelling of its vertices."""
    g = draw(bipartite())
    return g, draw(st.permutations(range(g.n)))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(labelled_bipartite())
def test_permanent_is_relabelling_invariant(case):
    g, perm = case
    expected = per_ryser(g.adj)
    assert permanent_auto(g).value == expected
    assert permanent_auto(corpus.relabel(g, perm)).value == expected


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(bipartite(balanced=True), bipartite(balanced=True))
def test_permanent_of_disjoint_union_is_product(g, h):
    shifted = [(u + g.n, v + g.n) for u, v in h.edges]
    union = Graph.from_edges(g.n + h.n, list(g.edges) + shifted)
    assert permanent_auto(union).value == per_ryser(g.adj) * per_ryser(h.adj)


@st.composite
def union_with_inadmissible_edge(draw):
    """Two balanced graphs side by side plus one edge from G's left side
    to H's right side.  A perfect matching using that edge would leave
    G's right side one partner short, so the edge lies in none."""
    g = draw(bipartite(balanced=True))
    h = draw(bipartite(balanced=True))
    u = draw(st.integers(0, g.n // 2 - 1))
    v = g.n + h.n // 2 + draw(st.integers(0, h.n // 2 - 1))
    shifted = [(a + g.n, b + g.n) for a, b in h.edges]
    return g, h, Graph.from_edges(g.n + h.n, list(g.edges) + shifted + [(u, v)])


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(union_with_inadmissible_edge())
def test_inadmissible_edge_leaves_permanent_unchanged(case):
    g, h, joined = case
    assert permanent_auto(joined).value == per_ryser(g.adj) * per_ryser(h.adj)


@st.composite
def biadjacency(draw):
    """A 0/1 matrix with 1 to 5 rows and 1 to 5 columns."""
    p = draw(st.integers(1, 5))
    q = draw(st.integers(1, 5))
    row = st.lists(st.integers(0, 1), min_size=q, max_size=q)
    return draw(st.lists(row, min_size=p, max_size=p))


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(biadjacency())
def test_permanent_is_matching_count_squared(b):
    assert count_perfect_matchings(b) ** 2 == permanent_auto(graph_from_biadjacency(b)).value


@st.composite
def matchable_bipartite(draw):
    """A balanced bipartite graph with a perfect matching: at most 5
    vertices a side, the edges i -- p + i always present."""
    p = draw(st.integers(1, 5))
    pairs = [(i, p + j) for i in range(p) for j in range(p) if i != j]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(i, p + i) for i in range(p)]
    return Graph.from_edges(2 * p, edges + [pair for pair, kept in zip(pairs, keep) if kept])


def _matching_in_order(g: Graph, left: list, edges) -> list:
    """A perfect matching of ``g`` by Kuhn's augmenting paths, reading
    the left vertices and each one's edges in the order of ``edges``."""
    out = {u: [] for u in left}
    order = []
    for u, v in edges:
        a, b = (u, v) if u in out else (v, u)
        out[a].append(b)
        if a not in order:
            order.append(a)
    mate = [-1] * g.n

    def augment(u, seen):
        for w in out[u]:
            if w not in seen:
                seen.add(w)
                if mate[w] < 0 or augment(mate[w], seen):
                    mate[u], mate[w] = w, u
                    return True
        return False

    for u in order:
        assert augment(u, set())
    return mate


@st.composite
def matched_bipartite(draw):
    """A graph from ``matchable_bipartite``, a perfect matching of it
    found in a shuffled edge order, and a random signing that keeps the
    matching's edges positive, as the engine's signing: vertex ->
    bitmask of its neighbours across a negative edge."""
    g = draw(matchable_bipartite())
    p = g.n // 2
    mate = _matching_in_order(g, list(range(p)), draw(st.permutations(g.edges)))
    flips = draw(st.lists(st.booleans(), min_size=len(g.edges), max_size=len(g.edges)))
    negative = {}
    for (u, v), minus in zip(g.edges, flips):
        if minus and mate[u] != v:
            negative[u] = negative.get(u, 0) | 1 << v
            negative[v] = negative.get(v, 0) | 1 << u
    return g, mate, negative


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(matched_bipartite())
def test_signed_expansion_does_not_depend_on_the_signing(case):
    # Every alternating cycle that is bad under the signing is expanded.
    g, mate, negative = case
    bad = [c.mask for c in corpus.alternating_cycles(g, mate)
           if corpus.is_bad(c, negative)]
    pm, _ = engine._signed_sum(g, bipartition(g).mask, mate, (1 << g.n) - 1, negative, bad)
    assert pm == per_ryser(corpus.biadjacency_of(g, range(g.n // 2)))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(matched_bipartite())
def test_expansion_does_not_depend_on_the_matching(case):
    # The matching comes from a shuffled edge order; the engine's own
    # signing and alternating-cycle search run on it.
    g, mate, _ = case
    pm, report = engine._piece_report(g, bipartition(g).mask, mate, (1 << g.n) - 1)
    assert report.value == pm * pm == per_ryser(g.adj)
    assert report.value == permanent_auto(g).value
