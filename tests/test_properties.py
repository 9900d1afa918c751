"""Property-based checks of the permanent's invariances."""

import corpus
import pytest
from permdet import (
    Graph,
    count_perfect_matchings,
    graph_from_biadjacency,
    per_ryser,
    permanent_auto,
)

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
