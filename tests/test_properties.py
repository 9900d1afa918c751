"""Property-based checks of the permanent's invariances."""

import corpus
import pytest
from permdet import Graph, per_ryser, permanent_auto

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
