"""Property-based checks of the permanent's invariances."""

import corpus
import pytest
from permdet import Graph, per_ryser, permanent_auto

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@st.composite
def labelled_bipartite(draw):
    """A bipartite graph with at most 5 vertices a side, plus a relabelling."""
    p = draw(st.integers(1, 5))
    q = draw(st.integers(1, 5))
    pairs = [(i, p + j) for i in range(p) for j in range(q)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, kept in zip(pairs, keep) if kept]
    perm = draw(st.permutations(range(p + q)))
    return Graph.from_edges(p + q, edges), perm


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(labelled_bipartite())
def test_permanent_is_relabelling_invariant(case):
    g, perm = case
    expected = per_ryser(g.adj)
    assert permanent_auto(g).value == expected
    assert permanent_auto(corpus.relabel(g, perm)).value == expected
