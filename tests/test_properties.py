"""Property-based checks of the permanent's invariances."""

import corpus
import pytest
from permdet import (
    PATH_THEOREM1,
    Graph,
    bipartition,
    count_perfect_matchings,
    enumerate_cycles,
    enumerate_disjoint_families,
    graph_from_biadjacency,
    per_ryser,
    permanent_auto,
)
from permdet import engine
from permdet.determinant import signed_block_det
from permdet.matching import matchable_without, perfect_matching

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


@st.composite
def signed_bipartite(draw, graphs=bipartite()):
    """A bipartite graph, its 2-colouring and a random set of negative
    edges, as the engine's signing: vertex -> bitmask of its neighbours
    across a negative edge."""
    g = draw(graphs)
    flips = draw(st.lists(st.booleans(), min_size=len(g.edges), max_size=len(g.edges)))
    negative = {}
    for (u, v), minus in zip(g.edges, flips):
        if minus:
            negative[u] = negative.get(u, 0) | 1 << v
            negative[v] = negative.get(v, 0) | 1 << u
    return g, bipartition(g), negative


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(signed_bipartite())
def test_signed_expansion_does_not_depend_on_the_signing(case):
    # Every bad cycle is expanded, nice or not.
    g, parts, negative = case
    cycles = enumerate_cycles(g)
    bad = [c for c in cycles if engine._is_bad(c, negative)]
    report = engine._expansion_report(
        g, parts, (1 << g.n) - 1, negative, bad, PATH_THEOREM1, cycles, 0
    )
    assert report.value == per_ryser(g.adj)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(signed_bipartite(matchable_bipartite()))
def test_pruned_families_have_zero_terms(case):
    g, parts, negative = case
    mate = perfect_matching(g, parts)
    full = (1 << g.n) - 1
    bad = [c for c in enumerate_cycles(g) if engine._is_bad(c, negative)]
    nice = [matchable_without(g, parts, mate, full, c.vertex_set.mask) for c in bad]
    for fam in enumerate_disjoint_families(bad):
        if not all(nice[i] for i in fam.cycle_indices):
            assert signed_block_det(g, parts, full & ~fam.covered.mask, negative) == 0
