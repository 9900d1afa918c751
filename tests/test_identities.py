"""Checks of ``count_perfect_matchings`` past Ryser's guard that need no
oracle: identities that tie a graph's answer to other graphs' answers.

Ryser stops at 20 columns, 40 vertices, and the closed forms (grids,
K_{n,n}, cycles, chains) have Pfaffian pieces, so no other test checks a
non-Pfaffian answer at this size.  The random graphs below, cubic and
of degrees 3 and 4 on 40-52 vertices (grown to 58 by bisubdivision),
are each one non-Pfaffian piece
with hundreds to thousands of families of bad alternating cycles, so
their signed sums run through ``cycles.disjoint_families``.  Two
identities (Lovasz and Plummer, "Matching Theory", 1986) hold for every
bipartite graph:

- the edge recurrence, pm(G) = pm(G - e) + pm(G - u - v) for an edge
  e = uv: the perfect matchings without e, and those with it;
- bisubdivision: an edge replaced by a path of three edges keeps pm.
  Every cycle through the edge grows by 2, so its 4k-cycles become
  4k+2-cycles and back, and the signing and its bad cycles change.

A graph is its biadjacency matrix here, the rows its left side.
"""

import random

import corpus
import pytest
from permdet import count_perfect_matchings, graph_from_biadjacency, per_ryser
from permdet import engine

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _rows(k: int, extra: int, seed: int) -> tuple:
    """A random cubic bipartite graph on k + k vertices, plus ``extra``
    edges of a fourth random perfect matching, as its biadjacency."""
    rng = random.Random(seed)
    rows = [list(r) for r in corpus.biadjacency_of(corpus.random_cubic_bipartite(k, rng), range(k))]
    fourth = list(range(k))
    rng.shuffle(fourth)
    for i, j in [(i, j) for i, j in enumerate(fourth) if not rows[i][j]][:extra]:
        rows[i][j] = 1
    return tuple(map(tuple, rows))


def _edges(rows) -> list:
    return [(i, j) for i, row in enumerate(rows) for j, a in enumerate(row) if a]


def _without_edge(rows, i: int, j: int) -> tuple:
    out = [list(row) for row in rows]
    out[i][j] = 0
    return tuple(map(tuple, out))


def _without_ends(rows, i: int, j: int) -> tuple:
    return tuple(row[:j] + row[j + 1:] for r, row in enumerate(rows) if r != i)


def _bisubdivided(rows, i: int, j: int) -> tuple:
    """The edge of row i and column j replaced by the path row i, a new
    column, a new row, column j."""
    k = len(rows)
    grown = [row + (int(r == i),) for r, row in enumerate(_without_edge(rows, i, j))]
    grown.append(tuple(int(c in (j, k)) for c in range(k + 1)))
    return tuple(grown)


# (k, extra, seed): 40-52 vertices, cubic (extra 0) or of degrees 3 and 4.
# A 4-regular graph on 40 vertices has 50,000-170,000 families and takes
# 2-7 s a solve, so the degree-4 graphs have a partial fourth matching.
GRAPHS = [(20, 0, 1), (22, 0, 2), (24, 0, 3), (26, 0, 4), (20, 6, 5), (22, 6, 6), (24, 4, 7)]


@pytest.fixture(scope="module", params=GRAPHS, ids=lambda p: "k%d+%d" % p[:2])
def graph(request):
    """A graph of ``GRAPHS``, its pm, and the seed of its edge choices."""
    k, extra, seed = request.param
    rows = _rows(k, extra, seed)
    pm, reports, split = engine._matching_count(graph_from_biadjacency(rows), (1 << k) - 1)
    # One non-Pfaffian piece: the signed sum over many families.
    assert not split and reports[0].path_taken == engine.PATH_THEOREM1
    assert reports[0].families > 100
    return rows, pm, seed


def test_edge_recurrence(graph):
    rows, pm, seed = graph
    for i, j in random.Random(seed).sample(_edges(rows), 2):
        without = count_perfect_matchings(_without_edge(rows, i, j))
        assert 0 < without < pm
        assert without + count_perfect_matchings(_without_ends(rows, i, j)) == pm, (i, j)


def test_bisubdivision_keeps_pm(graph):
    rows, pm, seed = graph
    rng = random.Random(seed)
    grown = rows
    for _ in range(3):
        grown = _bisubdivided(grown, *rng.choice(_edges(grown)))
        assert count_perfect_matchings(grown) == pm


def test_bisubdivision_helpers():
    # C_4 (the all-ones 2 x 2) bisubdivided once is C_6, whose
    # biadjacency is a 3 x 3 circulant; pm 2 both ways.
    c6 = _bisubdivided(((1, 1), (1, 1)), 0, 1)
    assert c6 == ((1, 0, 1), (1, 1, 0), (0, 1, 1))
    assert per_ryser(c6) == 2
    assert _without_ends(c6, 0, 2) == ((1, 1), (0, 1))


@st.composite
def grown_by_bisubdivision(draw):
    """A balanced biadjacency of at most 6 a side, and the one grown from
    it by up to 16 bisubdivisions of edges drawn in turn, up to 44
    vertices."""
    p = draw(st.integers(1, 6))
    cells = draw(st.lists(st.integers(0, 1), min_size=p * p, max_size=p * p))
    small = tuple(tuple(cells[r * p:(r + 1) * p]) for r in range(p))
    grown = small
    for _ in range(draw(st.integers(0, 16))):
        edges = _edges(grown)
        if not edges:
            break
        grown = _bisubdivided(grown, *draw(st.sampled_from(edges)))
    return small, grown


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(grown_by_bisubdivision())
def test_bisubdivided_graphs_match_ryser_on_the_small_graph(case):
    small, grown = case
    assert count_perfect_matchings(grown) == per_ryser(small)
