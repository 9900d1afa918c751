"""The shared corpus must itself be trustworthy before anything else
leans on it."""

import corpus
import pytest
from permdet import bipartition

# Connected bipartite graphs on n vertices up to isomorphism; the
# classical sequence, used to certify the exhaustive generator.
KNOWN_COUNTS = {1: 1, 2: 1, 3: 1, 4: 3, 5: 5, 6: 17, 7: 44, 8: 182}


@pytest.mark.parametrize("n,expected", sorted(KNOWN_COUNTS.items()))
def test_connected_bipartite_counts(n, expected):
    assert len(corpus.connected_bipartite(n)) == expected


def test_generated_graphs_are_connected_and_bipartite():
    for g in corpus.connected_bipartite_upto(8):
        assert corpus.is_connected(g)
        bipartition(g)  # raises NotBipartiteError otherwise


def test_random_corpus_is_deterministic():
    a = corpus.random_corpus()
    b = corpus.random_corpus()
    assert len(a) == 500
    assert all(x.edges == y.edges and x.n == y.n for x, y in zip(a, b))
    assert all(9 <= g.n <= 12 for g in a)


def test_four_k_free_corpus_has_no_4k_cycles():
    from permdet import enumerate_cycles, four_k_cycles

    graphs = corpus.four_k_free_corpus()
    assert len(graphs) == 200
    for g in graphs:
        assert g.n % 2 == 0
        bipartition(g)  # raises NotBipartiteError otherwise
        assert four_k_cycles(enumerate_cycles(g)) == []
