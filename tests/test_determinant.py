import random

import corpus
import pytest
from permdet import (
    DetCache,
    VertexSet,
    bipartition,
    det_after_removal,
    determinant,
    enumerate_cycles,
    enumerate_disjoint_families,
    four_k_cycles,
)
from permdet.determinant import _memoized, signed_block_det


def laplace_det(m):
    """Cofactor expansion along the first row; the slow reference."""
    n = len(m)
    if n == 0:
        return 1
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * laplace_det(minor)
        total += -term if j % 2 else term
    return total


def test_determinant_base_cases():
    assert determinant(()) == 1
    assert determinant(((7,),)) == 7
    assert determinant(((1, 2), (3, 4))) == -2
    assert determinant(((0, 1), (1, 0))) == -1


@pytest.mark.parametrize(
    "graph,expected",
    [
        (corpus.path_graph(4), 1),
        (corpus.cycle_graph(4), 0),
        (corpus.cycle_graph(6), -4),
        (corpus.cycle_graph(8), 0),
    ],
)
def test_adjacency_determinants(graph, expected):
    assert determinant(graph.adj) == expected


def test_determinant_matches_laplace_on_random_integer_matrices():
    rng = random.Random(98121)
    for _ in range(60):
        n = rng.randint(0, 6)
        m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        assert determinant(m) == laplace_det(m), m


def test_determinant_zero_column():
    m = ((1, 0, 2), (3, 0, 4), (5, 0, 6))
    assert determinant(m) == 0


def test_determinant_large_values_stay_exact():
    # Diagonal of large entries: product must not lose precision.
    n = 8
    big = 10**12
    m = [[big if i == j else 0 for j in range(n)] for i in range(n)]
    assert determinant(m) == big**n


def test_determinant_rejects_nonsquare():
    with pytest.raises(ValueError):
        determinant(((1, 2),))


def test_det_cache_counts_hits_and_misses():
    g = corpus.example10()
    cache = DetCache()
    removed = VertexSet.from_labels([7, 8, 9, 10])
    first = det_after_removal(g, removed, cache)
    again = det_after_removal(g, removed, cache)
    assert first == again == -1
    assert cache.misses == 1
    assert cache.hits == 1
    assert len(cache) == 1


def test_det_after_removal_full_graph_gives_one():
    g = corpus.cycle_graph(4)
    assert det_after_removal(g, g.vertex_set()) == 1


def test_det_after_removal_without_cache():
    g = corpus.example10()
    assert det_after_removal(g, VertexSet(0)) == 0


def biadjacency_det_after_removal(g, parts, removed, cache=None):
    """det(G minus ``removed``) from the all-plus biadjacency block.

    A bipartite A(G) is [[0, B], [B^T, 0]] with the left side first, and
    so is every principal submatrix, so with k kept vertices on each side
    det(G minus S) = (-1)^k det(B[L', R'])^2, and 0 when the kept sides
    differ in size.  ``parts`` may be any proper 2-colouring.  A given
    ``cache`` memoizes the block determinant by the kept mask.
    """
    if removed.mask >> g.n != 0:
        raise ValueError(f"removed set {removed.labels()} not within 1..{g.n}")
    kept = ((1 << g.n) - 1) & ~removed.mask
    d = _memoized(cache, kept, lambda: signed_block_det(g, parts, kept, {}))
    return -d * d if (kept & parts.left.mask).bit_count() & 1 else d * d


def test_biadjacency_det_matches_full_order_on_every_family_mask():
    masks_checked = 0
    for g in corpus.connected_bipartite_upto(8):
        parts = bipartition(g)
        families = enumerate_disjoint_families(four_k_cycles(enumerate_cycles(g)))
        for mask in sorted({fam.covered.mask for fam in families}):
            removed = VertexSet(mask)
            assert biadjacency_det_after_removal(g, parts, removed) == det_after_removal(
                g, removed
            ), (g.edges, mask)
            masks_checked += 1
    assert masks_checked > 1000


def test_biadjacency_det_matches_full_order_on_random_masks():
    # Arbitrary removal sets, not just cycle families, so the kept sides
    # are often unbalanced and |L'| is often odd.
    rng = random.Random(40417)
    seen = {"disconnected": 0, "odd_n": 0, "unbalanced": 0, "odd_k_nonzero": 0}
    for _ in range(150):
        g = corpus.random_bipartite(rng.randint(2, 13), rng.choice((0.15, 0.35, 0.6)), rng)
        parts = bipartition(g)
        seen["disconnected"] += not corpus.is_connected(g)
        seen["odd_n"] += g.n % 2
        for _ in range(16):
            removed = VertexSet(rng.getrandbits(g.n) & rng.getrandbits(g.n))
            fast = biadjacency_det_after_removal(g, parts, removed)
            assert fast == det_after_removal(g, removed), (g.edges, removed.mask)
            kept_left = len(parts.left) - len(parts.left & removed)
            kept_right = len(parts.right) - len(parts.right & removed)
            seen["unbalanced"] += kept_left != kept_right
            seen["odd_k_nonzero"] += kept_left == kept_right and kept_left % 2 and fast != 0
    assert all(count >= 10 for count in seen.values()), seen


def test_biadjacency_det_negative_sign_and_cache():
    g = corpus.cycle_graph(6)  # det(C6) = -4 = (-1)^3 * 2^2
    parts = bipartition(g)
    cache = DetCache()
    assert biadjacency_det_after_removal(g, parts, VertexSet(0), cache) == -4
    assert biadjacency_det_after_removal(g, parts, VertexSet(0), cache) == -4
    assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
    # removing one vertex leaves 2 + 3 kept: zero without elimination
    assert biadjacency_det_after_removal(g, parts, VertexSet(1)) == 0


def test_biadjacency_det_rejects_out_of_range_removal():
    g = corpus.cycle_graph(4)
    with pytest.raises(ValueError):
        biadjacency_det_after_removal(g, bipartition(g), VertexSet(1 << 4))


def test_block_det_in_matching_order_carries_the_matching_sign():
    # Columns in the order of the rows' mates: det times the sign of the
    # matching, counted here by inversions.
    from permdet.matching import perfect_matching

    rng = random.Random(77)
    flipped = 0
    for g in corpus.connected_bipartite_upto(8) + corpus.random_corpus(60):
        parts = bipartition(g)
        mate = perfect_matching(g, parts)
        if mate is None:
            continue
        negative = {}
        for u, v in g.edges:
            if rng.random() < 0.5:
                negative[u] = negative.get(u, 0) | 1 << v
                negative[v] = negative.get(v, 0) | 1 << u
        ws = [mate[u] for u in parts.left.indices()]
        inversions = sum(a > b for i, a in enumerate(ws) for b in ws[i + 1:])
        full = (1 << g.n) - 1
        expected = (-1) ** inversions * signed_block_det(g, parts, full, negative)
        assert signed_block_det(g, parts, full, negative, mate=mate) == expected, g.edges
        # only an odd matching tells the two column orders apart
        flipped += expected != 0 and inversions % 2
    assert flipped >= 10
