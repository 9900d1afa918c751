import random

import corpus
import pytest
from permdet import (
    VertexSet,
    bipartition,
    det_after_removal,
    determinant,
    enumerate_cycles,
    enumerate_disjoint_families,
    four_k_cycles,
    induced_subgraph,
)
from permdet.determinant import signed_block_det
from permdet.matching import perfect_matching


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


def test_det_after_removal_full_graph_gives_one():
    g = corpus.cycle_graph(4)
    assert det_after_removal(g, VertexSet((1 << g.n) - 1)) == 1


def test_det_after_removal_without_cache():
    g = corpus.example10()
    assert det_after_removal(g, VertexSet(0)) == 0


def kept_matching(g, left, kept):
    """A perfect matching of the vertices of the bitmask ``kept``, as a
    mate list over all of g's vertices, or None when they have none;
    ``perfect_matching`` on the induced subgraph, mapped back."""
    members = [v for v in range(g.n) if kept >> v & 1]
    sub = induced_subgraph(g, VertexSet(kept))
    sub_mate = perfect_matching(sub, sum(1 << k for k, v in enumerate(members) if left >> v & 1))
    if sub_mate is None:
        return None
    mate = [-1] * g.n
    for k, v in enumerate(members):
        mate[v] = members[sub_mate[k]]
    return mate


def biadjacency_det_after_removal(g, left, removed):
    """det(G minus ``removed``) from the all-plus biadjacency block.

    A bipartite A(G) is [[0, B], [B^T, 0]] with the left side first, and
    so is every principal submatrix, so with k kept vertices on each side
    det(G minus S) = (-1)^k det(B[L', R'])^2.  ``signed_block_det`` gives
    det(B[L', R']) up to sign in the order of a perfect matching of the
    kept vertices; with none, det(B[L', R']) is 0.
    """
    kept = ((1 << g.n) - 1) & ~removed.mask
    mate = kept_matching(g, left, kept)
    if mate is None:
        return 0
    d = signed_block_det(g, left, kept, {}, mate)
    return -d * d if (kept & left).bit_count() & 1 else d * d


def test_biadjacency_det_matches_full_order_on_every_family_mask():
    masks_checked = 0
    for g in corpus.connected_bipartite_upto(8):
        left = bipartition(g).mask
        families = enumerate_disjoint_families(four_k_cycles(enumerate_cycles(g)))
        for mask in sorted({fam.covered.mask for fam in families}):
            removed = VertexSet(mask)
            full = det_after_removal(g, removed)
            assert biadjacency_det_after_removal(g, left, removed) == full, (g.edges, mask)
            masks_checked += kept_matching(g, left, ((1 << g.n) - 1) & ~mask) is not None
    assert masks_checked > 400


def test_biadjacency_det_matches_full_order_on_random_masks():
    # Arbitrary removal sets, not just cycle families, so the kept sides
    # are often unbalanced and |L'| is often odd.
    rng = random.Random(40417)
    seen = {"disconnected": 0, "odd_n": 0, "unbalanced": 0, "odd_k_nonzero": 0}
    for _ in range(150):
        g = corpus.random_bipartite(rng.randint(2, 13), rng.choice((0.15, 0.35, 0.6)), rng)
        left = bipartition(g).mask
        seen["disconnected"] += not corpus.is_connected(g)
        seen["odd_n"] += g.n % 2
        for _ in range(16):
            removed = VertexSet(rng.getrandbits(g.n) & rng.getrandbits(g.n))
            fast = biadjacency_det_after_removal(g, left, removed)
            assert fast == det_after_removal(g, removed), (g.edges, removed.mask)
            kept_left = (left & ~removed.mask).bit_count()
            kept_right = g.n - removed.mask.bit_count() - kept_left
            seen["unbalanced"] += kept_left != kept_right
            seen["odd_k_nonzero"] += kept_left == kept_right and kept_left % 2 and fast != 0
    assert all(count >= 10 for count in seen.values()), seen


def test_biadjacency_det_negative_sign():
    g = corpus.cycle_graph(6)  # det(C6) = -4 = (-1)^3 * 2^2
    left = bipartition(g).mask
    assert biadjacency_det_after_removal(g, left, VertexSet(0)) == -4
    assert det_after_removal(g, VertexSet(0)) == -4
    # removing one vertex leaves 2 + 3 kept: no perfect matching, det 0
    assert biadjacency_det_after_removal(g, left, VertexSet(1)) == 0
    assert det_after_removal(g, VertexSet(1)) == 0


def test_biadjacency_det_rejects_out_of_range_removal():
    # The full-order reference names a removed set outside 1..n.
    g = corpus.cycle_graph(4)
    with pytest.raises(ValueError, match=r"removed set \(5,\) not within 1..4"):
        det_after_removal(g, VertexSet(1 << 4))


def test_block_det_in_matching_order_carries_the_matching_sign():
    # Columns in the order of the rows' mates: det of the signed block in
    # vertex order times the sign of the matching, counted by inversions.
    rng = random.Random(77)
    flipped = 0
    for g in corpus.connected_bipartite_upto(8) + corpus.random_corpus(60):
        left = bipartition(g)
        mate = perfect_matching(g, left.mask)
        if mate is None:
            continue
        negative = {}
        for u, v in g.edges:
            if rng.random() < 0.5:
                negative[u] = negative.get(u, 0) | 1 << v
                negative[v] = negative.get(v, 0) | 1 << u
        rows = left.indices()
        cols = [v for v in range(g.n) if v not in left]
        signed = [[(-1) ** (negative.get(u, 0) >> w & 1) * b for w, b in zip(cols, row)]
                  for u, row in zip(rows, corpus.biadjacency_of(g, rows))]
        ws = [mate[u] for u in rows]
        inversions = sum(a > b for i, a in enumerate(ws) for b in ws[i + 1:])
        expected = (-1) ** inversions * determinant(signed)
        assert signed_block_det(g, left.mask, (1 << g.n) - 1, negative, mate) == expected, g.edges
        # only an odd matching tells the two column orders apart
        flipped += expected != 0 and inversions % 2
    assert flipped >= 10
