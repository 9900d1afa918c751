"""Pfaffian signings: the certificate, and the signed expansion over the
bad alternating cycles of the pieces it rejects."""

import itertools
import random

import corpus
import pytest
from permdet import (
    PATH_PFAFFIAN,
    PATH_THEOREM1,
    VertexSet,
    bipartition,
    count_perfect_matchings,
    enumerate_cycles,
    enumerate_disjoint_families,
    graph_from_biadjacency,
    induced_subgraph,
    parse_biadjacency,
    per_ryser,
    permanent_auto,
)
from permdet import cli, matching
from permdet.determinant import signed_block_det
from permdet.errors import EnumerationCapExceeded
from permdet.graphs import mask_indices
from permdet.cycles import simple_cycles
from permdet.matching import elementary_pieces, perfect_matching, pfaffian_signing


def _non_pfaffian_graphs():
    k33 = graph_from_biadjacency(parse_biadjacency(corpus.fixture_text("k33.biadj")))
    # About one draw in thirty is Pfaffian (two of 60 in a scan, both on
    # 16 vertices) and then rightly reports pfaffian_signing; this seed
    # draws none, so all ten run the expansion.
    rng = random.Random(2)
    cubic = [corpus.random_cubic_bipartite(rng.randint(8, 12), rng) for _ in range(10)]
    return [k33, corpus.complete_bipartite(4, 4), *cubic]


def test_non_pfaffian_graphs_match_ryser():
    for g in _non_pfaffian_graphs():
        # per(G) = per(B)^2, and Ryser on B keeps 12 x 12 cheap
        expected = per_ryser(corpus.biadjacency_of(g, bipartition(g).indices())) ** 2
        report = permanent_auto(g)
        assert report.value == expected, g.edges
        # one elementary piece whose certificate was rejected
        assert report.path_taken == PATH_THEOREM1, g.edges
        assert report.families > 1, g.edges


@pytest.mark.parametrize("k", range(8, 15))
def test_cubic_graphs_match_ryser(k):
    # 16 to 28 vertices: hundreds to tens of thousands of cycles, and
    # mostly no Pfaffian signing
    rng = random.Random(1200 + k)
    expanded = 0
    for _ in range(3 if k < 13 else 1):
        g = corpus.random_cubic_bipartite(k, rng)
        report = permanent_auto(g)
        assert report.value == per_ryser(corpus.biadjacency_of(g, bipartition(g).indices())) ** 2
        expanded += report.path_taken == PATH_THEOREM1
    assert expanded, k


def test_cubic20_fixture_matches_ryser():
    g = corpus.load_fixture("cubic20.edges")
    left = bipartition(g)
    report = permanent_auto(g)
    assert per_ryser(corpus.biadjacency_of(g, left.indices())) == 76
    assert (report.value, report.path_taken) == (76**2, PATH_THEOREM1)
    assert len(elementary_pieces(g, left.mask, perfect_matching(g, left.mask))) == 1


def test_expansion_runs_over_the_bad_alternating_cycles():
    for g in _non_pfaffian_graphs():
        left = bipartition(g).mask
        mate = perfect_matching(g, left)
        negative, bad = pfaffian_signing(g, left, mate, (1 << g.n) - 1)
        expected = [c for c in corpus.alternating_cycles(g, mate) if corpus.is_bad(c, negative)]
        assert sorted(bad) == sorted(c.mask for c in expected), g.edges
        # fewer than the cycles bad under the signing, alternating or not
        assert len(bad) < sum(corpus.is_bad(c, negative) for c in enumerate_cycles(g))
        fams = enumerate_disjoint_families(expected)
        report = permanent_auto(g)
        assert (report.families, report.m) == (len(fams), fams[-1].size), g.edges


def _signing_search_graphs():
    rng = random.Random(31)
    cubic = [corpus.random_cubic_bipartite(k, rng) for k in range(4, 11) for _ in range(2)]
    return [*corpus.connected_bipartite_upto(8), *corpus.random_corpus(), *cubic,
            corpus.load_fixture("cubic20.edges")]


def _edge(u, v):
    return (u, v) if u < v else (v, u)


def test_signing_search_yields_each_alternating_cycle_once(monkeypatch):
    # The signing reads its cycles from the shared kernel; record what the
    # kernel yields for each piece and compare the cycles, as edge sets,
    # with the whole-graph cycles inside the piece that alternate with M.
    yielded = []

    def recording(searches, what, cap):
        for i, path in simple_cycles(searches, what, cap):
            assert all(b.bit_count() == 1 for b in path)
            yielded.append(tuple(path))
            yield i, path

    monkeypatch.setattr(matching, "simple_cycles", recording)
    searched = expanded = 0
    for g in _signing_search_graphs():
        left = bipartition(g).mask
        mate = perfect_matching(g, left)
        if mate is None:
            continue
        reference = corpus.alternating_cycles(g, mate)
        for piece in elementary_pieces(g, left, mate):
            yielded.clear()
            _, bad = pfaffian_signing(g, left, mate, piece)
            # Bit j of the search names the left vertex matched to the
            # piece's j-th right vertex.
            name = [mate[w] for w in mask_indices(piece & ~left)]
            got = []
            for path in ([name[b.bit_length() - 1] for b in bits] for bits in yielded):
                # Each arc u -> x crosses the non-matching edge u-mate(x),
                # then the matching edge mate(x)-x.
                edges = []
                for i, u in enumerate(path):
                    x = path[(i + 1) % len(path)]
                    edges += [_edge(u, mate[x]), _edge(mate[x], x)]
                got.append(tuple(sorted(edges)))
            want = [
                tuple(sorted(_edge(v[i - 1], v[i]) for i in range(len(v))))
                for v in (c.vertices for c in reference if c.mask | piece == piece)
            ]
            assert sorted(got) == sorted(want), g.edges
            searched += bool(got)
            expanded += bool(bad)
    # pieces with an alternating cycle, and pieces with a bad one
    assert searched >= 100 and expanded >= 20


def _brute_force_pfaffian(g, left, mate, piece) -> bool:
    """Whether some signing of G[piece] has |det B_s| = pm(G[piece]);
    ``mate`` is a perfect matching of the piece.

    Switching the signs at one vertex keeps |det|, so the edges of a
    spanning tree of the (connected) piece may be taken positive and only
    the others tried.
    """
    edges = [(u, w) for u in range(g.n) if (piece & left) >> u & 1
             for w in g.neighbors[u] if piece >> w & 1]
    root = piece & -piece
    reached, tree = root, set()
    frontier = [root.bit_length() - 1]
    while frontier:
        v = frontier.pop()
        for w in g.neighbors[v]:
            if piece >> w & 1 and not reached >> w & 1:
                reached |= 1 << w
                tree.add((v, w) if left >> v & 1 else (w, v))
                frontier.append(w)
    free = [e for e in edges if e not in tree]
    pm = per_ryser(induced_subgraph(g, VertexSet(piece)).adj)
    for signs in itertools.product((0, 1), repeat=len(free)):
        negative = {}
        for (u, w), minus in zip(free, signs):
            if minus:
                negative[u] = negative.get(u, 0) | 1 << w
                negative[w] = negative.get(w, 0) | 1 << u
        d = signed_block_det(g, left, piece, negative, mate)
        if d * d == pm:
            return True
    return False


def test_certificate_matches_brute_force_over_signings():
    rejected = 0
    for g in corpus.connected_bipartite_upto(8):
        left = bipartition(g).mask
        mate = perfect_matching(g, left)
        if mate is None:
            continue
        for piece in elementary_pieces(g, left, mate):
            negative, bad = pfaffian_signing(g, left, mate, piece)
            if not bad:
                pm2 = per_ryser(induced_subgraph(g, VertexSet(piece)).adj)
                assert signed_block_det(g, left, piece, negative, mate) ** 2 == pm2, g.edges
            else:
                # an inconsistent system means no signing is Pfaffian
                assert not _brute_force_pfaffian(g, left, mate, piece), g.edges
                rejected += 1
    assert rejected >= 5


def test_matching_edges_stay_positive():
    for g in (corpus.grid_graph(4, 5), corpus.complete_bipartite(3, 3), corpus.example10()):
        left = bipartition(g).mask
        mate = perfect_matching(g, left)
        for piece in elementary_pieces(g, left, mate):
            negative, _ = pfaffian_signing(g, left, mate, piece)
            assert all(not bits >> mate[u] & 1 for u, bits in negative.items())
            # only edges inside the piece are signed
            assert all(piece >> u & 1 and bits | piece == piece for u, bits in negative.items())


@pytest.mark.parametrize("cap", [0, 5])
def test_signing_cap_raises(capsys, monkeypatch, cap):
    monkeypatch.setattr(matching, "DEFAULT_SIGNING_CAP", cap)
    for g in (corpus.grid_graph(4, 4), corpus.complete_bipartite(4, 4)):
        with pytest.raises(EnumerationCapExceeded, match=f"alternating path .* cap of {cap}$"):
            permanent_auto(g)
    assert cli.main(["per", str(corpus.FIXTURE_DIR / "cubic20.edges")]) == 3
    assert f"cap of {cap}" in capsys.readouterr().err
    monkeypatch.setattr(matching, "DEFAULT_SIGNING_CAP", 10**5)
    assert permanent_auto(corpus.grid_graph(4, 5)).path_taken == PATH_PFAFFIAN


def test_signing_cap_boundary_on_cubic20(monkeypatch):
    # The alternating-cycle search's work on a non-Pfaffian piece: exactly
    # 123 path extensions, whatever the kernel's step looks like.
    g = corpus.load_fixture("cubic20.edges")
    monkeypatch.setattr(matching, "DEFAULT_SIGNING_CAP", 123)
    assert permanent_auto(g).value == 5776
    monkeypatch.setattr(matching, "DEFAULT_SIGNING_CAP", 122)
    with pytest.raises(EnumerationCapExceeded, match="^alternating path .* cap of 122$"):
        permanent_auto(g)


def test_signing_searches_only_roots_with_a_closer(monkeypatch):
    # Row i has 1s in columns i and i + 1 mod 1000: the alternating digraph
    # is one directed cycle, and only its first root has its predecessor
    # after it.  Its walk takes 999 extensions; searched too, the other
    # roots would walk 998 + 997 + ... + 1 more and close nothing.
    b = tuple(tuple(int(j in (i, (i + 1) % 1000)) for j in range(1000)) for i in range(1000))
    monkeypatch.setattr(matching, "DEFAULT_SIGNING_CAP", 999)
    assert count_perfect_matchings(b) == 2
    monkeypatch.setattr(matching, "DEFAULT_SIGNING_CAP", 998)
    with pytest.raises(EnumerationCapExceeded, match="^alternating path .* cap of 998$"):
        count_perfect_matchings(b)


def test_signing_cap_boundary_on_a_dense_piece(monkeypatch):
    # On the all-ones 8 x 8 matrix each extension closes many cycles:
    # exactly 16,064 path extensions, whatever the kernel's step looks like.
    ones = ((1,) * 8,) * 8
    monkeypatch.setattr(matching, "DEFAULT_SIGNING_CAP", 16_064)
    assert count_perfect_matchings(ones) == 40_320
    monkeypatch.setattr(matching, "DEFAULT_SIGNING_CAP", 16_063)
    with pytest.raises(EnumerationCapExceeded, match="^alternating path .* cap of 16063$"):
        count_perfect_matchings(ones)
