import itertools
import math
import random

import corpus
import pytest
import permdet
from permdet import (
    Cycle,
    DisjointFamily,
    EnumerationCapExceeded,
    Graph,
    VertexSet,
    enumerate_cycles,
    enumerate_disjoint_families,
    four_k_cycles,
)
from permdet import matching
from permdet.cycles import (
    DEFAULT_FAMILY_CAP,
    biconnected_blocks,
    block_vertices,
    cycle_length_counts,
    simple_cycles,
    whole_graph_cycles,
)
from permdet.graphs import mask_indices
from permdet.matching import elementary_pieces, perfect_matching, pfaffian_signing


def test_cycle_canonical_form_ignores_rotation_and_direction():
    # However a 6-cycle is labelled, the search returns it from its
    # smallest vertex, towards the smaller of that vertex's neighbours.
    ring = corpus.cycle_graph(6)
    for perm in itertools.permutations(range(6)):
        g = corpus.relabel(ring, perm)
        (cy,) = enumerate_cycles(g)
        walk = cy.vertices
        assert walk[0] == 0 and walk[1] == min(g.neighbors[0]), perm
        assert all(walk[i] in g.neighbors[walk[i - 1]] for i in range(6)), perm
        assert cy.mask == 0b111111


def test_cycle_labels_and_length():
    cy = Cycle((0, 1, 2, 3), 0b1111)
    assert cy.length == 4
    assert cy.is_4k
    assert cy.labels() == (1, 2, 3, 4)
    assert not Cycle((0, 1, 2, 3, 4, 5), 0b111111).is_4k


@pytest.mark.parametrize("n", [4, 6, 8])
def test_single_cycle_graphs(n):
    found = enumerate_cycles(corpus.cycle_graph(n))
    assert len(found) == 1
    assert found[0].length == n


def test_example10_cycle_inventory():
    cycles = enumerate_cycles(corpus.example10())
    assert [(c.labels(), c.length) for c in cycles] == [
        ((1, 2, 3, 4), 4),
        ((3, 4, 5, 6), 4),
        ((7, 8, 9, 10), 4),
        ((1, 2, 3, 6, 5, 4), 6),
    ]
    assert len(four_k_cycles(cycles)) == 3
    assert [c.length for c in cycles if not c.is_4k] == [6]


def test_k4_has_seven_cycles():
    k4 = Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    cycles = enumerate_cycles(k4)
    assert sorted(c.length for c in cycles) == [3, 3, 3, 3, 4, 4, 4]


def test_k23_has_three_squares():
    cycles = enumerate_cycles(corpus.complete_bipartite(2, 3))
    assert [c.length for c in cycles] == [4, 4, 4]


def test_trees_have_no_cycles():
    rng = random.Random(7)
    for _ in range(10):
        assert enumerate_cycles(corpus.random_tree(rng.randint(1, 12), rng)) == []


def _edge_set(walk) -> frozenset:
    return frozenset(frozenset(pair) for pair in zip(walk, [*walk[1:], walk[0]]))


def test_enumeration_is_relabeling_invariant():
    g = corpus.example10()
    rng = random.Random(21)
    base = [c.vertices for c in enumerate_cycles(g)]
    for _ in range(5):
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = corpus.relabel(g, perm)
        found = enumerate_cycles(h)
        # A cycle is its edge set, whichever vertex its traversal starts at.
        mapped = {_edge_set([perm[v] for v in cy]) for cy in base}
        assert {_edge_set(c.vertices) for c in found} == mapped


def test_cycle_cap_raises(monkeypatch):
    from permdet import cycles

    monkeypatch.setattr(cycles, "DEFAULT_CYCLE_CAP", 2)
    with pytest.raises(EnumerationCapExceeded, match="^cycle enumeration exceeded cap of 2$") as info:
        enumerate_cycles(corpus.example10())
    assert info.value.cap == 2


def test_caps_are_read_from_cycles_only():
    # A copy at the package root could be set but would never be read.
    assert not hasattr(permdet, "DEFAULT_CYCLE_CAP")
    assert not hasattr(permdet, "DEFAULT_FAMILY_CAP")
    assert not {"DEFAULT_CYCLE_CAP", "DEFAULT_FAMILY_CAP"} & set(permdet.__all__)


def all_paths_cycles(g):
    """Reference enumerator: backtracking over the whole graph.

    The package's first cycle search, kept as the oracle for the
    per-block one.  From each root it walks every simple path through
    larger vertices, across bridges and cut vertices too, and returns
    the cycles sorted by (length, vertices).
    """
    found = []
    for s in range(g.n):
        path = [s]
        onpath = 1 << s
        iters = [iter(g.neighbors[s])]
        while iters:
            descended = False
            for w in iters[-1]:
                if w == s:
                    if len(path) >= 3 and path[1] < path[-1]:
                        found.append(tuple(path))
                    continue
                if w < s or onpath >> w & 1:
                    continue
                path.append(w)
                onpath |= 1 << w
                iters.append(iter(g.neighbors[w]))
                descended = True
                break
            if not descended:
                iters.pop()
                onpath ^= 1 << path.pop()
    found.sort(key=lambda c: (len(c), c))
    return [Cycle(c, sum(1 << v for v in c)) for c in found]


def _random_general_graphs(count=300, seed=20251018):
    """Seeded random simple graphs, not necessarily bipartite or
    connected, some with isolated vertices."""
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(0, 11)
        prob = rng.choice((0.15, 0.25, 0.4))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < prob]
        graphs.append(Graph.from_edges(n, edges))
    return graphs


def _k4():
    return Graph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def _bowtie():
    """Two squares sharing vertex 0: two blocks through one cut vertex."""
    return Graph.from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])


def _bridged_blocks():
    """A square and a hexagon through a cut vertex, then a bridge to a
    second square, vertices shuffled, so blocks interleave in index order."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 0),
             (8, 9), (9, 10), (10, 11), (11, 12), (12, 9)]
    perm = list(range(13))
    random.Random(3).shuffle(perm)
    return corpus.relabel(Graph.from_edges(13, edges), perm)


def _random_trees():
    rng = random.Random(11)
    return [corpus.random_tree(rng.randint(1, 14), rng) for _ in range(20)]


@pytest.mark.parametrize(
    "graphs",
    [
        pytest.param(lambda: corpus.connected_bipartite_upto(8), id="connected_upto_8"),
        pytest.param(corpus.random_corpus, id="random_corpus"),
        pytest.param(lambda: (corpus.grid_graph(4, 4), corpus.grid_graph(4, 5)), id="grids_4x4_4x5"),
        pytest.param(lambda: (corpus.bridged_c8_chain(6),), id="bridged_c8_chain_6"),
        pytest.param(lambda: (corpus.example10(),), id="example10"),
        pytest.param(_random_trees, id="random_trees"),
        pytest.param(lambda: (_k4(),), id="k4"),
        pytest.param(lambda: (_bowtie(), _bridged_blocks()), id="cut_vertices_and_bridges"),
        pytest.param(_random_general_graphs, id="random_general_graphs"),
    ],
)
def test_cycles_match_all_paths_oracle(graphs):
    for g in graphs():
        got = enumerate_cycles(g)
        want = all_paths_cycles(g)
        # Cycle equality compares the vertices and the mask.
        assert got == want


def test_bowtie_has_two_blocks_through_the_cut_vertex():
    bowtie = _bowtie()
    assert biconnected_blocks(bowtie) == [(0, 1, 2, 3), (0, 4, 5, 6)]
    assert [c.vertices for c in enumerate_cycles(bowtie)] == [(0, 1, 2, 3), (0, 4, 5, 6)]


@pytest.mark.parametrize("k", [1, 3, 6])
def test_bridged_chain_blocks(k):
    blocks = biconnected_blocks(corpus.bridged_c8_chain(k))
    assert blocks == [tuple(range(8 * b, 8 * b + 8)) for b in range(k)]


def test_grid_is_one_block():
    assert biconnected_blocks(corpus.grid_graph(4, 5)) == [tuple(range(20))]


@pytest.mark.parametrize(
    "g",
    [corpus.path_graph(6), corpus.complete_bipartite(1, 5), Graph.from_edges(3, [])],
    ids=["path", "star", "edgeless"],
)
def test_acyclic_graphs_have_no_blocks(g):
    assert biconnected_blocks(g) == []


def test_cycle_cap_counts_across_blocks(monkeypatch):
    from permdet import cycles

    g = corpus.bridged_c8_chain(6)
    monkeypatch.setattr(cycles, "DEFAULT_CYCLE_CAP", 5)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_cycles(g)
    monkeypatch.setattr(cycles, "DEFAULT_CYCLE_CAP", 6)
    assert len(enumerate_cycles(g)) == 6


def test_path_cap_raises(monkeypatch):
    from permdet import cycles

    # The 2 x 12 ladder has 66 cycles but far more paths through larger
    # vertices, and the path cap, not the cycle cap, stops the search.
    ladder = corpus.grid_graph(2, 12)
    monkeypatch.setattr(cycles, "DEFAULT_PATH_CAP", 1000)
    with pytest.raises(
        EnumerationCapExceeded, match="^cycle path enumeration exceeded cap of 1000$"
    ) as info:
        enumerate_cycles(ladder)
    assert info.value.cap == 1000
    monkeypatch.undo()
    assert len(enumerate_cycles(ladder)) == 66


def test_path_cap_counts_across_blocks(monkeypatch):
    from permdet import cycles

    # One 8-cycle block takes 7 path extensions, and six take 6 * 7: each
    # block's lowest vertex alone has two neighbours above it, and only
    # the walk from the lower one may close, through the higher.
    monkeypatch.setattr(cycles, "DEFAULT_PATH_CAP", 7)
    assert len(enumerate_cycles(corpus.bridged_c8_chain(1))) == 1
    monkeypatch.setattr(cycles, "DEFAULT_PATH_CAP", 6)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_cycles(corpus.bridged_c8_chain(1))
    g = corpus.bridged_c8_chain(6)
    monkeypatch.setattr(cycles, "DEFAULT_PATH_CAP", 41)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_cycles(g)
    monkeypatch.setattr(cycles, "DEFAULT_PATH_CAP", 42)
    assert len(enumerate_cycles(g)) == 6


@pytest.mark.parametrize(
    "name, graph, steps",
    [
        ("grid_4x6", lambda: corpus.grid_graph(4, 6), 43_595),
        ("cubic20", lambda: corpus.load_fixture("cubic20.edges"), 7_014),
    ],
    ids=["grid_4x6", "cubic20"],
)
def test_path_cap_boundary_on_cycle_rich_graphs(monkeypatch, name, graph, steps):
    # The search's work on graphs with thousands of cycles: exactly
    # ``steps`` path extensions, whatever the kernel's step looks like.
    from permdet import cycles

    g = graph()
    monkeypatch.setattr(cycles, "DEFAULT_PATH_CAP", steps)
    found = enumerate_cycles(g)
    monkeypatch.setattr(cycles, "DEFAULT_PATH_CAP", steps - 1)
    with pytest.raises(EnumerationCapExceeded, match=f"^cycle path .* cap of {steps - 1}$"):
        enumerate_cycles(g)
    assert len(found) == {"grid_4x6": 5034, "cubic20": 1108}[name]


def test_cycle_search_yield_count_is_exact(monkeypatch):
    # A cycle through its smallest vertex r, whose neighbours on it are
    # a < c, is kept as the walk r -> a ... c -> r.  The walk from a first
    # step a may close only from r's neighbours above a, so the kernel
    # yields no reverse walk and no two-vertex closure: one per cycle.
    from permdet import cycles

    yields = 0

    def counting(searches, what, cap):
        nonlocal yields
        for i, path in simple_cycles(searches, what, cap):
            yields += 1
            yield i, path

    monkeypatch.setattr(cycles, "simple_cycles", counting)
    graphs = [corpus.example10(), corpus.bridged_c8_chain(6), _k4(), *corpus.random_corpus()]
    graphs += [corpus.complete_bipartite(n, n) for n in (3, 4)]
    for g in graphs:
        yields = 0
        found = enumerate_cycles(g)
        # The reference search keeps one walk per cycle by a filter.
        assert yields == len(found) == len(_reference_whole_graph_cycles(g)), g.edges


def _complete_bipartite_counts(p: int, q: int) -> dict:
    # A 2k-cycle of K_{p,q} picks k vertices on each side, and k vertices
    # per side close k! * (k - 1)! / 2 cycles.
    return {
        2 * k: math.comb(p, k) * math.comb(q, k) * math.factorial(k) * math.factorial(k - 1) // 2
        for k in range(2, min(p, q) + 1)
    }


@pytest.mark.parametrize("n, total", [(2, 1), (3, 15), (4, 204), (5, 3940)])
def test_complete_bipartite_cycle_counts_match_closed_form(n, total):
    # A left root of K_{n,n} has up to n neighbours above it, so up to
    # n - 1 root entries, one per first step with its own closers; a grid
    # root has at most one.
    counts = cycle_length_counts(corpus.complete_bipartite(n, n))
    assert counts == _complete_bipartite_counts(n, n)
    assert sum(counts.values()) == total


@pytest.mark.parametrize(
    "graph, total",
    [
        (lambda: corpus.grid_graph(4, 5), 1049),
        (lambda: corpus.load_fixture("cubic20.edges"), 1108),
        (lambda: corpus.complete_bipartite(4, 5), 660),
    ],
    ids=["grid_4x5", "cubic20", "k45"],
)
def test_cycle_counts_do_not_depend_on_the_labelling(graph, total):
    # The root entries, their first steps and closers, follow the
    # labelling; the cycles found must not.
    g = graph()
    counts = cycle_length_counts(g)
    assert sum(counts.values()) == total
    rng = random.Random(2027)
    for _ in range(10):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert cycle_length_counts(corpus.relabel(g, perm)) == counts, perm


def tuple_cycles(succ, roots, shortest):
    """Reference cycle search: the package's first kernel, uncapped.

    ``succ[v]`` is a tuple of v's successors in global numbering, and
    each step rescans it, testing ``w > s`` and the path mask for every
    successor.  For each ``(s, blocked)`` in ``roots`` it yields
    ``(path, mask)`` at each closure back to s with at least
    ``shortest`` vertices, in its successors' order.
    """
    for s, blocked in roots:
        path = [s]
        onpath = blocked | 1 << s
        iters = [iter(succ[s])]
        while iters:
            for w in iters[-1]:
                if w == s:
                    if len(path) >= shortest:
                        yield path, onpath ^ blocked
                elif w > s and not onpath >> w & 1:
                    break
            else:
                iters.pop()
                onpath ^= 1 << path.pop()
                continue
            path.append(w)
            onpath |= 1 << w
            iters.append(iter(succ[w]))


def _reference_whole_graph_cycles(g) -> list:
    """The whole graph's cycle stream from ``tuple_cycles``, in global
    numbering: every block's roots, each blocking the rest of the graph."""
    everything = (1 << g.n) - 1
    roots = []
    for block in biconnected_blocks(g):
        outside = everything
        for v in block:
            outside ^= 1 << v
        roots.extend((s, outside) for s in block[:-2])
    return [
        (tuple(path), mask)
        for path, mask in tuple_cycles(g.neighbors, roots, 3)
        if path[1] < path[-1]
    ]


def _kernel_reference_graphs():
    rng = random.Random(1723)
    cubic = [corpus.random_cubic_bipartite(k, rng) for k in range(6, 13) for _ in range(3)]
    grids = [corpus.grid_graph(r, c) for r in range(2, 5) for c in range(r, 7)]
    return [*corpus.connected_bipartite_upto(8), *corpus.random_corpus(), *grids, *cubic]


def test_bitmask_kernel_matches_tuple_kernel_on_the_whole_graph():
    # The same ordered stream, once each block's bits are mapped back to
    # the graph's vertices, so every reader sees what it saw before.
    for g in _kernel_reference_graphs():
        got = []
        for block, path in whole_graph_cycles(g):
            # The path names each vertex by its bit, bit j for block[j].
            assert all(b.bit_count() == 1 for b in path), g.edges
            vertices = block_vertices(block, path)
            got.append((vertices, sum(1 << block[j] for j in mask_indices(sum(path)))))
        assert got == _reference_whole_graph_cycles(g), g.edges


def test_bitmask_kernel_matches_tuple_kernel_on_each_piece(monkeypatch):
    # The signing reduces its rows in the order the search finds them, and
    # that order decides which cycles are bad, so the stream must match
    # in order, not only as a set.
    yielded = []

    def recording(searches, what, cap):
        for i, path in simple_cycles(searches, what, cap):
            yielded.append(list(path))
            yield i, path

    monkeypatch.setattr(matching, "simple_cycles", recording)
    searched = 0
    for g in _kernel_reference_graphs():
        left = permdet.bipartition(g).mask
        mate = perfect_matching(g, left)
        if mate is None:
            continue
        for piece in elementary_pieces(g, left, mate):
            if piece.bit_count() <= 2:
                continue
            yielded.clear()
            pfaffian_signing(g, left, mate, piece)
            # Bit j of the search names the left vertex matched to the
            # piece's j-th right vertex.
            name = [mate[w] for w in mask_indices(piece & ~left)]
            got = []
            for path in yielded:
                assert all(b.bit_count() == 1 for b in path), g.edges
                left_vertices = [name[b.bit_length() - 1] for b in path]
                got.append((tuple(left_vertices), sum(1 << u for u in left_vertices)))
            piece_left = mask_indices(piece & left)
            succ = {
                u: tuple(mate[w] for w in g.neighbors[u] if w != mate[u] and piece >> w & 1)
                for u in piece_left
            }
            roots = [(s, 0) for s in piece_left]
            want = [(tuple(path), mask) for path, mask in tuple_cycles(succ, roots, 2)]
            assert got == want, g.edges
            searched += bool(got)
    assert searched >= 100


def test_disjoint_families_example10():
    c4k = four_k_cycles(enumerate_cycles(corpus.example10()))
    fams = enumerate_disjoint_families(c4k)
    assert [f.size for f in fams] == [0, 1, 1, 1, 2, 2]
    assert max(f.size for f in fams) == 2
    for fam in fams:
        covered = 0
        for idx in fam.cycle_indices:
            assert covered & c4k[idx].mask == 0
            covered |= c4k[idx].mask
        assert covered == fam.covered.mask


def test_disjoint_families_two_squares():
    g = corpus.load_fixture("two_disjoint_c4.edges")
    fams = enumerate_disjoint_families(four_k_cycles(enumerate_cycles(g)))
    assert [f.size for f in fams] == [0, 1, 1, 2]


def test_disjoint_families_empty_input():
    fams = enumerate_disjoint_families([])
    assert len(fams) == 1
    assert fams[0].size == 0


def rescanning_families(c4k) -> list:
    """Reference enumerator: every family rescans every later cycle.

    The package's first implementation, kept as the oracle for the
    bitset search; it costs O(families * cycles).
    """
    masks = [c.mask for c in c4k]
    families = []

    def extend(start, chosen, covered):
        families.append(DisjointFamily(tuple(chosen), VertexSet(covered)))
        for i in range(start, len(masks)):
            if covered & masks[i] == 0:
                chosen.append(i)
                extend(i + 1, chosen, covered | masks[i])
                chosen.pop()

    extend(0, [], 0)
    families.sort(key=lambda f: (f.size, f.cycle_indices))
    return families


def _c4k_lists(*graphs):
    return [four_k_cycles(enumerate_cycles(g)) for g in graphs]


@pytest.mark.parametrize(
    "c4k_lists",
    [
        pytest.param(lambda: _c4k_lists(*corpus.connected_bipartite_upto(8)), id="connected_upto_8"),
        pytest.param(lambda: _c4k_lists(*corpus.random_corpus()), id="random_corpus"),
        pytest.param(
            lambda: _c4k_lists(corpus.grid_graph(4, 4), corpus.grid_graph(4, 5)), id="grids_4x4_4x5"
        ),
        pytest.param(lambda: _c4k_lists(corpus.bridged_c8_chain(6)), id="bridged_c8_chain_6"),
        pytest.param(lambda: _c4k_lists(corpus.example10()), id="example10"),
        # Two squares that share only their lowest vertex: the first
        # vertex's avoid mask alone keeps them out of one family.
        pytest.param(lambda: _c4k_lists(_bowtie()), id="bowtie_of_squares"),
        pytest.param(lambda: [[]], id="empty"),
    ],
)
def test_disjoint_families_match_rescanning_oracle(c4k_lists):
    # DisjointFamily equality compares cycle_indices and covered; list
    # equality adds the order.
    for c4k in c4k_lists():
        assert enumerate_disjoint_families(c4k) == rescanning_families(c4k)


def test_family_cap_raises(monkeypatch):
    from permdet import cycles

    c4k = four_k_cycles(enumerate_cycles(corpus.grid_graph(4, 4)))
    count = len(enumerate_disjoint_families(c4k))
    assert count < DEFAULT_FAMILY_CAP
    monkeypatch.setattr(cycles, "DEFAULT_FAMILY_CAP", count)
    assert len(enumerate_disjoint_families(c4k)) == count
    monkeypatch.setattr(cycles, "DEFAULT_FAMILY_CAP", count - 1)
    with pytest.raises(EnumerationCapExceeded, match="disjoint family") as info:
        enumerate_disjoint_families(c4k)
    assert info.value.cap == count - 1
    monkeypatch.setattr(cycles, "DEFAULT_FAMILY_CAP", 0)
    with pytest.raises(EnumerationCapExceeded):
        enumerate_disjoint_families([])
