import gc
import importlib
import math
import random
import tracemalloc

import corpus
import pytest
from permdet import (
    EfficiencyReport,
    EnumerationCapExceeded,
    Graph,
    InternalInvariantError,
    NotBipartiteError,
    PATH_COROLLARY,
    PATH_ODD,
    PATH_PFAFFIAN,
    PATH_THEOREM1,
    VertexSet,
    bipartition,
    classify_efficient,
    count_perfect_matchings,
    determinant,
    enumerate_cycles,
    four_k_cycles,
    parse_biadjacency,
    parse_edge_list,
    per_ryser,
    permanent_auto,
    permanent_theorem1,
)
from permdet import cycles as cycles_module
from permdet import frontier
from permdet import engine
from permdet.matching import elementary_pieces, perfect_matching

# the package re-exports the function under the submodule's name
determinant_module = importlib.import_module("permdet.determinant")


def test_example10_report():
    report = permanent_theorem1(corpus.example10())
    assert report.value == 36
    assert report.n == 10
    assert report.m == 2
    assert report.num_4k_cycles == 3
    by_z = {}
    for term in report.per_family_terms:
        by_z.setdefault(term.z, []).append(term.det)
    assert by_z[0] == [0]
    assert sorted(by_z[1]) == [-1, 0, 0]
    assert by_z[2] == [-1, -1]
    # ordered-tuple sums recovered as z! times the unordered det sums
    assert math.factorial(1) * sum(by_z[1]) == -1
    assert math.factorial(2) * sum(by_z[2]) == -4
    # the worked breakdown: (-1)^5 (0 + 4(-1) + 16(-2)) = 36
    assert -1 * (0 + 4 * -1 + 16 * -2) == 36
    total = sum(t.coefficient * t.det for t in report.per_family_terms)
    assert report.value == -total


@pytest.mark.parametrize(
    "graph,value,path",
    [
        (corpus.cycle_graph(4), 4, PATH_PFAFFIAN),
        (corpus.cycle_graph(6), 4, PATH_COROLLARY),
        (corpus.cycle_graph(8), 4, PATH_PFAFFIAN),
        (corpus.path_graph(4), 1, PATH_COROLLARY),
        (corpus.path_graph(3), 0, PATH_ODD),
        (corpus.path_graph(2), 1, PATH_COROLLARY),
    ],
)
def test_auto_paths_and_values(graph, value, path):
    report = permanent_auto(graph)
    assert report.value == value
    assert report.path_taken == path


def test_two_disjoint_squares():
    g = corpus.load_fixture("two_disjoint_c4.edges")
    report = permanent_auto(g)
    # per multiplies over components: per(C4)^2
    assert report.value == 16
    # each square is a certified piece, so no cycle is expanded
    assert report.m == 0


def test_odd_shortcut_enumerates_nothing():
    report = permanent_auto(corpus.path_graph(7))
    assert report.value == 0
    assert report.path_taken == PATH_ODD
    assert report.families == 0


def test_theorem1_on_4k_free_graph_still_expands():
    report = permanent_theorem1(corpus.cycle_graph(6))
    assert report.value == 4
    assert len(report.per_family_terms) == 1  # just the empty family


def test_rejects_non_bipartite():
    triangle = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(NotBipartiteError):
        permanent_theorem1(triangle)
    with pytest.raises(NotBipartiteError):
        permanent_auto(triangle)
    with pytest.raises(NotBipartiteError):
        classify_efficient(triangle)


def test_auto_equals_theorem1_on_sample():
    rng = random.Random(33)
    sample = [corpus.random_bipartite(rng.randint(4, 10), 0.4, rng) for _ in range(40)]
    for g in sample:
        assert permanent_auto(g).value == permanent_theorem1(g).value


def test_engine_matches_ryser_on_sample():
    rng = random.Random(91)
    for _ in range(40):
        g = corpus.random_bipartite(rng.randint(4, 10), 0.45, rng)
        assert permanent_theorem1(g).value == per_ryser(g.adj), g.edges


def test_relabeling_invariance():
    g = corpus.example10()
    rng = random.Random(12)
    for _ in range(6):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert permanent_auto(corpus.relabel(g, perm)).value == 36


def test_half_size_expansion_on_chain_and_grid():
    chain = corpus.bridged_c8_chain(6)
    assert permanent_auto(chain).value == 4**6
    # no vertex limit: 160 vertices through the edge-list text
    g = corpus.bridged_c8_chain(20)
    text = f"{g.n} {len(g.edges)}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in g.edges)
    big = parse_edge_list(text)
    assert (big.n, permanent_auto(big).value) == (160, 4**20)
    grid = corpus.grid_graph(4, 4)
    report = permanent_auto(grid)
    assert report.path_taken == PATH_PFAFFIAN
    assert report.value == per_ryser(grid.adj) == 36**2


def test_auto_matches_ryser_on_corpora_and_decomposes():
    decomposed = expanded = 0
    for g in corpus.connected_bipartite_upto(8) + corpus.random_corpus():
        report = permanent_auto(g)
        assert report.value == per_ryser(g.adj), g.edges
        left = bipartition(g).mask
        mate = perfect_matching(g, left)
        pieces = elementary_pieces(g, left, mate) if mate else []
        if len(pieces) > 1:
            decomposed += 1
            # single-edge pieces are left out of the report
            sizes = [mask.bit_count() for mask in pieces if mask.bit_count() > 2]
            assert [p.n for p in report.pieces] == sizes, g.edges
            assert report.value == math.prod(p.value for p in report.pieces)
        else:
            assert report.pieces == (), g.edges
        expanded += sum(r.path_taken == PATH_THEOREM1 and r.families > 1
                        for r in (report, *report.pieces))
    assert decomposed >= 50
    assert expanded >= 10


def test_example10_decomposed_report():
    g = corpus.example10()
    report = permanent_auto(g)
    assert report.path_taken == PATH_PFAFFIAN
    assert (report.value, report.n, report.num_4k_cycles) == (36, 10, 3)
    # both pieces are certified: one determinant each, no cycle expanded
    assert report.families == 2
    assert [(p.n, p.value, p.m) for p in report.pieces] == [(6, 9, 0), (4, 4, 0)]
    assert report.m == 0
    assert [p.families for p in report.pieces] == [1, 1]
    assert [p.path_taken for p in report.pieces] == [PATH_PFAFFIAN, PATH_PFAFFIAN]
    # the pieces carry no 4k-cycle count: that is the whole graph's
    assert [p.num_4k_cycles for p in report.pieces] == [0, 0]


# One of the 12 graphs of connected_bipartite_upto(8) with a 4k-cycle and a
# perfect matching whose signing is empty: its 4-cycles all pass through
# the single-edge piece 0-4, and the other piece is a 6-cycle.
FOUR_K_WITH_EMPTY_SIGNING = Graph.from_edges(
    8, [(0, 4), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 7), (3, 4), (3, 6), (3, 7)]
)


@pytest.mark.parametrize(
    "graph,path,pieces",
    [
        # no perfect matching: det(B) = 0 = pm
        (corpus.complete_bipartite(2, 4), PATH_COROLLARY, ()),
        (FOUR_K_WITH_EMPTY_SIGNING, PATH_COROLLARY, (PATH_COROLLARY,)),
        (corpus.example10(), PATH_PFAFFIAN, (PATH_PFAFFIAN, PATH_PFAFFIAN)),
        # one elementary piece with a bad alternating cycle
        (corpus.load_fixture("cubic20.edges"), PATH_THEOREM1, ()),
    ],
)
def test_label_comes_from_the_signings(graph, path, pieces):
    report = permanent_auto(graph)
    assert report.num_4k_cycles > 0
    if graph.n > 10:
        # Ryser on the half-order biadjacency block: per(G) = pm(G)^2
        left = bipartition(graph).indices()
        assert report.value == per_ryser(corpus.biadjacency_of(graph, left)) ** 2
    else:
        assert report.value == per_ryser(graph.adj)
    assert report.path_taken == path
    assert tuple(p.path_taken for p in report.pieces) == pieces


def test_engine_memoizes_nothing(monkeypatch):
    graphs = corpus.connected_bipartite_upto(8) + corpus.random_corpus()
    graphs += corpus.four_k_free_corpus(200)
    expected = [per_ryser(g.adj) for g in graphs]

    def forbidden(*args):
        raise AssertionError("the engine reached the determinant memo")

    # The reference determinant is det_after_removal, which the term
    # table memoizes; it builds its matrix through the module's
    # adjacency_after_removal however a caller imported it.
    monkeypatch.setattr(determinant_module, "det_after_removal", forbidden)
    monkeypatch.setattr(determinant_module, "adjacency_after_removal", forbidden)
    for g, value in zip(graphs, expected):
        assert permanent_auto(g).value == value, g.edges


def test_count_perfect_matchings_lists_no_whole_graph_cycles(monkeypatch):
    graphs = corpus.connected_bipartite_upto(8) + corpus.random_corpus()
    graphs += corpus.four_k_free_corpus(200)
    matrices = [corpus.biadjacency_of(g, bipartition(g).indices()) for g in graphs]
    matrices = [b for b in matrices if len(b) == len(b[0])]
    expected = [per_ryser(b) for b in matrices]
    assert len(matrices) >= 250 and sum(count > 1 for count in expected) >= 100

    def forbidden(*args, **kwargs):
        raise AssertionError("count_perfect_matchings listed the whole graph's cycles")

    monkeypatch.setattr(cycles_module, "whole_graph_cycles", forbidden)
    for b, count in zip(matrices, expected):
        assert count_perfect_matchings(b) == count, b


def test_single_edge_pieces_are_left_out():
    # the only perfect matching is 1-4 2-5 3-6: three single-edge pieces
    g = Graph.from_edge_labels(6, [(1, 4), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6)])
    report = permanent_auto(g)
    assert (report.value, report.path_taken, report.pieces) == (1, PATH_COROLLARY, ())
    assert (report.m, report.families, report.num_4k_cycles) == (0, 0, 1)
    assert permanent_theorem1(g).m == 1


def test_bridged_chain_splits_into_small_determinants(monkeypatch):
    orders = []
    bareiss = determinant_module._bareiss
    monkeypatch.setattr(
        determinant_module, "_bareiss", lambda a: orders.append(len(a)) or bareiss(a)
    )
    # Each 8-cycle piece is solved in closed form: no determinant at all.
    chain = corpus.bridged_c8_chain(6)
    report = permanent_auto(chain)
    assert report.value == 4**6
    assert report.path_taken == PATH_PFAFFIAN
    assert len(report.pieces) == 6
    assert all(p.n == 8 and p.path_taken == PATH_PFAFFIAN for p in report.pieces)
    assert orders == []
    # Pieces that are no cycle, 2 x 4 ladders (pm 5): one determinant of
    # half their order each.
    chain = corpus.bridged_chain([corpus.grid_graph(2, 4)] * 6)
    report = permanent_auto(chain)
    assert report.value == 25**6
    assert report.path_taken == PATH_PFAFFIAN
    assert len(report.pieces) == 6
    assert all(p.n == 8 and p.path_taken == PATH_PFAFFIAN for p in report.pieces)
    assert orders and max(orders) <= 4


def test_engine_never_runs_full_order_determinants(monkeypatch):
    def forbidden(*args):
        raise AssertionError("engine reached a full-order determinant")

    orders = []

    def recording_bareiss(a):
        orders.append(len(a))
        return bareiss(a)

    bareiss = determinant_module._bareiss
    monkeypatch.setattr(determinant_module, "determinant", forbidden)
    monkeypatch.setattr(determinant_module, "det_after_removal", forbidden)
    monkeypatch.setattr(determinant_module, "_bareiss", recording_bareiss)
    chain = corpus.bridged_c8_chain(3)
    assert permanent_auto(chain).value == 64
    # the grid is one elementary piece, so its largest term is half order
    grid = corpus.grid_graph(4, 4)
    assert permanent_auto(grid).value == 36**2
    assert max(orders) == grid.n // 2
    assert permanent_auto(corpus.cycle_graph(10)).path_taken == PATH_COROLLARY
    assert count_perfect_matchings(corpus.fig1_biadjacency()) == 6


def test_engine_never_reads_the_dense_matrix(monkeypatch):
    graphs = list(corpus.connected_bipartite_upto(8) + corpus.random_corpus())
    graphs += [corpus.grid_graph(4, 4), corpus.grid_graph(3, 6), corpus.bridged_c8_chain(2)]
    expected = [per_ryser(g.adj) for g in graphs]
    graphs.append(corpus.bridged_c8_chain(6))
    expected.append(4**6)
    rng = random.Random(606)
    matrices = []
    while len(matrices) < 60:
        k = rng.randint(2, 6)
        b = tuple(tuple(int(rng.random() < 0.6) for _ in range(k)) for _ in range(k))
        if any(b[i][j] != b[j][i] for i in range(k) for j in range(i)):
            matrices.append(b)
    counts = [per_ryser(b) for b in matrices]

    def forbidden(self):
        raise AssertionError("engine built the dense adjacency matrix")

    monkeypatch.setattr(Graph, "adj", property(forbidden))
    for g, value in zip(graphs, expected):
        text = f"{g.n} {len(g.edges)}\n" + "".join(f"{u + 1} {v + 1}\n" for u, v in g.edges)
        assert permanent_auto(parse_edge_list(text)).value == value, g.edges
    for b, count in zip(matrices, counts):
        text = f"{len(b)} {len(b)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in b)
        assert count_perfect_matchings(parse_biadjacency(text)) == count, b


def test_unbalanced_remainders_skip_elimination(monkeypatch):
    orders = []
    bareiss = determinant_module._bareiss
    monkeypatch.setattr(
        determinant_module, "_bareiss", lambda a: orders.append(len(a)) or bareiss(a)
    )
    # K_{2,4}: even n, 4k-cycles, but no perfect matching on any remainder
    report = permanent_auto(corpus.complete_bipartite(2, 4))
    assert report.value == 0
    assert report.path_taken == PATH_COROLLARY
    # no perfect matching, so no rest is matchable: the empty family alone
    assert report.families == 1
    assert orders == []


def test_zero_permanent_with_a_matching_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(engine, "signed_block_det", lambda *args: 0)
    # Naphthalene: corollary path; the 2 x 3 ladder: a certified piece;
    # K_{3,3}: the expansion.  (A lone cycle takes no determinant.)
    for g, path in ((corpus.naphthalene(), PATH_COROLLARY),
                    (corpus.grid_graph(2, 3), PATH_PFAFFIAN),
                    (corpus.complete_bipartite(3, 3), PATH_THEOREM1)):
        with pytest.raises(InternalInvariantError, match=f"zero permanent from {path}"):
            permanent_auto(g)
    # balanced sides and no perfect matching: 0 is the right answer
    assert permanent_auto(Graph.from_edges(4, [(0, 1), (0, 3)])).value == 0


def test_negative_matching_count_raises_invariant_error(monkeypatch):
    # per = pm^2 would hide the sign; the signed sum itself must be pm
    monkeypatch.setattr(engine, "signed_block_det", lambda *args: -2)
    for g, path in ((corpus.grid_graph(2, 3), PATH_PFAFFIAN),
                    (corpus.complete_bipartite(3, 3), PATH_THEOREM1)):
        message = f"negative matching count -\\d+ from {path}"
        with pytest.raises(InternalInvariantError, match=message):
            permanent_auto(g)


def test_odd_cycle_from_enumerator_raises_invariant_error(monkeypatch):
    # Both readers of the cycle counts run the bipartition check first.
    # With it skipped, an odd cycle still raises on each counting route:
    # the search names its vertices, the frontier count its length.
    monkeypatch.setattr(engine, "bipartition", lambda g: VertexSet(0))
    monkeypatch.setattr(cycles_module, "bipartition", lambda g: None)
    # A triangle with a pendant vertex: one small block, searched.
    kite = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    # The 2 x 6 ladder with a diagonal across each square: mu = 10 and a
    # narrow plan, so the frontier count takes it.
    strip = corpus.grid_graph(2, 6)
    strip = Graph.from_edges(12, list(strip.edges) + [(j, 7 + j) for j in range(5)])
    for g, taken in ((kite, False), (strip, True)):
        (block,) = cycles_module.biconnected_blocks(g)
        search = cycles_module._block_search(g, block)
        assert (frontier.route(search, cycles_module.DEFAULT_PATH_CAP) is not None) == taken
    for run in (permanent_auto, classify_efficient):
        with pytest.raises(InternalInvariantError, match=r"^odd cycle \(1, 2, 3\) in"):
            run(kite)
        with pytest.raises(InternalInvariantError, match="^odd cycle of length 3 in"):
            run(strip)


def test_a_solve_leaves_no_cyclic_garbage():
    # The searches' nested helpers refer to themselves; a solve must still
    # free its whole working set by reference counting alone.
    solves = [
        (permanent_auto, corpus.grid_graph(4, 5)),
        (permanent_auto, corpus.complete_bipartite(4, 4)),
        (permanent_auto, corpus.example10()),
        (permanent_auto, corpus.bridged_c8_chain(3)),
        (count_perfect_matchings, corpus.fig1_biadjacency()),
    ]
    gc.collect()
    gc.disable()
    try:
        for solve, arg in solves:
            solve(arg)
            assert gc.collect() == 0, solve.__name__
    finally:
        gc.enable()


def test_count_perfect_matchings_known():
    assert count_perfect_matchings(((1, 1), (1, 1))) == 2
    assert count_perfect_matchings(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1
    assert count_perfect_matchings([[1] * 3 for _ in range(3)]) == 6
    # non-square: no perfect matching possible
    assert count_perfect_matchings(((1, 1, 1),)) == 0
    assert count_perfect_matchings(corpus.fig1_biadjacency()) == 6


def test_count_perfect_matchings_adjacency_route():
    # C6's adjacency is symmetric and hollow; like any matrix it is counted
    # through the double cover [[0, b], [b^T, 0]]
    c6 = corpus.cycle_graph(6)
    assert count_perfect_matchings(c6.adj) == per_ryser(c6.adj) == 4


def test_count_perfect_matchings_validates_entries():
    with pytest.raises(ValueError):
        count_perfect_matchings(((1, 2), (0, 1)))
    with pytest.raises(ValueError):
        count_perfect_matchings(((1, 1), (1,)))
    # validated before the non-square shortcut
    with pytest.raises(ValueError):
        count_perfect_matchings(((1, 2, 0),))


def test_count_perfect_matchings_random_identity():
    rng = random.Random(777)
    for _ in range(60):
        n = rng.randint(1, 5)
        b = tuple(
            tuple(1 if rng.random() < 0.6 else 0 for _ in range(n)) for _ in range(n)
        )
        count = count_perfect_matchings(b)
        assert count == per_ryser(b), b


@pytest.mark.parametrize(
    "graph,is_cactus,girth,c,holds",
    [
        (corpus.cycle_graph(8), True, 8, 1, True),
        (corpus.example10(), False, 4, 3, False),
        (corpus.path_graph(6), True, None, 0, True),
    ],
)
def test_classify_examples(graph, is_cactus, girth, c, holds):
    rec = classify_efficient(graph)
    assert rec.is_cactus == is_cactus
    assert rec.girth == girth
    assert rec.c == c
    assert rec.condition_holds == holds
    assert rec.n == graph.n


def test_classify_cactus_failing_girth_condition():
    # a C4 with a long pendant path: cactus, but girth 4 is too small
    # against n = 14: 4 * 3 = 12 is not > 14 + 0 + 1
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)] + [(i, i + 1) for i in range(3, 13)]
    rec = classify_efficient(Graph.from_edges(14, edges))
    assert rec.is_cactus
    assert rec.girth == 4 and rec.c == 1
    assert not rec.condition_holds


def _pairwise_cactus(cycles) -> bool:
    """The definition: no two cycles share more than one vertex."""
    masks = [cy.mask for cy in cycles]
    return all((a & b).bit_count() <= 1 for i, a in enumerate(masks) for b in masks[i + 1:])


def _classify_corpus() -> list:
    return [
        *corpus.connected_bipartite_upto(8),
        *corpus.random_corpus(),
        *(corpus.grid_graph(r, c) for r in range(2, 5) for c in range(r, 7)),
        *(corpus.bridged_c8_chain(k) for k in range(1, 7)),
        *(corpus.load_fixture(name) for name in (
            "c4.edges", "c6.edges", "c8.edges", "cactus40.edges", "cubic20.edges",
            "example10.edges", "p6.edges", "two_disjoint_c4.edges")),
    ]


def test_cactus_from_blocks_matches_pairwise_definition():
    graphs = _classify_corpus()
    cacti = 0
    for g in graphs:
        want = _pairwise_cactus(enumerate_cycles(g))
        assert classify_efficient(g).is_cactus == want, g.edges
        cacti += want
    # both answers occur often enough to tell the two tests apart
    assert 200 < cacti < len(graphs) - 200


def test_classify_cactus40_fixture():
    rec = classify_efficient(corpus.load_fixture("cactus40.edges"))
    assert rec.is_cactus and rec.girth == 8 and rec.c == 5
    assert rec.condition_holds


def test_counts_as_found_match_the_sorted_cycle_list():
    # The engine and classify read the cycle stream without a list; the
    # reference reads enumerate_cycles' sorted list of the same cycles.
    # An odd n reports 0 without a search.
    for g in _classify_corpus():
        cycles = enumerate_cycles(g)
        want_4k = 0 if g.n % 2 else len(four_k_cycles(cycles))
        assert permanent_auto(g).num_4k_cycles == want_4k, g.edges
        if cycles:
            girth = cycles[0].length
            c = sum(cy.length == girth for cy in cycles)
            cactus = _pairwise_cactus(cycles)
            holds = cactus and girth * (c + 2) > g.n + c * (c - 1) // 2 + c
            want = EfficiencyReport(cactus, girth, g.n, c, holds)
        else:
            want = EfficiencyReport(True, None, g.n, 0, True)
        assert classify_efficient(g) == want, g.edges


def test_family_cap_admits_exactly_the_families_of_a_piece(monkeypatch):
    # cubic20 is one piece, so its report counts that piece's families.
    g = corpus.load_fixture("cubic20.edges")
    report = permanent_auto(g)
    assert report.pieces == () and report.families > 1
    monkeypatch.setattr(cycles_module, "DEFAULT_FAMILY_CAP", report.families)
    assert permanent_auto(g).value == report.value == 5776
    cap = report.families - 1
    monkeypatch.setattr(cycles_module, "DEFAULT_FAMILY_CAP", cap)
    with pytest.raises(EnumerationCapExceeded, match=f"^disjoint family .* cap of {cap}$"):
        permanent_auto(g)


def _caps_out(run, g) -> bool:
    try:
        run(g)
    except EnumerationCapExceeded:
        return True
    return False


@pytest.mark.parametrize("graph", [corpus.example10(), corpus.grid_graph(4, 4)])
def test_cycle_cap_applies_alike_to_the_list_and_the_counts(monkeypatch, graph):
    total = len(enumerate_cycles(graph))
    for cap in range(total + 1):
        monkeypatch.setattr(cycles_module, "DEFAULT_CYCLE_CAP", cap)
        want = _caps_out(enumerate_cycles, graph)
        assert want == (cap < total)
        assert _caps_out(permanent_auto, graph) == want, cap
        assert _caps_out(classify_efficient, graph) == want, cap


def test_grid_solve_keeps_no_cycle_list():
    # The listed cycles of the 4 x 6 grid held about 1 MiB at the peak.
    g = corpus.grid_graph(4, 6)
    permanent_auto(g)
    tracemalloc.start()
    try:
        report = permanent_auto(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.num_4k_cycles == 2530
    assert peak < 64 * 1024


# A piece that is one cycle is solved in closed form: its report must be
# the one the signing search and the signed sum give.


def _both_routes(monkeypatch, run, arg):
    """``run(arg)`` with the closed form, then with every piece searched."""
    closed = run(arg)
    with monkeypatch.context() as m:
        m.setattr(engine, "_one_cycle", lambda *args: False)
        searched = run(arg)
    return closed, searched


def _cycle_pieces(g) -> int:
    """How many of the engine's pieces of ``g`` are one cycle."""
    left = bipartition(g).mask
    mate = perfect_matching(g, left)
    if mate is None:
        return 0
    pieces = elementary_pieces(g, left, mate)
    return sum(engine._one_cycle(g, left, mate, p) for p in pieces if p.bit_count() > 2)


def _check_both_routes(monkeypatch, g):
    closed, searched = _both_routes(monkeypatch, permanent_auto, g)
    assert closed == searched, g.edges
    b = corpus.biadjacency_of(g, bipartition(g).indices())
    pm, pm_searched = _both_routes(monkeypatch, count_perfect_matchings, b)
    assert pm == pm_searched and pm * pm == closed.value
    # Ryser takes about 2 s at its guard's 20 columns, 2 ms at 12.
    if len(b) <= 12:
        assert pm == per_ryser(b), g.edges
    return closed


def _signing_calls(monkeypatch) -> list:
    """The list that each call of the engine's signing search appends to."""
    calls = []
    signing = engine.pfaffian_signing
    monkeypatch.setattr(engine, "pfaffian_signing", lambda *a: calls.append(a) or signing(*a))
    return calls


def test_cycle_closed_form_matches_the_search(monkeypatch):
    calls = _signing_calls(monkeypatch)
    for l in range(2, 61):
        g = corpus.cycle_graph(2 * l)
        report = _check_both_routes(monkeypatch, g)
        assert report.value == 4 and (report.m, report.families) == (0, 1)
        assert report.path_taken == (PATH_PFAFFIAN if l % 2 == 0 else PATH_COROLLARY)
        calls.clear()
        permanent_auto(g)
        assert calls == []


@pytest.mark.parametrize(
    "lengths", [(6, 8), (8, 6, 6), (6, 6, 8, 8, 6), (8, 6, 8, 6, 8, 6, 8), (10, 4, 12, 6)]
)
def test_bridged_cycle_chains_match_the_search(monkeypatch, lengths):
    g = corpus.bridged_chain([corpus.cycle_graph(n) for n in lengths])
    report = _check_both_routes(monkeypatch, g)
    assert report.value == 4 ** len(lengths)
    assert [p.n for p in report.pieces] == list(lengths)
    assert [p.path_taken for p in report.pieces] == [
        PATH_PFAFFIAN if n % 4 == 0 else PATH_COROLLARY for n in lengths
    ]


def test_cactus40_matches_the_search(monkeypatch):
    g = corpus.load_fixture("cactus40.edges")
    assert _cycle_pieces(g) > 0
    assert _check_both_routes(monkeypatch, g).value == 1024


def test_corpora_with_a_cycle_piece_match_the_search(monkeypatch):
    graphs = [g for g in corpus.connected_bipartite_upto(8) + corpus.random_corpus()
              if _cycle_pieces(g)]
    assert len(graphs) >= 30
    for g in graphs:
        assert _check_both_routes(monkeypatch, g).value == per_ryser(g.adj), g.edges


def test_pieces_that_are_no_cycle_take_the_search(monkeypatch):
    calls = _signing_calls(monkeypatch)
    # A theta: the 2 x 3 ladder, whose two degree-3 vertices are joined by
    # three paths.
    ladder = corpus.grid_graph(2, 3)
    assert permanent_auto(ladder).value == 9 and len(calls) == 1
    # Masks that are no elementary piece.  A 4-cycle with pendant edges at
    # two adjacent vertices has e = n and pm 1; two disjoint 4-cycles, as
    # one mask, have a walk that comes back after half of the left side.
    for g, pm in ((Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (1, 5)]), 1),
                  (corpus.load_fixture("two_disjoint_c4.edges"), 4)):
        left = bipartition(g).mask
        mate = perfect_matching(g, left)
        calls.clear()
        assert engine._piece_report(g, left, mate, (1 << g.n) - 1)[0] == pm
        assert len(calls) == 1
