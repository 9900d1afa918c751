"""The frontier count of a block's cycles, against the search, and the
gate that picks between them."""

import random
from collections import Counter

import corpus
import pytest
import permdet
from permdet import EnumerationCapExceeded, Graph, cli, enumerate_cycles
from permdet import cycles as cycles_module
from permdet.cycles import DEFAULT_PATH_CAP, _block_search, biconnected_blocks, cycle_length_counts
from permdet.frontier import cycle_counts, field_total, plan, route, state_bound
from permdet.oracles import per_ryser


def _listed_counts(g) -> dict:
    """The cycles of ``g`` by length, read off the search's sorted list."""
    return dict(Counter(len(c.vertices) for c in enumerate_cycles(g)))


def _counts_of(g) -> dict:
    """The frontier count of the one block of ``g``, whatever the gate
    says of it, with room for every subset of its edges."""
    (block,) = biconnected_blocks(g)
    succ, _ = _block_search(g, block)
    edges = sum(map(int.bit_count, succ.values())) >> 1
    return cycle_counts(*plan(succ), edges, 1 << edges)


def _width(g) -> int:
    """The width of the plan of the one block of ``g``."""
    (block,) = biconnected_blocks(g)
    return plan(_block_search(g, block)[0])[1]


def _relabelled(g, rng) -> Graph:
    """``g`` under a random labelling drawn from ``rng``."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return corpus.relabel(g, perm)


def _to_frontier(g) -> list:
    """For each block of ``g``, whether the gate sends it to the frontier
    count."""
    return [route(_block_search(g, b), DEFAULT_PATH_CAP) is not None for b in biconnected_blocks(g)]


def _no_search(monkeypatch):
    """Make the whole-graph cycle search fail if it is given a block."""

    def forbidden(searches, what, cap):
        for _ in searches:
            raise AssertionError("the whole-graph cycle search ran")
        return iter(())

    monkeypatch.setattr(cycles_module, "simple_cycles", forbidden)


def test_state_bound_matches_its_sum():
    # Untouched or done per slot, or a path end paired with another.
    assert [state_bound(w) for w in range(8)] == [1, 2, 5, 14, 43, 142, 499, 1850]
    assert state_bound(10) == 123_109


def test_plan_width():
    # Least frontier growth, ties to the breadth-first order: K_{n,n} one
    # side, then the other, under any labelling; a 4 x k grid column by
    # column and a ladder rung by rung, whatever their labelling.  The
    # breadth-first order alone gave widths up to 6 and 4 on these, and 12
    # on the 40-vertex cubic graph.
    rng = random.Random(32)
    for n in range(3, 10):
        g = corpus.complete_bipartite(n, n)
        assert [_width(g)] + [_width(_relabelled(g, rng)) for _ in range(3)] == [n + 1] * 4, n
    # K_{p,q}, p < q, holds p + 1 slots whichever side vertex 0 is on:
    # the plan starts from a vertex of least degree, on the side of
    # degree p.  A start among the farthest from vertex 0 alone, with
    # vertex 0 on the side of p, began on the side of degree q and held
    # q + 1.
    for p in range(2, 7):
        for q in range(p + 1, 10):
            graphs = [corpus.complete_bipartite(p, q), corpus.complete_bipartite(q, p)]
            graphs += [_relabelled(graphs[0], rng) for _ in range(3)]
            assert [_width(g) for g in graphs] == [p + 1] * 5, (p, q)
    for k in range(4, 10):
        assert [_width(_relabelled(corpus.grid_graph(4, k), rng)) for _ in range(3)] == [5] * 3, k
    for k in (3, 4, 7, 12, 20, 31, 50):
        assert [_width(_relabelled(corpus.grid_graph(2, k), rng)) for _ in range(3)] == [3] * 3, k
    assert _width(corpus.random_cubic_bipartite(20, random.Random(1))) <= 10


@pytest.mark.parametrize("rows, cols", [(4, 4), (4, 5), (4, 6), (4, 7), (3, 8), (5, 5), (5, 6)])
def test_frontier_count_matches_the_search_on_relabelled_grids(rows, cols):
    # The plan's order, and so its width and states, follow the labelling.
    g = corpus.grid_graph(rows, cols)
    want = _listed_counts(g)
    rng = random.Random(100 * rows + cols)
    for _ in range(3):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert _counts_of(corpus.relabel(g, perm)) == want, perm


@pytest.mark.parametrize("k", [2, 3, 9, 10, 12, 30, 100])
def test_ladder_cycle_counts_match_closed_form(monkeypatch, k):
    # A 2m-cycle of the 2 x k ladder rings m - 1 adjacent squares: k - m + 1
    # of them.  The ladder's mu is k - 1, so the gate sends it to the
    # frontier count from k = 10 on (up to k = 1,373, where its values
    # grow too long), and the search's 2^k paths with it.
    g = corpus.grid_graph(2, k)
    want = {2 * m: k - m + 1 for m in range(2, k + 1)}
    assert _counts_of(g) == want
    if k <= 12:
        assert _listed_counts(g) == want
    assert _to_frontier(g) == [k >= 10]
    if k >= 10:
        _no_search(monkeypatch)
    assert cycle_length_counts(g) == want


def test_frontier_count_matches_the_search_on_random_cubic_graphs(monkeypatch):
    rng = random.Random(3131)
    graphs = [corpus.random_cubic_bipartite(k, rng) for k in range(10, 14) for _ in range(10)]
    taken = [g for g in graphs if _to_frontier(g) == [True]]
    assert len(taken) >= 8
    wants = [_listed_counts(g) for g in taken]
    _no_search(monkeypatch)
    for g, want in zip(taken, wants):
        assert cycle_length_counts(g) == want, g.edges


def _mixed_shape(rng):
    """A bipartite graph of mixed_batch's shape: sides of 8 to 10, each
    left vertex joined to 3 random right ones."""
    p = rng.randint(8, 10)
    return Graph.from_edges(2 * p, sorted({(i, p + j) for i in range(p) for j in rng.sample(range(p), 3)}))


@pytest.mark.parametrize("shape", ["mixed", "cubic"])
def test_frontier_count_matches_the_search_under_three_labellings(shape):
    # Graphs of mixed_batch's shape and random cubic graphs on 28 to 32
    # vertices, each under three labellings, for which the gate sends a
    # block to the count: the plan follows the labelling.
    rng = random.Random(3232)
    if shape == "mixed":
        graphs = [_mixed_shape(rng) for _ in range(16)]
    else:
        graphs = [corpus.random_cubic_bipartite(k, rng) for k in (14, 15, 16) for _ in range(2)]
    labellings = [[_relabelled(g, rng) for _ in range(3)] for g in graphs]
    taken = [h for hs in labellings if all(any(_to_frontier(h)) for h in hs) for h in hs]
    assert len(taken) >= 12
    for g in taken:
        assert cycle_length_counts(g) == _listed_counts(g), g.edges


def test_cubic40_permanent_walks_no_path(monkeypatch):
    # The 40-vertex cubic graph: its one block's 759,033 cycles are
    # counted with no path walked, where the search stopped at its path
    # cap.  pm = 1,914.
    g = corpus.random_cubic_bipartite(20, random.Random(1))
    assert _to_frontier(g) == [True]
    b = corpus.biadjacency_of(g, range(20))
    _no_search(monkeypatch)
    assert permdet.permanent_auto(g).value == per_ryser(b) ** 2 == 1914**2


def test_frontier_gate_routes(monkeypatch, capsys, tmp_path):
    # K_{9,9} first: sent to the frontier count, its S * M(w) = 47,643,183
    # successor states would take seconds.  The search stops at the cycle
    # cap, so per exits 3.
    k99 = corpus.complete_bipartite(9, 9)
    assert _to_frontier(k99) == [False]
    # The 4 x 4 grid has mu = 9 and w = 5: 2 * M(5) = 284 < 2^9.
    assert _to_frontier(corpus.grid_graph(4, 4)) == [True]
    # This cubic graph on 16 vertices has mu = 9 and w = 6: M(6) = 499 is
    # under 2^9, but twice it is not.
    assert _to_frontier(corpus.random_cubic_bipartite(8, random.Random(2))) == [False]
    # The 2 x 9 ladder has mu = 8, under the floor, whatever its
    # labelling, though some labellings give it more root entries.
    ladder = corpus.grid_graph(2, 9)
    rng = random.Random(29)
    entries = []
    for _ in range(10):
        perm = list(range(ladder.n))
        rng.shuffle(perm)
        g = corpus.relabel(ladder, perm)
        assert _to_frontier(g) == [False], perm
        entries.append(len(_block_search(g, biconnected_blocks(g)[0])[1]))
    assert max(entries) >= 9
    assert _to_frontier(corpus.example10()) == [False, False]
    assert _to_frontier(corpus.bridged_c8_chain(3)) == [False] * 3
    assert _to_frontier(corpus.grid_graph(4, 6)) == [True]
    # K_{6,6}: the plan holds 7 slots (mu = 25, S * M(w) = 227,550), and
    # the count takes about a fifth of the search's time.
    assert _to_frontier(corpus.complete_bipartite(6, 6)) == [True]
    # K_{3,8} (mu 14): its plan holds 4 slots, not the 9 of a start on
    # the side of degree 8, so it takes the count; K_{3,5} (mu 8) is
    # under the floor.
    assert _to_frontier(corpus.complete_bipartite(3, 8)) == [True]
    assert _to_frontier(corpus.complete_bipartite(3, 5)) == [False]
    # A long ladder has 3 slots, but each successor shifts a value of up
    # to n * (e + 1) bits, which the gate charges: the 2 x 400 ladder's
    # 14 * 2,397 successors of up to 959,200 bits take the count, and the
    # 2 x 2,000 ladder's 14 * 11,997, of up to 23,996,000 bits, the
    # search.
    assert _to_frontier(corpus.grid_graph(2, 400)) == [True]
    assert _to_frontier(corpus.grid_graph(2, 2000)) == [False]
    path = tmp_path / "k99.edges"
    path.write_text("18 81\n" + "".join(f"{i} {9 + j}\n" for i in range(1, 10) for j in range(1, 10)))
    assert cli.main(["per", str(path)]) == cli.EXIT_CAP
    assert "cycle enumeration exceeded cap of 1000000" in capsys.readouterr().err
    # The frontier blocks walk no path; the others do.
    _no_search(monkeypatch)
    assert sum(cycle_length_counts(corpus.grid_graph(4, 6)).values()) == 5034
    assert permdet.permanent_auto(corpus.grid_graph(4, 6)).num_4k_cycles == 2530
    assert sum(cycle_length_counts(corpus.grid_graph(4, 4)).values()) == 213
    for g in (corpus.example10(), corpus.bridged_c8_chain(3)):
        with pytest.raises(AssertionError, match="search ran"):
            cycle_length_counts(g)


def test_cycle_cap_counts_across_both_routes(monkeypatch):
    # A 4 x 6 grid (5,034 cycles, frontier count) bridged to an 8-cycle
    # (searched): one count, one cap.
    grid = corpus.grid_graph(4, 6)
    edges = list(grid.edges) + [(24 + i, 24 + (i + 1) % 8) for i in range(8)] + [(23, 24)]
    g = Graph.from_edges(32, edges)
    assert _to_frontier(g) == [True, False]
    monkeypatch.setattr(cycles_module, "DEFAULT_CYCLE_CAP", 5035)
    counts = cycle_length_counts(g)
    assert counts[8] == _listed_counts(grid)[8] + 1 and sum(counts.values()) == 5035
    monkeypatch.setattr(cycles_module, "DEFAULT_CYCLE_CAP", 5034)
    with pytest.raises(EnumerationCapExceeded, match="^cycle enumeration exceeded cap of 5034$"):
        cycle_length_counts(g)
    # The grid's count alone meets the cap, and then passes it, before
    # any search.
    _no_search(monkeypatch)
    assert sum(cycle_length_counts(grid).values()) == 5034
    monkeypatch.setattr(cycles_module, "DEFAULT_CYCLE_CAP", 5033)
    with pytest.raises(EnumerationCapExceeded, match="^cycle enumeration exceeded cap of 5033$"):
        cycle_length_counts(g)


def test_frontier_count_stops_once_past_its_room():
    # The 4 x 6 grid's 5,034 cycles fit in a room of 5,034 and not in one
    # of 5,033.  With room for 100 the count stops before its last vertex.
    grid = corpus.grid_graph(4, 6)
    (block,) = biconnected_blocks(grid)
    succ, _ = _block_search(grid, block)
    steps, width = plan(succ)
    assert cycle_counts(steps, width, 38, 5034) == _listed_counts(grid)
    assert cycle_counts(steps, width, 38, 5033) is None
    taken = []

    def tracked():
        for step in steps:
            taken.append(step)
            yield step

    assert cycle_counts(tracked(), width, 38, 100) is None
    assert len(taken) < len(steps) - 4


def test_field_total_adds_the_fields():
    rng = random.Random(17)
    assert field_total(0, 5) == 0
    for field in (1, 2, 5, 31, 64, 100):
        for count in (1, 2, 3, 7, 64, 65):
            # Fields whose sum still fits in one field.
            parts = [rng.randrange(1 << field) // count for _ in range(count)]
            packed = sum(part << field * i for i, part in enumerate(parts))
            assert field_total(packed, field) == sum(parts), (field, parts)
