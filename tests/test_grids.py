"""Grid graphs against an independent domino-tiling count.

A perfect matching of the r x k grid graph is a domino tiling of the
r x k board, so per(grid) = tilings(r, k)^2.  The tiling count here is a
transfer matrix over column profiles and uses no permdet code.
"""

import corpus
import pytest
from permdet import PATH_PFAFFIAN, bipartition, count_perfect_matchings, permanent_auto


def _column_fills(rows: int, filled: int, r: int = 0, out: int = 0):
    """Each way to finish a column whose cells in ``filled`` are taken by
    dominoes from the column before, as the profile of the dominoes it
    pushes into the next column."""
    if r == rows:
        yield out
    elif filled >> r & 1:
        yield from _column_fills(rows, filled, r + 1, out)
    else:
        # a horizontal domino into the next column
        yield from _column_fills(rows, filled, r + 1, out | 1 << r)
        if r + 1 < rows and not filled >> (r + 1) & 1:
            # a vertical domino on rows r and r + 1
            yield from _column_fills(rows, filled, r + 2, out)


def tilings(rows: int, cols: int) -> int:
    """Domino tilings of the rows x cols board, column by column."""
    ways = {0: 1}
    for _ in range(cols):
        following = {}
        for filled, count in ways.items():
            for out in _column_fills(rows, filled):
                following[out] = following.get(out, 0) + count
        ways = following
    return ways.get(0, 0)


def test_tiling_counter_known_values():
    # 2 x k is Fibonacci; the rest are the standard tables.
    assert [tilings(2, k) for k in range(1, 11)] == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert [tilings(1, k) for k in range(1, 7)] == [0, 1, 0, 1, 0, 1]
    assert [tilings(3, k) for k in (2, 4, 6, 8)] == [3, 11, 41, 153]
    assert [tilings(4, k) for k in (4, 5, 6, 7)] == [36, 95, 281, 781]
    assert tilings(3, 3) == 0
    assert all(tilings(r, k) == tilings(k, r) for r in range(1, 6) for k in range(1, 6))


GRIDS = [(r, k) for r in range(1, 5) for k in range(1, 7)] + [(2, 10), (3, 8)]


@pytest.mark.parametrize("r,k", GRIDS)
def test_grid_permanent_is_tilings_squared(r, k):
    g = corpus.grid_graph(r, k)
    report = permanent_auto(g)
    assert report.value == tilings(r, k) ** 2
    if r >= 2 and k >= 2 and r * k % 2 == 0:
        # a grid with a square and a tiling is one elementary piece with
        # a Pfaffian signing: one determinant, no cycle expanded
        assert report.path_taken == PATH_PFAFFIAN
        assert (report.m, report.families, report.pieces) == (0, 1, ())


@pytest.mark.parametrize("r,k", [(6, 6), (6, 8), (8, 8)])
def test_grid_matching_count_is_tilings(r, k):
    # beyond the whole-graph cycle cap, which count_perfect_matchings never meets
    g = corpus.grid_graph(r, k)
    b = corpus.biadjacency_of(g, bipartition(g).indices())
    assert count_perfect_matchings(b) == tilings(r, k)
