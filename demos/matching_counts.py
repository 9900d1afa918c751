"""
Counting perfect matchings from a biadjacency matrix
====================================================

A bipartite graph with sides of equal size p can be handed over as a
p x p 0/1 biadjacency matrix b; the number of its perfect matchings is
per(b).  The engine computes it on the graph on 2p vertices with
adjacency [[0, b], [b^T, 0]] as its pm, the signed sum of determinants
over that graph's elementary pieces, with no whole-graph cycle search.
That graph's permanent is per(b)^2.

This script counts a few matrices that way and checks the counts against
the squaring identity and Ryser's formula.

Run from the repository root:

    python3 demos/matching_counts.py
"""

import random
from pathlib import Path

from permdet import (
    count_perfect_matchings,
    graph_from_biadjacency,
    parse_biadjacency,
    per_ryser,
    permanent_auto,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# ---------------------------------------------------------------------------
# K_{3,3}: every one of the 3! bijections is a matching.
k33 = parse_biadjacency((FIXTURES / "k33.biadj").read_text())
print(f"K33 biadjacency {k33}")
print(f"perfect matchings: {count_perfect_matchings(k33)} (expect 3! = 6)")

# ---------------------------------------------------------------------------
# The 10-vertex fixture again, this time through its 5x5 biadjacency.
# Its permanent as a graph is 36 = 6^2, so the matrix permanent is 6.
b = parse_biadjacency((FIXTURES / "example10.biadj").read_text())
count = count_perfect_matchings(b)
big = permanent_auto(graph_from_biadjacency(b)).value
print(f"\n5x5 fixture: per(b) = {count}, per of the doubled graph = {big}")
assert big == count * count

# ---------------------------------------------------------------------------
# Any 0/1 matrix can be a biadjacency, a symmetric zero-diagonal one too:
# the 6x6 matrix below is the adjacency matrix of a 6-cycle, so per(b)
# counts permutation covers of C6 (two matchings plus two cycle
# orientations).
c6_adj = (
    (0, 1, 0, 0, 0, 1),
    (1, 0, 1, 0, 0, 0),
    (0, 1, 0, 1, 0, 0),
    (0, 0, 1, 0, 1, 0),
    (0, 0, 0, 1, 0, 1),
    (1, 0, 0, 0, 1, 0),
)
print(f"\nC6 adjacency as biadjacency: per = {count_perfect_matchings(c6_adj)}")

# ---------------------------------------------------------------------------
# Random matrices against the inclusion-exclusion oracle, plus the
# squaring identity on the doubled graph.
rng = random.Random(99)
checked = 0
for _ in range(50):
    p = rng.randint(2, 5)
    b = tuple(
        tuple(1 if rng.random() < 0.5 else 0 for _ in range(p)) for _ in range(p)
    )
    count = count_perfect_matchings(b)
    assert count == per_ryser(b)
    assert per_ryser(graph_from_biadjacency(b).adj) == count * count
    checked += 1
print(f"\n{checked} random matrices agree with the oracle, squaring identity holds")

# Non-square matrices cannot have a perfect matching at all.
print(f"2x3 all-ones: {count_perfect_matchings(((1, 1, 1), (1, 1, 1)))} matchings")
