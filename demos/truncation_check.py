"""
How far can the cycle-family sum be truncated?
==============================================

The expansion sums over families of vertex-disjoint 4k-cycles of every
size z = 0..m.  Cutting the sum off early stays correct on a graph, and
on all of its even induced subgraphs, exactly when the graph has no
larger disjoint family than the cutoff.  This script checks that on the
10-vertex fixture: the truncated sum matches every induced subgraph at
m = 2 but is caught lying at m = 1, and the checker names an induced
subgraph that exposes it.

Run from the repository root:

    python3 demos/truncation_check.py
"""

from pathlib import Path

from permdet import (
    induced_subgraph,
    parse_edge_list,
    per_ryser,
    permanent_theorem1,
    verify_theorem2,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"


def truncated_sum(g, m: int) -> int:
    """The signed family sum with families larger than m dropped: the
    terms of the paper's table with z <= m, as ``verify_theorem2`` sums
    them."""
    total = sum(t.contribution for t in permanent_theorem1(g).per_family_terms if t.z <= m)
    return -total if (g.n // 2) % 2 else total


g = parse_edge_list((FIXTURES / "example10.edges").read_text())
true_m = permanent_theorem1(g).m
print(f"graph: {g.n} vertices, largest disjoint 4k-cycle family: {true_m}")

# ---------------------------------------------------------------------------
# At the true m the truncation is no truncation at all, and the checker
# confirms it holds on every even induced subgraph (all 2^n of them,
# odd-size ones excluded).
report = verify_theorem2(g, true_m)
print(f"\ncutoff m = {true_m}: holds on all even induced subgraphs? "
      f"{report.holds_for_all}")

# ---------------------------------------------------------------------------
# One step lower the checker finds a witness.
report = verify_theorem2(g, true_m - 1)
witness = report.violating_subset
print(f"cutoff m = {true_m - 1}: holds? {report.holds_for_all}, "
      f"witness: vertices {witness.labels()}")

sub = induced_subgraph(g, witness)
truth = per_ryser(sub.adj)
print(f"  on that subgraph: permanent = {truth}, "
      f"truncated sum at m = {true_m - 1} gives {truncated_sum(sub, true_m - 1)}, "
      f"at m = {true_m} gives {truncated_sum(sub, true_m)}")

# ---------------------------------------------------------------------------
# The same story on the smallest possible example: a single 4-cycle.
# Its determinant is 0, so the z = 0 term alone misses per = 4.
c4 = parse_edge_list((FIXTURES / "c4.edges").read_text())
report = verify_theorem2(c4, 0)
print(f"\n4-cycle: m = 0 holds? {report.holds_for_all}, "
      f"witness: vertices {report.violating_subset.labels()}")
print(f"4-cycle: m = 1 holds? {verify_theorem2(c4, 1).holds_for_all}")

# A tree has no cycles at all, so m = 0 is already exact everywhere.
p6 = parse_edge_list((FIXTURES / "p6.edges").read_text())
print(f"6-path: m = 0 holds? {verify_theorem2(p6, 0).holds_for_all}")
