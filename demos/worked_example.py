"""
Permanent of a 10-vertex bipartite graph, step by step
======================================================

Walks the whole pipeline on the shipped 10-vertex fixture: parse,
bipartition, cycle inventory, disjoint cycle families, the determinant
term for each family, and the final signed total.  Every intermediate
value is printed so the output reads like a worked calculation, and the
result is cross-checked against an independent brute-force oracle.

Run from the repository root:

    python3 demos/worked_example.py
"""

from pathlib import Path

from permdet import (
    bipartition,
    determinant,
    enumerate_cycles,
    four_k_cycles,
    parse_edge_list,
    per_ryser,
    permanent_auto,
    permanent_theorem1,
)

FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"

# ---------------------------------------------------------------------------
# Load the graph.  The edge-list format is "n m" followed by m lines of
# 1-indexed endpoints.
text = (FIXTURES / "example10.edges").read_text()
g = parse_edge_list(text)
print(f"graph: {g.n} vertices, {len(g.edges)} edges")

left = bipartition(g)
right = tuple(v + 1 for v in range(g.n) if v not in left)
print(f"bipartition: {left.labels()} | {right}")

# ---------------------------------------------------------------------------
# Enumerate every cycle and split by length mod 4.  Only cycles whose
# length is a multiple of four enter the expansion; the others matter
# for nothing but the inventory.
cycles = enumerate_cycles(g)
c4k = four_k_cycles(cycles)
c4k2 = [cyc for cyc in cycles if cyc.length % 4 == 2]
print(f"\ncycles ({len(cycles)} total):")
for cyc in cycles:
    tag = "4k" if cyc.is_4k else "4k+2"
    print(f"  {cyc.labels()}  length={cyc.length}  [{tag}]")
print(f"4k-cycles: {len(c4k)}, (4k+2)-cycles: {len(c4k2)}")

# ---------------------------------------------------------------------------
# Families of pairwise vertex-disjoint 4k-cycles, the empty family
# included.  Each family F contributes 4^|F| * det(G minus V(F));
# permanent_theorem1 is the reference that lists every term.
table = permanent_theorem1(g)
terms = table.per_family_terms
print(f"\ndisjoint 4k-cycle families (empty one included): {len(terms)}, m = {table.m}")

for term in terms:
    removed = term.covered.labels() or "()"
    print(f"  z={term.z}  removed={removed}  det={term.det}  "
          f"term={term.coefficient}*({term.det})={term.contribution}")

total = sum(term.contribution for term in terms)
sign = -1 if (g.n // 2) % 2 else 1
print(f"\nsign (-1)^(n/2) = {sign}")
print(f"permanent = {sign} * {total} = {sign * total}")

# ---------------------------------------------------------------------------
# The engine computes the same value by its signed sum per piece; an
# inclusion-exclusion oracle that never looks at cycles must agree.
report = permanent_auto(g)
assert report.value == table.value == sign * total
assert per_ryser(g.adj) == report.value
print(f"\nengine value: {report.value} (path: {report.path_taken})")
# The edge 6-9 lies in no perfect matching, so the engine splits the
# graph there into elementary pieces, solves each on its own and
# multiplies; the table above is the whole-graph sum it stands in for.
# Here each piece has a Pfaffian signing, a sign per edge under which
# per(piece) is one squared determinant, so no cycle is expanded.
for piece in report.pieces:
    print(f"  piece: {piece.n} vertices, path {piece.path_taken}, "
          f"{piece.families} families, per = {piece.value}")
print(f"oracle value: {per_ryser(g.adj)} (independent inclusion-exclusion)")
print(f"det(G) alone would give: {determinant(g.adj)}")
