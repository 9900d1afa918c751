"""Independent brute-force oracles used to validate the main engine.

Three permanents that share no code with the engine:

* ``per_ryser``   - inclusion-exclusion over column subsets, O(2^n * n);
* ``per_naive``   - the definition, a sum over all n! permutations;
* ``per_via_sachs`` - a sum of 2^c over spanning subgraphs whose
  components are single edges and cycles.

The same subgraph enumeration also evaluates the determinant as a
signed sum, and backs empirical checks of the parity identity and the
cycle-removal identity.

``permanent_theorem1`` is the reference for Theorem 1 itself: the
paper's whole-graph term table, one term per disjoint 4k-cycle family,
each with the full-order det(G minus V(F)).  It shares the cycle and
family enumeration with the engine but none of its shortcuts or its
half-size determinants.  ``verify_theorem2`` sums the table's terms up
to a family size m to characterize the maximum number of
vertex-disjoint 4k-cycles.

Everything here is exponential and guarded by explicit size limits or
caps; exceeding a guard raises instead of truncating.
"""

from __future__ import annotations

from itertools import permutations

from .cycles import DEFAULT_CYCLE_CAP, enumerate_cycles, enumerate_disjoint_families, four_k_cycles
from .determinant import DetCache, det_after_removal
from .errors import EnumerationCapExceeded, InternalInvariantError, SizeGuardExceeded
from .graphs import Frozen, Graph, VertexSet, adjacency_after_removal, bipartition, induced_subgraph

_set = object.__setattr__

RYSER_GUARD = 30
NAIVE_GUARD = 10
SACHS_GUARD = 14
REMOVAL_GUARD = 12
SUBSET_GUARD = 14
DEFAULT_SACHS_CAP = 10**7


def _check_square(matrix):
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


def per_ryser(matrix, guard: int = RYSER_GUARD) -> int:
    """Permanent by Ryser's inclusion-exclusion formula, exact.

    Column subsets are walked in Gray-code order so each step updates
    the row sums by a single column.  per of the 0 x 0 matrix is 1.
    """
    a = [tuple(row) for row in matrix]
    n = _check_square(a)
    if n == 0:
        return 1
    if n > guard:
        raise SizeGuardExceeded("per_ryser", n, guard)
    cols = [tuple(a[i][j] for i in range(n)) for j in range(n)]
    row_sums = [0] * n
    total = 0
    gray = 0
    for k in range(1, 1 << n):
        new_gray = k ^ (k >> 1)
        j = (gray ^ new_gray).bit_length() - 1
        col = cols[j]
        if new_gray >> j & 1:
            for i in range(n):
                row_sums[i] += col[i]
        else:
            for i in range(n):
                row_sums[i] -= col[i]
        gray = new_gray
        prod = 1
        for x in row_sums:
            if x == 0:
                prod = 0
                break
            prod *= x
        if prod:
            total += -prod if gray.bit_count() & 1 else prod
    return total if n % 2 == 0 else -total


def per_naive(matrix, guard: int = NAIVE_GUARD) -> int:
    """Permanent straight from the definition: sum over all permutations."""
    a = [tuple(row) for row in matrix]
    n = _check_square(a)
    if n > guard:
        raise SizeGuardExceeded("per_naive", n, guard)
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            x = a[i][j]
            if x == 0:
                prod = 0
                break
            prod *= x
        total += prod
    return total


class SachsSubgraph(Frozen):
    """A subgraph whose every component is a single edge or a cycle.

    Components are pairwise vertex-disjoint.  Cycle components are
    classified by length mod 4 (``s`` counts multiples of four, ``t``
    the rest of the even lengths); in a bipartite host every cycle is
    even, so c = s + t there.
    """

    __slots__ = ("edge_components", "cycle_components", "covered")
    _fields = ("edge_components", "cycle_components")

    def __init__(self, edge_components: tuple, cycle_components: tuple):
        _set(self, "edge_components", edge_components)
        _set(self, "cycle_components", cycle_components)
        mask = 0
        for u, v in edge_components:
            mask |= (1 << u) | (1 << v)
        for cy in cycle_components:
            mask |= cy.vertex_set.mask
        _set(self, "covered", VertexSet(mask))

    @property
    def i(self) -> int:
        return 2 * self.r + sum(cy.length for cy in self.cycle_components)

    @property
    def r(self) -> int:
        return len(self.edge_components)

    @property
    def c(self) -> int:
        return len(self.cycle_components)

    @property
    def p(self) -> int:
        return self.c + self.r

    @property
    def s(self) -> int:
        return sum(1 for cy in self.cycle_components if cy.length % 4 == 0)

    @property
    def t(self) -> int:
        return sum(1 for cy in self.cycle_components if cy.length % 4 == 2)


def enumerate_sachs(g: Graph, i: int, cap: int = DEFAULT_SACHS_CAP, cycles=None) -> list:
    """All Sachs subgraphs of ``g`` covering exactly ``i`` vertices.

    Components (edges first, then the canonical cycle list) are chosen
    in strictly increasing position, so each subgraph appears exactly
    once and the output order is deterministic.  ``i = 0`` yields the
    single empty subgraph.  Pass a pre-enumerated ``cycles`` list to
    avoid re-running cycle search.
    """
    if not 0 <= i <= g.n:
        raise ValueError(f"i={i} outside 0..{g.n}")
    if cycles is None:
        cycles = enumerate_cycles(g)
    comps = [((1 << u) | (1 << v), 2, (u, v), None) for u, v in g.edges]
    comps.extend((cy.vertex_set.mask, cy.length, None, cy) for cy in cycles)
    out = []
    chosen_edges = []
    chosen_cycles = []

    def backtrack(start, remaining, covered):
        if remaining == 0:
            out.append(SachsSubgraph(tuple(chosen_edges), tuple(chosen_cycles)))
            if len(out) > cap:
                raise EnumerationCapExceeded("Sachs subgraph", cap)
            return
        for k in range(start, len(comps)):
            mask, size, edge, cycle = comps[k]
            if size <= remaining and covered & mask == 0:
                if edge is not None:
                    chosen_edges.append(edge)
                else:
                    chosen_cycles.append(cycle)
                backtrack(k + 1, remaining - size, covered | mask)
                if edge is not None:
                    chosen_edges.pop()
                else:
                    chosen_cycles.pop()

    backtrack(0, i, 0)
    return out


def det_via_sachs(g: Graph, guard: int = SACHS_GUARD, cap: int = DEFAULT_SACHS_CAP) -> int:
    """Determinant as the signed Sachs sum over spanning subgraphs."""
    if g.n > guard:
        raise SizeGuardExceeded("det_via_sachs", g.n, guard)
    total = 0
    for u in enumerate_sachs(g, g.n, cap=cap):
        term = 1 << u.c
        total += -term if (g.n - u.p) & 1 else term
    return total


def _grouped_sachs_sum(spanning) -> int:
    """The Sachs permanent sum in its grouped form, sum of 2^(s+t)."""
    return sum(1 << (u.s + u.t) for u in spanning)


def per_via_sachs(g: Graph, guard: int = SACHS_GUARD, cap: int = DEFAULT_SACHS_CAP) -> int:
    """Permanent as the unsigned Sachs sum over spanning subgraphs.

    When the host has only even cycles the sum is recomputed in the
    grouped 2^(s+t) form and cross-checked; the two must agree because
    every cycle component is then a 4k- or (4k+2)-cycle.  A disagreement
    raises InternalInvariantError.
    """
    if g.n > guard:
        raise SizeGuardExceeded("per_via_sachs", g.n, guard)
    spanning = enumerate_sachs(g, g.n, cap=cap)
    total = sum(1 << u.c for u in spanning)
    if all(u.c == u.s + u.t for u in spanning):
        grouped = _grouped_sachs_sum(spanning)
        if grouped != total:
            raise InternalInvariantError(
                f"Sachs grouping mismatch: 2^c sum {total} != 2^(s+t) sum {grouped}"
            )
    return total


def check_parity_identity(g: Graph, guard: int = SACHS_GUARD, cap: int = DEFAULT_SACHS_CAP) -> bool:
    """Every spanning Sachs subgraph has n/2 == t + r (mod 2), and the
    determinant regrouped as sum of (-1)^(s + n/2) 2^(s+t) matches the
    plainly signed sum.  Vacuously true when no spanning subgraph exists.
    """
    if g.n > guard:
        raise SizeGuardExceeded("check_parity_identity", g.n, guard)
    half = g.n // 2
    det_sum = 0
    regrouped = 0
    for u in enumerate_sachs(g, g.n, cap=cap):
        if (half - (u.t + u.r)) % 2 != 0:
            return False
        term = 1 << u.c
        det_sum += -term if (g.n - u.p) & 1 else term
        term = 1 << (u.s + u.t)
        regrouped += -term if (u.s + half) & 1 else term
    return det_sum == regrouped


def check_removal_identity(g: Graph, guard: int = REMOVAL_GUARD, cap: int = DEFAULT_SACHS_CAP) -> bool:
    """Summing det(G \\ R) over all 4k-cycles R equals the same sum
    written through spanning Sachs subgraphs that contain R.
    """
    if g.n > guard:
        raise SizeGuardExceeded("check_removal_identity", g.n, guard)
    cycles = enumerate_cycles(g)
    c4k = four_k_cycles(cycles)
    lhs = sum(det_after_removal(g, r.vertex_set) for r in c4k)
    spanning = enumerate_sachs(g, g.n, cap=cap, cycles=cycles)
    half = g.n // 2
    rhs = 0
    for r in c4k:
        for u in spanning:
            if r in u.cycle_components:
                term = 1 << (u.s + u.t - 1)
                rhs += -term if (u.s - 1 + half) & 1 else term
    return lhs == rhs


class FamilyTerm(Frozen):
    """One family's contribution: coefficient * det of the reduced graph."""

    __slots__ = _fields = ("z", "covered", "det", "coefficient")

    def __init__(self, z: int, covered: VertexSet, det: int, coefficient: int):
        _set(self, "z", z)
        _set(self, "covered", covered)
        _set(self, "det", det)
        _set(self, "coefficient", coefficient)

    @property
    def contribution(self) -> int:
        return self.coefficient * self.det


class Theorem1Report(Frozen):
    """The whole-graph expansion: ``per_family_terms`` in family order
    (by size, then cycle indices), ``m`` the largest family's size."""

    __slots__ = _fields = ("value", "n", "m", "num_4k_cycles", "per_family_terms")

    def __init__(self, value: int, n: int, m: int, num_4k_cycles: int, per_family_terms: tuple):
        _set(self, "value", value)
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "num_4k_cycles", num_4k_cycles)
        _set(self, "per_family_terms", per_family_terms)


def permanent_theorem1(g: Graph, cycle_cap: int = DEFAULT_CYCLE_CAP) -> Theorem1Report:
    """per(G) as the paper's sum over every disjoint 4k-cycle family F of
    4^|F| * det(G minus V(F)), signed by (-1)^(n/2), with no shortcut.

    Each ``det`` is the full-order determinant of the graph minus the
    family.  Odd n gives 0 and no terms.  Raises NotBipartiteError for
    non-bipartite input and propagates the enumeration caps.
    """
    bipartition(g)
    if g.n % 2:
        return Theorem1Report(0, g.n, 0, 0, ())
    c4k = four_k_cycles(enumerate_cycles(g, cap=cycle_cap))
    cache = DetCache()
    terms = tuple(
        FamilyTerm(fam.size, fam.covered, det_after_removal(g, fam.covered, cache), 4**fam.size)
        for fam in enumerate_disjoint_families(c4k)
    )
    total = sum(term.contribution for term in terms)
    value = -total if (g.n // 2) & 1 else total
    return Theorem1Report(value, g.n, terms[-1].z, len(c4k), terms)


class Theorem2Report(Frozen):
    """Outcome of the truncated-expansion check over induced subgraphs."""

    __slots__ = _fields = ("holds_for_all", "violating_subset")

    def __init__(self, holds_for_all: bool, violating_subset: VertexSet | None):
        _set(self, "holds_for_all", holds_for_all)
        _set(self, "violating_subset", violating_subset)


def verify_theorem2(g: Graph, m: int, guard: int = SUBSET_GUARD) -> Theorem2Report:
    """Check per(G_i) against the size-m truncated expansion on every
    even-order induced subgraph G_i (the empty subgraph included, where
    both sides are 1).  The truncation keeps the terms of
    ``permanent_theorem1(G_i)`` with z <= m.

    The check passes for all subsets exactly when ``g`` has at most
    ``m`` vertex-disjoint 4k-cycles; the first violating subset (in
    bitmask order) is reported otherwise.
    """
    if g.n > guard:
        raise SizeGuardExceeded("verify_theorem2", g.n, guard)
    for mask in range(1 << g.n):
        if mask.bit_count() & 1:
            continue
        keep = VertexSet(mask)
        gi = induced_subgraph(g, keep)
        table = permanent_theorem1(gi)
        total = sum(t.contribution for t in table.per_family_terms if t.z <= m)
        if per_ryser(gi.adj) != (-total if (gi.n // 2) & 1 else total):
            return Theorem2Report(False, keep)
    return Theorem2Report(True, None)
