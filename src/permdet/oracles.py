"""Independent brute-force oracles used to validate the main engine.

Three permanents that share no code with the engine:

* ``per_ryser``   - inclusion-exclusion over column subsets, O(2^n * n);
* ``per_naive``   - the definition, a sum over all n! permutations;
* ``sachs_sums`` - a sum of 2^c over spanning subgraphs whose
  components are single edges and cycles.

``sachs_sums`` reads those subgraphs in one pass, which also evaluates
the determinant as a signed sum and checks the parity identity and the
cycle-removal identity empirically.

``permanent_theorem1`` is the reference for Theorem 1 itself: the
paper's whole-graph term table, one term per disjoint 4k-cycle family,
each with the full-order det(G minus V(F)).  It shares the cycle and
family enumeration with the engine but none of its shortcuts or its
half-size determinants.  ``verify_theorem2`` sums the table's terms up
to a family size m to characterize the maximum number of
vertex-disjoint 4k-cycles.

Everything here is exponential and bounded by a module constant read
at call time: a size guard (``RYSER_GUARD``, ``NAIVE_GUARD``,
``SACHS_GUARD``, ``SUBSET_GUARD``) on the input, and
``DEFAULT_SACHS_CAP`` on the components the Sachs search tries.  Passing
one raises instead of truncating.
"""

from __future__ import annotations

from itertools import permutations

from .cycles import enumerate_cycles, enumerate_disjoint_families, four_k_cycles
from .determinant import det_after_removal
from .errors import EnumerationCapExceeded, NotBipartiteError, SizeGuardExceeded
from .graphs import Frozen, Graph, VertexSet, bipartition, induced_subgraph

# Ryser takes about 2 s at n = 20, and 4.5x that per two more columns.
RYSER_GUARD = 20
NAIVE_GUARD = 10
SACHS_GUARD = 14
SUBSET_GUARD = 14
# Component trials per Sachs search, about 60 ns each: K_{5,5} needs
# 33,084,790, and K_{6,6} stops here within about 3 s.
DEFAULT_SACHS_CAP = 5 * 10**7


def _check_square(matrix):
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


def per_ryser(matrix) -> int:
    """Permanent by Ryser's inclusion-exclusion formula, exact.

    Column subsets are walked in Gray-code order so each step updates
    the row sums by a single column.  per of the 0 x 0 matrix is 1.
    """
    a = [tuple(row) for row in matrix]
    n = _check_square(a)
    if n > RYSER_GUARD:
        raise SizeGuardExceeded("per_ryser", n, RYSER_GUARD)
    return _ryser(a)


def _ryser(a) -> int:
    """Ryser's formula on the square matrix ``a``, with no size guard, for
    callers bounded by a guard of their own."""
    n = len(a)
    if n == 0:
        return 1
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


def per_naive(matrix) -> int:
    """Permanent straight from the definition: sum over all permutations."""
    a = [tuple(row) for row in matrix]
    n = _check_square(a)
    if n > NAIVE_GUARD:
        raise SizeGuardExceeded("per_naive", n, NAIVE_GUARD)
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


def _bipartite(g: Graph) -> bool:
    try:
        bipartition(g)
    except NotBipartiteError:
        return False
    return True


class SachsSubgraph(Frozen):
    """A subgraph whose every component is a single edge or a cycle.

    Components are pairwise vertex-disjoint, and ``covered`` is the set
    of their vertices, as the search that found them tracked it.  Cycle
    components are classified by length mod 4 (``s`` counts multiples of
    four, ``t`` the rest of the even lengths); in a bipartite host every
    cycle is even, so c = s + t there.
    """

    __slots__ = _fields = ("edge_components", "cycle_components", "covered")

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


def enumerate_sachs(g: Graph, i: int) -> list:
    """All Sachs subgraphs of ``g`` covering exactly ``i`` vertices.

    Components (edges first, then the canonical cycle list) are chosen
    in strictly increasing position, so each subgraph appears exactly
    once and the output order is deterministic.  ``i = 0`` yields the
    single empty subgraph.  The cycles are ``cycles.enumerate_cycles(g)``,
    listed on each call.  Raises EnumerationCapExceeded past
    ``DEFAULT_SACHS_CAP`` component trials, each one pass of the loop
    over the components; no subgraph is found without a trial.  A
    bipartite ``g`` has only even components, so an odd ``i`` returns
    ``[]`` at once, with no cycle listed and no trial.
    """
    cap = DEFAULT_SACHS_CAP
    if not 0 <= i <= g.n:
        raise ValueError(f"i={i} outside 0..{g.n}")
    if i & 1 and _bipartite(g):
        return []
    comps = [((1 << u) | (1 << v), 2, (u, v)) for u, v in g.edges]
    comps.extend((cy.mask, cy.length, cy) for cy in enumerate_cycles(g))
    out = []
    chosen = []  # positions in comps, increasing, so edges come first
    trials = 0

    def backtrack(start, remaining, covered):
        nonlocal trials
        if remaining == 0:
            edges = sum(k < len(g.edges) for k in chosen)
            items = [comps[k][2] for k in chosen]
            out.append(SachsSubgraph(tuple(items[:edges]), tuple(items[edges:]), VertexSet(covered)))
            return
        # The loop never breaks, so its trials are counted on entry.
        trials += len(comps) - start
        if trials > cap:
            raise EnumerationCapExceeded("Sachs subgraph", cap)
        for k in range(start, len(comps)):
            mask, size, _ = comps[k]
            if size <= remaining and covered & mask == 0:
                chosen.append(k)
                backtrack(k + 1, remaining - size, covered | mask)
                chosen.pop()

    backtrack(0, i, 0)
    return out


class SachsSums(Frozen):
    """One pass over the spanning Sachs subgraphs: the unsigned sum
    ``per``, the signed sum ``det``, and whether the parity identity and
    the cycle-removal identity hold."""

    __slots__ = _fields = ("per", "det", "parity_holds", "removal_holds")


def sachs_sums(g: Graph) -> SachsSums:
    """per(G) as the sum of 2^c and det(G) as the sum of (-1)^(n - p) 2^c
    over the spanning Sachs subgraphs, and two identities checked on them.

    Parity: every spanning subgraph has n/2 == t + r (mod 2), and det(G)
    regrouped as the sum of (-1)^(s + n/2) 2^(s + t) is the signed sum;
    vacuously true when no spanning subgraph exists.  Removal: summing
    det(G \\ R) over all 4k-cycles R equals the same sum written through
    the spanning subgraphs that contain R.  A spanning subgraph u contains
    exactly its ``u.s`` 4k-cycle components, so that right side is
    u.s (-1)^(s - 1 + n/2) 2^(s + t - 1) per u.

    A bipartite graph of odd order has no spanning subgraph, and each
    G \\ R is bipartite of odd order, with det 0.  So there the sums are
    0 and both identities hold, returned at once with no cycle listed.
    """
    if g.n > SACHS_GUARD:
        raise SizeGuardExceeded("sachs_sums", g.n, SACHS_GUARD)
    if g.n & 1 and _bipartite(g):
        return SachsSums(0, 0, True, True)
    half = g.n // 2
    per = det = regrouped = rhs = 0
    parity_holds = True
    for u in enumerate_sachs(g, g.n):
        term = 1 << u.c
        per += term
        det += -term if (g.n - u.p) & 1 else term
        parity_holds &= (half - (u.t + u.r)) % 2 == 0
        term = 1 << (u.s + u.t)
        regrouped += -term if (u.s + half) & 1 else term
        term = u.s << (u.s + u.t) >> 1  # 0 when u.s is 0
        rhs += -term if (u.s - 1 + half) & 1 else term
    lhs = sum(det_after_removal(g, VertexSet(r.mask)) for r in four_k_cycles(enumerate_cycles(g)))
    return SachsSums(per, det, parity_holds and det == regrouped, lhs == rhs)


class FamilyTerm(Frozen):
    """One family's contribution: coefficient * det of the reduced graph."""

    __slots__ = _fields = ("z", "covered", "det", "coefficient")

    @property
    def contribution(self) -> int:
        return self.coefficient * self.det


class Theorem1Report(Frozen):
    """The whole-graph expansion: ``per_family_terms`` in family order
    (by size, then cycle indices), ``m`` the largest family's size."""

    __slots__ = _fields = ("value", "n", "m", "num_4k_cycles", "per_family_terms")


def permanent_theorem1(g: Graph) -> Theorem1Report:
    """per(G) as the paper's sum over every disjoint 4k-cycle family F of
    4^|F| * det(G minus V(F)), signed by (-1)^(n/2), with no shortcut.

    Each ``det`` is the full-order determinant of the graph minus the
    family, evaluated once per distinct set of covered vertices.  Odd n
    gives 0 and no terms.  Raises NotBipartiteError for non-bipartite
    input and propagates the enumeration caps.
    """
    bipartition(g)
    if g.n % 2:
        return Theorem1Report(0, g.n, 0, 0, ())
    c4k = four_k_cycles(enumerate_cycles(g))
    families = enumerate_disjoint_families(c4k)
    # Families that cover the same vertices share one determinant.
    covers = {fam.covered.mask: fam.covered for fam in families}
    dets = {mask: det_after_removal(g, covered) for mask, covered in covers.items()}
    terms = tuple(
        FamilyTerm(fam.size, fam.covered, dets[fam.covered.mask], 4**fam.size)
        for fam in families
    )
    total = sum(term.contribution for term in terms)
    value = -total if (g.n // 2) & 1 else total
    return Theorem1Report(value, g.n, terms[-1].z, len(c4k), terms)


class Theorem2Report(Frozen):
    """Outcome of the truncated-expansion check over induced subgraphs."""

    __slots__ = _fields = ("holds_for_all", "violating_subset")


def verify_theorem2(g: Graph, m: int) -> Theorem2Report:
    """Check per(G_i) against the size-m truncated expansion on every
    even-order induced subgraph G_i (the empty subgraph included, where
    both sides are 1).  The truncation keeps the terms of
    ``permanent_theorem1(G_i)`` with z <= m.

    The check passes for all subsets exactly when ``g`` has at most
    ``m`` vertex-disjoint 4k-cycles; the first violating subset (in
    bitmask order) is reported otherwise.  ``SUBSET_GUARD`` alone bounds
    the check: each per(G_i) is Ryser's formula without its own guard.
    """
    if g.n > SUBSET_GUARD:
        raise SizeGuardExceeded("verify_theorem2", g.n, SUBSET_GUARD)
    for mask in range(1 << g.n):
        if mask.bit_count() & 1:
            continue
        keep = VertexSet(mask)
        gi = induced_subgraph(g, keep)
        table = permanent_theorem1(gi)
        total = sum(t.contribution for t in table.per_family_terms if t.z <= m)
        if _ryser(gi.adj) != (-total if (gi.n // 2) & 1 else total):
            return Theorem2Report(False, keep)
    return Theorem2Report(True, None)
