"""Permanent of a bipartite graph via a determinant expansion.

For bipartite G on an even number of vertices,

    per(G) = (-1)^(n/2) * sum over unordered families F of pairwise
             vertex-disjoint 4k-cycles of 4^|F| * det(G minus V(F)),

the empty family contributing det(G).  Odd n gives 0 outright, and a
graph with no 4k-cycles collapses to per(G) = (-1)^(n/2) det(G), which
gets its own fast path.  All arithmetic is exact.

Every determinant is taken on the biadjacency block.  Ordering the
vertices left side first turns A(G) into [[0, B], [B^T, 0]], and removing
a vertex set keeps that shape: with kept sides L' and R',
det(G minus S) = (-1)^|L'| det(B[L', R'])^2 when |L'| = |R'|, and 0
without any elimination otherwise.  A 4k-cycle takes 2k vertices from
each side, so every term's remainder is balanced exactly when G is.
The bipartition is computed once per solve.  The full-order Bareiss in
``determinant`` stays the reference for the ``det`` command and the
oracles; the engine never calls it.

``permanent_auto`` also splits a graph at the edges that lie in no
perfect matching (see ``matching``): per(G) is the product of the
permanents of its elementary pieces, and each piece is expanded on its
own, with the 4k-cycles of the whole graph that lie inside it.  A piece
P's terms remove V(F) and every vertex outside P from the original
graph, which leaves det(G[P] minus V(F)) because every edge inside a
piece is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cycles import (
    DEFAULT_CYCLE_CAP,
    enumerate_cycles,
    enumerate_disjoint_families,
    four_k_cycles,
)
from .determinant import DetCache, biadjacency_det_after_removal
from .errors import InternalInvariantError, NotAPerfectSquare, NotBipartiteError
from .graphs import (
    EMPTY_SET,
    Bipartition,
    Graph,
    VertexSet,
    bipartition,
    graph_from_biadjacency,
)
from .matching import elementary_pieces

PATH_ODD = "odd_shortcut"
PATH_COROLLARY = "corollary_fast_path"
PATH_THEOREM1 = "theorem1_expansion"
PATH_DECOMPOSED = "matching_decomposition"


@dataclass(frozen=True)
class FamilyTerm:
    """One family's contribution: coefficient * det of the reduced graph."""

    z: int
    covered: VertexSet
    det: int
    coefficient: int

    @property
    def contribution(self) -> int:
        return self.coefficient * self.det


@dataclass(frozen=True)
class PermanentReport:
    """The permanent and how it was reached.

    ``path_taken`` is one of the ``PATH_*`` names.  ``m`` is the size of
    the largest disjoint 4k-cycle family expanded, ``per_family_terms``
    the expansion's terms, and the cache counters count the determinant
    lookups.  ``num_cycles`` and ``num_4k_cycles`` count the cycles of
    the whole graph.

    On ``PATH_DECOMPOSED`` the value is the product over ``pieces``, one
    expansion report per elementary piece, whose ``n`` and cycle counts
    are the piece's and whose ``covered`` sets are in the graph's
    labels; a piece that is a single edge has per 1 and is left out.
    There ``per_family_terms`` is empty, ``m`` and the cache counters are
    sums over the pieces, and ``m`` can be smaller than the whole graph's
    largest family, which may use cycles that cross pieces.
    """

    value: int
    n: int
    m: int
    num_4k_cycles: int
    per_family_terms: tuple
    path_taken: str
    num_cycles: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pieces: tuple = ()


def _signed(n: int, total: int) -> int:
    return -total if (n // 2) & 1 else total


def _check_nonnegative(value: int, where: str) -> None:
    if value < 0:
        raise InternalInvariantError(f"negative permanent {value} from {where}; this is a bug")


def _odd_report(g: Graph) -> PermanentReport:
    # n odd: no perfect matching can exist, so nothing is enumerated.
    return PermanentReport(0, g.n, 0, 0, (), PATH_ODD)


def _check_even_cycles(cycles) -> None:
    # The host was already bipartition-checked, so an odd cycle here can
    # only mean a bug in the enumerator.
    for cyc in cycles:
        if cyc.length % 2:
            raise InternalInvariantError(f"odd cycle {cyc.labels()} in bipartite host")


def _even_cycles(g: Graph, cycle_cap: int) -> tuple:
    cycles = enumerate_cycles(g, cap=cycle_cap)
    _check_even_cycles(cycles)
    return cycles, four_k_cycles(cycles)


def _expansion_report(
    g: Graph, parts: Bipartition, cycles, c4k, keep: int
) -> PermanentReport:
    """The expansion of the subgraph induced by the vertex mask ``keep``,
    whose cycles are ``cycles``; every term removes the rest of ``g`` too.
    """
    outside = ((1 << g.n) - 1) ^ keep
    n = keep.bit_count()
    cache = DetCache()
    terms = []
    total = 0
    for fam in enumerate_disjoint_families(c4k):
        removed = VertexSet(outside | fam.covered.mask) if outside else fam.covered
        d = biadjacency_det_after_removal(g, parts, removed, cache)
        coeff = 4**fam.size
        terms.append(FamilyTerm(fam.size, fam.covered, d, coeff))
        total += coeff * d
    value = _signed(n, total)
    _check_nonnegative(value, "theorem expansion")
    return PermanentReport(
        value,
        n,
        max((term.z for term in terms), default=0),
        len(c4k),
        tuple(terms),
        PATH_THEOREM1,
        num_cycles=len(cycles),
        cache_hits=cache.hits,
        cache_misses=cache.misses,
    )


def _decomposed_report(
    g: Graph, parts: Bipartition, cycles, c4k, pieces: list
) -> PermanentReport:
    # A piece of two vertices is a single matched edge: per 1, no cycles.
    inside = {mask: [] for mask in pieces if mask.bit_count() > 2}
    home = [0] * g.n
    for mask in inside:
        for v in VertexSet(mask):
            home[v] = mask
    for cyc in cycles:
        mask = home[cyc.vertices[0]]
        if cyc.vertex_set.mask | mask == mask:
            inside[mask].append(cyc)
    reports = tuple(
        _expansion_report(g, parts, own, four_k_cycles(own), mask)
        for mask, own in inside.items()
    )
    return PermanentReport(
        math.prod(r.value for r in reports),
        g.n,
        sum(r.m for r in reports),
        len(c4k),
        (),
        PATH_DECOMPOSED,
        num_cycles=len(cycles),
        cache_hits=sum(r.cache_hits for r in reports),
        cache_misses=sum(r.cache_misses for r in reports),
        pieces=reports,
    )


def permanent_theorem1(g: Graph, cycle_cap: int = DEFAULT_CYCLE_CAP) -> PermanentReport:
    """Full expansion over disjoint 4k-cycle families, no shortcuts.

    Raises NotBipartiteError for non-bipartite input and propagates
    CycleCapExceeded from enumeration.
    """
    parts = bipartition(g)
    if g.n % 2:
        return _odd_report(g)
    cycles, c4k = _even_cycles(g, cycle_cap)
    return _expansion_report(g, parts, cycles, c4k, (1 << g.n) - 1)


def permanent_auto(g: Graph, cycle_cap: int = DEFAULT_CYCLE_CAP) -> PermanentReport:
    """Like permanent_theorem1, but short-circuits: odd n gives 0 without
    enumerating anything, a 4k-cycle-free graph is finished with a single
    determinant, and a graph that splits into more than one elementary
    piece is expanded piece by piece and the results multiplied.
    """
    parts = bipartition(g)
    if g.n % 2:
        return _odd_report(g)
    cycles, c4k = _even_cycles(g, cycle_cap)
    if c4k:
        pieces = elementary_pieces(g, parts)
        if len(pieces) > 1:
            return _decomposed_report(g, parts, cycles, c4k, pieces)
        return _expansion_report(g, parts, cycles, c4k, (1 << g.n) - 1)
    d = biadjacency_det_after_removal(g, parts, EMPTY_SET)
    value = _signed(g.n, d)
    _check_nonnegative(value, "corollary fast path")
    term = FamilyTerm(0, EMPTY_SET, d, 1)
    return PermanentReport(
        value, g.n, 0, 0, (term,), PATH_COROLLARY, num_cycles=len(cycles)
    )


def _validate_zero_one(rows) -> tuple:
    out = []
    width = None
    for row in rows:
        tup = tuple(row)
        if width is None:
            width = len(tup)
        elif len(tup) != width:
            raise ValueError("ragged matrix")
        for x in tup:
            if x not in (0, 1):
                raise ValueError(f"matrix entry {x!r} is not 0 or 1")
        out.append(tup)
    return tuple(out)


def _symmetric_hollow(rows) -> bool:
    n = len(rows)
    if any(len(row) != n for row in rows):
        return False
    return all(rows[i][i] == 0 for i in range(n)) and all(
        rows[i][j] == rows[j][i] for i in range(n) for j in range(i + 1, n)
    )


def count_perfect_matchings(b, cycle_cap: int = DEFAULT_CYCLE_CAP) -> int:
    """Number of perfect matchings of the bipartite graph with biadjacency b.

    Equals per(b).  A non-square b has no perfect matching, so 0.  When b
    happens to be a valid adjacency matrix (symmetric, zero diagonal) of a
    bipartite graph, per(b) is computed on that graph directly; otherwise
    the graph on p + q vertices with adjacency [[0, b], [b^T, 0]] is built,
    whose permanent is per(b)^2, and the exact square root is returned.
    A non-square permanent on that route is impossible and raises.
    """
    rows = _validate_zero_one(b)
    p = len(rows)
    q = len(rows[0]) if rows else 0
    if p != q:
        return 0
    if _symmetric_hollow(rows):
        h = Graph.from_adjacency(rows)
        try:
            bipartition(h)
        except NotBipartiteError:
            pass
        else:
            return permanent_auto(h, cycle_cap=cycle_cap).value
    big = permanent_auto(graph_from_biadjacency(rows), cycle_cap=cycle_cap).value
    root = math.isqrt(big)
    if root * root != big:
        raise NotAPerfectSquare(big)
    return root


@dataclass(frozen=True)
class EfficiencyReport:
    """Cycle-structure test for when the expansion beats brute force:
    cactus layout (any two cycles share at most one vertex) plus a girth
    large relative to n and the count of girth cycles.
    """

    is_cactus: bool
    girth: int | None
    n: int
    c: int
    condition_holds: bool


def classify_efficient(g: Graph, cycle_cap: int = DEFAULT_CYCLE_CAP) -> EfficiencyReport:
    """Classify a bipartite graph by the girth condition
    g0 * (c + 2) > n + c(c-1)/2 + c, compared in exact integers.
    Acyclic graphs pass trivially.
    """
    bipartition(g)
    cycles = enumerate_cycles(g, cap=cycle_cap)
    _check_even_cycles(cycles)
    if not cycles:
        return EfficiencyReport(True, None, g.n, 0, True)
    masks = [cy.vertex_set.mask for cy in cycles]
    is_cactus = True
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            if (masks[i] & masks[j]).bit_count() > 1:
                is_cactus = False
                break
        if not is_cactus:
            break
    girth = cycles[0].length
    c = sum(1 for cy in cycles if cy.length == girth)
    holds = is_cactus and girth * (c + 2) > g.n + c * (c - 1) // 2 + c
    return EfficiencyReport(is_cactus, girth, g.n, c, holds)
