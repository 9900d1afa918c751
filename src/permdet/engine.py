"""Permanent of a bipartite graph via a determinant expansion.

For bipartite G on an even number of vertices,

    per(G) = (-1)^(n/2) * sum over unordered families F of pairwise
             vertex-disjoint 4k-cycles of 4^|F| * det(G minus V(F)),

the empty family contributing det(G).  Odd n gives 0 outright.  A graph
with no 4k-cycles has only the empty family, so the sum is the paper's
corollary per(G) = (-1)^(n/2) det(G), a single determinant.  All
arithmetic is exact.

``permanent_auto`` is the engine's one entry point, and
``_expansion_report`` the one place it evaluates determinants.  The
paper's whole-graph term table is a reference kept apart from the
engine: ``oracles.permanent_theorem1``, on full-order determinants.

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
class PermanentReport:
    """The permanent and how it was reached.

    ``path_taken`` is one of the ``PATH_*`` names.  ``m`` is the size of
    the largest disjoint 4k-cycle family expanded, ``families`` the
    number of families expanded (the empty one included), and the cache
    counters count the determinant lookups.  ``num_cycles`` and
    ``num_4k_cycles`` count the cycles of the whole graph.  The terms
    themselves are not kept; ``oracles.permanent_theorem1`` lists them.

    On ``PATH_DECOMPOSED`` the value is the product over ``pieces``, one
    expansion report per elementary piece, whose ``n`` and cycle counts
    are the piece's; a piece that is a single edge has per 1 and is left
    out.  There ``m``, ``families`` and the cache counters are sums over
    the pieces, and ``m`` can be smaller than the whole graph's largest
    family, which may use cycles that cross pieces.
    """

    value: int
    n: int
    m: int
    num_4k_cycles: int
    families: int
    path_taken: str
    num_cycles: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pieces: tuple = ()


def _check_even_cycles(cycles) -> None:
    # The host was already bipartition-checked, so an odd cycle here can
    # only mean a bug in the enumerator.
    for cyc in cycles:
        if cyc.length % 2:
            raise InternalInvariantError(f"odd cycle {cyc.labels()} in bipartite host")


def _expansion_report(
    g: Graph, parts: Bipartition, cycles, c4k, keep: int
) -> PermanentReport:
    """The expansion of the subgraph induced by the vertex mask ``keep``,
    whose cycles are ``cycles``; every term removes the rest of ``g`` too.
    With no 4k-cycle only the empty family is left: the corollary.
    """
    outside = ((1 << g.n) - 1) ^ keep
    n = keep.bit_count()
    cache = DetCache()
    families = enumerate_disjoint_families(c4k)
    total = 0
    for fam in families:
        removed = VertexSet(outside | fam.covered.mask) if outside else fam.covered
        total += 4**fam.size * biadjacency_det_after_removal(g, parts, removed, cache)
    path = PATH_THEOREM1 if c4k else PATH_COROLLARY
    value = -total if (n // 2) & 1 else total
    if value < 0:
        raise InternalInvariantError(f"negative permanent {value} from {path}; this is a bug")
    # The families are sorted by size, so the last one is the largest.
    return PermanentReport(
        value, n, families[-1].size, len(c4k), len(families), path,
        num_cycles=len(cycles), cache_hits=cache.hits, cache_misses=cache.misses,
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
        math.prod(r.value for r in reports), g.n, sum(r.m for r in reports), len(c4k),
        sum(r.families for r in reports), PATH_DECOMPOSED, num_cycles=len(cycles),
        cache_hits=sum(r.cache_hits for r in reports),
        cache_misses=sum(r.cache_misses for r in reports), pieces=reports,
    )


def permanent_auto(g: Graph, cycle_cap: int = DEFAULT_CYCLE_CAP) -> PermanentReport:
    """The permanent of ``g`` by the cheapest exact route: odd n gives 0
    without enumerating anything, a graph that splits into more than one
    elementary piece is expanded piece by piece and the results
    multiplied, and any other graph gets the whole expansion, which for a
    4k-cycle-free graph is a single determinant.

    Raises NotBipartiteError for non-bipartite input and propagates
    CycleCapExceeded and EnumerationCapExceeded from enumeration.
    """
    parts = bipartition(g)
    if g.n % 2:
        # No perfect matching can exist, so nothing is enumerated.
        return PermanentReport(0, g.n, 0, 0, 0, PATH_ODD)
    cycles = enumerate_cycles(g, cap=cycle_cap)
    _check_even_cycles(cycles)
    c4k = four_k_cycles(cycles)
    if c4k:
        pieces = elementary_pieces(g, parts)
        if len(pieces) > 1:
            return _decomposed_report(g, parts, cycles, c4k, pieces)
    return _expansion_report(g, parts, cycles, c4k, (1 << g.n) - 1)


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
