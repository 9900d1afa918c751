"""Permanent of a bipartite graph via a signed determinant expansion.

Give each edge of a bipartite G a sign s(e) = +-1 and write B_s for the
signed biadjacency block, rows the left side and columns the right.
Call an even cycle of length 2l *bad* under s when l + 1 plus its number
of negative edges is odd.  For G on an even number of vertices,

    per(G) = sum over unordered families F of pairwise vertex-disjoint
             bad cycles of 4^|F| * det(B_s[L minus V(F), R minus V(F)])^2,

a term being 0 when the kept sides differ in size, and odd n gives 0
outright.  Under the all-plus signing the bad cycles are the 4k-cycles
and this is the paper's Theorem 1, the term for F being
(-1)^(n/2) * 4^|F| * det(G minus V(F)); a graph with no 4k-cycle is the
paper's corollary, per(G) = det(B)^2.  All arithmetic is exact.

``permanent_auto`` is the engine's one entry point, and
``_expansion_report`` the one place it evaluates determinants, all of
half the order on the kept biadjacency block (``signed_block_det``).
The paper's whole-graph term table is a reference kept apart from the
engine: ``oracles.permanent_theorem1``, on full-order determinants.

The order of work: the bipartition, then the cycles of the whole graph
(their counts are reported, and a graph with no 4k-cycle takes the
corollary).  Then one perfect matching M; with none, no cycle can be
removed leaving a matchable rest, so per(G) = 0 from the empty family
alone, with no elimination.  M splits the graph at the edges that lie
in no perfect matching (see ``matching``): per(G) is the product over
the elementary pieces, and each piece is solved on its own with the
cycles that lie inside it.  A piece P's determinants keep only P, which
leaves B_s[P minus V(F)] because every edge inside a piece is kept.

Per piece, ``matching.pfaffian_signing`` finds a signing from the
M-alternating cycles.  When every one of them is good, the signing is
Pfaffian: no nice cycle is bad, so the sum is det(B_s[P])^2, one
determinant.  Otherwise only the bad cycles C that are *nice* (G[P]
minus V(C) has a perfect matching) are expanded, since a family with a
cycle that is not nice leaves an unmatchable rest and a zero term.
"""

from __future__ import annotations

import math

from .cycles import (
    DEFAULT_CYCLE_CAP,
    DisjointFamily,
    enumerate_cycles,
    enumerate_disjoint_families,
    four_k_cycles,
)
from .determinant import DetCache, signed_block_det
from .errors import InternalInvariantError, NotAPerfectSquare
from .graphs import (
    EMPTY_SET,
    Bipartition,
    Frozen,
    Graph,
    bipartition,
    graph_from_biadjacency,
    mask_indices,
)
from .matching import elementary_pieces, matchable_without, perfect_matching, pfaffian_signing

_set = object.__setattr__

PATH_ODD = "odd_shortcut"
PATH_COROLLARY = "corollary_fast_path"
PATH_PFAFFIAN = "pfaffian_signing"
PATH_THEOREM1 = "theorem1_expansion"
PATH_DECOMPOSED = "matching_decomposition"

# The only family when no cycle is bad: the corollary and a Pfaffian piece.
_EMPTY_FAMILY_ONLY = (DisjointFamily((), EMPTY_SET),)


class PermanentReport(Frozen):
    """The permanent and how it was reached.

    ``path_taken`` is one of the ``PATH_*`` names.  ``m`` is the size of
    the largest family expanded and ``families`` the number of families
    expanded (the empty one included): families of 4k-cycles on the
    corollary path, and of the cycles that are bad under the piece's
    signing and nice on ``PATH_THEOREM1``.  A Pfaffian piece expands the
    empty family alone (m 0, families 1).  The cache counters count the
    determinant lookups.  ``num_cycles`` and ``num_4k_cycles`` count the
    cycles of the graph or piece, whatever the signing.  The terms
    themselves are not kept; ``oracles.permanent_theorem1`` lists the
    paper's all-plus terms.

    On ``PATH_DECOMPOSED`` the value is the product over ``pieces``, one
    report per elementary piece, whose ``n`` and cycle counts are the
    piece's; a piece that is a single edge has per 1 and is left out.
    There ``m``, ``families`` and the cache counters are sums over the
    pieces.
    """

    __slots__ = _fields = (
        "value",
        "n",
        "m",
        "num_4k_cycles",
        "families",
        "path_taken",
        "num_cycles",
        "cache_hits",
        "cache_misses",
        "pieces",
    )

    def __init__(
        self,
        value: int,
        n: int,
        m: int,
        num_4k_cycles: int,
        families: int,
        path_taken: str,
        num_cycles: int = 0,
        cache_hits: int = 0,
        cache_misses: int = 0,
        pieces: tuple = (),
    ):
        _set(self, "value", value)
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "num_4k_cycles", num_4k_cycles)
        _set(self, "families", families)
        _set(self, "path_taken", path_taken)
        _set(self, "num_cycles", num_cycles)
        _set(self, "cache_hits", cache_hits)
        _set(self, "cache_misses", cache_misses)
        _set(self, "pieces", pieces)


def _check_even_cycles(cycles) -> None:
    # The host was already bipartition-checked, so an odd cycle here can
    # only mean a bug in the enumerator.
    for cyc in cycles:
        if cyc.length % 2:
            raise InternalInvariantError(f"odd cycle {cyc.labels()} in bipartite host")


def _is_bad(cycle, negative: dict) -> bool:
    """Whether ``cycle`` (length 2l) is bad under the signing ``negative``
    (see ``matching.pfaffian_signing``): l + 1 plus its number of
    negative edges is odd."""
    vertices = cycle.vertices
    count = len(vertices) // 2 + 1
    prev = vertices[-1]
    for v in vertices:
        count += negative.get(prev, 0) >> v & 1
        prev = v
    return count & 1 == 1


def _expansion_report(
    g: Graph, parts: Bipartition, keep: int, negative: dict, bad, path: str,
    cycles, num_4k: int,
) -> PermanentReport:
    """The signed expansion of the subgraph induced by the vertex mask
    ``keep`` under the signing ``negative``, over the families of the
    disjoint cycles ``bad``.  ``cycles`` and ``num_4k`` are only counted.
    """
    cache = DetCache()
    families = enumerate_disjoint_families(bad) if bad else _EMPTY_FAMILY_ONLY
    total = 0
    for fam in families:
        d = signed_block_det(g, parts, keep & ~fam.covered.mask, negative, cache)
        total += 4**fam.size * d * d
    if not total and perfect_matching(g, parts) is not None:
        # Pieces exist only when g has a perfect matching, and each has one.
        raise InternalInvariantError(
            f"zero permanent from {path} with a perfect matching; this is a bug"
        )
    # The families are sorted by size, so the last one is the largest.
    return PermanentReport(
        total, keep.bit_count(), families[-1].size, num_4k, len(families), path,
        num_cycles=len(cycles), cache_hits=cache.hits, cache_misses=cache.misses,
    )


def _piece_report(
    g: Graph, parts: Bipartition, mate: list, piece: int, cycles
) -> PermanentReport:
    """The report of the elementary piece ``piece``, whose cycles are
    ``cycles``: the corollary with no 4k-cycle, one determinant under a
    certified signing, and otherwise the expansion over the bad nice
    cycles."""
    num_4k = len(four_k_cycles(cycles))
    if not num_4k:
        return _expansion_report(g, parts, piece, {}, (), PATH_COROLLARY, cycles, 0)
    negative, certified = pfaffian_signing(g, parts, mate, piece)
    if certified:
        return _expansion_report(g, parts, piece, negative, (), PATH_PFAFFIAN, cycles, num_4k)
    bad = [
        c for c in cycles
        if _is_bad(c, negative) and matchable_without(g, parts, mate, piece, c.vertex_set.mask)
    ]
    return _expansion_report(g, parts, piece, negative, bad, PATH_THEOREM1, cycles, num_4k)


def _decomposed_report(
    g: Graph, parts: Bipartition, mate: list, cycles, c4k, pieces: list
) -> PermanentReport:
    # A piece of two vertices is a single matched edge: per 1, no cycles.
    inside = {mask: [] for mask in pieces if mask.bit_count() > 2}
    home = [0] * g.n
    for mask in inside:
        for v in mask_indices(mask):
            home[v] = mask
    for cyc in cycles:
        mask = home[cyc.vertices[0]]
        if cyc.vertex_set.mask | mask == mask:
            inside[mask].append(cyc)
    reports = tuple(
        _piece_report(g, parts, mate, mask, own) for mask, own in inside.items()
    )
    return PermanentReport(
        math.prod(r.value for r in reports), g.n, sum(r.m for r in reports), len(c4k),
        sum(r.families for r in reports), PATH_DECOMPOSED, num_cycles=len(cycles),
        cache_hits=sum(r.cache_hits for r in reports),
        cache_misses=sum(r.cache_misses for r in reports), pieces=reports,
    )


def permanent_auto(g: Graph, cycle_cap: int = DEFAULT_CYCLE_CAP) -> PermanentReport:
    """The permanent of ``g`` by the cheapest exact route: odd n gives 0
    without enumerating anything; a graph with no 4k-cycle is one
    determinant (the corollary); a graph with no perfect matching gives
    0; and any other graph is solved per elementary piece, by one
    determinant under a certified Pfaffian signing or by the expansion
    over its bad nice cycles, the pieces' values multiplied.

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
    if not c4k:
        return _expansion_report(g, parts, (1 << g.n) - 1, {}, (), PATH_COROLLARY, cycles, 0)
    mate = perfect_matching(g, parts)
    if mate is None:
        # No cycle is nice, so only the empty family is left, and its
        # term is 0 with no elimination.
        return PermanentReport(0, g.n, 0, len(c4k), 1, PATH_THEOREM1, num_cycles=len(cycles))
    pieces = elementary_pieces(g, parts, mate)
    if len(pieces) == 1:
        return _piece_report(g, parts, mate, pieces[0], cycles)
    return _decomposed_report(g, parts, mate, cycles, c4k, pieces)


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


def count_perfect_matchings(b, cycle_cap: int = DEFAULT_CYCLE_CAP) -> int:
    """Number of perfect matchings of the bipartite graph with biadjacency b.

    Equals per(b).  A non-square b has no perfect matching, so 0.
    Otherwise the graph on p + q vertices with adjacency [[0, b], [b^T, 0]]
    is built, whose permanent is per(b)^2, and the exact square root is
    returned.  A permanent that is not a square is impossible and raises.
    """
    rows = _validate_zero_one(b)
    p = len(rows)
    q = len(rows[0]) if rows else 0
    if p != q:
        return 0
    big = permanent_auto(graph_from_biadjacency(rows), cycle_cap=cycle_cap).value
    root = math.isqrt(big)
    if root * root != big:
        raise NotAPerfectSquare(big)
    return root


class EfficiencyReport(Frozen):
    """Cycle-structure test for when the expansion beats brute force:
    cactus layout (any two cycles share at most one vertex) plus a girth
    large relative to n and the count of girth cycles.
    """

    __slots__ = _fields = ("is_cactus", "girth", "n", "c", "condition_holds")

    def __init__(self, is_cactus: bool, girth: int | None, n: int, c: int, condition_holds: bool):
        _set(self, "is_cactus", is_cactus)
        _set(self, "girth", girth)
        _set(self, "n", n)
        _set(self, "c", c)
        _set(self, "condition_holds", condition_holds)


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
