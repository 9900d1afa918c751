"""Permanent of a bipartite graph via a signed determinant expansion.

For bipartite G, per(G) = pm(G)^2, pm the number of perfect matchings,
and odd n gives 0 outright.  The paper's Theorem 1 sums
(-1)^(n/2) * 4^|F| * det(G minus V(F)) over the families F of
vertex-disjoint 4k-cycles; a graph with no 4k-cycle is its corollary,
per(G) = det(B)^2, B the biadjacency block (rows the left side, columns
the right, both in vertex order).  The engine expands pm itself,
linearly, one elementary piece at a time, and the corollary is that
expansion's empty-family case.

Fix a perfect matching M and a signing s(e) = +-1 under which every
edge of M is positive, and write B_s for the signed block.  An
M-alternating cycle of length 2l is *bad* under s when l + 1 plus its
number of negative edges is odd.  For any perfect matching M', the
cycles of M xor M' are disjoint M-alternating cycles, and M' differs
from M on each as an l-cycle of columns, of sign (-1)^(l - 1), times its
edge signs: so M' enters det(B_s) with sigma_M * (-1)^b(M'), b(M') the
number of bad cycles of M xor M' and sigma_M the sign of M as a
permutation of rows onto columns.  For each cycle C of M xor M',
1 = (-1)^b + 2b with b = 1 when C is bad and 0 when good.  Multiplying
over the cycles and expanding, 1 is the sum over the sets T of bad
cycles of M xor M' of 2^|T| * (-1)^(number of its other bad cycles).
Summed over M' and grouped by T (an M' with T among its cycles is M
swapped on V(T) plus a perfect matching of G minus V(T)), this gives

    pm(G) = sum over families T of disjoint bad M-alternating cycles of
            2^|T| * sigma_T * det(B_s[L minus V(T), R minus V(T)]),

the empty family included, sigma_T the sign of M on the rest as a
permutation in that determinant's row and column order.  Putting the
columns in the order of the rows' mates permutes them by exactly that
permutation, so the engine evaluates sigma_T * det as one determinant
in that order (``signed_block_det`` with ``mate``).  M matches
every rest, so no family is pruned, and a sum below 1 with M in hand is
a bug.  When no alternating cycle is bad the signing is Pfaffian and
pm = sigma_M * det(B_s), one determinant.

``permanent_auto`` is the engine's one entry point and ``_signed_sum``
the only place it evaluates determinants, all of half the order on the
kept biadjacency block (``signed_block_det``), none memoized.  The
paper's whole-graph term table is a reference kept apart from the
engine: ``oracles.permanent_theorem1``, on full-order determinants.

The order of work: the bipartition, then the cycles of the whole graph,
used only for the counts reported.  Then one perfect matching M; with
none, per(G) = 0 with no elimination.  M splits the graph at the edges
that lie in no perfect matching (see ``matching``): per(G) is the
product over the elementary pieces.  Each piece of more than two
vertices gets its signing and its bad alternating cycles from one
search, ``matching.pfaffian_signing``, and the sum above runs over the
families of those cycles (``cycles.disjoint_families``, on vertex
masks).  On a piece with no 4k-cycle every alternating cycle has odd
l, so every equation of the search asks for an even number of negative
edges: the signing is empty, no cycle is bad, and the sum is the one
determinant sigma_M * det(B), the paper's corollary.
"""

from __future__ import annotations

import math

from .cycles import DEFAULT_CYCLE_CAP, disjoint_families, enumerate_cycles, four_k_cycles
from .determinant import signed_block_det
from .errors import InternalInvariantError, NotAPerfectSquare
from .graphs import Bipartition, Frozen, Graph, bipartition, graph_from_biadjacency
from .matching import elementary_pieces, perfect_matching, pfaffian_signing

_set = object.__setattr__

PATH_ODD = "odd_shortcut"
PATH_COROLLARY = "corollary_fast_path"
PATH_PFAFFIAN = "pfaffian_signing"
PATH_THEOREM1 = "theorem1_expansion"

# A graph's label is the last of its pieces' labels in this order.
_PATH_ORDER = (PATH_COROLLARY, PATH_PFAFFIAN, PATH_THEOREM1)

# The only family when no alternating cycle is bad.
_EMPTY_FAMILY_ONLY = (((), 0),)


class PermanentReport(Frozen):
    """The permanent and how it was reached.

    ``path_taken`` is one of the ``PATH_*`` names, read from the engine's
    own work: ``PATH_ODD`` for odd n; ``PATH_THEOREM1`` when some piece
    has an alternating cycle that is bad under its signing;
    ``PATH_PFAFFIAN`` when none has, but some piece's signing has a
    negative edge; and ``PATH_COROLLARY`` when every piece's signing is
    empty with no bad cycle, or there is no perfect matching (then
    det(B) = 0 = pm).  Every graph with no 4k-cycle takes the corollary.

    ``m`` is the size of the largest family expanded and ``families``
    the number of families expanded, the empty one included, both summed
    over the pieces.  They count the families of disjoint M-alternating
    cycles that are bad under the piece's signing, for the one perfect
    matching M the engine found, so they follow M, not the graph alone.
    A piece with no bad cycle expands the empty family alone (m 0,
    families 1), and a graph with no perfect matching reports that
    family unevaluated.  ``num_cycles`` and ``num_4k_cycles`` count the
    cycles of the whole graph, whatever the signing.  The terms
    themselves are not kept; ``oracles.permanent_theorem1`` lists the
    paper's all-plus terms.

    When M splits the graph into more than one elementary piece,
    ``pieces`` holds one report per piece, whose ``n`` is the piece's
    and whose cycle counts are 0; the value is their product.  A piece
    that is a single edge has per 1 and is left out, and adds no family.
    """

    __slots__ = _fields = (
        "value",
        "n",
        "m",
        "num_4k_cycles",
        "families",
        "path_taken",
        "num_cycles",
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
        pieces: tuple = (),
    ):
        _set(self, "value", value)
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "num_4k_cycles", num_4k_cycles)
        _set(self, "families", families)
        _set(self, "path_taken", path_taken)
        _set(self, "num_cycles", num_cycles)
        _set(self, "pieces", pieces)


def _check_even_cycles(cycles) -> None:
    # The host was already bipartition-checked, so an odd cycle here can
    # only mean a bug in the enumerator.
    for cyc in cycles:
        if cyc.length % 2:
            raise InternalInvariantError(f"odd cycle {cyc.labels()} in bipartite host")


def _signed_sum(
    g: Graph, parts: Bipartition, mate: list, piece: int, negative: dict, bad: list
) -> tuple:
    """pm of the subgraph induced by the vertex mask ``piece``, matched by
    ``mate``: the sum over the families T of the disjoint cycles ``bad``
    (vertex masks) of 2^|T| * sigma_T * det(B_s) on the rest, under the
    signing ``negative``, under which every edge of ``mate`` must be
    positive.  ``bad`` must hold every M-alternating cycle that is bad
    under it.  Returns ``(pm, families)``, the families as
    ``(indices, covered)``, smallest first."""
    families = disjoint_families(bad) if bad else _EMPTY_FAMILY_ONLY
    total = 0
    for indices, covered in families:
        # Columns in the order of the rows' mates give sigma_T * det.
        d = signed_block_det(g, parts, piece & ~covered, negative, mate)
        total += d << len(indices)
    return total, families


def _piece_report(g: Graph, parts: Bipartition, mate: list, piece: int) -> PermanentReport:
    """The report of the elementary piece ``piece``: its signing and bad
    alternating cycles, then the signed sum over their families."""
    negative, bad = pfaffian_signing(g, parts, mate, piece)
    path = PATH_THEOREM1 if bad else PATH_PFAFFIAN if negative else PATH_COROLLARY
    pm, families = _signed_sum(g, parts, mate, piece, negative, bad)
    if pm < 1:
        what = "zero permanent" if not pm else f"negative matching count {pm}"
        raise InternalInvariantError(
            f"{what} from {path} with a perfect matching; this is a bug"
        )
    # The families are sorted by size, so the last one is the largest.
    return PermanentReport(
        pm * pm, piece.bit_count(), len(families[-1][0]), 0, len(families), path
    )


def permanent_auto(g: Graph, cycle_cap: int = DEFAULT_CYCLE_CAP) -> PermanentReport:
    """The permanent of ``g``: odd n gives 0 without enumerating anything,
    a graph with no perfect matching gives 0 with no elimination, and any
    other graph is solved per elementary piece by the signed sum over its
    bad alternating cycles, the pieces' values multiplied.

    Raises NotBipartiteError for non-bipartite input and propagates
    CycleCapExceeded and EnumerationCapExceeded from enumeration (of
    cycles, alternating paths or families).
    """
    parts = bipartition(g)
    if g.n % 2:
        # No perfect matching can exist, so nothing is enumerated.
        return PermanentReport(0, g.n, 0, 0, 0, PATH_ODD)
    # The whole graph's cycles serve only the counts reported.
    cycles = enumerate_cycles(g, cap=cycle_cap)
    _check_even_cycles(cycles)
    num_4k = len(four_k_cycles(cycles))
    mate = perfect_matching(g, parts)
    if mate is None:
        # Every family leaves an unmatchable rest, the empty one too.
        return PermanentReport(0, g.n, 0, num_4k, 1, PATH_COROLLARY, len(cycles))
    pieces = elementary_pieces(g, parts, mate)
    # A piece of two vertices is a single matched edge: per 1.
    reports = tuple(
        _piece_report(g, parts, mate, piece) for piece in pieces if piece.bit_count() > 2
    )
    path = max((r.path_taken for r in reports), key=_PATH_ORDER.index, default=PATH_COROLLARY)
    return PermanentReport(
        math.prod(r.value for r in reports), g.n, sum(r.m for r in reports), num_4k,
        sum(r.families for r in reports), path, len(cycles),
        reports if len(pieces) > 1 else (),
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
