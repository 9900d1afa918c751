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

``permanent_auto`` and ``count_perfect_matchings`` are the engine's
entry points, and both get pm from ``_matching_count``; ``_signed_sum``
is the only place the engine evaluates determinants, all of half the
order on the kept biadjacency block (``signed_block_det``), none
memoized.  The paper's whole-graph term table is a reference kept apart
from the engine: ``oracles.permanent_theorem1``, on full-order
determinants.

The order of work, each step on the graph the parser built:

1. ``bipartition``; an odd n stops here with per 0.
2. In ``permanent_auto`` only: the cycles of the whole graph
   (``cycles.enumerate_cycles``) and one pass over them that checks
   each is even and counts the 4k-cycles, the count reported.  Nothing
   else reads them.
3. One perfect matching M (``matching.perfect_matching``); with none,
   pm = 0 with no elimination.
4. The elementary pieces of M (``matching.elementary_pieces``): M splits
   the graph at the edges that lie in no perfect matching, and pm is the
   product over the pieces.
5. Per piece of more than two vertices: its signing and its bad
   alternating cycles from one search (``matching.pfaffian_signing``),
   the families of those cycles (``cycles.disjoint_families``, on vertex
   masks), and one determinant per family (``signed_block_det``).

On a piece with no 4k-cycle every alternating cycle has odd l, so every
equation of the search asks for an even number of negative edges: the
signing is empty, no cycle is bad, and the sum is the one determinant
sigma_M * det(B), the paper's corollary.  ``permanent_auto`` reports
per(G) = pm^2; ``count_perfect_matchings`` returns pm itself.
"""

from __future__ import annotations

import math

from .cycles import disjoint_families, enumerate_cycles
from .determinant import signed_block_det
from .errors import InternalInvariantError
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
    family unevaluated.  ``num_4k_cycles`` counts the 4k-cycles of the
    whole graph, whatever the signing.  The terms themselves are not
    kept; ``oracles.permanent_theorem1`` lists the paper's all-plus
    terms.

    When M splits the graph into more than one elementary piece,
    ``pieces`` holds one report per piece, whose ``n`` is the piece's
    and whose ``num_4k_cycles`` is 0; the value is their product.  A
    piece that is a single edge has per 1 and is left out, and adds no
    family.
    """

    __slots__ = _fields = (
        "value",
        "n",
        "m",
        "num_4k_cycles",
        "families",
        "path_taken",
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
        pieces: tuple = (),
    ):
        _set(self, "value", value)
        _set(self, "n", n)
        _set(self, "m", m)
        _set(self, "num_4k_cycles", num_4k_cycles)
        _set(self, "families", families)
        _set(self, "path_taken", path_taken)
        _set(self, "pieces", pieces)


def _count_4k(cycles) -> int:
    """The number of 4k-cycles in ``cycles``, checked to be all even in
    the same pass."""
    count = 0
    for cyc in cycles:
        length = len(cyc.vertices)
        if length & 1:
            # The host was already bipartition-checked, so an odd cycle
            # here can only mean a bug in the enumerator.
            raise InternalInvariantError(f"odd cycle {cyc.labels()} in bipartite host")
        if not length & 3:
            count += 1
    return count


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


def _piece_report(g: Graph, parts: Bipartition, mate: list, piece: int) -> tuple:
    """pm of the elementary piece ``piece`` and its report: its signing
    and bad alternating cycles, then the signed sum over their families."""
    negative, bad = pfaffian_signing(g, parts, mate, piece)
    path = PATH_THEOREM1 if bad else PATH_PFAFFIAN if negative else PATH_COROLLARY
    pm, families = _signed_sum(g, parts, mate, piece, negative, bad)
    if pm < 1:
        what = "zero permanent" if not pm else f"negative matching count {pm}"
        raise InternalInvariantError(
            f"{what} from {path} with a perfect matching; this is a bug"
        )
    # The families are sorted by size, so the last one is the largest.
    return pm, PermanentReport(
        pm * pm, piece.bit_count(), len(families[-1][0]), 0, len(families), path
    )


def _matching_count(g: Graph, parts: Bipartition) -> tuple:
    """pm(g) from one perfect matching M, the product over the elementary
    pieces M splits ``g`` into.  Returns ``(pm, reports, split)``: the
    reports of the pieces of more than two vertices, and whether there is
    more than one piece.  With no perfect matching, ``(0, (), False)``."""
    mate = perfect_matching(g, parts)
    if mate is None:
        return 0, (), False
    pieces = elementary_pieces(g, parts, mate)
    # A piece of two vertices is a single matched edge: pm 1.
    solved = [_piece_report(g, parts, mate, piece) for piece in pieces if piece.bit_count() > 2]
    return math.prod(pm for pm, _ in solved), tuple(r for _, r in solved), len(pieces) > 1


def permanent_auto(g: Graph) -> PermanentReport:
    """The permanent of ``g``: odd n gives 0 without enumerating anything,
    a graph with no perfect matching gives 0 with no elimination, and any
    other graph is solved per elementary piece by the signed sum over its
    bad alternating cycles, the pieces' values multiplied.

    Raises NotBipartiteError for non-bipartite input and propagates
    EnumerationCapExceeded from enumeration (of cycles or the paths their
    search walks, alternating paths or families).
    """
    parts = bipartition(g)
    if g.n % 2:
        # No perfect matching can exist, so nothing is enumerated.
        return PermanentReport(0, g.n, 0, 0, 0, PATH_ODD)
    # The whole graph's cycles serve only the count reported.
    num_4k = _count_4k(enumerate_cycles(g))
    pm, reports, split = _matching_count(g, parts)
    if not pm:
        # Every family leaves an unmatchable rest, the empty one too.
        return PermanentReport(0, g.n, 0, num_4k, 1, PATH_COROLLARY)
    path = max((r.path_taken for r in reports), key=_PATH_ORDER.index, default=PATH_COROLLARY)
    return PermanentReport(
        pm * pm, g.n, sum(r.m for r in reports), num_4k,
        sum(r.families for r in reports), path, reports if split else (),
    )


def count_perfect_matchings(b) -> int:
    """Number of perfect matchings of the bipartite graph with biadjacency
    b, which is per(b).

    A non-square b has no perfect matching, so 0.  Otherwise it is the
    engine's pm of the graph on p + q vertices with adjacency
    [[0, b], [b^T, 0]], with no cycle enumeration of the whole graph.
    Raises ValueError when b is ragged or has an entry other than 0 and 1,
    and propagates EnumerationCapExceeded from the signing and family
    searches.
    """
    rows = tuple(b)
    g = graph_from_biadjacency(rows)
    # g has p + q vertices, so this is p != q.
    if 2 * len(rows) != g.n:
        return 0
    return _matching_count(g, bipartition(g))[0]


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


def classify_efficient(g: Graph) -> EfficiencyReport:
    """Classify a bipartite graph by the girth condition
    g0 * (c + 2) > n + c(c-1)/2 + c, compared in exact integers.
    Acyclic graphs pass trivially.
    """
    bipartition(g)
    cycles = enumerate_cycles(g)
    _count_4k(cycles)
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
