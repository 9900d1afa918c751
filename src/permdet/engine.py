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

1. ``bipartition``, whose left side every later step reads as one
   bitmask, ``left``; an odd n stops here with per 0.
   ``count_perfect_matchings`` skips it: its rows are one side.
2. In ``permanent_auto`` only: the whole graph's cycle search
   (``cycles.whole_graph_cycles``).  Each cycle is checked to be even
   and counted by length as it is found, and no list is kept; the
   4k-cycle count is reported, and nothing else reads them.
3. One perfect matching M (``matching.perfect_matching``); with none,
   pm = 0 with no elimination.
4. The elementary pieces of M (``matching.elementary_pieces``): M splits
   the graph at the edges that lie in no perfect matching, and pm is the
   product over the pieces.
5. Per piece of more than two vertices: its signing and its bad
   alternating cycles (``matching.pfaffian_signing``, whose cycles come
   from ``cycles.simple_cycles``, the search that also finds the whole
   graph's cycles in step 2), the families of those cycles
   (``cycles.disjoint_families``, on vertex masks), and one determinant
   per family (``signed_block_det``).

On a piece with no 4k-cycle every alternating cycle has odd l, so every
equation of the search asks for an even number of negative edges: the
signing is empty, no cycle is bad, and the sum is the one determinant
sigma_M * det(B), the paper's corollary.  ``permanent_auto`` reports
per(G) = pm^2; ``count_perfect_matchings`` returns pm itself.
"""

from __future__ import annotations

import math

from .cycles import biconnected_blocks, block_vertices, disjoint_families, whole_graph_cycles
from .determinant import signed_block_det
from .errors import InternalInvariantError
from .graphs import Frozen, Graph, bipartition, graph_from_biadjacency
from .matching import elementary_pieces, perfect_matching, pfaffian_signing

PATH_ODD = "odd_shortcut"
PATH_COROLLARY = "corollary_fast_path"
PATH_PFAFFIAN = "pfaffian_signing"
PATH_THEOREM1 = "theorem1_expansion"

# A graph's label is the last of its pieces' labels in this order.
_PATH_ORDER = (PATH_COROLLARY, PATH_PFAFFIAN, PATH_THEOREM1)

# The only family when no alternating cycle is bad.  disjoint_families([])
# gives the same list, but calling it once per piece made 120 chain_c8
# solves 2-9% slower in-process (2-vCPU AMD EPYC, Python 3.11.7: best of
# 10 rounds, 35.7-36.5 ms with this constant against 37.3-38.8 ms).
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
    whole graph, whatever the signing, on every route but ``PATH_ODD``:
    odd n reports 0 without a search, so a 4-cycle plus an isolated
    vertex reports 0 4k-cycles.  The terms themselves are not
    kept; ``oracles.permanent_theorem1`` lists the paper's all-plus
    terms.

    When M splits the graph into more than one elementary piece,
    ``pieces`` holds one report per piece, whose ``n`` is the piece's
    and whose ``num_4k_cycles`` is 0; the value is their product.  A
    piece that is a single edge has per 1 and is left out, and adds no
    family.  Otherwise, and in each piece's own report, ``pieces`` is ().
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


def _length_counts(g: Graph) -> dict:
    """How many cycles of the whole graph have each length, counted as the
    search (``whole_graph_cycles``) finds them, each checked to be even."""
    counts = {}
    for block, path, _ in whole_graph_cycles(g):
        length = len(path)
        if length & 1:
            # The host was bipartition-checked: an odd cycle is a bug.
            labels = tuple(v + 1 for v in block_vertices(block, path))
            raise InternalInvariantError(f"odd cycle {labels} in bipartite host")
        counts[length] = counts.get(length, 0) + 1
    return counts


def _signed_sum(g: Graph, left: int, mate: list, piece: int, negative: dict, bad: list) -> tuple:
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
        d = signed_block_det(g, left, piece & ~covered, negative, mate)
        total += d << len(indices)
    return total, families


def _piece_report(g: Graph, left: int, mate: list, piece: int) -> tuple:
    """pm of the elementary piece ``piece`` and its report: its signing
    and bad alternating cycles, then the signed sum over their families."""
    negative, bad = pfaffian_signing(g, left, mate, piece)
    path = PATH_THEOREM1 if bad else PATH_PFAFFIAN if negative else PATH_COROLLARY
    pm, families = _signed_sum(g, left, mate, piece, negative, bad)
    if pm < 1:
        what = "zero permanent" if not pm else f"negative matching count {pm}"
        raise InternalInvariantError(
            f"{what} from {path} with a perfect matching; this is a bug"
        )
    # The families are sorted by size, so the last one is the largest.
    return pm, PermanentReport(
        pm * pm, piece.bit_count(), len(families[-1][0]), 0, len(families), path, ()
    )


def _matching_count(g: Graph, left: int) -> tuple:
    """pm(g) from one perfect matching M, the product over the elementary
    pieces M splits ``g`` into, ``left`` the bitmask of one side.
    Returns ``(pm, reports, split)``: the reports of the pieces of more
    than two vertices, and whether there is more than one piece.  With
    no perfect matching, ``(0, (), False)``."""
    mate = perfect_matching(g, left)
    if mate is None:
        return 0, (), False
    pieces = elementary_pieces(g, left, mate)
    # A piece of two vertices is a single matched edge: pm 1.
    solved = [_piece_report(g, left, mate, piece) for piece in pieces if piece.bit_count() > 2]
    # The reports' tuple is built from a list so that it can reuse a freed
    # tuple (see graphs.Graph).
    return math.prod(pm for pm, _ in solved), tuple([r for _, r in solved]), len(pieces) > 1


def permanent_auto(g: Graph) -> PermanentReport:
    """The permanent of ``g``: odd n gives 0 without enumerating anything,
    a graph with no perfect matching gives 0 with no elimination, and any
    other graph is solved per elementary piece by the signed sum over its
    bad alternating cycles, the pieces' values multiplied.

    Raises NotBipartiteError for non-bipartite input and propagates
    EnumerationCapExceeded from enumeration (of cycles or the paths their
    search walks, alternating paths or families).
    """
    left = bipartition(g).mask
    if g.n % 2:
        # No perfect matching can exist, so nothing is enumerated.
        return PermanentReport(0, g.n, 0, 0, 0, PATH_ODD, ())
    # The whole graph's cycles serve only the count reported.
    num_4k = sum(k for length, k in _length_counts(g).items() if not length & 3)
    pm, reports, split = _matching_count(g, left)
    if not pm:
        # Every family leaves an unmatchable rest, the empty one too.
        return PermanentReport(0, g.n, 0, num_4k, 1, PATH_COROLLARY, ())
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
    [[0, b], [b^T, 0]], with no cycle enumeration of the whole graph and
    no 2-colouring search: the rows, vertices 0..p-1, are the left side.
    Raises ValueError when b is ragged or has an entry other than 0 and 1,
    and propagates EnumerationCapExceeded from the signing and family
    searches.
    """
    rows = tuple(b)
    g = graph_from_biadjacency(rows)
    p = len(rows)
    # g has p + q vertices, so this is p != q.
    if 2 * p != g.n:
        return 0
    return _matching_count(g, (1 << p) - 1)[0]


class EfficiencyReport(Frozen):
    """Cycle-structure test for when the expansion beats brute force:
    cactus layout (any two cycles share at most one vertex) plus a girth
    large relative to n and the count of girth cycles.
    """

    __slots__ = _fields = ("is_cactus", "girth", "n", "c", "condition_holds")


def _is_cycle(g: Graph, block: tuple) -> bool:
    """Whether a biconnected block of 3 or more vertices is one cycle:
    as many edges as vertices.  Two cycles share two vertices exactly
    when some block is not."""
    inside = 0
    for v in block:
        inside |= 1 << v
    return sum(inside >> w & 1 for v in block for w in g.neighbors[v]) == 2 * len(block)


def classify_efficient(g: Graph) -> EfficiencyReport:
    """Classify a bipartite graph by the girth condition
    g0 * (c + 2) > n + c(c-1)/2 + c, compared in exact integers.
    Acyclic graphs pass trivially.  The girth g0 and the number c of
    girth cycles come from one count of the cycles as they are found.
    """
    bipartition(g)
    counts = _length_counts(g)
    girth = min(counts, default=None)
    c = counts.get(girth, 0)
    is_cactus = all(_is_cycle(g, block) for block in biconnected_blocks(g))
    holds = girth is None or is_cactus and girth * (c + 2) > g.n + c * (c - 1) // 2 + c
    return EfficiencyReport(is_cactus, girth, g.n, c, holds)
