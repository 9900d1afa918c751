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

``permanent_auto`` and ``count_perfect_matchings`` are the module's
only entry points (``classify_efficient`` is in ``cycles``), and both
get pm from ``_matching_count``; ``_signed_sum`` is the only place the
engine evaluates determinants, all of half the order on the kept
biadjacency block (``signed_block_det``), none memoized.  The paper's
whole-graph term table is a reference kept apart from the engine:
``oracles.permanent_theorem1``, on full-order determinants.

The order of work, each step on the graph the parser built:

1. ``bipartition``, whose left side every later step reads as one
   bitmask, ``left``; an odd n stops here with per 0.
   ``count_perfect_matchings`` skips it: its rows are one side.
2. ``cycles.cycle_length_counts``, for ``permanent_auto``'s 4k count
   alone: a frontier transfer matrix on each narrow block with many
   cycles, and the cycle search on every other block.
3. One perfect matching M (``matching.perfect_matching``); with none,
   pm = 0 with no elimination.
4. The elementary pieces of M (``matching.elementary_pieces``): M splits
   the graph at the edges that lie in no perfect matching, and pm is the
   product over the pieces.
5. Per piece of more than two vertices: a walk of its alternating
   digraph (``_one_cycle``), and when that digraph is one cycle, the
   piece is a cycle C_n with pm 2, solved in closed form (below).
   Every other piece: its signing and its bad alternating cycles
   (``matching.pfaffian_signing``, whose cycles come from
   ``cycles.simple_cycles``, the search that step 2 runs on the blocks
   it searches), the families of those cycles
   (``cycles.disjoint_families``, on vertex masks), and one determinant
   per family (``signed_block_det``).

On a piece with no 4k-cycle every alternating cycle has odd l, so every
equation of the search asks for an even number of negative edges: the
signing is empty, no cycle is bad, and the sum is the one determinant
sigma_M * det(B), the paper's corollary.  A piece that is one cycle
C_2l needs neither: for l even the paper's Theorem 1 gives
(-1)^l (det C + 4 det of the empty graph) = 0 + 4, and for l odd the
corollary gives det(B)^2 = 4, so pm = 2 either way, with no search and
no determinant.  Its label is the search's: the cycle is its own only
alternating cycle, whose one equation asks for l + 1 negative edges mod
2, so ``PATH_PFAFFIAN`` when n = 0 mod 4 and ``PATH_COROLLARY``
otherwise.  ``permanent_auto`` reports per(G) = pm^2;
``count_perfect_matchings`` returns pm itself.
"""

from __future__ import annotations

import math

from .cycles import cycle_length_counts, disjoint_families
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


class PermanentReport(Frozen):
    """The permanent and how it was reached.

    ``path_taken`` is one of the ``PATH_*`` names, read from the engine's
    own work: ``PATH_ODD`` for odd n; ``PATH_THEOREM1`` when some piece
    has an alternating cycle that is bad under its signing;
    ``PATH_PFAFFIAN`` when none has, but some piece's signing has a
    negative edge; and ``PATH_COROLLARY`` when every piece's signing is
    empty with no bad cycle, or there is no perfect matching (then
    det(B) = 0 = pm).  Every graph with no 4k-cycle takes the corollary.
    A piece that is one cycle C_n is solved without a signing search and
    labelled as the search would label it: ``PATH_PFAFFIAN`` when n = 0
    mod 4, whose one alternating cycle asks for one negative edge, and
    ``PATH_COROLLARY`` otherwise, with m 0 and families 1.

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


def _signed_sum(g: Graph, left: int, mate: list, piece: int, negative: dict, bad: list) -> tuple:
    """pm of the subgraph induced by the vertex mask ``piece``, matched by
    ``mate``: the sum over the families T of the disjoint cycles ``bad``
    (vertex masks) of 2^|T| * sigma_T * det(B_s) on the rest, under the
    signing ``negative``, under which every edge of ``mate`` must be
    positive.  ``bad`` must hold every M-alternating cycle that is bad
    under it.  Returns ``(pm, families)``, the families as
    ``(indices, covered)``, smallest first, from
    ``cycles.disjoint_families`` on every piece: with no bad cycle it
    lists the empty family alone, one determinant."""
    families = disjoint_families(bad)
    total = 0
    for indices, covered in families:
        # Columns in the order of the rows' mates give sigma_T * det.
        d = signed_block_det(g, left, piece & ~covered, negative, mate)
        total += d << len(indices)
    return total, families


def _one_cycle(g: Graph, left: int, mate: list, piece: int) -> bool:
    """Whether the alternating digraph of ``piece`` is one cycle through
    all of its left vertices: each left vertex met has exactly one
    non-matching neighbour in the piece, and the arcs from the first left
    vertex come back to it first after visiting all of them.  A walk that
    comes back sooner met each of its vertices once, so it is a shorter
    cycle and the piece has other vertices; one that has not come back
    after as many steps as the piece has left vertices never will."""
    rows = piece & left
    start = (rows & -rows).bit_length() - 1
    steps = rows.bit_count()
    u = start
    while steps:
        x = -1
        for w in g.neighbors[u]:
            if w != mate[u] and piece >> w & 1:
                if x >= 0:
                    return False
                x = mate[w]
        if x < 0:
            return False
        steps -= 1
        if x == start:
            return not steps
        u = x
    return False


def _piece_report(g: Graph, left: int, mate: list, piece: int) -> tuple:
    """pm of the elementary piece ``piece`` and its report: its signing
    and bad alternating cycles, then the signed sum over their families.

    A piece whose alternating digraph is one cycle is the cycle C_n
    itself, pm 2, and its report is the one the search would give: the
    piece is its own only alternating cycle, of length n = 2l, whose
    equation asks for l + 1 negative edges mod 2.  So for l even (n = 0
    mod 4) the signing has one negative edge, and for l odd none, the
    corollary; either way no cycle is bad and the empty family alone is
    expanded."""
    if _one_cycle(g, left, mate, piece):
        n = piece.bit_count()
        path = PATH_PFAFFIAN if n % 4 == 0 else PATH_COROLLARY
        return 2, PermanentReport(4, n, 0, 0, 1, path, ())
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
    num_4k = sum(k for length, k in cycle_length_counts(g).items() if not length & 3)
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

    It is the engine's pm of the graph on p + q vertices with adjacency
    [[0, b], [b^T, 0]], with no cycle enumeration of the whole graph and
    no 2-colouring search: the rows, vertices 0..p-1, are the left side.
    A non-square b gives 0, since ``perfect_matching`` finds no perfect
    matching between sides of unequal size.  Raises ValueError when b is
    ragged or has an entry other than 0 and 1, and propagates
    EnumerationCapExceeded from the signing and family searches.
    """
    rows = tuple(b)
    return _matching_count(graph_from_biadjacency(rows), (1 << len(rows)) - 1)[0]
