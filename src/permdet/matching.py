"""Elementary pieces of a bipartite graph with a perfect matching.

For bipartite G, per(A(G)) = pm(G)^2, where pm counts perfect matchings.
An edge that lies in no perfect matching (an inadmissible edge) can be
deleted without changing pm, and what remains falls apart into
elementary pieces over which pm multiplies (Dulmage-Mendelsohn 1958;
Lovasz-Plummer, *Matching Theory*, ch. 4).  So per(G) is the product of
the permanents of the induced subgraphs on the pieces.

With one perfect matching M in hand, the pieces come from the
M-alternating digraph on the left vertices: an arc u -> mate(w) for each
non-matching edge uw.  An edge uw is admissible exactly when it is in M
or u and mate(w) lie in one strongly connected component, so each SCC
plus its mates is one piece, and every edge with both ends in one piece
is admissible.

The same digraph drives the expansion.  Give each edge a sign
s(e) = +-1, write B_s for the signed biadjacency, and call an even cycle
of length 2l *bad* under s when l + 1 plus its number of negative edges
is odd; under the all-plus signing the bad cycles are exactly the
4k-cycles.  Any two perfect matchings differ by disjoint M-alternating
cycles, and the directed cycles of the alternating digraph are exactly
those cycles, so pm = sum over families T of disjoint bad M-alternating
cycles of 2^|T| * sigma_T * det(B_s minus V(T)) (see ``engine``).  When
no alternating cycle is bad, T is empty only and det(B_s)^2 = pm^2: s is
a Pfaffian signing (Kasteleyn 1961; Lovasz-Plummer ch. 8).
``pfaffian_signing`` lists the alternating cycles with the search that
``cycles.whole_graph_cycles`` runs on each block of the whole graph
(``cycles.simple_cycles``, on successor bitmasks in the piece's own
numbering of its left vertices, each named by its bit), reduces one
GF(2) row per cycle, and solves for s.  The bad cycles are the rows the
reduction rejects, so they are collected in the same pass.  No
matchability test is needed: removing an M-alternating cycle leaves M
on the rest.

Each function takes the left side as one bitmask, ``left``, the
``mask`` of what ``graphs.bipartition`` returns, and vertex sets as
bitmasks.
"""

from __future__ import annotations

from .cycles import simple_cycles
from .graphs import Graph, mask_indices

# Path extensions the alternating-cycle search may make per piece before
# it raises EnumerationCapExceeded.  An extension costs 0.6-2.4 us,
# more where each one closes more cycles (2-vCPU Intel Xeon, Python
# 3.11.7: 5,837 on the 6 x 8 grid in 3.4 ms, 2,365 on K_{7,7} in
# 4.9 ms, 16,064 on K_{8,8} in 38 ms), so the cap stops a search within
# about 1.3 s: K_{10,10} and K_{11,11} stop at it in 1.2 s, where
# K_{9,9} needs 125,664.  The demos and benchmark need at most 644 per
# piece, and the tests 82,457 (a grid in the tiling tests).
DEFAULT_SIGNING_CAP = 10**6


def _augment(root: int, neighbors, mate: list, visited: bytearray) -> bool:
    """Search for an augmenting path from the free left vertex ``root`` and
    flip it into ``mate``.  Depth-first, with an explicit stack of the
    left vertices' neighbour iterators, so a long path cannot overflow
    the interpreter's recursion limit.  ``via[k]`` is the right vertex
    taken at depth k, and until the flip the next left vertex on the
    path is its mate, so the flip walks the path from ``root`` and no
    list of left vertices is kept."""
    iters = [iter(neighbors[root])]
    via = []
    while iters:
        for w in iters[-1]:
            if not visited[w]:
                visited[w] = 1
                break
        else:
            iters.pop()
            if via:
                via.pop()
            continue
        via.append(w)
        x = mate[w]
        if x < 0:
            u = root
            for v in via:
                x = mate[v]
                mate[u] = v
                mate[v] = u
                u = x
            return True
        iters.append(iter(neighbors[x]))
    return False


def perfect_matching(g: Graph, left: int) -> list | None:
    """A perfect matching as a mate list (``mate[v]`` is v's partner), or
    None when there is none.  ``left`` is the bitmask of one side of a
    2-colouring of ``g``, such as ``bipartition(g).mask``.

    A greedy pass, then an augmenting-path (Kuhn) search from each left
    vertex it left unmatched: O(n * e).
    """
    rows = mask_indices(left)
    if 2 * len(rows) != g.n:
        return None
    mate = [-1] * g.n
    for u in rows:
        for w in g.neighbors[u]:
            if mate[w] < 0:
                mate[u] = w
                mate[w] = u
                break
    for u in rows:
        if mate[u] < 0 and not _augment(u, g.neighbors, mate, bytearray(g.n)):
            return None
    return mate


def elementary_pieces(g: Graph, left: int, mate: list) -> list:
    """Vertex masks of the elementary pieces of ``g``, by smallest vertex.

    ``left`` and ``mate`` are as in and from ``perfect_matching``.
    The SCCs are found with Tarjan's algorithm on the alternating digraph
    of that matching, so restricted to each piece it is a perfect
    matching of the piece.  The depth-first search keeps its own stack
    of ``(vertex, arcs left)``, as ``cycles.biconnected_blocks`` does.
    """
    neighbors = g.neighbors
    index = [-1] * g.n
    low = [0] * g.n
    on_stack = bytearray(g.n)
    stack = []
    pieces = []
    clock = 0
    for root in range(g.n):
        if not left >> root & 1 or index[root] >= 0:
            continue
        index[root] = low[root] = clock
        clock += 1
        stack.append(root)
        on_stack[root] = 1
        work = [(root, iter(neighbors[root]))]
        while work:
            u, arcs = work[-1]
            for w in arcs:
                x = mate[w]
                if x == u:
                    continue
                if index[x] < 0:
                    index[x] = low[x] = clock
                    clock += 1
                    stack.append(x)
                    on_stack[x] = 1
                    work.append((x, iter(neighbors[x])))
                    break
                if on_stack[x] and index[x] < low[u]:
                    low[u] = index[x]
            else:
                work.pop()
                if low[u] == index[u]:
                    mask = 0
                    while True:
                        x = stack.pop()
                        on_stack[x] = 0
                        mask |= 1 << x | 1 << mate[x]
                        if x == u:
                            break
                    pieces.append(mask)
                if work and low[u] < low[work[-1][0]]:
                    low[work[-1][0]] = low[u]
    return sorted(pieces, key=lambda mask: mask & -mask)


def _add_row(basis: dict, row: int, rhs: int) -> bool:
    """Reduce the GF(2) equation ``row . x = rhs`` by ``basis`` (leading
    bit -> equation) and keep it when it is independent.  False when it
    contradicts the equations already kept."""
    while row:
        top = row.bit_length() - 1
        pivot = basis.get(top)
        if pivot is None:
            basis[top] = (row, rhs)
            return True
        row ^= pivot[0]
        rhs ^= pivot[1]
    return not rhs


def _solve(basis: dict, edges: list) -> dict:
    """One solution of the kept equations, free variables 0, as a signing.

    Every bit of an equation below its leading bit is either free or
    the leading bit of an equation with a smaller one, so solving in
    increasing leading bit needs no further elimination.
    """
    negative = {}
    chosen = 0
    for top in sorted(basis):
        row, rhs = basis[top]
        if rhs ^ ((row & chosen).bit_count() & 1):
            chosen |= 1 << top
            u, w = edges[top]
            negative[u] = negative.get(u, 0) | 1 << w
            negative[w] = negative.get(w, 0) | 1 << u
    return negative


def pfaffian_signing(g: Graph, left: int, mate: list, piece: int) -> tuple:
    """A signing of the elementary piece ``piece`` (a vertex mask) and the
    M-alternating cycles that are bad under it, as ``(negative, bad)``;
    ``left`` and ``mate`` are as in and from ``perfect_matching``.

    ``negative`` maps a vertex to the bitmask of its neighbours across a
    negative edge, for both ends of the edge; every other edge, and every
    edge of ``mate``, is positive.  ``cycles.simple_cycles`` lists the
    directed cycles of the piece's alternating digraph (an arc u ->
    mate(w) per non-matching edge uw inside the piece), each once, from
    its smallest left vertex, as a path of the vertices' bits: a root's
    walks use only the vertices after it and close only from its
    predecessors among them, its closers, and a root with no closer is not
    searched.  Each cycle is kept as one int, its row: the bitmask of its
    non-matching edges, read from the arcs keyed by those bits.  The cut
    walks close nothing, so the rows come in the order of a search that
    walks them.  On a cycle of length 2l, which has l of them, that row
    gives the equation "the number of negative edges is l + 1 mod 2",
    which makes the cycle good.  Once the search is done the rows are
    reduced in the order found: a consistent one is kept and an
    inconsistent one rejected, and the signing satisfies every kept one.
    So it satisfies every consistent row, a sum of kept ones, and violates
    every rejected row, a sum of kept ones with the right-hand side
    flipped: the bad cycles (l + 1 plus their negative edges odd) are
    exactly the rejected rows.  ``bad`` holds their vertex masks in the
    order found, the ends of their rows' edges: each vertex of an
    alternating cycle lies on one of its non-matching edges.  It is empty
    exactly when every equation was consistent, which certifies the
    signing as Pfaffian; otherwise no signing is.

    Raises EnumerationCapExceeded (``alternating path``) after
    ``DEFAULT_SIGNING_CAP`` path extensions, since the expansion is
    exact only over the whole list.
    """
    # The search names the piece's left vertices by their mates' bits: u
    # is bit[mate(u)], 1 << j for mate(u) the j-th of the piece's right
    # vertices.  The successor of u across a non-matching edge uw is
    # mate(w), named bit[w], so lowest bit first takes u's arcs in the
    # order of u's neighbours, as a scan of its neighbour tuple would.
    # That order decides which rows the reduction rejects, so it is kept.
    bit = {w: 1 << j for j, w in enumerate(mask_indices(piece & ~left))}
    # arcs[x] maps each successor of x to the bit of its edge, succ[x] is
    # the bitmask of those successors, and a root may step only to the
    # left vertices after it in vertex order, ``after``.  Its closers are
    # its predecessors there: x is one for each successor y before it.
    # ``edges`` maps an edge's bit back to its ends.
    arcs = {}
    succ = {}
    closers = {}
    order = []
    edges = []
    after = (1 << len(bit)) - 1
    for u in mask_indices(piece & left):
        x = bit[mate[u]]
        after ^= x
        out = {}
        bits = 0
        for w in g.neighbors[u]:
            if w != mate[u] and piece >> w & 1:
                y = bit[w]
                out[y] = 1 << len(edges)
                bits |= y
                edges.append((u, w))
                if not after & y:
                    closers[y] |= x
        arcs[x] = out
        succ[x] = bits
        closers[x] = 0
        order.append((x, after))
    roots = [(x, succ[x] & free, free, closers[x]) for x, free in order if closers[x]]
    closed = []
    for _, path in simple_cycles([(succ, roots)], "alternating path", DEFAULT_SIGNING_CAP):
        row = 0
        u = path[-1]
        for x in path:
            row |= arcs[u][x]
            u = x
        closed.append(row)
    basis = {}
    bad = []
    for row in closed:
        # A cycle of length 2l has l non-matching edges: l = row.bit_count().
        if not _add_row(basis, row, row.bit_count() + 1 & 1):
            vertices = 0
            for e in mask_indices(row):
                u, w = edges[e]
                vertices |= 1 << u | 1 << w
            bad.append(vertices)
    return _solve(basis, edges), bad
