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
"""

from __future__ import annotations

from .graphs import Bipartition, Graph


def _augment(u: int, neighbors, mate: list, visited: bytearray) -> bool:
    for w in neighbors[u]:
        if not visited[w]:
            visited[w] = 1
            if mate[w] < 0 or _augment(mate[w], neighbors, mate, visited):
                mate[u] = w
                mate[w] = u
                return True
    return False


def perfect_matching(g: Graph, parts: Bipartition) -> list | None:
    """A perfect matching as a mate list (``mate[v]`` is v's partner), or
    None when there is none.

    A greedy pass, then an augmenting-path (Kuhn) search from each left
    vertex it left unmatched: O(n * e), and the recursion is at most one
    level per left vertex.
    """
    left = parts.left.indices()
    if 2 * len(left) != g.n:
        return None
    mate = [-1] * g.n
    for u in left:
        for w in g.neighbors[u]:
            if mate[w] < 0:
                mate[u] = w
                mate[w] = u
                break
    for u in left:
        if mate[u] < 0 and not _augment(u, g.neighbors, mate, bytearray(g.n)):
            return None
    return mate


def elementary_pieces(g: Graph, parts: Bipartition) -> list:
    """Vertex masks of the elementary pieces of ``g``, by smallest vertex.

    Empty when ``g`` has no perfect matching.  The SCCs are found with
    Tarjan's algorithm on the alternating digraph of one perfect matching.
    """
    mate = perfect_matching(g, parts)
    if mate is None:
        return []
    neighbors = g.neighbors
    index = [-1] * g.n
    low = [0] * g.n
    on_stack = bytearray(g.n)
    stack = []
    pieces = []

    def visit(u: int, visited: int) -> int:
        index[u] = low[u] = visited
        visited += 1
        stack.append(u)
        on_stack[u] = 1
        for w in neighbors[u]:
            x = mate[w]
            if x == u:
                continue
            if index[x] < 0:
                visited = visit(x, visited)
                if low[x] < low[u]:
                    low[u] = low[x]
            elif on_stack[x] and index[x] < low[u]:
                low[u] = index[x]
        if low[u] == index[u]:
            mask = 0
            while True:
                x = stack.pop()
                on_stack[x] = 0
                mask |= 1 << x | 1 << mate[x]
                if x == u:
                    break
            pieces.append(mask)
        return visited

    visited = 0
    left = parts.left.mask
    try:
        for u in range(g.n):
            if left >> u & 1 and index[u] < 0:
                visited = visit(u, visited)
    finally:
        # visit refers to itself through its closure cell; emptying the
        # cell frees the search state now, not at the next cyclic GC.
        visit = None
    return sorted(pieces, key=lambda mask: mask & -mask)
