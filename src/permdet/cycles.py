"""Elementary cycle enumeration and vertex-disjoint cycle families.

Cycles are canonicalized so that rotations and reflections of the same
closed walk compare equal: the smallest vertex comes first and its
smaller neighbor on the cycle comes second.  Enumeration output is
deterministic, sorted by (length, vertices).

``simple_cycles`` is the package's one backtracking cycle search: it
finds the whole graph's cycles here and a piece's alternating cycles in
``matching.pfaffian_signing``.  Every cycle lies inside one biconnected
block, so the whole graph's cycles are searched one block at a time: a
Hopcroft-Tarjan pass, O(n + e), splits the graph into blocks, and the
search then runs in each block with every vertex outside it blocked.
Bridges, trees and the paths between blocks are never walked, and since
two blocks share no edge, no cycle is found twice.  That search is one
stream, ``whole_graph_cycles``, with three readers: ``enumerate_cycles``
sorts it into the one list of cycles, and the engine's ``permanent_auto``
and ``classify_efficient`` count its cycles by length as they are found.

Cycles whose length is divisible by four are the raw material of the
permanent expansion; unordered families of mutually vertex-disjoint
ones (including the empty family) index its terms.  The ordered-tuple
count used elsewhere equals z! times the unordered count for each size
z, so nothing is lost by enumerating unordered families only.

Families are the independent sets of the cycles' conflict graph, and
they are listed by a depth-first search over bitmasks of cycle indices.
Each search node carries the set of later cycles still disjoint from its
family, so it only ever tries cycles it can take: with c cycles of at
most L vertices, each family costs O(L) AND operations on c-bit
integers, whatever the number of cycles it cannot take.  Per-vertex
cycle masks, built in O(n * c) time, keep the extra memory at O(n * c)
bits; a conflict mask per cycle would need O(c^2).  Both enumerations
have a cap, a module constant read at call time, and the cycle search
a second one on the paths it walks; passing a cap raises a typed error
rather than exhausting memory or running for minutes.
"""

from __future__ import annotations

from .errors import EnumerationCapExceeded
from .graphs import Frozen, Graph, VertexSet, mask_indices

DEFAULT_CYCLE_CAP = 10**6
DEFAULT_FAMILY_CAP = 10**6
# Path extensions the cycle search may make per call.  An extension
# costs 0.25-0.3 us (AMD EPYC, Python 3.11.7), so the cap stops a search
# within about 3 s: the 2 x 22 ladder and the 6 x 6 grid stop at it.
# The tests, demos and benchmark need at most 2,000,998 (the
# 2,000-vertex cycle; grid_4xk 172,920, mixed_batch 23,628).
DEFAULT_PATH_CAP = 10**7


class Cycle(Frozen):
    """An elementary cycle in canonical traversal order (0-indexed), as
    ``enumerate_cycles`` finds it: smallest vertex first, then its smaller
    neighbour on the cycle.  ``mask`` is the bitmask of ``vertices``, the
    cycle's vertex set; neither is checked.
    """

    __slots__ = _fields = ("vertices", "mask")

    @property
    def length(self) -> int:
        return len(self.vertices)

    @property
    def is_4k(self) -> bool:
        return self.length % 4 == 0

    def labels(self) -> tuple:
        """Traversal order as 1-indexed labels."""
        return tuple(v + 1 for v in self.vertices)


def biconnected_blocks(g: Graph) -> list:
    """The biconnected blocks of ``g`` with at least 3 vertices.

    One iterative Hopcroft-Tarjan depth-first pass, O(n + e): a vertex
    stack holds the vertices in discovery order, and when a tree edge
    (u, v) finishes with low[v] >= disc[u], u and the stack down to v
    form one block.  Bridges (2-vertex blocks) and isolated vertices are
    left out, since no cycle lies in them.  Each block is a sorted tuple
    of vertex indices; blocks are sorted by their vertices.  A cut vertex
    lies in every block it joins.
    """
    neighbors = g.neighbors
    disc = [-1] * g.n
    low = [0] * g.n
    clock = 0
    blocks = []
    for root in range(g.n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [root]
        work = [(root, -1, iter(neighbors[root]))]
        while work:
            v, parent, it = work[-1]
            for w in it:
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append(w)
                    work.append((w, v, iter(neighbors[w])))
                    break
                if w != parent and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                work.pop()
                if parent < 0:
                    continue
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if low[v] >= disc[parent]:
                    block = [parent]
                    while True:
                        x = stack.pop()
                        block.append(x)
                        if x == v:
                            break
                    if len(block) >= 3:
                        blocks.append(tuple(sorted(block)))
    blocks.sort()
    return blocks


def simple_cycles(succ, roots, shortest: int, what: str, cap: int):
    """Yield ``(path, mask)`` at each closed path of a backtracking
    search, the package's one cycle search.

    ``succ[v]`` lists the successors of v.  For each ``(s, blocked)`` in
    ``roots``, paths grow from s through successors larger than s that
    are neither on the path nor in the bitmask ``blocked``.  Each time a
    successor of the last vertex is s and the path has at least
    ``shortest`` vertices, the live ``path`` list (s first; copy it to
    keep it) and the bitmask of its vertices are yielded, so a directed
    cycle comes out once, from its smallest vertex, and an undirected
    one once per direction.  Shorter closures are passed over without a
    yield: with ``shortest`` 3 on an undirected graph, the step from a
    neighbour w of s back to s, which closes no cycle.  One successor
    iterator per path vertex is stacked, so no path overflows the
    recursion limit.

    Raises EnumerationCapExceeded(what, cap) past ``cap`` path
    extensions over all roots: a graph with few cycles can have
    exponentially many paths.
    """
    steps = cap
    for s, blocked in roots:
        path = [s]
        onpath = blocked | 1 << s
        iters = [iter(succ[s])]
        while iters:
            for w in iters[-1]:
                if w == s:
                    if len(path) >= shortest:
                        yield path, onpath ^ blocked
                elif w > s and not onpath >> w & 1:
                    break
            else:
                iters.pop()
                onpath ^= 1 << path.pop()
                continue
            steps -= 1
            if steps < 0:
                raise EnumerationCapExceeded(what, cap)
            path.append(w)
            onpath |= 1 << w
            iters.append(iter(succ[w]))


def whole_graph_cycles(g: Graph):
    """Yield ``(path, mask)`` once per elementary cycle of ``g``, as the
    search finds it: the live path in canonical order (copy it to keep
    it) and its vertex bitmask.  Of the two directions ``simple_cycles``
    yields, the one towards the root's smaller neighbour is kept.

    Raises EnumerationCapExceeded past ``DEFAULT_CYCLE_CAP`` cycles, or
    (as ``cycle path``) past ``DEFAULT_PATH_CAP`` path extensions.
    """
    cap = DEFAULT_CYCLE_CAP
    everything = (1 << g.n) - 1
    roots = []
    for block in biconnected_blocks(g):
        outside = everything
        for v in block:
            outside ^= 1 << v
        # A cycle rooted at s needs two more vertices above s in the block.
        roots.extend((s, outside) for s in block[:-2])
    count = 0
    for path, mask in simple_cycles(g.neighbors, roots, 3, "cycle path", DEFAULT_PATH_CAP):
        if path[1] < path[-1]:
            count += 1
            if count > cap:
                raise EnumerationCapExceeded("cycle", cap)
            yield path, mask


def enumerate_cycles(g: Graph):
    """All elementary cycles of ``g`` as ``Cycle`` values, canonical and
    sorted: the list reader of ``whole_graph_cycles``, with its caps."""
    found = [(tuple(path), mask) for path, mask in whole_graph_cycles(g)]
    found.sort(key=lambda pair: (len(pair[0]), pair[0]))
    # The Cycle objects are made after the search, not inside it: made
    # inside, they held about 0.6 MiB more peak RSS on 4x4-4x6 grids.
    return [Cycle(c, mask) for c, mask in found]


def four_k_cycles(cycles) -> list:
    """The sublist of cycles whose length is a multiple of four."""
    return [c for c in cycles if c.is_4k]


class DisjointFamily(Frozen):
    """An unordered set of mutually vertex-disjoint cycles.

    ``cycle_indices`` point into the 4k-cycle list the family was
    enumerated from; ``covered`` is the union of member vertex sets.
    The empty family (size 0) is a valid value.
    """

    __slots__ = _fields = ("cycle_indices", "covered")

    @property
    def size(self) -> int:
        return len(self.cycle_indices)


def _avoid_masks(members: list) -> dict:
    """``avoid[v]``: an AND mask that clears the sets in ``members`` (lists
    of vertices) that hold vertex v.

    Each vertex's sets are first marked in a bit string, highest index
    first, which ``int(row, 2)`` reads in linear time.  Setting bit i of a
    growing int instead copies all c bits per set through v.
    """
    c = len(members)
    rows = {}
    for i, vertices in enumerate(members):
        for v in vertices:
            if v not in rows:
                rows[v] = bytearray(b"0" * c)
            rows[v][c - 1 - i] = ord("1")
    return {v: ~int(row, 2) for v, row in rows.items()}


def disjoint_families(masks: list) -> list:
    """All families of pairwise disjoint vertex masks from ``masks``, as
    ``(indices, covered)``: the tuple of their indices and the union.

    Includes the empty family ``((), 0)``.  Output is sorted by (size,
    indices).

    ``avoid[v]`` is the complement of the bitmask of the masks holding
    vertex v.  A search node holds ``cands``, the bitmask of later masks
    disjoint from its family; it takes them lowest index first, and the
    child's candidates are the remaining ones ANDed with ``avoid[v]`` for
    every vertex v of the mask taken.  Every step therefore produces a
    family, so the search costs O(L) c-bit mask operations per family (L
    the largest mask's size, c = len(masks)) instead of a rescan of all
    later masks.  Depth-first order lists each size's families in
    increasing index order, so bucketing by size yields the sorted output
    without a sort.

    Raises EnumerationCapExceeded when there are more than
    ``DEFAULT_FAMILY_CAP`` families, the empty one included.
    """
    cap = DEFAULT_FAMILY_CAP
    members = [mask_indices(mask) for mask in masks]
    avoid = _avoid_masks(members)
    by_size = []
    count = 0

    def extend(cands, chosen, covered):
        nonlocal count
        count += 1
        if count > cap:
            raise EnumerationCapExceeded("disjoint family", cap)
        if len(by_size) == len(chosen):
            by_size.append([])
        by_size[len(chosen)].append((tuple(chosen), covered))
        while cands:
            low = cands & -cands
            cands ^= low
            i = low.bit_length() - 1
            child = cands
            for v in members[i]:
                child &= avoid[v]
            chosen.append(i)
            extend(child, chosen, covered | masks[i])
            chosen.pop()

    try:
        extend((1 << len(masks)) - 1, [], 0)
    finally:
        # extend refers to itself through its closure cell; emptying the
        # cell frees the search state now, not at the next cyclic GC.
        extend = None
    return [family for level in by_size for family in level]


def enumerate_disjoint_families(c4k) -> list:
    """All families of pairwise vertex-disjoint cycles from ``c4k``, as
    ``DisjointFamily`` values; ``disjoint_families`` on their vertex
    masks, with the same order and cap.
    """
    # The objects are made after the search, not inside it: interleaved
    # with the search's short-lived masks they held about 3 MiB more
    # peak RSS on 4x4-4x6 grids, though their tracemalloc peak was lower.
    return [
        DisjointFamily(indices, VertexSet(covered))
        for indices, covered in disjoint_families([c.mask for c in c4k])
    ]

