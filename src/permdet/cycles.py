"""Elementary cycle enumeration and vertex-disjoint cycle families.

Cycles are canonicalized so that rotations and reflections of the same
closed walk compare equal: the smallest vertex comes first and its
smaller neighbor on the cycle comes second.  Enumeration output is
deterministic, sorted by (length, vertices).

Every cycle lies inside one biconnected block, so cycles are searched
one block at a time: a Hopcroft-Tarjan pass, O(n + e), splits the graph
into blocks, and the backtracking search then runs in each block with
every vertex outside it marked as already on the path.  Bridges, trees
and the paths between blocks are never walked, and since two blocks
share no edge, no cycle is found twice.

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

_set = object.__setattr__

DEFAULT_CYCLE_CAP = 10**6
DEFAULT_FAMILY_CAP = 10**6
# Path extensions the cycle search may make per call.  An extension
# costs 0.25-0.3 us (AMD EPYC, Python 3.11.7), so the cap stops a search
# within about 3 s: the 2 x 22 ladder and the 6 x 6 grid stop at it.
# The tests, demos and benchmark need at most 2,000,998 (the
# 2,000-vertex cycle; grid_4xk 172,920, mixed_batch 23,628).
DEFAULT_PATH_CAP = 10**7


class Cycle(Frozen):
    """An elementary cycle in canonical traversal order (0-indexed).

    Equality and hashing are on ``vertices``; ``vertex_set`` is derived.
    """

    __slots__ = ("vertices", "vertex_set")
    _fields = ("vertices",)

    def __init__(self, vertices: tuple):
        _set(self, "vertices", vertices)
        _set(self, "vertex_set", VertexSet.from_indices(vertices))

    @classmethod
    def _from_search(cls, vertices: tuple, mask: int) -> "Cycle":
        """A cycle the search found: ``vertices`` already canonical and
        ``mask`` their bitmask, so neither is checked or rebuilt."""
        cycle = object.__new__(cls)
        _set(cycle, "vertices", vertices)
        _set(cycle, "vertex_set", VertexSet(mask))
        return cycle

    @classmethod
    def from_vertices(cls, vertices) -> "Cycle":
        """Canonicalize any traversal order of the cycle."""
        walk = list(vertices)
        if len(walk) < 3:
            raise ValueError("a cycle needs at least 3 vertices")
        if len(set(walk)) != len(walk):
            raise ValueError("cycle vertices must be distinct")
        pivot = walk.index(min(walk))
        walk = walk[pivot:] + walk[:pivot]
        if walk[-1] < walk[1]:
            walk = [walk[0]] + walk[:0:-1]
        return cls(tuple(walk))

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


def enumerate_cycles(g: Graph):
    """All elementary cycles of ``g``, canonical and sorted.

    Every cycle lies inside one biconnected block, so the search runs one
    block at a time (``biconnected_blocks``), on the graph's own neighbor
    lists with every vertex outside the block marked as already on the
    path; it never walks a bridge or crosses a cut vertex into a block
    where the path cannot close.  Within a block it is a backtracking
    search rooted at each vertex in turn: paths grow only through
    strictly larger vertices, with vertices on the current path blocked,
    so every cycle is discovered exactly once, already in canonical form,
    together with its vertex bitmask.  Two blocks share no edge, so no
    cycle is found twice.

    Raises EnumerationCapExceeded when more than ``DEFAULT_CYCLE_CAP``
    cycles are found in all, or when the search extends a path more than
    ``DEFAULT_PATH_CAP`` times in all: it walks every simple path through
    larger vertices, and a graph with few cycles can have exponentially
    many such paths.
    """
    cap = DEFAULT_CYCLE_CAP
    steps = path_cap = DEFAULT_PATH_CAP
    neighbors = g.neighbors
    everything = (1 << g.n) - 1
    found = []
    masks = {}
    for block in biconnected_blocks(g):
        outside = everything
        for v in block:
            outside ^= 1 << v
        # A cycle rooted at s needs two more vertices above s in the block.
        for s in block[:-2]:
            path = [s]
            onpath = outside | 1 << s
            iters = [iter(neighbors[s])]
            while iters:
                for w in iters[-1]:
                    if w == s:
                        if len(path) >= 3 and path[1] < path[-1]:
                            cycle = tuple(path)
                            found.append(cycle)
                            masks[cycle] = onpath ^ outside
                            if len(found) > cap:
                                raise EnumerationCapExceeded("cycle", cap)
                    elif w > s and not onpath >> w & 1:
                        break
                else:
                    iters.pop()
                    onpath ^= 1 << path.pop()
                    continue
                steps -= 1
                if steps < 0:
                    raise EnumerationCapExceeded("cycle path", path_cap)
                path.append(w)
                onpath |= 1 << w
                iters.append(iter(neighbors[w]))
    found.sort(key=lambda c: (len(c), c))
    # The Cycle objects are made after the search, not inside it: made
    # inside, they held about 0.6 MiB more peak RSS on 4x4-4x6 grids.
    return [Cycle._from_search(c, masks[c]) for c in found]


def four_k_cycles(cycles) -> list:
    """The sublist of cycles whose length is a multiple of four."""
    return [c for c in cycles if c.is_4k]


def four_k_plus_two_cycles(cycles) -> list:
    """The sublist of cycles whose length is two more than a multiple of four."""
    return [c for c in cycles if c.length % 4 == 2]


class DisjointFamily(Frozen):
    """An unordered set of mutually vertex-disjoint cycles.

    ``cycle_indices`` point into the 4k-cycle list the family was
    enumerated from; ``covered`` is the union of member vertex sets.
    The empty family (size 0) is a valid value.
    """

    __slots__ = _fields = ("cycle_indices", "covered")

    def __init__(self, cycle_indices: tuple, covered: VertexSet):
        _set(self, "cycle_indices", cycle_indices)
        _set(self, "covered", covered)

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
        for indices, covered in disjoint_families([c.vertex_set.mask for c in c4k])
    ]


def max_disjoint(families) -> int:
    """Largest family size; 0 when only the empty family exists."""
    return max(f.size for f in families)
