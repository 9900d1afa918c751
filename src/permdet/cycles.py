"""Elementary cycle enumeration and vertex-disjoint cycle families.

Cycles are canonicalized so that rotations and reflections of the same
closed walk compare equal: the smallest vertex comes first and its
smaller neighbor on the cycle comes second.  Enumeration output is
deterministic, sorted by (length, vertices).

Every cycle lies inside one biconnected block, so cycles are searched
one block at a time: a Hopcroft-Tarjan pass, O(n + e), splits the graph
into blocks, and the backtracking search then runs in each block with
neighbor lists cut down to it.  Bridges, trees and the paths between
blocks are never walked, and since two blocks share no edge, no cycle
is found twice.

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
have a cap, and passing it raises a typed error rather than exhausting
memory.
"""

from __future__ import annotations

from .errors import CycleCapExceeded, EnumerationCapExceeded
from .graphs import Frozen, Graph, VertexSet

_set = object.__setattr__

DEFAULT_CYCLE_CAP = 10**6
DEFAULT_FAMILY_CAP = 10**6


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

    @classmethod
    def from_labels(cls, labels) -> "Cycle":
        """Canonicalize a 1-indexed traversal order."""
        return cls.from_vertices(v - 1 for v in labels)

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


def enumerate_cycles(g: Graph, max_len: int | None = None, cap: int | None = DEFAULT_CYCLE_CAP):
    """All elementary cycles of ``g`` (up to ``max_len``), canonical and sorted.

    Every cycle lies inside one biconnected block, so the search runs one
    block at a time (``biconnected_blocks``), with neighbor lists cut
    down to the block; it never walks a bridge or crosses a cut vertex
    into a block where the path cannot close.  Within a block it is a
    backtracking search rooted at each vertex in turn: paths grow only
    through strictly larger vertices, with vertices on the current path
    blocked, so every cycle is discovered exactly once, already in
    canonical form, together with its vertex bitmask.  Two blocks share
    no edge, so no cycle is found twice.  Raises CycleCapExceeded when
    more than ``cap`` cycles are found in all (pass ``cap=None`` to
    disable the guard).
    """
    found = []
    masks = {}
    for block in biconnected_blocks(g):
        if len(block) == g.n:
            neighbors = g.neighbors
        else:
            member = 0
            for v in block:
                member |= 1 << v
            neighbors = [()] * g.n
            for v in block:
                neighbors[v] = tuple(w for w in g.neighbors[v] if member >> w & 1)
        limit = len(block) if max_len is None else min(max_len, len(block))
        # A cycle rooted at s needs two more vertices above s in the block.
        for s in block[:-2]:
            path = [s]
            onpath = 1 << s
            iters = [iter(neighbors[s])]
            while iters:
                descended = False
                for w in iters[-1]:
                    if w == s:
                        if len(path) >= 3 and path[1] < path[-1]:
                            cycle = tuple(path)
                            found.append(cycle)
                            masks[cycle] = onpath
                            if cap is not None and len(found) > cap:
                                raise CycleCapExceeded(cap)
                        continue
                    if w < s or onpath >> w & 1 or len(path) >= limit:
                        continue
                    path.append(w)
                    onpath |= 1 << w
                    iters.append(iter(neighbors[w]))
                    descended = True
                    break
                if not descended:
                    iters.pop()
                    onpath ^= 1 << path.pop()
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


def _avoid_masks(c4k) -> dict:
    """``avoid[v]``: an AND mask that clears the cycles through vertex v.

    Each vertex's cycles are first marked in a bit string, highest index
    first, which ``int(row, 2)`` reads in linear time.  Setting bit i of a
    growing int instead copies all c bits per cycle through v.
    """
    c = len(c4k)
    rows = {}
    for i, cycle in enumerate(c4k):
        for v in cycle.vertices:
            if v not in rows:
                rows[v] = bytearray(b"0" * c)
            rows[v][c - 1 - i] = ord("1")
    return {v: ~int(row, 2) for v, row in rows.items()}


def enumerate_disjoint_families(c4k) -> list:
    """All families of pairwise vertex-disjoint cycles from ``c4k``.

    Includes the empty family.  Output is sorted by (size, indices).

    ``avoid[v]`` is the complement of the bitmask of the cycles through
    vertex v.  A search node holds ``cands``, the bitmask of later cycles
    disjoint from its family; it takes them lowest index first, and the
    child's candidates are the remaining ones ANDed with ``avoid[v]`` for
    every vertex v of the cycle taken.  Every step therefore produces a
    family, so the search costs O(L) c-bit mask operations per family (L
    the longest cycle, c = len(c4k)) instead of a rescan of all later
    cycles.  Depth-first order lists each size's families in increasing
    index order, so bucketing by size yields the sorted output without a
    sort.

    Raises EnumerationCapExceeded when there are more than
    ``DEFAULT_FAMILY_CAP`` families, the empty one included.
    """
    cap = DEFAULT_FAMILY_CAP
    masks = [c.vertex_set.mask for c in c4k]
    avoid = _avoid_masks(c4k)
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
            for v in c4k[i].vertices:
                child &= avoid[v]
            chosen.append(i)
            extend(child, chosen, covered | masks[i])
            chosen.pop()

    try:
        extend((1 << len(c4k)) - 1, [], 0)
    finally:
        # extend refers to itself through its closure cell; emptying the
        # cell frees the search state now, not at the next cyclic GC.
        extend = None
    # The objects are made after the search, not inside it: interleaved
    # with the search's short-lived masks they held about 3 MiB more
    # peak RSS on 4x4-4x6 grids, though their tracemalloc peak was lower.
    return [
        DisjointFamily(indices, VertexSet(covered))
        for level in by_size
        for indices, covered in level
    ]


def max_disjoint(families) -> int:
    """Largest family size; 0 when only the empty family exists."""
    return max(f.size for f in families)
