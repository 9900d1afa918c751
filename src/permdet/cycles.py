"""Elementary cycle enumeration and vertex-disjoint cycle families.

Cycles are canonicalized so that rotations and reflections of the same
closed walk compare equal: the smallest vertex comes first and its
smaller neighbor on the cycle comes second.  Enumeration output is
deterministic, sorted by (length, vertices).

``simple_cycles`` is the package's one backtracking cycle search: it
finds the whole graph's cycles here and a piece's alternating cycles in
``matching.pfaffian_signing``.  It runs on successor bitmasks in its
caller's own numbering, with each vertex named by its bit, so a search
step takes the lowest candidate bit as the next vertex and its
candidates with one AND: no bit is turned back into an index.  Every
cycle lies inside one biconnected block, so the whole graph's cycles
are searched one block at a time: a Hopcroft-Tarjan pass, O(n + e),
splits the graph into blocks, and each block is searched in its own
numbering, vertex block[j] as bit j.  Bridges, trees and the paths
between blocks are never walked, and since two blocks share no edge, no
cycle is found twice.  A block of 30 or fewer vertices keeps every mask
and vertex name of its search in one digit of a CPython int.  That
search is one stream, ``whole_graph_cycles``, of ``(block, path)``
pairs, which ``enumerate_cycles`` maps back to the graph's vertices and
sorts into the one list of cycles.  The search yields each closed path
and nothing else: its readers need a cycle's length, its vertices or
its edges, and each reads them off the path.

Counting the cycles by length, for the engine's 4k-cycle count and for
``classify_efficient``, does not need them listed.
``cycle_length_counts`` sends a narrow block with many cycles to the
frontier transfer matrix of the ``frontier`` module, which walks no
path, and counts every other block's cycles as the search finds them.

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
rather than exhausting memory or running for minutes.  The frontier
count's cycles go under the same cycle cap, and its gate keeps its
worst case within the path cap's budget.
"""

from __future__ import annotations

from . import frontier
from .errors import EnumerationCapExceeded, InternalInvariantError
from .graphs import Frozen, Graph, VertexSet, bipartition, mask_indices

DEFAULT_CYCLE_CAP = 10**6
DEFAULT_FAMILY_CAP = 10**6
# Path extensions the cycle search may make per call.  An extension
# costs about 0.35 us (2-vCPU Intel Xeon, Python 3.11.7: 43,595 on the
# 4 x 6 grid in 13 ms, 10**7 on the 2 x 22 ladder in 3.5 s), so the cap
# stops a search within about 3.5 s: the 2 x 22 ladder in 3.5 s, the
# 2 x 30 ladder in 3.6 s and the 6 x 6 grid, which yields 569,035 cycles
# on the way, in 3.4 s (up to twice that when that machine runs slow).
# The count depends on the vertex order: the 4 x 6 grid numbered row by
# row needs 43,595, and ten random labellings of it 32,529-56,959.  The
# tests, demos and benchmark need at most 227,760 (K_{6,6} in the Sachs
# cap test).  The cycle counts search only the blocks that the frontier
# gate leaves to the search, and the gate admits a block to the frontier
# count only when the count's worst case, its successor states and the
# bits of their values, fits in this budget; so the 2 x 30 ladder, the
# 6 x 6 grid and the 40-vertex cubic graph of ``fixtures/cubic40.edges``
# (759,033 cycles) are counted in milliseconds, while ``permdet
# cycles``, which lists every cycle, still stops at this cap on them
# (the cubic graph in about 3.7 s), and so do the counts on ladders
# longer than 2 x 1,373.
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


class EfficiencyReport(Frozen):
    """Cycle-structure test for when the expansion beats brute force:
    cactus layout (any two cycles share at most one vertex) plus a girth
    large relative to n and the count of girth cycles.
    """

    __slots__ = _fields = ("is_cactus", "girth", "n", "c", "condition_holds")


def classify_efficient(g: Graph) -> EfficiencyReport:
    """Classify a bipartite graph by the girth condition
    g0 * (c + 2) > n + c(c-1)/2 + c, compared in exact integers.
    Acyclic graphs pass trivially.  The girth g0 and the number c of
    girth cycles come from one count of the cycles as they are found.
    """
    bipartition(g)
    counts = cycle_length_counts(g)
    girth = min(counts, default=None)
    c = counts.get(girth, 0)
    # A block holds one cycle, or at least three when it is not a cycle.
    is_cactus = sum(counts.values()) == len(biconnected_blocks(g))
    holds = girth is None or is_cactus and girth * (c + 2) > g.n + c * (c - 1) // 2 + c
    return EfficiencyReport(is_cactus, girth, g.n, c, holds)


def simple_cycles(searches, what: str, cap: int):
    """Yield ``(i, path)`` at each closed path of a backtracking search,
    the package's one cycle search.

    ``searches`` holds pairs ``(succ, roots)``, the i-th in its own
    numbering of its vertices from 0, each vertex named by its bit (vertex
    j is ``1 << j``): ``succ[b]`` is the bitmask of b's successors.  For
    each ``(root, first, free, closers)`` in ``roots``, paths grow from
    ``root`` through the vertices of the bitmask ``free`` that are not on
    the path, and the first step goes to a vertex of the bitmask
    ``first``, which the caller chooses from ``succ[root] & free``.  The
    walk may return to the root only from a vertex of the bitmask
    ``closers``, which the caller chooses from the root's predecessors in
    ``free``.  Every later step from the last vertex b takes the next of
    its candidates, lowest bit first: one AND of ``succ[b]`` with the free
    vertices off the path, plus the root when b is a closer, in its place
    in that order.  When b was the last closer off the path, no longer
    walk can close, so the root is b's only candidate.  Each time the root
    comes up, i and the live ``path`` list of bits (the root first; copy
    it to keep it) are yielded.  The cut branches close nothing, so the
    yields and their order are those of the search that walks them.  The
    last vertex's candidates are kept in a local and those of the vertices
    before it on a stack, so a step turns no bit into an index, and no
    path overflows the recursion limit.

    Raises EnumerationCapExceeded(what, cap) past ``cap`` path
    extensions over all searches: a graph with few cycles can have
    exponentially many paths.
    """
    steps = cap
    for i, (succ, roots) in enumerate(searches):
        for root, first, free, closers in roots:
            avail = free
            path = [root]
            stack = []
            cands = first
            while True:
                if not cands:
                    if not stack:
                        break
                    cands = stack.pop()
                    avail |= path.pop()
                    continue
                low = cands & -cands
                cands ^= low
                if low == root:
                    yield i, path
                    continue
                steps -= 1
                if steps < 0:
                    raise EnumerationCapExceeded(what, cap)
                path.append(low)
                avail ^= low
                stack.append(cands)
                if not low & closers:
                    cands = succ[low] & avail
                elif closers & avail:
                    cands = succ[low] & avail | root
                else:
                    cands = root


def _block_search(g: Graph, block: tuple) -> tuple:
    """``(succ, roots)`` for ``simple_cycles`` on one biconnected block,
    its vertices numbered by position in ``block`` and named by their
    bits.  The numbering keeps the vertex order, so each root may step
    only to the bits above its own, and the canonical direction of a
    cycle is read off the bits as off the vertices."""
    bit = {v: 1 << j for j, v in enumerate(block)}
    succ = {}
    for v in block:
        out = 0
        for w in g.neighbors[v]:
            out |= bit.get(w, 0)
        succ[bit[v]] = out
    top = 1 << len(block)
    roots = []
    # A cycle rooted at j is walked from its smaller neighbour a of j to
    # its larger one, so the walk whose first step is a may close only
    # from j's neighbours above a, ``above`` once a is taken off it.  The
    # highest first step has none, and is left out.  A cycle rooted at j
    # also needs two more vertices above j in the block.
    for j in range(len(block) - 2):
        free = top - (2 << j)
        above = succ[1 << j] & free
        while above:
            a = above & -above
            above ^= a
            if above:
                roots.append((1 << j, a, free, above))
    return succ, roots


def _searched_cycles(blocks: list, searches, found: int):
    """Yield ``(block, path)`` for each cycle that ``simple_cycles`` finds
    in ``blocks``, whose searches ``searches`` holds in the same order.
    Raises EnumerationCapExceeded once these cycles and the ``found``
    counted before them pass ``DEFAULT_CYCLE_CAP``.  The path cap counts
    across the blocks."""
    cap = DEFAULT_CYCLE_CAP
    for i, path in simple_cycles(searches, "cycle path", DEFAULT_PATH_CAP):
        found += 1
        if found > cap:
            raise EnumerationCapExceeded("cycle", cap)
        yield blocks[i], path


def whole_graph_cycles(g: Graph):
    """Yield ``(block, path)`` once per elementary cycle of ``g``, as the
    search finds it: the cycle's biconnected block (a sorted vertex
    tuple), then the live path of bits in canonical order (copy it to
    keep it), in the block's numbering, where bit j names vertex
    block[j].  Each root's walk from a first step a may close only from
    the root's neighbours above a, so the search yields every cycle in
    its canonical direction and no reverse walk or two-vertex path back
    to the root.

    Raises EnumerationCapExceeded past ``DEFAULT_CYCLE_CAP`` cycles, or
    (as ``cycle path``) past ``DEFAULT_PATH_CAP`` path extensions.
    """
    blocks = biconnected_blocks(g)
    yield from _searched_cycles(blocks, (_block_search(g, block) for block in blocks), 0)


def block_vertices(block: tuple, path) -> tuple:
    """The vertices of ``path``, a list of bits in which bit j names
    block[j]."""
    return tuple([block[b.bit_length() - 1] for b in path])


def enumerate_cycles(g: Graph):
    """All elementary cycles of ``g`` as ``Cycle`` values, canonical and
    sorted: the list reader of ``whole_graph_cycles``, with its caps."""
    found = [block_vertices(block, path) for block, path in whole_graph_cycles(g)]
    found.sort(key=lambda c: (len(c), c))
    # The Cycle objects are made after the search, not inside it: made
    # inside, they held about 0.6 MiB more peak RSS on 4x4-4x6 grids.
    return [Cycle(c, sum(1 << v for v in c)) for c in found]


def cycle_length_counts(g: Graph) -> dict:
    """How many cycles of the whole graph have each length, each checked to
    be even.

    A block that the gate (``frontier.route``) sends to the frontier
    count is counted there, with no cycle listed and no path walked.
    Every other block's cycles are counted as the search finds them
    (``_searched_cycles``, as in ``whole_graph_cycles``), after the
    frontier blocks.  Both add to one count, which raises
    EnumerationCapExceeded past ``DEFAULT_CYCLE_CAP`` cycles; the search
    also raises (as ``cycle path``) past ``DEFAULT_PATH_CAP`` path
    extensions.
    """
    cap = DEFAULT_CYCLE_CAP
    counts = {}
    found = 0
    blocks = []
    searches = []
    for block in biconnected_blocks(g):
        search = _block_search(g, block)
        route = frontier.route(search, DEFAULT_PATH_CAP)
        if route is None:
            blocks.append(block)
            searches.append(search)
            continue
        block_counts = frontier.cycle_counts(*route, cap - found)
        if block_counts is None:
            raise EnumerationCapExceeded("cycle", cap)
        for length, k in block_counts.items():
            if length & 1:
                # The host was bipartition-checked: an odd cycle is a bug.
                raise InternalInvariantError(f"odd cycle of length {length} in bipartite host")
            counts[length] = counts.get(length, 0) + k
            found += k
    for block, path in _searched_cycles(blocks, searches, found):
        length = len(path)
        if length & 1:
            labels = tuple(v + 1 for v in block_vertices(block, path))
            raise InternalInvariantError(f"odd cycle {labels} in bipartite host")
        counts[length] = counts.get(length, 0) + 1
    return counts


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


def _disjoint_search(masks: list):
    """Yield every family of pairwise disjoint vertex masks from ``masks``
    as ``(indices, covered)``: the tuple of their indices and the union,
    the empty family ``((), 0)`` first.

    ``avoid[v]`` is the complement of the bitmask of the masks holding
    vertex v.  A search node holds ``cands``, the bitmask of later masks
    disjoint from its family; it takes them lowest index first, and the
    child's candidates are the remaining ones ANDed with ``avoid[v]`` for
    every vertex v of the mask taken.  Every step therefore yields a
    family, so the search costs O(L) c-bit mask operations per family (L
    the largest mask's size, c = len(masks)) instead of a rescan of all
    later masks.  Each family on the path from the empty one leaves its
    remaining candidates and its union on a stack, with no recursion.
    The families come depth first, so each size's come in increasing
    index order.

    Raises EnumerationCapExceeded when there are more than
    ``DEFAULT_FAMILY_CAP`` families, the empty one included.
    """
    cap = DEFAULT_FAMILY_CAP
    members = [mask_indices(mask) for mask in masks]
    avoid = _avoid_masks(members)
    chosen = []
    stack = []
    cands = (1 << len(masks)) - 1
    covered = count = 0
    while True:
        count += 1
        if count > cap:
            raise EnumerationCapExceeded("disjoint family", cap)
        yield tuple(chosen), covered
        while not cands:
            if not stack:
                return
            cands, covered = stack.pop()
            chosen.pop()
        low = cands & -cands
        cands ^= low
        i = low.bit_length() - 1
        stack.append((cands, covered))
        for v in members[i]:
            cands &= avoid[v]
        chosen.append(i)
        covered |= masks[i]


def disjoint_families(masks: list) -> list:
    """All families of pairwise disjoint vertex masks from ``masks``, as
    ``(indices, covered)``: the tuple of their indices and the union.

    Includes the empty family ``((), 0)``.  Output is sorted by (size,
    indices): ``_disjoint_search`` lists each size's families in
    increasing index order, so bucketing by size sorts them without a
    sort.

    Raises EnumerationCapExceeded when there are more than
    ``DEFAULT_FAMILY_CAP`` families, the empty one included.
    """
    by_size = []
    for family in _disjoint_search(masks):
        size = len(family[0])
        if size == len(by_size):
            by_size.append([family])
        else:
            by_size[size].append(family)
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


def largest_disjoint_family(c4k, bound: int) -> int:
    """The size of the largest family of pairwise vertex-disjoint cycles
    from ``c4k``, by the search of ``disjoint_families`` with no list
    kept.  It stops as soon as a family reaches ``bound`` cycles, and
    otherwise tries every family.

    Raises EnumerationCapExceeded when it tries more than
    ``DEFAULT_FAMILY_CAP`` families, the empty one included.
    """
    largest = 0
    for indices, _ in _disjoint_search([c.mask for c in c4k]):
        if len(indices) > largest:
            largest = len(indices)
            if largest >= bound:
                break
    return largest
