"""Count a block's cycles by length with a frontier transfer matrix.

``cycles.cycle_length_counts`` counts each biconnected block of a graph
in one of two ways, and ``route``, the gate, picks one per block from
its cyclomatic number and the width of a vertex order.  Every other
block's cycles are counted as ``cycles.simple_cycles`` finds them.  A
narrow block with many cycles goes to ``cycle_counts``, a transfer
matrix (Knuth's SIMPATH, TAOCP 4A, 7.1.4, and Enting's transfer
matrices for self-avoiding polygons, J. Phys. A 13, 1980) whose work
grows with that width and not with the block's paths: it lists no cycle
and walks no path, and the 2 x 30 ladder's 435 cycles take about 1 ms.
The order, ``plan``'s, one per block, starts from a vertex of least
degree and places next the vertex that leaves the fewest slots held
(Kawahara, Inoue, Iwashita and Minato, "Frontier-based search
for enumerating all constrained subgraphs with compressed
representation", IEICE Trans. Fundamentals, 2017, on how the order sets
the width), and the count takes each vertex's edges in one pass over its
states.

The count's cycles go under the search's cycle cap, which it checks
after each vertex, and the gate keeps the count's worst case within the
search's path cap, so a block stops or is left to the search before it
runs for minutes.  Blocks come in ``cycles._block_search``'s form: the
successor bitmask of each vertex, vertex j named by bit j.
"""

from __future__ import annotations

import math

from .graphs import mask_indices

# The gate (``route``), fitted on the per-block times of the count and
# the search over 540 blocks with mu >= 5, mixed_batch's under six
# labellings, and checked on grids, ladders, K_{p,q}, random cubic graphs
# and random_corpus (2-vCPU Intel Xeon, Python 3.11.7).  In all,
# mixed_batch's blocks took 271.6 ms by the search alone and 185.8 ms by
# the faster route of each.  The floor 9 with the margins 1, 2, 4 and 8
# gave 200.4, 199.8, 216.0 and 245.3 ms; the floors 8 and 10 with the
# margin 2 gave 202.0 and 201.8 ms.  Below the floor the count saves
# little, while the gate's plan costs about 50 us on every block it
# looks at.
MIN_RANK = 9
MARGIN = 2
# The gate's worst case for the count, in bits, against the path
# extensions of the search at ``EXTENSION_BITS`` bits each: at most
# M(w) states, each making 1 + d + d(d - 1) / 2 successors at a vertex
# with d back edges, each successor ``UPDATE_COST`` bits plus the bits of
# the value it shifts and adds, which holds at most n fields of e + 1
# bits.  Fitted against the search's extensions, timed in the same
# process (0.41-0.61 us each on the 2 x 40 ladder).  Per bound
# successor, the full counts of K_{5,5}, K_{6,6}, K_{6,7}, K_{7,7},
# K_{7,8} and K_{8,8} cost 0.14, 0.15, 0.14, 0.17, 0.19 and 0.23
# extensions, rising with the size of the state table, so a successor is
# charged 40,000 bits, about 0.3 extensions.  The 2 x k ladders for k =
# 200 to 1,373 and the 3 x k, 4 x k and 5 x k grids, whose values make
# most of the cost, shifted and added 1.6-2.4 * 10^5 bits per extension,
# so 2^17 bits, under the least of these, are charged as one.  The bound
# is loose where the states stay far below M(w) and the values below n
# fields: the last 2 x k, 3 x k, 4 x k and 5 x k grids it admits (k =
# 1,373, 586, 285, 146), each priced at about 10^7 extensions, count in
# full in 2.6-3.4 s, and the 40-vertex cubic graph of
# ``fixtures/cubic40.edges`` (w = 10), priced at 5.0 * 10^6, in 30-40
# ms.  K_{8,8}, priced at 2.5 * 10^6, counts in full in 0.85 s, and the
# cycle cap stops it part way in about 0.5 s; K_{8,9} and K_{9,9} (w =
# 10), at 1.3 and 1.5 * 10^7, stay with the search.
UPDATE_COST = 40_000
EXTENSION_BITS = 131_072
# A frontier slot's vertex: untouched, or done (two edges taken); a path
# end holds the slot of its path's other end instead.
_UNTOUCHED = -1
_DONE = -2


def plan(succ: dict) -> tuple:
    """``(steps, width)``: the order in which ``cycle_counts`` takes
    the vertices of a block given by its successor bitmasks ``succ`` (as
    ``cycles._block_search`` makes them), and the most slots it holds at
    once.

    The first vertex is one of least degree, the farthest from vertex 0
    among those, the lowest on a tie; so K_{p,q}, p < q, starts on the
    side of degree p, whichever side vertex 0 is on, and holds p + 1
    slots.  Each vertex takes a slot when it comes, and its slot is free
    again once every neighbour has come.  Every later vertex is the one,
    among the neighbours of those placed, that leaves the fewest slots
    held: the slot it opens, when it has a neighbour still to come, less
    the slots it frees, of the placed neighbours whose last neighbour to
    come it is.  Ties go to the first found in a breadth-first search
    from the first vertex, lowest first, which keeps K_{n,n} at n + 1
    slots, one side and then the other, under any labelling.  The
    candidates wait in bitmasks by growth, so a step costs a few
    operations per edge.  Step i is ``(slot, back, leaving)``: the i-th
    vertex v's slot, the slots of its neighbours before it, and the
    slots freed once its edges are taken.
    """
    n = len(succ)
    nbrs = [succ[1 << j] for j in range(n)]
    least = min(map(int.bit_count, nbrs))
    low = sum(1 << j for j, m in enumerate(nbrs) if m.bit_count() == least)
    layers = []
    seen = layer = 1
    while layer:
        layers.append(layer)
        reach = 0
        for j in mask_indices(layer):
            reach |= nbrs[j]
        layer = reach & ~seen
        seen |= layer
    for layer in reversed(layers):
        if layer & low:
            break
    low &= layer
    start = (low & -low).bit_length() - 1
    order = [start]
    seen = 1 << start
    for v in order:
        new = nbrs[v] & ~seen
        seen |= new
        order.extend(mask_indices(new))
    # The vertices found and still to come, by growth: 1 while a vertex
    # has a neighbour to come, less one for each placed vertex whose one
    # neighbour to come it is.  Growth only falls.  Level g + d, for the
    # most neighbours d of a vertex, holds the bits of the places in the
    # breadth-first order of the vertices of growth g, so the next vertex
    # is the lowest bit of the lowest level that holds one.
    place = [0] * n
    for i, v in enumerate(order):
        place[v] = 1 << i
    top = max(map(int.bit_count, nbrs)) + 1
    level = [top] * n
    levels = [0] * top + [place[start]]
    seen = 1 << start
    slot = [0] * n
    pending = nbrs[:]
    free = []
    steps = []
    width = 0
    unplaced = (1 << n) - 1
    for _ in range(n):
        for i, m in enumerate(levels):
            if m:
                break
        low = m & -m
        levels[i] ^= low
        v = order[low.bit_length() - 1]
        if free:
            slot[v] = free.pop()
        else:
            slot[v] = width
            width += 1
        unplaced ^= 1 << v
        back = mask_indices(nbrs[v] & ~unplaced)
        leaving = []
        falls = []
        for u in [v, *back]:
            pending[u] &= unplaced
            p = pending[u]
            if not p:
                leaving.append(slot[u])
            elif not p & p - 1:
                falls.append(p.bit_length() - 1)
        new = nbrs[v] & ~seen
        seen |= new
        for w in mask_indices(new):
            levels[top] |= place[w]
        for w in mask_indices(nbrs[v] & unplaced):
            if not nbrs[w] & unplaced:
                falls.append(w)
        for w in falls:
            levels[level[w]] ^= place[w]
            level[w] -= 1
            levels[level[w]] |= place[w]
        free.extend(leaving)
        steps.append((slot[v], [slot[u] for u in back], leaving))
    return steps, width


def state_bound(width: int) -> int:
    """The most states a frontier of ``width`` slots can hold: the sum over
    k of C(w, 2k) * (2k - 1)!! * 2^(w - 2k), 2k path ends paired up and
    every other slot untouched or done."""
    total = 0
    pairings = 1
    for k in range(width // 2 + 1):
        total += math.comb(width, 2 * k) * pairings << width - 2 * k
        pairings *= 2 * k + 1
    return total


def route(search: tuple, budget: int):
    """``(steps, width, edges)`` for ``cycle_counts`` when the gate
    sends a block, given by its ``cycles._block_search`` pair ``(succ,
    roots)``, to the frontier count, or None when the search counts its
    cycles, with a budget of ``budget`` path extensions.

    The search's work grows with the block's cycles, up to about 2^mu of
    them for the cyclomatic number mu = e - n + 1, read off the popcounts
    of ``succ``.  The count's work grows with its states, at most M(w) =
    ``state_bound(w)`` for its plan's width w: at a vertex with d back
    edges each state makes at most 1 + d + d(d - 1) / 2 successors, S in
    all over the plan.  A successor shifts and adds a value of at most n
    fields of e + 1 bits, so a long block pays for its values as much as
    for its states.  The count takes a block when mu is at least
    ``MIN_RANK`` and ``MARGIN`` * M(w) < 2^mu, and only when its worst
    case, S * M(w) successors of ``UPDATE_COST`` bits plus their value
    bits, at ``EXTENSION_BITS`` bits a path extension, fits in the
    search's own budget.  Under ``cycles.DEFAULT_PATH_CAP``, K_{9,9} (w =
    10, S * M(w) = 47,643,183) and the 2 x k ladders from k = 1,374 on
    (M(w) = 14, n * (e + 1) = 6k^2 - 2k bits) stay with the search, which
    stops at a cap within seconds.

    Each vertex has a root entry per neighbour above it but the highest,
    so ``roots`` holds at least e - (n - 1) = mu entries.  A block with
    fewer than the floor on mu is left to the search before any popcount
    or plan: the gate costs a small block one comparison.
    """
    succ, roots = search
    if len(roots) < MIN_RANK:
        return None
    n = len(succ)
    edges = sum(map(int.bit_count, succ.values())) >> 1
    rank = edges - n + 1
    if rank < MIN_RANK:
        return None
    steps, width = plan(succ)
    bound = state_bound(width)
    if MARGIN * bound >= 1 << rank:
        return None
    successors = sum(1 + len(back) * (len(back) + 1) // 2 for _, back, _ in steps)
    bits = UPDATE_COST + n * (edges + 1)
    if successors * bound * bits > budget * EXTENSION_BITS:
        return None
    return steps, width, edges


def field_total(packed: int, field: int) -> int:
    """The sum of the ``field``-bit fields of ``packed``, when it fits in
    one field: halves are added until one field is left, so the work is
    linear in the bits of ``packed``, where ``packed % (2^field - 1)``
    would divide."""
    fields = -(-packed.bit_length() // field)
    while fields > 1:
        half = (fields + 1) >> 1
        shift = half * field
        packed = (packed >> shift) + (packed & ((1 << shift) - 1))
        fields = half
    return packed


def cycle_counts(steps: list, width: int, edges: int, room: int):
    """How many cycles of a block have each length, from its frontier plan
    ``steps`` over ``width`` slots (``plan``) and its number of
    ``edges`` e, with no cycle listed and no path walked; or None once
    they number more than ``room``.

    A transfer-matrix count (Knuth's SIMPATH, TAOCP 4A, 7.1.4): each
    edge is taken or not.  A state says, per slot, whether its vertex is
    untouched, done (two edges taken) or the end of a path, and then
    which slot holds that path's other end.  Its value packs the counts
    of the edge sets that reach it by size, e + 1 bits a size, which no
    count of e-edge subsets overflows: taking an edge shifts it by one
    field, and two edge sets that reach one state add.  Each vertex
    comes untouched and takes none, one or two of its back edges, so one
    pass over the states makes every successor, and the slots freed
    after the vertex are settled in each successor as it is made.  Two
    edges that join the ends of one path close it into a cycle only when
    no other path is open, and a successor with a path end in a freed
    slot is dropped.  After each vertex that closed a cycle, the cycles
    so far are totalled against ``room``, so a block with far more cycles
    than the cap stops part way.
    """
    field = edges + 1
    top = (1 << field) - 1
    states = {(_UNTOUCHED,) * width: 1}
    packed = 0
    for b, back, leaving in steps:
        closed = packed
        after = {}
        for s, value in states.items():
            # The vertex's slot b is untouched in s.  A path end at a
            # (or the untouched a itself) goes on to b: p is the far end.
            one = value << field
            made = [(list(s), value)]
            ends = []
            for a in back:
                x = s[a]
                if x == _DONE:
                    continue
                ends.append((a, x))
                p = a if x == _UNTOUCHED else x
                t = list(s)
                t[a] = _DONE
                t[p] = b
                t[b] = p
                made.append((t, one))
            two = one << field
            for i, (a, x) in enumerate(ends):
                for c, y in ends[i + 1:]:
                    if x == c:
                        if width - s.count(_UNTOUCHED) - s.count(_DONE) == 2:
                            packed += two
                        continue
                    # b joins the path or vertex at a to the one at c.
                    p = a if x == _UNTOUCHED else x
                    q = c if y == _UNTOUCHED else y
                    t = list(s)
                    t[a] = t[c] = t[b] = _DONE
                    t[p] = q
                    t[q] = p
                    made.append((t, two))
            for t, count in made:
                for a in leaving:
                    if t[a] >= 0:
                        break
                    t[a] = _UNTOUCHED
                else:
                    t = tuple(t)
                    after[t] = after.get(t, 0) + count
        states = after
        if packed != closed and field_total(packed, field) > room:
            return None
    counts = {}
    length = 0
    while packed:
        if packed & top:
            counts[length] = packed & top
        packed >>= field
        length += 1
    return counts
