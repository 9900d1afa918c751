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
# the search over 278 blocks: grids, ladders, K_{p,q}, random cubic
# graphs, mixed_batch's blocks and random_corpus (2-vCPU Intel Xeon,
# Python 3.11.7).  Below mu = 9 the count saves at most 0.1 ms a block,
# while the gate's plan costs about 40 us on every block it looks at.
# The margin 4 gave mixed_batch's blocks 32.4 ms in all against 32.0 ms
# for the faster route of each and 36.1 ms for the search alone; a
# margin of 1 or 2 gave 46.5 and 36.2 ms.
MIN_RANK = 9
MARGIN = 4
# The gate's worst case for the count, in path extensions: e * M(w)
# state updates, each ``UPDATE_COST`` extensions plus one per
# ``EXTENSION_BITS`` bits of the value it shifts and adds, which holds
# at most n fields of e + 1 bits.  Fitted against the search's
# extensions, timed in the same process (2-vCPU Intel Xeon, Python
# 3.11.7: 0.48-0.55 us each on the 2 x 40 ladder).  Per bound update,
# the counts of K_{5,5}, K_{6,6}, K_{6,7}, K_{7,7}, K_{7,8} and K_{8,8}
# cost 0.5, 0.6, 0.7, 0.8-1.4, 1.4 and 1.6-2.0 extensions, rising with
# the size of the state table; K_{8,8} is the largest complete bipartite
# block the gate admits.  The 2 x 200, 2 x 300 and 2 x 400 ladders, whose
# 3 slots make the values the whole cost, shifted and added 95, 323 and
# 766 million bits at 3,100, 5,400 and 3,600 bits per extension, so
# 2,048 bits, under the least of these, are charged as one.  The bound
# is loose where the states stay far below M(w) and the values below n
# fields: the last 2 x k, 3 x k, 4 x k and 5 x k grids it admits (k =
# 432, 185, 90, 46), each priced at about 10^7 extensions, count in
# 0.16-0.22 s.  K_{8,8}, priced at 4.7 * 10^6, would take 1.5-2.0 s to
# count in full, and the cycle cap stops it part way in 0.6-1.0 s;
# K_{9,9}, at 2.7 * 10^7, stays with the search.
UPDATE_COST = 2
EXTENSION_BITS = 2048
# A frontier slot's vertex: untouched, or done (two edges taken); a path
# end holds the slot of its path's other end instead.
_UNTOUCHED = -1
_DONE = -2


def plan(succ: dict) -> tuple:
    """``(steps, width)``: the order in which ``cycle_counts`` takes
    the edges of a block given by its successor bitmasks ``succ`` (as
    ``cycles._block_search`` makes them), and the most vertices it holds
    at once.

    The vertices come in breadth-first order, lowest first, from a vertex
    of least degree among the farthest from vertex 0.  Each vertex
    takes a slot when it comes, and its slot is free again once every
    neighbour has come.  Step i is ``(edges, leaving)``: the slot pairs
    (u's, v's) of the edges from the i-th vertex v back to those before
    it, then the slots freed after them.
    """
    nbrs = [succ[1 << j] for j in range(len(succ))]
    seen = layer = 1
    while layer:
        far = layer
        reach = 0
        for j in mask_indices(layer):
            reach |= nbrs[j]
        layer = reach & ~seen
        seen |= layer
    start = min(mask_indices(far), key=lambda j: nbrs[j].bit_count())
    order = [start]
    seen = 1 << start
    for v in order:
        new = nbrs[v] & ~seen
        seen |= new
        order.extend(mask_indices(new))
    slot = [0] * len(order)
    pending = [0] * len(order)
    free = []
    steps = []
    placed = width = 0
    for v in order:
        if free:
            slot[v] = free.pop()
        else:
            slot[v] = width
            width += 1
        back = nbrs[v] & placed
        placed |= 1 << v
        pending[v] = nbrs[v] & ~placed
        edges = []
        leaving = [] if pending[v] else [slot[v]]
        for u in mask_indices(back):
            edges.append((slot[u], slot[v]))
            pending[u] ^= 1 << v
            if not pending[u]:
                leaving.append(slot[u])
        free.extend(leaving)
        steps.append((edges, leaving))
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
    ``state_bound(w)`` for its plan's width w, and each of its e edges
    updates each state once.  An update shifts and adds a value of at
    most n fields of e + 1 bits, so a long block pays for its values as
    much as for its states.  The count takes a block when mu is at least
    ``MIN_RANK`` and ``MARGIN`` * M(w) < 2^mu, and only when its worst
    case, e * M(w) updates at ``UPDATE_COST`` path extensions plus one
    per ``EXTENSION_BITS`` value bits each, fits in the search's own
    budget.  Under ``cycles.DEFAULT_PATH_CAP``, K_{9,9} (w = 10, e * M(w)
    = 9,971,829) and the 2 x k ladders from k = 433 on (M(w) = 14,
    n * (e + 1) = 6k^2 - 2k bits) stay with the search, which stops at a
    cap within seconds.

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
    bits = UPDATE_COST * EXTENSION_BITS + n * (edges + 1)
    if edges * bound * bits > budget * EXTENSION_BITS:
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
    field, and two edge sets that reach one state add.  An edge closes
    the path it joins the ends of into a cycle only when no other path
    is open, and a vertex whose slot is freed while a path ends in it
    kills its state.  After each vertex whose edges closed a cycle, the
    cycles so far are totalled against ``room``, so a block with far more
    cycles than the cap stops part way.
    """
    field = edges + 1
    top = (1 << field) - 1
    states = {(_UNTOUCHED,) * width: 1}
    packed = 0
    for step, leaving in steps:
        closed = packed
        for a, b in step:
            after = dict(states)
            for s, value in states.items():
                x = s[a]
                y = s[b]
                if x == _DONE or y == _DONE:
                    continue
                if x == b:
                    if width - s.count(_UNTOUCHED) - s.count(_DONE) == 2:
                        packed += value << field
                    continue
                t = list(s)
                if x == _UNTOUCHED:
                    if y == _UNTOUCHED:
                        t[a] = b
                        t[b] = a
                    else:
                        t[a] = y
                        t[y] = a
                        t[b] = _DONE
                elif y == _UNTOUCHED:
                    t[b] = x
                    t[x] = b
                    t[a] = _DONE
                else:
                    t[x] = y
                    t[y] = x
                    t[a] = t[b] = _DONE
                t = tuple(t)
                after[t] = after.get(t, 0) + (value << field)
            states = after
        if packed != closed and field_total(packed, field) > room:
            return None
        for a in leaving:
            kept = {}
            for s, value in states.items():
                if s[a] >= 0:
                    continue
                if s[a] == _DONE:
                    s = s[:a] + (_UNTOUCHED,) + s[a + 1:]
                kept[s] = kept.get(s, 0) + value
            states = kept
    counts = {}
    length = 0
    while packed:
        if packed & top:
            counts[length] = packed & top
        packed >>= field
        length += 1
    return counts
