"""Shared graph corpora for the test suite.

Provides fixture loading, an exhaustive list of connected bipartite
graphs on up to 8 vertices (one per isomorphism class, validated in
test_corpus against published counts), and seeded random families so
every run sees the same graphs.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from pathlib import Path

from permdet import Graph, enumerate_cycles, parse_edge_list

FIXTURE_DIR = Path(__file__).resolve().parent.parent / "fixtures"

# Filled in by the acceptance tests; conftest echoes these after the run.
ACCEPTANCE_LINES = []

EXAMPLE10_EDGES = [
    (1, 2), (2, 3), (3, 4), (1, 4), (4, 5), (5, 6),
    (3, 6), (6, 9), (7, 8), (8, 9), (9, 10), (7, 10),
]


def load_fixture(name: str) -> Graph:
    return parse_edge_list((FIXTURE_DIR / name).read_text())


def fixture_text(name: str) -> str:
    return (FIXTURE_DIR / name).read_text()


def example10() -> Graph:
    return Graph.from_edge_labels(10, EXAMPLE10_EDGES)


def fig1_biadjacency() -> tuple:
    """Biadjacency of example10: rows are odd labels, columns even."""
    return (
        (1, 1, 0, 0, 0),
        (1, 1, 1, 0, 0),
        (0, 1, 1, 0, 0),
        (0, 0, 0, 1, 1),
        (0, 0, 1, 1, 1),
    )


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_bipartite(p: int, q: int) -> Graph:
    return Graph.from_edges(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def bridged_chain(blocks) -> Graph:
    """The graphs ``blocks`` in a row, the last vertex of each joined to the
    first of the next by a single bridge edge.

    With every block of even order a bridge lies in no perfect matching,
    so per is the product of the blocks' permanents.
    """
    edges = []
    base = 0
    for g in blocks:
        if base:
            edges.append((base - 1, base))
        edges.extend((base + u, base + v) for u, v in g.edges)
        base += g.n
    return Graph.from_edges(base, edges)


def bridged_c8_chain(blocks: int) -> Graph:
    """8-cycles in a row, consecutive ones joined by a single bridge edge:
    per = 4^blocks."""
    return bridged_chain([cycle_graph(8)] * blocks)


def naphthalene() -> Graph:
    """Two hexagons sharing an edge: pm 3, and no 4k-cycle."""
    hexagon = [(i, (i + 1) % 6) for i in range(6)]
    return Graph.from_edges(10, hexagon + [(5, 6), (6, 7), (7, 8), (8, 9), (9, 0)])


def grid_graph(rows: int, cols: int) -> Graph:
    """The rows x cols grid; cell (i, j) is vertex i * cols + j."""
    edges = [(i * cols + j, i * cols + j + 1) for i in range(rows) for j in range(cols - 1)]
    edges += [(i * cols + j, (i + 1) * cols + j) for i in range(rows - 1) for j in range(cols)]
    return Graph.from_edges(rows * cols, edges)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in g.neighbors[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == g.n


def relabel(g: Graph, perm) -> Graph:
    """Rebuild g with vertex i renamed perm[i] (0-indexed permutation)."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def _col_perm_tables(q: int):
    """For each permutation of q columns, a lookup from row mask to
    permuted row mask."""
    tables = []
    for perm in permutations(range(q)):
        table = [0] * (1 << q)
        for mask in range(1 << q):
            out = 0
            for newpos, oldpos in enumerate(perm):
                if mask >> oldpos & 1:
                    out |= 1 << newpos
            table[mask] = out
        tables.append(table)
    return tables


def _canon(rows, tables):
    """Minimal sorted row-mask tuple over all column permutations."""
    best = None
    for table in tables:
        cand = tuple(sorted(table[r] for r in rows))
        if best is None or cand < best:
            best = cand
    return best


def _graph_from_row_masks(p: int, q: int, rows) -> Graph:
    edges = []
    for i, mask in enumerate(rows):
        for j in range(q):
            if mask >> j & 1:
                edges.append((i, p + j))
    return Graph.from_edges(p + q, edges)


@lru_cache(maxsize=None)
def connected_bipartite(n: int) -> tuple:
    """All connected bipartite graphs on n vertices, one per isomorphism
    class.  The unique bipartition of a connected bipartite graph makes
    biadjacency canonicalization (sorted row masks, minimized over column
    permutations, sides swapped when equal) a complete invariant.
    """
    if n == 1:
        return (Graph.from_edges(1, []),)
    out = []
    for p in range(1, n // 2 + 1):
        q = n - p
        tables_q = _col_perm_tables(q)
        tables_p = _col_perm_tables(p) if p == q else None
        seen = set()
        full = (1 << q) - 1
        for rows in combinations_with_replacement(range(1, 1 << q), p):
            union = 0
            for r in rows:
                union |= r
            if union != full:
                continue
            g = _graph_from_row_masks(p, q, rows)
            if not is_connected(g):
                continue
            key = _canon(rows, tables_q)
            if p == q:
                cols = tuple(
                    sum(((rows[i] >> j) & 1) << i for i in range(p))
                    for j in range(q)
                )
                key = min(key, _canon(tuple(sorted(cols)), tables_p))
            if key in seen:
                continue
            seen.add(key)
            out.append(g)
    return tuple(out)


@lru_cache(maxsize=None)
def connected_bipartite_upto(nmax: int = 8) -> tuple:
    graphs = []
    for n in range(1, nmax + 1):
        graphs.extend(connected_bipartite(n))
    return tuple(graphs)


def random_bipartite(n: int, prob: float, rng: random.Random) -> Graph:
    p = rng.randint(1, n - 1)
    q = n - p
    edges = [(i, p + j) for i in range(p) for j in range(q) if rng.random() < prob]
    return Graph.from_edges(n, edges)


@lru_cache(maxsize=None)
def random_corpus(count: int = 500, seed: int = 20250818) -> tuple:
    """Random bipartite graphs, 9 to 12 vertices, edge probability
    alternating between 0.3 and 0.5."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(9, 12)
        prob = 0.3 if len(out) % 2 == 0 else 0.5
        out.append(random_bipartite(n, prob, rng))
    return tuple(out)


def random_cubic_bipartite(k: int, rng: random.Random) -> Graph:
    """A connected 3-regular bipartite graph on k + k vertices (left side
    0..k-1): three random perfect matchings with no edge in common."""
    while True:
        edges = set()
        for _ in range(3):
            perm = list(range(k))
            rng.shuffle(perm)
            edges.update((i, k + j) for i, j in enumerate(perm))
        g = Graph.from_edges(2 * k, sorted(edges))
        if len(edges) == 3 * k and is_connected(g):
            return g


def biadjacency_of(g: Graph, left) -> tuple:
    """The biadjacency matrix of g, rows the vertices ``left`` and
    columns the others, both in index order."""
    rows = sorted(left)
    side = set(rows)
    cols = [v for v in range(g.n) if v not in side]
    return tuple(tuple(int(j in g.neighbors[i]) for j in cols) for i in rows)


def alternating_cycles(g: Graph, mate: list) -> list:
    """The cycles of g whose edges alternate between the perfect matching
    ``mate`` (``mate[v]`` is v's partner) and the other edges."""
    out = []
    for cycle in enumerate_cycles(g):
        v = cycle.vertices
        k = len(v)
        if any(all(mate[v[i]] == v[(i + 1) % k] for i in range(first, k, 2)) for first in (0, 1)):
            out.append(cycle)
    return out


def is_bad(cycle, negative: dict) -> bool:
    """Whether a cycle of length 2l is bad under the signing ``negative``
    (vertex -> bitmask of its neighbours across a negative edge): l + 1
    plus its number of negative edges is odd."""
    v = cycle.vertices
    minus = sum(negative.get(v[i - 1], 0) >> v[i] & 1 for i in range(len(v)))
    return (len(v) // 2 + 1 + minus) % 2 == 1


def random_tree(n: int, rng: random.Random) -> Graph:
    # Attach each new vertex to a uniformly random earlier one.
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n)])


def tree_with_c6(n: int, rng: random.Random) -> Graph:
    """A 6-cycle with a random tree grown off it; its only cycle is the C6."""
    if n < 6:
        raise ValueError("need at least 6 vertices")
    edges = [(i, (i + 1) % 6) for i in range(6)]
    edges.extend((rng.randrange(v), v) for v in range(6, n))
    return Graph.from_edges(n, edges)


@lru_cache(maxsize=None)
def four_k_free_corpus(count: int = 200, seed: int = 424242) -> tuple:
    """Bipartite graphs with no 4k-cycle, all on an even number of
    vertices: random trees, plain (4k+2)-cycles, and trees grown from a
    6-cycle."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        kind = len(out) % 3
        if kind == 0:
            out.append(random_tree(rng.randrange(2, 13, 2), rng))
        elif kind == 1:
            out.append(cycle_graph(rng.choice((6, 10, 14))))
        else:
            out.append(tree_with_c6(rng.randrange(6, 15, 2), rng))
    return tuple(out)
