"""Seeded benchmark inputs and their reference answers.

Every generator builds its graphs from explicit sides, so the reference
answer comes from the generator's own biadjacency B and never from the
engine's bipartition:

* per(A(G)) = pm(G)^2 = per(B)^2 when both sides have the same size;
* per(A(G)) = 0 when they do not (this covers every odd n);
* count_perfect_matchings(B) = per(B).

per(B) is Ryser's formula from ``permdet.oracles``, which shares no code
with the engine.  Graph structures are fixed; a random stream seeded by
the benchmark's seed picks each round's vertex labelling, edge order and,
for biadjacency text, row and column order, so one seed always gives the
same input texts.  The engine's cost depends on the labelling (a random
one makes the chains about 3x slower than the drawing order), so every
round is relabelled and a run averages over many labellings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from permdet.oracles import per_ryser


@dataclass(frozen=True)
class Instance:
    """One solve: input text, which entry point reads it, and its answer."""

    label: str
    kind: str  # "edge_list" -> permanent_auto, "biadjacency" -> count_perfect_matchings
    text: str
    expected: int
    n: int


@dataclass(frozen=True)
class Input:
    """A graph with its reference answer, before it is labelled.

    ``data`` holds the edges of a graph on ``n`` vertices for
    ``edge_list``, and the rows of the 0/1 matrix for ``biadjacency``.
    """

    label: str
    kind: str
    n: int
    data: tuple
    expected: int

    def instance(self, rng: random.Random) -> Instance:
        """Text of this input under a random labelling drawn from ``rng``."""
        if self.kind == "biadjacency":
            text = _biadjacency_text(self.data, rng)
        else:
            text = _edge_list_text(self.n, self.data, rng)
        return Instance(self.label, self.kind, text, self.expected, self.n)


def _edge_list_text(n: int, edges, rng: random.Random) -> str:
    """Edge-list text under a random relabelling, edge order and orientation."""
    perm = list(range(n))
    rng.shuffle(perm)
    lines = []
    for u, v in edges:
        a, b = perm[u] + 1, perm[v] + 1
        lines.append(f"{a} {b}" if rng.random() < 0.5 else f"{b} {a}")
    rng.shuffle(lines)
    return "\n".join([f"{n} {len(lines)}", *lines]) + "\n"


def _biadjacency_text(b, rng: random.Random) -> str:
    """Biadjacency text with rows and columns in random order."""
    rows = list(b)
    rng.shuffle(rows)
    cols = list(range(len(b[0])))
    rng.shuffle(cols)
    body = [" ".join(str(r[c]) for c in cols) for r in rows]
    return "\n".join([f"{len(rows)} {len(cols)}", *body]) + "\n"


def _biadjacency(p: int, q: int, edges) -> tuple:
    """Biadjacency of a graph whose left side is 0..p-1 and right side p..p+q-1."""
    rows = [[0] * q for _ in range(p)]
    for u, v in edges:
        rows[u][v - p] = 1
    return tuple(tuple(r) for r in rows)


def _from_sides(label: str, p: int, q: int, edges) -> Input:
    """Edge-list input of a graph given with left 0..p-1, right p..p+q-1."""
    expected = per_ryser(_biadjacency(p, q, edges)) ** 2 if p == q else 0
    return Input(label, "edge_list", p + q, tuple(edges), expected)


def _bridged_c8_chain(blocks: int) -> tuple:
    """Sides and edges of a chain of 8-cycles joined by single bridges.

    Block b holds left vertices 4b..4b+3 and right vertices R+4b..R+4b+3
    (R = 4 * blocks); the bridge joins a right vertex of block b-1 to a
    left vertex of block b, so both sides keep 4 * blocks vertices.
    """
    half = 4 * blocks
    edges = []
    for b in range(blocks):
        left = [4 * b + i for i in range(4)]
        right = [half + 4 * b + i for i in range(4)]
        ring = [x for pair in zip(left, right) for x in pair]
        edges.extend((min(ring[i], ring[i - 1]), max(ring[i], ring[i - 1])) for i in range(8))
        if b:
            edges.append((4 * b, half + 4 * b - 1))
    return half, half, edges


def _grid(rows: int, cols: int) -> tuple:
    """Sides and edges of the rows x cols grid, cells of even i+j on the left."""
    cells = [(i, j) for i in range(rows) for j in range(cols)]
    left = [c for c in cells if sum(c) % 2 == 0]
    right = [c for c in cells if sum(c) % 2 == 1]
    index = {c: k for k, c in enumerate(left)}
    index.update({c: len(left) + k for k, c in enumerate(right)})
    edges = []
    for i, j in left:
        for di, dj in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            nb = (i + di, j + dj)
            if nb in index:
                edges.append((index[(i, j)], index[nb]))
    return len(left), len(right), edges


def chain_c8() -> list:
    # Bridges lie in no perfect matching, so covers factor block by block.
    return [
        Input(f"c8x{blocks}", "edge_list", 8 * blocks, tuple(_bridged_c8_chain(blocks)[2]), 4**blocks)
        for blocks in (8, 9, 10)
    ]


def grid_4xk() -> list:
    return [_from_sides(f"grid4x{k}", *_grid(4, k)) for k in (4, 5, 6)]


def _random_sides(p: int, q: int, degree: int, rng: random.Random) -> list:
    """Each of the p left vertices joins ``degree`` distinct right vertices."""
    return [(u, p + v) for u in range(p) for v in rng.sample(range(q), degree)]


def _cactus_4k_free(pieces: list, rng: random.Random) -> tuple:
    """Hexagons (6) and single edges (2) joined into a tree by bridges.

    Every cycle is one of the hexagons, so the graph has no 4k-cycle;
    every piece has a perfect matching, so the permanent is nonzero.
    Returns balanced sides and edges in the left/right layout.
    """
    color, edges = [], []
    for idx, size in enumerate(pieces):
        base = len(color)
        if idx:
            x = rng.randrange(base)
            y = base + rng.randrange(size)
            flip = color[x] ^ 1 ^ ((y - base) & 1)
            edges.append((x, y))
        else:
            flip = 0
        color.extend(((k & 1) ^ flip) for k in range(size))
        # A 2-piece is a single edge, a 6-piece a hexagon.
        edges.extend((base + k, base + (k + 1) % size) for k in range(1 if size == 2 else size))
    left = [v for v, c in enumerate(color) if c == 0]
    right = [v for v, c in enumerate(color) if c == 1]
    place = {v: k for k, v in enumerate(left)}
    place.update({v: len(left) + k for k, v in enumerate(right)})
    laid = [tuple(sorted((place[u], place[v]))) for u, v in edges]
    return len(left), len(right), laid


def _symmetric_hollow(b) -> bool:
    n = len(b)
    return all(b[i][i] == 0 for i in range(n)) and all(
        b[i][j] == b[j][i] for i in range(n) for j in range(i + 1, n)
    )


def _biadjacency_input(label: str, p: int, degree: int, gen: random.Random) -> Input:
    while True:
        b = _biadjacency(p, p, _random_sides(p, p, degree, gen))
        # count_perfect_matchings reads a symmetric hollow matrix as an
        # adjacency matrix; keep this slice on the biadjacency route.
        if not _symmetric_hollow(b):
            return Input(label, "biadjacency", 2 * p, b, per_ryser(b))


# mixed_batch draws its graphs from this fixed generator seed; the run's
# seed only relabels them, so every seed does the same work.
CORPUS_SEED = 20250311
SIDES = range(6, 11)
DEGREES = (2, 3)
# Slices of mixed_batch, each stratified over SIDES x DEGREES:
# (slice, graphs per side/degree pair).
MIXED_SLICES = (("balanced", 12), ("odd", 3), ("unbalanced", 3), ("biadjacency", 3))
CACTUS_SHAPES = ((2,) * 6, (2,) * 8, (2,) * 10, (6, 2, 2, 2), (6, 6, 2, 2), (6, 6, 6), (6, 2, 6, 2, 2), (6, 6, 6, 2))
CACTUS_COPIES = 5


def mixed_batch() -> list:
    gen = random.Random(CORPUS_SEED)
    out = []
    for slice_name, copies in MIXED_SLICES:
        for p in SIDES:
            for d in DEGREES:
                for c in range(copies):
                    label = f"{slice_name}/p{p}d{d}#{c}"
                    if slice_name == "biadjacency":
                        out.append(_biadjacency_input(label, p, d, gen))
                        continue
                    q = {"balanced": p, "odd": p + 1, "unbalanced": p + 2}[slice_name]
                    out.append(_from_sides(label, p, q, _random_sides(p, q, d, gen)))
    for shape in CACTUS_SHAPES:
        for c in range(CACTUS_COPIES):
            pieces = list(shape)
            gen.shuffle(pieces)
            out.append(_from_sides(f"free4k/{'-'.join(map(str, pieces))}#{c}", *_cactus_4k_free(pieces, gen)))
    return out


# Each workload is a fixed list of graphs; the benchmark's seed only
# chooses the labelling of every round (see Input.instance).
WORKLOADS = {"chain_c8": chain_c8, "grid_4xk": grid_4xk, "mixed_batch": mixed_batch}
