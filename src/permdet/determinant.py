"""Exact integer determinants via fraction-free (Bareiss) elimination.

All arithmetic is over Python's arbitrary-precision integers; there is
no rounding anywhere.

``det_after_removal`` gives det(G \\ S), the principal submatrix of A(G)
on the kept vertices, by Bareiss on the full kept submatrix, memoized in
a ``DetCache`` keyed by the removed vertex bitmask.  It is the
reference: the ``det`` command, the oracles and the tests use it.

The engine calls ``signed_block_det``, the block evaluator under an edge
signing, with no memo.  With the vertices ordered left side first, a
bipartite A(G) is [[0, B], [B^T, 0]], and so is every principal
submatrix; the engine
needs only det(B_s[L', R']) on the kept left vertices L' and right
vertices R', with entry -1 on the negative edges, its rows read from the
neighbour lists.  The all-plus signing gives det(B[L', R']), and
det(G \\ S) is 0 when |L'| != |R'| and (-1)^|L'| det(B[L', R'])^2
otherwise.  Given a perfect matching of the kept vertices, the block's
columns follow the rows' mates, which multiplies the determinant by the
matching's sign as a permutation (the engine's sigma_T).
"""

from __future__ import annotations

from .graphs import Bipartition, Graph, VertexSet, adjacency_after_removal, mask_indices


def _bareiss(a: list) -> int:
    """Determinant of the square list-of-lists ``a``, which it overwrites."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def determinant(matrix) -> int:
    """Exact determinant of a square integer matrix.

    Uses Bareiss' fraction-free elimination: every intermediate value is
    an integer and every division is exact.  Row swaps track the sign;
    a column with no pivot short-circuits to 0.  The 0 x 0 matrix has
    determinant 1 (empty product).
    """
    a = [list(row) for row in matrix]
    n = len(a)
    for row in a:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return _bareiss(a)


class DetCache:
    """Memo of ``det_after_removal`` keyed by the removed vertex bitmask.

    Hit and miss counters feed the benchmark report.
    """

    __slots__ = ("_values", "hits", "misses")

    def __init__(self):
        self._values = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: int):
        return self._values.get(key)

    def put(self, key: int, value: int):
        self._values[key] = value

    def __len__(self):
        return len(self._values)


def _memoized(cache: DetCache | None, key: int, compute) -> int:
    if cache is None:
        return compute()
    value = cache.get(key)
    if value is not None:
        cache.hits += 1
        return value
    cache.misses += 1
    value = compute()
    cache.put(key, value)
    return value


def det_after_removal(g: Graph, removed: VertexSet, cache: DetCache | None = None) -> int:
    """det of the principal submatrix of A(g) on the kept vertices."""
    return _memoized(
        cache, removed.mask, lambda: determinant(adjacency_after_removal(g, removed))
    )


def signed_block_det(
    g: Graph, parts: Bipartition, kept: int, negative: dict, mate: list | None = None
) -> int:
    """det(B_s[L', R']) on the vertices of the bitmask ``kept``.

    B_s is the biadjacency block of ``g`` (rows the left side of the
    2-colouring ``parts``, columns the right side) with entry -1 on the
    edge from left u to right w when bit w of ``negative.get(u, 0)`` is
    set, and +1 on every other edge.  Rows and columns are in increasing
    vertex order, and the result is 0 without elimination when the kept
    sides differ in size.  Given a perfect matching ``mate`` of the kept
    vertices, column k is instead the mate of row k: that determinant is
    sigma * det in vertex order, sigma the sign of ``mate`` as a
    permutation.  Only the kept vertices are walked.
    """
    rows = mask_indices(kept & parts.left.mask)
    if mate is None:
        cols = mask_indices(kept & parts.right.mask)
        if len(rows) != len(cols):
            return 0
    else:
        cols = [mate[i] for i in rows]
    position = {j: k for k, j in enumerate(cols)}
    block = []
    for i in rows:
        row = [0] * len(cols)
        minus = negative.get(i, 0)
        for j in g.neighbors[i]:
            k = position.get(j)
            if k is not None:
                row[k] = -1 if minus >> j & 1 else 1
        block.append(row)
    return _bareiss(block)
