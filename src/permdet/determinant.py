"""Exact integer determinants via fraction-free (Bareiss) elimination.

All arithmetic is over Python's arbitrary-precision integers; there is
no rounding anywhere.

``det_after_removal`` gives det(G \\ S), the principal submatrix of A(G)
on the kept vertices, by Bareiss on the full kept submatrix, with no
memo: ``oracles.permanent_theorem1`` evaluates it once per distinct
cover.  It is the reference: the oracles, the demos and the tests use
it.

The engine calls ``signed_block_det``, the block evaluator under an edge
signing, with no memo.  With the vertices ordered left side first, a
bipartite A(G) is [[0, B], [B^T, 0]], and so is every principal
submatrix, so det(G \\ S) is 0 when the kept sides L' and R' differ in
size and (-1)^|L'| det(B[L', R'])^2 otherwise.  The engine needs only
det(B_s[L', R']), with entry -1 on the negative edges, and only where
it holds a perfect matching of the kept vertices: the rows are L' and
the columns the rows' mates, read from the neighbour lists, which
multiplies the determinant by the matching's sign as a permutation (the
engine's sigma_T).  The left side is passed as a bitmask, the ``mask``
of what ``graphs.bipartition`` returns.
"""

from __future__ import annotations

from .graphs import Graph, VertexSet, adjacency_after_removal, mask_indices


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
            if factor == 0 and pivot == prev:
                # The update would divide row i by prev after scaling it
                # by pivot: no change.  Sparse blocks skip most rows.
                continue
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


def det_after_removal(g: Graph, removed: VertexSet) -> int:
    """det of the principal submatrix of A(g) on the vertices not in
    ``removed``, by one elimination of the full kept submatrix."""
    return determinant(adjacency_after_removal(g, removed))


def signed_block_det(g: Graph, left: int, kept: int, negative: dict, mate: list) -> int:
    """sigma * det(B_s[L', R']) on the vertices of the bitmask ``kept``.

    B_s is the biadjacency block of ``g`` (rows the vertices of the
    bitmask ``left``, one side of a 2-colouring, and columns the other
    side) with entry -1 on the edge from left u to right w when bit w of
    ``negative.get(u, 0)`` is set, and +1 on every other edge.  ``mate``
    is a perfect matching of the kept vertices: the rows are the kept
    left vertices in increasing order, and column k is the mate of row k.
    That determinant is sigma * det in vertex order, sigma the sign of
    ``mate`` as a permutation.  Only the kept vertices are walked.
    """
    rows = mask_indices(kept & left)
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
