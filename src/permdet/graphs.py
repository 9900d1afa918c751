"""Simple undirected graphs stored as edge and neighbour lists.

Conventions used throughout the package:

* Vertices are labeled 1..n in all input and output (matching the usual
  drawing of small graphs), but stored 0-indexed internally.  Anything
  called ``label`` is 1-indexed; anything called ``index`` is 0-indexed.
* Graphs are immutable once built, and equal when ``(n, edges)`` are.
  The dense 0/1 matrix ``Graph.adj`` is derived on first use only.
* Vertex subsets are bitmasks (`VertexSet`) so they can key caches.
* The value types (graphs, vertex sets, cycles, families and reports)
  derive from `Frozen`, which builds them from their fields, gives them
  equality, hashing and a ``repr`` over those fields and refuses
  assignment.  They are plain classes: generating those methods with a
  class decorator cost more at import than all of the package's own
  modules.
"""

from __future__ import annotations

from functools import cached_property

from .errors import NotBipartiteError, ParseError

_set = object.__setattr__


class Frozen:
    """Base of the package's immutable value types.

    ``_fields`` names the fields in order, and the one constructor takes
    one positional value per field: no keyword and no default, so a
    wrong count raises TypeError.  Equality, hashing, ``repr`` and
    pickling read those fields, and an instance equals only an instance
    of its own class.  Assigning or deleting an attribute raises
    AttributeError.  ``Graph`` alone has a constructor of its own, to
    derive an attribute that is left out of ``_fields``.
    """

    __slots__ = ()
    _fields = ()

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(
                f"{self.__class__.__qualname__}() takes {len(fields)} arguments"
                f" {fields}, got {len(values)}"
            )
        for name, value in zip(fields, values):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._key()


class VertexSet(Frozen):
    """An immutable subset of {0..n-1} stored as a bitmask."""

    __slots__ = _fields = ("mask",)

    def indices(self) -> tuple:
        return tuple(mask_indices(self.mask))

    def labels(self) -> tuple:
        """Sorted 1-indexed labels of the members."""
        return tuple(i + 1 for i in self.indices())

    def __contains__(self, index: int) -> bool:
        return index >= 0 and self.mask >> index & 1 == 1


def mask_indices(mask: int) -> list:
    """The set bits of ``mask`` in increasing order, found one lowest bit
    at a time, so the cost follows the members, not the highest index.
    Raises ValueError on a negative mask, whose set bits never end."""
    if mask < 0:
        raise ValueError(f"negative vertex mask {mask}")
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph(Frozen):
    """Simple undirected graph on vertices 0..n-1.

    ``edges`` holds the 0-indexed pairs (u, v) with u < v, sorted, and
    equality and hashing are on ``(n, edges)``.  Every constructor below
    sorts them, and a direct ``Graph(n, edges)`` must pass them sorted:
    ``neighbors[i]``, the tuple of vertices adjacent to i, is read off
    ``edges`` in one pass and comes out sorted only because they are.
    ``adj``, the n x n 0/1 adjacency matrix as a tuple of tuples, is
    derived on first use and cached in the instance ``__dict__``.
    """

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: tuple):
        _set(self, "n", n)
        _set(self, "edges", edges)
        nbrs = [[] for _ in range(n)]
        # Sorted pairs with u < v list each vertex's smaller neighbours,
        # in increasing order, before its larger ones: no sort is needed.
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        # tuple() of a list is allocated at its final length, so it can
        # reuse a freed tuple.  tuple() of an iterator is grown by
        # resizing, which never does, yet it is freed onto CPython's
        # free list for its length (up to 2,000 each): one more idle
        # tuple per graph, a slow RSS climb over tens of thousands of
        # solves.
        _set(self, "neighbors", tuple([tuple(b) for b in nbrs]))

    @cached_property
    def adj(self) -> tuple:
        rows = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            rows[u][v] = rows[v][u] = 1
        return tuple(tuple(r) for r in rows)

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build from 0-indexed endpoint pairs; duplicates collapse silently."""
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u + 1}, {v + 1}) out of range 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u + 1}")
            seen.add((min(u, v), max(u, v)))
        return cls(n, tuple(sorted(seen)))

    @classmethod
    def from_edge_labels(cls, n: int, pairs) -> "Graph":
        """Build from 1-indexed endpoint pairs, the file-format convention."""
        return cls.from_edges(n, [(u - 1, v - 1) for u, v in pairs])

    @classmethod
    def from_adjacency(cls, rows) -> "Graph":
        """Build from a square symmetric hollow 0/1 matrix."""
        rows = [tuple(r) for r in rows]
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")
            for j, a in enumerate(row):
                if a not in (0, 1):
                    raise ValueError(f"entry ({i + 1}, {j + 1}) is {a}, expected 0 or 1")
                if j < i and a != rows[j][i]:
                    raise ValueError(f"matrix is asymmetric at ({i + 1}, {j + 1})")
            if row[i] != 0:
                raise ValueError(f"nonzero diagonal at vertex {i + 1}")
        edges = tuple(
            (i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]
        )
        return cls(n, edges)


def _tokenize(text: str):
    """Yield (line_no, tokens) for each nonblank line.  ``int`` reads
    ``1_0`` and non-ASCII digits, so such a token is refused; one scan
    clears most texts, and only a text that fails it has its tokens read."""
    plain = text.isascii() and "_" not in text
    for line_no, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not plain:
            for token in tokens:
                if not token.isascii() or "_" in token:
                    raise ParseError(f"non-integer token {token!r}", line_no)
        if tokens:
            yield line_no, tokens


def _parse_int(token: str, line_no: int) -> int:
    try:
        return int(token, 10)
    except ValueError:
        raise ParseError(f"non-integer token {token!r}", line_no) from None


def _header(text: str, names: str) -> tuple:
    """The two non-negative counts of the header line ``names`` (such as
    ``"n m"``) that opens ``text``, as ``(line_no, a, b, body)``, the body
    the ``(line_no, tokens)`` of the nonblank lines after it."""
    lines = list(_tokenize(text))
    if not lines:
        raise ParseError(f"empty input, expected {names!r} header")
    header_no, header = lines[0]
    if len(header) != 2:
        raise ParseError(f"malformed header {' '.join(header)!r}, expected {names!r}", header_no)
    a = _parse_int(header[0], header_no)
    b = _parse_int(header[1], header_no)
    if a < 0 or b < 0:
        raise ParseError("header counts must be nonnegative", header_no)
    return header_no, a, b, lines[1:]


def parse_edge_list(text: str) -> Graph:
    """Parse the ``"n m"`` header followed by m ``"u v"`` lines (1-indexed).

    Duplicate edges are collapsed; whitespace layout is free-form.
    """
    header_no, n, m, body = _header(text, "n m")
    if len(body) != m:
        raise ParseError(f"header declares {m} edges but {len(body)} edge lines follow", header_no)
    # Each edge is checked once and stored as (smaller, larger), so the
    # sorted set is the Graph's edge tuple as it stands.
    edges = set()
    for line_no, tokens in body:
        if len(tokens) != 2:
            raise ParseError(f"expected 'u v', got {' '.join(tokens)!r}", line_no)
        try:
            u = int(tokens[0])
            v = int(tokens[1])
        except ValueError:
            # _parse_int names the first token that is not an integer.
            for token in tokens:
                _parse_int(token, line_no)
            raise
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"vertex index out of range 1..{n} in edge ({u}, {v})", line_no)
        if u < v:
            edges.add((u - 1, v - 1))
        elif u > v:
            edges.add((v - 1, u - 1))
        else:
            raise ParseError(f"self-loop at vertex {u}", line_no)
    return Graph(n, tuple(sorted(edges)))


def parse_adjacency_matrix(text: str) -> Graph:
    """Parse n rows of n space-separated 0/1 entries into a Graph."""
    lines = list(_tokenize(text))
    if not lines:
        raise ParseError("empty input, expected adjacency rows")
    n = len(lines)
    rows = []
    for line_no, tokens in lines:
        if len(tokens) != n:
            raise ParseError(f"row has {len(tokens)} entries, expected {n} (matrix must be square)", line_no)
        rows.append(tuple([_parse_int(t, line_no) for t in tokens]))
    try:
        return Graph.from_adjacency(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def parse_biadjacency(text: str) -> tuple:
    """Parse a ``"p q"`` header then p rows of q 0/1 entries; returns the matrix.

    p and q are both positive, or both 0 (the empty matrix).
    """
    header_no, p, q, body = _header(text, "p q")
    if (p == 0) != (q == 0):
        # Blank rows are skipped, and with p = 0 no row would keep q.
        raise ParseError(
            f"header declares a {p} x {q} matrix; a side may be 0 only when both are", header_no
        )
    if len(body) != p:
        raise ParseError(f"header declares {p} rows but {len(body)} follow", header_no)
    rows = []
    for line_no, tokens in body:
        if len(tokens) != q:
            raise ParseError(f"row has {len(tokens)} entries, expected {q}", line_no)
        # From a list, so the row can reuse a freed tuple (see Graph).
        row = tuple([_parse_int(t, line_no) for t in tokens])
        for a in row:
            if a not in (0, 1):
                raise ParseError(f"entry {a} outside {{0, 1}}", line_no)
        rows.append(row)
    return tuple(rows)


def _odd_cycle_witness(parent, u, v):
    """Closed odd walk through tree edges plus the conflict edge (u, v)."""
    chain = []
    x = u
    while True:
        chain.append(x)
        if parent[x] == x:
            break
        x = parent[x]
    position = {x: i for i, x in enumerate(chain)}
    down = []
    y = v
    while y not in position:
        down.append(y)
        y = parent[y]
    cycle = chain[: position[y] + 1]
    cycle.extend(reversed(down))
    return cycle


def bipartition(g: Graph) -> VertexSet:
    """2-color ``g`` by BFS and return the left side, which holds the
    smallest vertex of each component; the right side is the rest.

    Raises NotBipartiteError with an odd-cycle witness (1-indexed labels)
    when no 2-coloring exists.
    """
    neighbors = g.neighbors
    color = [-1] * g.n
    parent = [0] * g.n
    left = 0
    for root in range(g.n):
        if color[root] >= 0:
            continue
        color[root] = 0
        parent[root] = root
        left |= 1 << root
        # The loop reads the vertices appended behind it: a FIFO queue.
        queue = [root]
        for u in queue:
            side = color[u]
            for v in neighbors[u]:
                if color[v] < 0:
                    color[v] = side ^ 1
                    parent[v] = u
                    if side:
                        left |= 1 << v
                    queue.append(v)
                elif color[v] == side:
                    witness = _odd_cycle_witness(parent, u, v)
                    raise NotBipartiteError(x + 1 for x in witness)
    return VertexSet(left)


def graph_from_biadjacency(b) -> Graph:
    """Graph on p+q vertices: left part 1..p, right part p+1..p+q."""
    rows = [tuple(r) for r in b]
    p = len(rows)
    q = len(rows[0]) if rows else 0
    edges = []
    for i, row in enumerate(rows):
        if len(row) != q:
            raise ValueError(f"ragged biadjacency: row {i + 1} has {len(row)} entries, expected {q}")
        for j, a in enumerate(row):
            if a not in (0, 1):
                raise ValueError(f"entry ({i + 1}, {j + 1}) is {a}, expected 0 or 1")
            if a:
                edges.append((i, p + j))
    # Row by row, column by column: already sorted, with no duplicate.
    return Graph(p + q, tuple(edges))


def adjacency_after_removal(g: Graph, removed: VertexSet) -> tuple:
    """Principal submatrix of ``g.adj`` on the vertices not in ``removed``.

    Kept vertices stay in increasing index order; removing everything
    yields the 0 x 0 matrix ().
    """
    if removed.mask >> g.n != 0:
        raise ValueError(f"removed set {removed.labels()} not within 1..{g.n}")
    kept = [i for i in range(g.n) if i not in removed]
    adj = g.adj
    return tuple(tuple(adj[i][j] for j in kept) for i in kept)


def induced_subgraph(g: Graph, keep: VertexSet) -> Graph:
    """Induced subgraph on ``keep``, relabeled to 1..|keep| in index order.

    Members of ``keep`` at or above ``g.n`` are ignored.  Relabelling by
    rank keeps the order of the vertices, so the kept edges, read in the
    order of ``g.edges``, are already sorted.
    """
    kept = keep.mask & ((1 << g.n) - 1)
    rank = {v: k for k, v in enumerate(mask_indices(kept))}
    edges = tuple((rank[u], rank[v]) for u, v in g.edges if kept >> u & 1 and kept >> v & 1)
    return Graph(len(rank), edges)
