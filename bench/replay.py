"""Per-layer replay of the engine, traced from outside the library.

``replay_graph`` calls each module's public function in the order the engine
calls them (bipartition, cycle enumeration, 4k filter, family
enumeration, then one submatrix and one Bareiss determinant per distinct
removal mask) and rebuilds the signed sum from those outputs, so the
caller can check it against the engine's own value.  Spans go to a
``Tracer`` (or to ``NULL_TRACER``, which records nothing, to measure what
tracing costs); work counters go to a ``Counters``.

Limitation: spans time public functions from outside.  When the engine
stops calling one of them, the replay no longer mirrors it, and
``engine.overhead_s`` (engine time minus replayed stage time) turns
negative; that is the signal to move tracing inside the engine.  The
value is a difference of two large times, so on ``chain_c8``, where the
engine adds almost nothing to its stages, it reads as noise around zero
(a few percent of a solve either way on a host whose speed drifts).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from permdet import (
    adjacency_after_removal,
    bipartition,
    determinant,
    enumerate_cycles,
    enumerate_disjoint_families,
    four_k_cycles,
    graph_from_biadjacency,
)

PATHS = ("odd_shortcut", "corollary_fast_path", "theorem1_expansion")

# Span names of the stages the engine itself runs; the engine's span minus
# their sum is engine.overhead_s.
ENGINE_STAGES = (
    "graphs.from_biadjacency",
    "graphs.bipartition",
    "cycles.enumerate",
    "cycles.families",
    "graphs.submatrix",
    "determinant.bareiss",
)


class _Span:
    __slots__ = ("tracer", "name", "start", "parent")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tracer = self.tracer
        self.parent = tracer.stack[-1] if tracer.stack else -1
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(None)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        idx = tracer.stack.pop()
        tracer.spans[idx] = (self.name, self.start, end, self.parent, tracer.solve_id)
        return False


class Tracer:
    """In-memory spans: (name, start, end, parent index or -1, solve id)."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.solve_id = -1

    def span(self, name: str) -> _Span:
        return _Span(self, name)


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    solve_id = -1
    spans = ()
    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


NULL_TRACER = _NullTracer()


@dataclass
class Counters:
    """Work done by the replayed stages, summed over solves."""

    cycles: int = 0
    cycles_4k: int = 0
    families: int = 0
    family_max: int = 0
    masks: int = 0
    det_calls: int = 0
    det_max_order: int = 0
    det_cube_sum: int = 0  # sum of k^3 over Bareiss orders k
    lookups: int = 0
    cache_hits: int = 0
    paths: dict = field(default_factory=lambda: dict.fromkeys(PATHS, 0))

    def record_det(self, order: int) -> None:
        self.det_calls += 1
        self.det_max_order = max(self.det_max_order, order)
        self.det_cube_sum += order**3


def replay_graph(g, tracer, counters: Counters) -> int:
    """per(A(g)) rebuilt from the engine's stages, each in its own span."""
    with tracer.span("graphs.bipartition"):
        bipartition(g)
    if g.n % 2:
        counters.paths["odd_shortcut"] += 1
        return 0
    with tracer.span("cycles.enumerate"):
        cycles = enumerate_cycles(g)
        c4k = four_k_cycles(cycles)
    counters.cycles += len(cycles)
    counters.cycles_4k += len(c4k)
    if not c4k:
        counters.paths["corollary_fast_path"] += 1
        with tracer.span("determinant.bareiss"):
            total = determinant(g.adj)
        counters.record_det(g.n)
    else:
        counters.paths["theorem1_expansion"] += 1
        with tracer.span("cycles.families"):
            families = enumerate_disjoint_families(c4k)
        counters.families += len(families)
        dets = {}
        total = 0
        for fam in families:
            mask = fam.covered.mask
            counters.family_max = max(counters.family_max, fam.size)
            d = dets.get(mask)
            if d is None:
                with tracer.span("graphs.submatrix"):
                    sub = adjacency_after_removal(g, fam.covered)
                with tracer.span("determinant.bareiss"):
                    d = determinant(sub)
                dets[mask] = d
                counters.record_det(len(sub))
            else:
                counters.cache_hits += 1
            total += 4**fam.size * d
        counters.lookups += len(families)
        counters.masks += len(dets)
    return -total if (g.n // 2) & 1 else total


def replay_biadjacency(b, tracer, counters: Counters) -> int:
    """per(b) via per(A(G_b)) = per(b)^2, as count_perfect_matchings does."""
    with tracer.span("graphs.from_biadjacency"):
        g = graph_from_biadjacency(b)
    square = replay_graph(g, tracer, counters)
    root = math.isqrt(square)
    if root * root != square:
        raise ArithmeticError(f"replayed permanent {square} of the doubled graph is not a square")
    return root
