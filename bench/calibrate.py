"""Machine-speed probe for normalising wall-clock times.

Shared machines change speed under their neighbours' load: on the
2-vCPU host this benchmark was written on, the same pure-Python loop
ran at two distinct speeds, about 1.5x apart, each lasting seconds to
minutes.  A timing that falls in one state or the other then differs by
far more than any regression bound.

``probe()`` times a fixed piece of pure-Python work of the engine's kind
(fraction-free elimination on a 0/1 matrix, a backtracking path search
over bitmasks, building and sorting tuples).  It shares no code with
``permdet``, so it does not change when the library does.  A wall time
``t`` measured while the probe took ``p`` seconds is reported as
``t * REFERENCE_PROBE_S / p``: seconds on a machine whose probe takes
``REFERENCE_PROBE_S``.  ``SpeedScale`` applies that to a sequence of
measurements, probing between them at most every ``every`` seconds.
"""

from __future__ import annotations

import gc
import random
import time

# About the probe's time in the faster state of the host named above, so
# reference seconds there read close to wall seconds.
REFERENCE_PROBE_S = 0.0005

_RNG = random.Random(0x5EED)
_ORDER = 16
_MATRIX = tuple(tuple(int(_RNG.random() < 0.3) for _ in range(_ORDER)) for _ in range(_ORDER))
_NEIGHBORS = tuple(
    tuple(sorted({(v + d) % 14 for d in (1, 3, 13)} - {v})) for v in range(14)
)


def _work() -> int:
    a = [list(row) for row in _MATRIX]
    n = len(a)
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            a[k][k] = 1
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i, row_k, factor = a[i], a[k], a[i][k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    paths = 0
    stack = [(0, 1)]
    while stack:
        v, seen = stack.pop()
        paths += 1
        if seen.bit_count() < 7:
            stack.extend((w, seen | 1 << w) for w in _NEIGHBORS[v] if not seen >> w & 1)
    items = sorted((paths % (i + 7), i, (i,)) for i in range(600))
    return a[n - 1][n - 1] + paths + len(items)


def probe(repeats: int = 3) -> float:
    """Median seconds of one run of the fixed work, garbage collection off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _work()
            samples.append(time.perf_counter() - t0)
        return sorted(samples)[repeats // 2]
    finally:
        if enabled:
            gc.enable()


class SpeedScale:
    """Scales measurements taken in sequence by the probes bracketing them.

    ``mark(count)`` says that ``count`` measurements have been taken so
    far and probes if ``every`` seconds have passed since the last probe
    (or always, with ``force``).  Measurement i is then scaled by the mean
    of the last probe before it and the first probe after it.
    """

    def __init__(self, every: float):
        self.every = every
        self.marks = [(0, probe())]
        self.last = time.perf_counter()

    def mark(self, count: int, force: bool = False) -> None:
        if force or time.perf_counter() - self.last >= self.every:
            self.marks.append((count, probe()))
            self.last = time.perf_counter()

    def scale(self, values: list) -> list:
        """``values`` in reference seconds; call ``mark(len(values), force=True)`` first."""
        out = []
        for (lo, p0), (hi, p1) in zip(self.marks, self.marks[1:]):
            factor = 2 * REFERENCE_PROBE_S / (p0 + p1)
            out.extend(v * factor for v in values[lo:hi])
        return out
