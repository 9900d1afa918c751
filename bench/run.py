"""Benchmark of the permdet pipeline: one workload per process.

Usage, from the repository root:

    python3 bench/run.py --workload chain_c8 --seed 1 --seconds 30 --trace 0

One solve is input text -> ``parse_edge_list`` -> ``permanent_auto``, or
``parse_biadjacency`` -> ``count_perfect_matchings``, through the public
API of the ``permdet`` package in ``src/``.  A round solves every input of
the workload once, under a labelling drawn from the seed; rounds repeat
until ``--seconds`` have passed.  Every answer is compared, outside the
timed region, with the workload's reference (see ``workloads.py``).

``--trace 0`` measures end to end: solves per second, the median solve
(and its 90th percentile when a run has at least 100 solves), this
process's peak RSS and the median time of ``import permdet`` in fresh
interpreters.  Times are reported in reference seconds: wall seconds
scaled by a speed probe run next to them (``calibrate.py``), because the
host's speed drifts between two states far apart; the wall-clock figures
are printed and saved as well.

``--trace 1`` reports per-layer numbers (wall seconds per solve, and work
counters per round): it solves each input with the engine, then replays
the engine's stages through their public functions with a span around
each call (``replay.py``), alternating rounds with and without span
recording to measure what tracing costs.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full report, and in the traced run every span, go to ``.bench_out/``.
The exit code is 0 only when every answer (and every replay) is correct.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
IMPORT_SAMPLES = 15
P90_MIN_SOLVES = 100
PROBE_EVERY_S = 0.1

# Per-layer metrics: (name, unit, which end-to-end metric and workload it should move).
LAYER_METRICS = (
    ("graphs.parse_s", "s", "solve_s.p50 on mixed_batch"),
    ("graphs.bipartition_s", "s", "solve_s.p50 on mixed_batch"),
    ("graphs.submatrix_s", "s", "graphs_per_s on chain_c8"),
    ("cycles.enumerate_s", "s", "graphs_per_s on mixed_batch and grid_4xk"),
    ("cycles.cycles", "count", "graphs_per_s on mixed_batch and grid_4xk"),
    ("cycles.cycles_4k", "count", "graphs_per_s on mixed_batch and grid_4xk"),
    ("cycles.families_s", "s", "graphs_per_s and peak_rss_mib on grid_4xk"),
    ("cycles.families", "count", "graphs_per_s and peak_rss_mib on grid_4xk"),
    ("cycles.family_max", "count", "graphs_per_s and peak_rss_mib on grid_4xk"),
    ("cycles.masks", "count", "graphs_per_s on grid_4xk"),
    ("determinant.bareiss_s", "s", "graphs_per_s on chain_c8"),
    ("determinant.calls", "count", "graphs_per_s on chain_c8"),
    ("determinant.max_order", "count", "graphs_per_s on chain_c8"),
    ("determinant.ops_computed", "ops", "graphs_per_s on chain_c8"),
    ("determinant.lookups", "count", "graphs_per_s on grid_4xk"),
    ("determinant.cache_hits", "count", "graphs_per_s on grid_4xk"),
    ("determinant.hit_ratio", "ratio", "graphs_per_s on grid_4xk"),
    ("engine.solve_s", "s", "graphs_per_s on grid_4xk"),
    ("engine.overhead_s", "s", "graphs_per_s on grid_4xk"),
    ("engine.path.odd_shortcut", "count", "solve_s.p50 on mixed_batch"),
    ("engine.path.corollary_fast_path", "count", "solve_s.p50 on mixed_batch"),
    ("engine.path.theorem1_expansion", "count", "solve_s.p50 on mixed_batch"),
    ("trace.overhead_frac", "ratio", "none: cost of span recording in the traced run"),
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _environment(args, inputs) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "inputs": len(inputs),
        "sizes": sorted({inp.n for inp in inputs}),
    }


def _import_seconds() -> float:
    """Median time of ``import permdet`` in fresh interpreters, in reference seconds.

    Each interpreter times the import, then runs the speed probe, which
    scales its time (see ``calibrate.py``).  Byte-code goes to a cache
    under ``.bench_out`` and one untimed import fills it first, so every
    timed import reads compiled modules, as an installed package would.
    """
    code = (
        "import sys, time\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "t = time.perf_counter()\n"
        "import permdet\n"
        "t = time.perf_counter() - t\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import calibrate\n"
        "print(repr(t), repr(calibrate.probe()), permdet.__file__)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    samples = []
    for i in range(IMPORT_SAMPLES + 1):
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        seconds, probe_s, path = done.stdout.split(maxsplit=2)
        if not path.startswith(str(SRC)):
            raise RuntimeError(f"fresh interpreter imported permdet from {path.strip()}")
        if i:
            samples.append(float(seconds) * calibrate.REFERENCE_PROBE_S / float(probe_s))
    return statistics.median(samples)


def _entry_points(api, rp) -> dict:
    """Per input kind: (parser, engine entry point returning the value, replay)."""
    return {
        "edge_list": (api.parse_edge_list, lambda g: api.permanent_auto(g).value, rp.replay_graph),
        "biadjacency": (api.parse_biadjacency, api.count_perfect_matchings, rp.replay_biadjacency),
    }


class Checker:
    """Counts attempted solves, failed solves and broken replay invariants."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def check(self, inst, value, replayed=None) -> None:
        """A solve fails when the engine, or in the traced run the replay,
        raised or disagrees with the reference answer."""
        self.attempted += 1
        problems = [
            f"{what} gave {v!r}"
            for what, v in (("engine", value), ("replay", replayed))
            if v is not None and v != inst.expected
        ]
        if problems:
            self.failed += 1
            self.failures.append(f"{inst.label}: {', '.join(problems)}; expected {inst.expected}")


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # a failing solve is counted and the run goes on
        return exc


class Rounds:
    """Each round solves every input once, under a labelling of its own."""

    def __init__(self, inputs, seed: int):
        self.inputs = inputs
        self.rng = random.Random(seed)

    def next(self) -> list:
        return [inp.instance(self.rng) for inp in self.inputs]


def run_untraced(rounds, seconds, entry, checker) -> tuple:
    def solve(inst):
        parse, engine, _ = entry[inst.kind]
        return engine(parse(inst.text))

    warm = rounds.next()[0]  # one untimed solve, so lazy set-up is not timed
    checker.check(warm, _call(solve, warm))
    raw = []
    speed = calibrate.SpeedScale(PROBE_EVERY_S)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        for inst in rounds.next():
            t0 = time.perf_counter()
            value = _call(solve, inst)
            raw.append(time.perf_counter() - t0)
            checker.check(inst, value)
            speed.mark(len(raw))
    speed.mark(len(raw), force=True)
    scaled = speed.scale(raw)
    metrics = {
        "graphs_per_s": (len(scaled) / sum(scaled), "1/s"),
        "solve_s.p50": (statistics.median(scaled), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (_import_seconds(), "s"),
    }
    extra = {
        "solves": len(raw),
        "rounds": len(raw) // len(rounds.inputs),
        "wall.graphs_per_s": len(raw) / sum(raw),
        "wall.solve_s.p50": statistics.median(raw),
        "probe_s.p50": statistics.median(p for _, p in speed.marks),
    }
    if len(raw) >= P90_MIN_SOLVES:
        extra["solve_s.p90"] = statistics.quantiles(scaled, n=10)[-1]
    return metrics, extra


def _traced_round(batch, entry, rp, tracer, checker, first_id) -> tuple:
    """Engine solve plus replay of every input.

    Returns the round's wall seconds scaled by the speed probe, its
    counters, and the span durations in reference seconds.  Probes are
    taken between the engine and the replay of a solve, so that each is
    scaled by the host's speed while it ran.
    """
    counters = rp.Counters()
    speed = calibrate.SpeedScale(PROBE_EVERY_S)
    first_span = len(tracer.spans)
    t_round = time.perf_counter()
    for i, inst in enumerate(batch):
        parse, engine, replay = entry[inst.kind]
        tracer.solve_id = first_id + i
        with tracer.span("solve"):
            with tracer.span("graphs.parse"):
                parsed = _call(parse, inst.text)
            if isinstance(parsed, Exception):
                value = replayed = parsed
            else:
                with tracer.span("engine.solve"):
                    value = _call(engine, parsed)
                speed.mark(len(tracer.spans) - first_span)
                with tracer.span("replay"):
                    replayed = _call(replay, parsed, tracer, counters)
            speed.mark(len(tracer.spans) - first_span)
        checker.check(inst, value, replayed)
    wall = time.perf_counter() - t_round
    speed.mark(len(tracer.spans) - first_span, force=True)
    durations = [t1 - t0 for _, t0, t1, _, _ in tracer.spans[first_span:]]
    scaled_wall = wall * calibrate.REFERENCE_PROBE_S / statistics.median(p for _, p in speed.marks)
    return scaled_wall, counters, speed.scale(durations)


def run_traced(rounds, seconds, entry, rp, checker) -> tuple:
    """Alternate untraced and traced rounds on the same labelling.

    Per-layer times are reference seconds per solve, from the traced
    rounds.  Counters are graph invariants and each round has a labelling
    of its own, so every round must report exactly the same counters.
    """
    tracer = rp.Tracer()
    warm = rounds.next()[:1]
    _traced_round(warm, entry, rp, rp.NULL_TRACER, checker, -1)
    walls = {False: [], True: []}
    counters = []
    scaled_spans = []
    solves = 0
    start = time.perf_counter()
    while not walls[True] or time.perf_counter() - start < seconds:
        batch = rounds.next()
        # Alternate which round of the pair goes first, so order effects cancel.
        for traced in (False, True) if len(walls[True]) % 2 == 0 else (True, False):
            wall, c, durations = _traced_round(
                batch, entry, rp, tracer if traced else rp.NULL_TRACER, checker, solves
            )
            walls[traced].append(wall)
            counters.append(c)
            scaled_spans.extend(durations)
        solves += len(batch)
    c = counters[0]
    differ = [other for other in counters if other != c]
    if differ:
        checker.failures.append(f"replay counters differ between labellings: {c} vs {differ[0]}")

    totals = {}
    for (name, *_), scaled in zip(tracer.spans, scaled_spans):
        totals[name] = totals.get(name, 0.0) + scaled
    per_solve = {name: total / solves for name, total in totals.items()}
    stage_s = sum(per_solve.get(name, 0.0) for name in rp.ENGINE_STAGES)
    metrics = {
        "graphs.parse_s": per_solve["graphs.parse"] + per_solve.get("graphs.from_biadjacency", 0.0),
        "graphs.bipartition_s": per_solve["graphs.bipartition"],
        "graphs.submatrix_s": per_solve.get("graphs.submatrix", 0.0),
        "cycles.enumerate_s": per_solve.get("cycles.enumerate", 0.0),
        "cycles.cycles": c.cycles,
        "cycles.cycles_4k": c.cycles_4k,
        "cycles.families_s": per_solve.get("cycles.families", 0.0),
        "cycles.families": c.families,
        "cycles.family_max": c.family_max,
        "cycles.masks": c.masks,
        "determinant.bareiss_s": per_solve.get("determinant.bareiss", 0.0),
        "determinant.calls": c.det_calls,
        "determinant.max_order": c.det_max_order,
        "determinant.ops_computed": c.det_cube_sum / 3,
        "determinant.lookups": c.lookups,
        "determinant.cache_hits": c.cache_hits,
        "determinant.hit_ratio": c.cache_hits / c.lookups if c.lookups else 0.0,
        "engine.solve_s": per_solve["engine.solve"],
        "engine.overhead_s": per_solve["engine.solve"] - stage_s,
        **{f"engine.path.{p}": c.paths[p] for p in rp.PATHS},
        "trace.overhead_frac": statistics.median(walls[True]) / statistics.median(walls[False]) - 1,
    }
    units = {name: unit for name, unit, _ in LAYER_METRICS}
    extra = {
        "solves": solves,
        "rounds": len(walls[True]),
        "untraced_round_s": statistics.median(walls[False]),
        "traced_round_s": statistics.median(walls[True]),
        "counters": dataclasses.asdict(c),
    }
    return {name: (value, units[name]) for name, value in metrics.items()}, extra, tracer.spans


def _write_outputs(stem, report, spans) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if spans is not None:
        with open(OUT / f"{stem}.spans.jsonl", "w") as fh:
            for name, start, end, parent, sid in spans:
                fh.write(f'["{name}",{start!r},{end!r},{parent},{sid}]\n')


def main(argv=None) -> int:
    args = _parse_args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import permdet as api
    except ImportError as exc:
        print(f"error: cannot import permdet from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not api.__file__.startswith(str(SRC)):
        print(f"error: permdet imported from {api.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import replay as rp
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    inputs = WORKLOADS[args.workload]()
    rounds = Rounds(inputs, args.seed)
    entry = _entry_points(api, rp)
    env = _environment(args, inputs)
    checker = Checker()
    spans = None
    if args.trace:
        metrics, extra, spans = run_traced(rounds, args.seconds, entry, rp, checker)
    else:
        metrics, extra = run_untraced(rounds, args.seconds, entry, checker)
    failed = checker.failed
    correct = not checker.failures

    print(f"permdet benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for key in ("python", "nproc", "cpu", "platform", "run_seconds"):
        print(f"  {key}: {env[key]}")
    print(f"  inputs: {env['inputs']} graphs per round, n in {env['sizes']}")
    print(f"  solves: {extra['solves']} measured in {extra['rounds']} rounds")
    print(f"  attempted {checker.attempted}, failed {failed}, failed_frac {failed / checker.attempted:.6g}")
    for line in checker.failures[:10]:
        print(f"  FAILED {line}")
    moves = {name: target for name, _, target in LAYER_METRICS}
    for name, (value, unit) in metrics.items():
        note = f"  -> {moves[name]}" if name in moves else ""
        print(f"{name:34s} {value:.6g} {unit}{note}")
    if not args.trace and "solve_s.p90" not in extra:
        print(f"{'solve_s.p90':34s} omitted: {extra['solves']} solves < {P90_MIN_SOLVES}")
    for key, value in extra.items():
        if isinstance(value, float):
            print(f"{key:34s} {value:.6g}")

    report = {
        "environment": env,
        "correct": correct,
        "attempted": checker.attempted,
        "failed": failed,
        "failed_frac": failed / checker.attempted,
        "failures": checker.failures,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        **extra,
    }
    _write_outputs(f"{args.workload}-seed{args.seed}-trace{args.trace}", report, spans)
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
