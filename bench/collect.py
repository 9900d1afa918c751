"""Run the benchmark over several seeds and write a summary file.

Usage, from the repository root:

    python3 bench/collect.py --label seed --seeds 1-10

For every workload in ``BENCHMARK.json`` this makes one untraced run per
seed and reports each end-to-end metric's median, quartiles and spread
(interquartile range over median), then one traced run on each of the
first two seeds for the per-layer metrics.  Work counters must repeat
exactly between the two traced runs; the script exits nonzero if any
run fails or any counter differs.  The summary is written to
``bench/results/BENCH_<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def _seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct"):
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed (exit {done.returncode})")
    return {name: m["value"] for name, m in result["metrics"].items()}


def _summary(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args()
    seeds = _seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"label": args.label, "seeds": seeds, "run_seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = [_run(workload, seed, args.seconds, 0) for seed in seeds]
        end_to_end = {name: _summary([r[name] for r in runs]) for name in runs[0]}
        traced = [_run(workload, seed, args.seconds, 1) for seed in seeds[:2]]
        counters = {name: v for name, v in traced[0].items() if not name.endswith(("_s", "_frac"))}
        repeat = all(t[name] == v for t in traced[1:] for name, v in counters.items())
        ok &= repeat
        summary["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": traced[0],
            "counters_repeat": repeat,
        }
        for name, s in end_to_end.items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (spread above a third of the bound)"
            print(f"{workload:12s} {name:14s} median {s['median']:.6g} spread {s['spread']:.4f}{flag}")
        print(f"{workload:12s} counters repeat exactly across seeds {seeds[:2]}: {repeat}", flush=True)

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
