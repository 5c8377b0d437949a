#!/usr/bin/env python3
"""Run-to-run spread of the benchmark on one commit, used to set the bounds
in BENCHMARK.json and to show the benchmark is steady.

    python3 perfbench/spread.py --seeds 1-10 [--workloads apply-long,check-corpus]
                                [--seconds N] [--save runs.json]
    python3 perfbench/spread.py --compare first.json second.json

The first form runs ``perfbench/run.py`` once per workload and seed, one
run at a time, and prints for every end-to-end metric its median, quartiles
(``statistics.quantiles(values, n=4)``) and spread, (q3 - q1) / median.  A
spread is "ok" below a third of the metric's bound, "wide" below the bound
and "OVER" above it; the spread of ``setup_s`` is shown but not judged.  The
second form checks that the second set's medians are no worse than the
first's by more than each metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def medians(runs: dict) -> dict:
    return {
        (w, name): statistics.median(r["metrics"][name]["value"] for r in by_seed.values())
        for w, by_seed in runs.items()
        for name in next(iter(by_seed.values()))["metrics"]
    }


def report_spread(runs: dict, bounds: dict) -> bool:
    steady = True
    for workload, by_seed in runs.items():
        results = list(by_seed.values())
        bad = [s for s, r in by_seed.items() if not r["correct"] or r["failed"]]
        print(f"\n{workload}: {len(results)} runs; incorrect or failing seeds: {bad or 'none'}")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            bound = bounds.get(name)
            if bound is None or name == "setup_s":
                verdict = ""
            elif spread < bound / 3:
                verdict = "ok"
            elif spread <= bound:
                verdict = "wide"
            else:
                verdict, steady = "OVER", False
            print(f"  {name:16s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%} "
                  f"{bound if bound is not None else '':>6} {verdict}")
        steady = steady and not bad
    return steady


def compare(first: dict, second: dict, metrics: dict) -> bool:
    ok = True
    m1, m2 = medians(first), medians(second)
    for (workload, name), a in m1.items():
        spec = metrics.get(name)
        if spec is None or (workload, name) not in m2:
            continue
        b = m2[(workload, name)]
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        verdict = "ok" if worse <= spec["bound"] else "WORSE"
        ok = ok and verdict == "ok"
        print(f"{workload:14s} {name:16s} {a:12.6g} -> {b:12.6g}  {worse:+8.2%} (bound {spec['bound']}) {verdict}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", help="comma-separated (default: all in BENCHMARK.json)")
    parser.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--save", type=Path, help="write the raw results here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.compare:
        first, second = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        return 0 if compare(first, second, metrics) else 1
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs: dict = {w: {} for w in workloads}
    for workload in workloads:
        for seed in _seeds(args.seeds):
            t0 = time.perf_counter()
            runs[workload][seed] = run_once(workload, seed, seconds)
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s", flush=True)
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1) + "\n", encoding="utf-8")
    bounds = {name: m["bound"] for name, m in metrics.items()}
    return 0 if report_spread(runs, bounds) else 1


if __name__ == "__main__":
    sys.exit(main())
