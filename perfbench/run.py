#!/usr/bin/env python3
"""locgram benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload apply-long --seed 1 --seconds 30 --trace 0

Run from the root of a locgram checkout; the program under test is imported
from that checkout's ``src/``.  The run writes its seeded inputs under
``.perfbench_work/`` (removed at exit), sets the program up several times,
checks outputs outside the timed region, then runs one closed-loop caller
for ``--seconds``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``; with ``--trace 1``, every per-layer
metric, from a run whose first half is untraced and whose second half
records spans (written to ``.perfbench_out/``).
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_locgram() -> None:
    """Put the checkout's ``src/`` first on the path, and refuse to measure
    any other copy of locgram."""
    package = ROOT / "src" / "locgram"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no locgram sources at {package}; run from a locgram checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import locgram

    if Path(locgram.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported locgram from {locgram.__file__}, not {package}")


def _median(setups: list, key: str) -> float:
    return statistics.median(s[key] for s in setups)


def _report_loop(name: str, loop, out: list) -> None:
    out.append(
        f"{name}: {loop.attempted} ops attempted, {loop.failed} failed, "
        f"{len(loop.latencies)} completed in {loop.wall_s:.2f} s"
    )
    for kind, n in sorted(loop.failures.items()):
        out.append(f"  failed: {kind} x{n}; first: {loop.first_failure[kind]}")
    if len(loop.latencies) < 100:
        out.append(f"  note: {len(loop.latencies)} samples; p90 has fewer than ten beyond it")


def measure(workload_cls, seed: int, seconds: float, trace: bool, sizes: dict | None = None,
            spans_dir: Path | None = None) -> tuple[dict, list[str]]:
    """One run of one workload; returns the result object and the
    human-readable report lines."""
    from harness import END_TO_END, PER_LAYER, NullTracer, Tracer, aggregate, closed_loop, percentile_ms

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_cls.name}-{seed}-", dir=work_root))
    out = [f"workload {workload_cls.name}, seed {seed}, {seconds} s, trace {int(trace)}"]
    try:
        w = workload_cls(ROOT, workdir, seed, sizes or {})
        w.write_inputs()
        out.append(f"sizes: {json.dumps(w.sizes)}")
        setups = [w.setup() for _ in range(w.setup_runs)]
        problems = w.reference()
        out += [f"gate: {p}" for p in problems]
        out.append(f"gate: {len(problems)} problems")
        # A long-running process loads its lexicon once: freeze the set-up
        # objects out of the cyclic collector, so that per-op latency is the
        # pipeline's own work and not re-scans of the static lexicon.
        gc.collect()
        gc.freeze()
        plain = closed_loop(w.op, seconds / 2 if trace else seconds, NullTracer())
        _report_loop("untraced", plain, out)
        loops = [plain]
        if not trace:
            lat = plain.latencies
            worst = 1e3 * plain.wall_s  # no op completed: every limit missed
            values = {
                "setup_s": _median(setups, "total_s"),
                "ops_per_s": plain.ops_per_s,
                "latency_p90_ms": percentile_ms(lat, 90) if lat else worst,
                "peak_rss_mb": w.peak_rss_mb(),
            }
            # Shown, not a metric: on a shared host whose speed swings between
            # levels for tens of seconds, the median flips between them and
            # is too unsteady to gate on; the mean (ops_per_s) and p90 are not.
            out.append(f"latency_p50_ms {percentile_ms(lat, 50) if lat else worst:.6g} ms (not a metric)")
            units = dict(END_TO_END)
        else:
            # Same op sequence as the untraced half, so the two rates compare.
            tracer = Tracer()
            with w.traced(tracer):
                traced = closed_loop(w.op, seconds / 2, tracer)
            _report_loop("traced", traced, out)
            loops.append(traced)
            stats = aggregate(tracer.spans)
            values = {name: 0.0 for name, _ in PER_LAYER}
            if "lexicon_s" in setups[0]:
                union_g = w.grammar
                values.update({
                    "lexicon.load_s": _median(setups, "lexicon_s"),
                    "lexicon.load_lines_per_s": setups[0]["lexicon_lines"] / _median(setups, "lexicon_s"),
                    "grammar.load_ms": 1e3 * _median(setups, "grammar_load_s"),
                    "grammar.union_ms": 1e3 * _median(setups, "union_s"),
                    "grammar.states": len(union_g.states),
                    "grammar.transitions": len(union_g.transitions),
                })
            values.update(w.layer_metrics(stats, traced.attempted))
            values["trace.op_ms"] = stats["op"].total_ns / 1e6 / max(traced.attempted, 1)
            values["trace.ops_per_s"] = traced.ops_per_s
            values["trace.overhead_ratio"] = plain.ops_per_s / traced.ops_per_s if traced.ops_per_s else 0.0
            units = dict(PER_LAYER)
            out.append("span self time per op (share of op time):")
            op_ns = stats["op"].total_ns or 1
            for name, st in sorted(stats.items(), key=lambda kv: -kv[1].self_ns):
                out.append(
                    f"  {name:36s} calls {st.calls:6d}  {st.self_ns / 1e6 / max(traced.attempted, 1):10.3f} ms"
                    f"  {100 * st.self_ns / op_ns:5.1f}%"
                )
            spans_dir = spans_dir or ROOT / ".perfbench_out"
            spans_dir.mkdir(exist_ok=True)
            spans_file = spans_dir / f"spans-{workload_cls.name}-seed{seed}.jsonl"
            tracer.write(spans_file)
            out.append(f"spans: {len(tracer.spans)} written to {spans_file}")
    finally:
        gc.unfreeze()
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        out.append(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_locgram()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    result, lines = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
