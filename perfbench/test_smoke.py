"""Smoke test of the benchmark harness: tiny inputs, one-second runs and no
timing bound, so it cannot flake on a slow machine.

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys

import pytest

import run

run.import_locgram()

from harness import END_TO_END, PER_LAYER, NullTracer, closed_loop  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "apply-long": {
        "lexicon_words": 300, "lexicon_compounds": 20, "documents": 2,
        "document_tokens": 60, "crosscheck_sentences": 4, "oracle_sentences": 1,
    },
    "check-corpus": {
        "lexicon_words": 300, "lexicon_compounds": 20, "synthetic_grammars": 6,
        "sentences": 12, "crosscheck_sentences": 4, "oracle_sentences": 1,
    },
    "cli-edit-loop": {},
}


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_run_checks_outputs_and_reports_every_metric(name, trace, tmp_path):
    result, lines = run.measure(WORKLOADS[name], 7, 1, trace, sizes=TINY[name], spans_dir=tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], "\n".join(lines)
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = dict(PER_LAYER if trace else END_TO_END)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert list(tmp_path.glob(f"spans-{name}-seed7.jsonl"))


@pytest.mark.parametrize("name", ["apply-long", "check-corpus"])
def test_same_seed_writes_the_same_inputs(name, tmp_path):
    def inputs(workdir):
        WORKLOADS[name](run.ROOT, workdir, 3, TINY[name]).write_inputs()
        return {p.relative_to(workdir): p.read_bytes() for p in workdir.rglob("*") if p.is_file()}

    first, second = tmp_path / "a", tmp_path / "b"
    assert inputs(first) == inputs(second)


def test_failing_ops_are_counted_and_the_loop_goes_on():
    def op(i, tracer):
        if i % 2:
            raise RecursionError("maximum recursion depth exceeded")

    loop = closed_loop(op, 0.05, NullTracer())
    assert loop.failures["RecursionError"] == loop.attempted // 2
    assert len(loop.latencies) + loop.failed == loop.attempted


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "apply-long", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
