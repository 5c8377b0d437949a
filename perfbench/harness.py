"""Measurement machinery shared by the workloads: the closed-loop timer,
in-memory spans, latency percentiles and path counting."""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

# Metric names and units; BENCHMARK.json lists the same ones.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("lexicon.load_s", "s"),
    ("lexicon.load_lines_per_s", "1/s"),
    ("lexicon.tokenize_ms", "ms"),
    ("lexicon.build_initial_lattice_ms", "ms"),
    ("lexicon.edges_per_token", "ratio"),
    ("grammar.load_ms", "ms"),
    ("grammar.union_ms", "ms"),
    ("grammar.states", "count"),
    ("grammar.transitions", "count"),
    ("engine.matchable_ms", "ms"),
    ("engine.filter_ms", "ms"),
    ("engine.filter.edges_in", "count"),
    ("engine.filter.edges_out", "count"),
    ("engine.filter.edge_keep_ratio", "ratio"),
    ("engine.filter.paths_log10_in", "log10"),
    ("engine.filter.paths_log10_out", "log10"),
    ("lattice.minimize_ms", "ms"),
    ("lattice.to_json_ms", "ms"),
    ("lattice.minimize.edge_ratio", "ratio"),
    ("engine.parse_tag_sequence_ms", "ms"),
    ("engine.resolve_tag_sequence_ms", "ms"),
    ("engine.decompose_ms", "ms"),
    ("engine.decompose.accept_ratio", "ratio"),
    ("engine.diagnose_ms", "ms"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms.tag", "ms"),
    ("cli.main_ms.apply", "ms"),
    ("cli.main_ms.check", "ms"),
    ("cli.main_ms.diff-oracle", "ms"),
    ("cli.process_ms", "ms"),
    ("trace.op_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
)


class OutputMismatch(Exception):
    """An op's output differs from the expected output."""


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def now_ns() -> int:
    # CLOCK_MONOTONIC is system-wide, so child processes share the timeline.
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def count(self, **counts) -> None:
        pass

    def rename(self, name: str) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    enabled = False

    def span(self, name: str):
        return _NULL_SPAN

    def op(self, op_id: int):
        return _NULL_SPAN


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", record: dict):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        stack = self.tracer._stack
        self.record["parent"] = stack[-1] if stack else None
        self.record["index"] = len(self.tracer.spans)
        self.tracer.spans.append(self.record)
        stack.append(self.record["index"])
        self.record["start"] = now_ns()
        return self

    def __exit__(self, *exc):
        self.record["end"] = now_ns()
        self.tracer._stack.pop()
        return False

    def count(self, **counts) -> None:
        self.record.setdefault("counts", {}).update(counts)

    def rename(self, name: str) -> None:
        self.record["name"] = name


class Tracer:
    """Spans (name, start, end, parent, op id, counts) kept in memory and
    written out when the run ends."""

    enabled = True

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def span(self, name: str) -> _Span:
        return _Span(self, {"name": name, "op": self._op})

    def op(self, op_id: int) -> _Span:
        self._op = op_id
        return self.span("op")

    def add(self, name: str, start: int, end: int, parent: int | None = None) -> int:
        """Record a span measured elsewhere (in a child process); its parent
        defaults to the innermost open span."""
        if parent is None and self._stack:
            parent = self._stack[-1]
        record = {"name": name, "op": self._op, "start": start, "end": end, "parent": parent,
                  "index": len(self.spans)}
        self.spans.append(record)
        return record["index"]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for record in self.spans:
                f.write(json.dumps(record, ensure_ascii=False) + "\n")


@dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0
    total_ns: int = 0
    counts: Counter = field(default_factory=Counter)


def aggregate(spans: list[dict]) -> dict[str, SpanStats]:
    """Per span name: calls, total and self time (duration minus the time
    its child spans cover) and summed counts."""
    child_ns = defaultdict(int)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end"] - s["start"]
    stats: dict[str, SpanStats] = defaultdict(SpanStats)
    for s in spans:
        st = stats[s["name"]]
        duration = s["end"] - s["start"]
        st.calls += 1
        st.total_ns += duration
        st.self_ns += duration - child_ns[s["index"]]
        st.counts.update(s.get("counts", {}))
    return stats


@dataclass
class LoopResult:
    latencies: list  # seconds, completed ops only
    attempted: int
    failures: Counter
    first_failure: dict
    wall_s: float

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / self.wall_s


def closed_loop(op, seconds: float, tracer) -> LoopResult:
    """One caller issuing ``op(i)`` back to back until ``seconds`` have
    passed.  An op that raises, for any reason, is counted by exception type
    and the loop goes on; failed ops still take their share of wall time."""
    latencies: list[float] = []
    failures: Counter = Counter()
    first_failure: dict = {}
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        if t0 >= deadline:
            break
        try:
            with tracer.op(i):
                op(i, tracer)
        except Exception as exc:  # isolate every failure to its op
            kind = type(exc).__name__
            failures[kind] += 1
            first_failure.setdefault(kind, f"op {i}: {str(exc)[:300]}")
        else:
            latencies.append(time.perf_counter() - t0)
        i += 1
    return LoopResult(latencies, i, failures, first_failure, time.perf_counter() - start)


def percentile_ms(latencies: list, q: int) -> float:
    """The ``q``-th percentile, in ms, of completed ops."""
    if len(latencies) < 2:
        return 1e3 * max(latencies, default=0.0)
    return 1e3 * statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def count_paths(l) -> int:
    """Initial-to-final path count of an acyclic lattice, by a forward pass
    in topological order with Python integers (no enumeration)."""
    n_states = l.n_states
    outgoing = defaultdict(list)
    indegree = [0] * n_states
    for e in l.edges:
        outgoing[e.src].append(e.dst)
        indegree[e.dst] += 1
    ways = [0] * n_states
    ways[l.initial] = 1
    ready = [q for q in range(n_states) if indegree[q] == 0]
    while ready:
        q = ready.pop()
        for dst in outgoing[q]:
            ways[dst] += ways[q]
            indegree[dst] -= 1
            if indegree[dst] == 0:
                ready.append(dst)
    return ways[l.final]


def log10_int(n: int) -> float:
    return math.log10(n) if n > 0 else 0.0
