"""Span tracing for the benchmark's traced run.

The tracer wraps crashcheck's public functions at the name each caller
looks up (``crashcheck.cli.model_edges``, ``crashcheck.simulate.replay``,
``PersistenceGraph.induced`` and so on) and restores them afterwards, so
nothing in ``src/`` changes.  Each call becomes one span: an id, the id of
the span that was open when it started, a layer-qualified name, the command
it ran under, and its start and end.  Generators are traced per ``next``.
Spans stay in memory until :meth:`Tracer.write` is called once at the end.

Counts are taken at the same boundaries from arguments and return values.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import crashcheck.cli
import crashcheck.grouping
import crashcheck.posix_behaviors
import crashcheck.simulate
from crashcheck.graph import PersistenceGraph
from crashcheck.simulate import FsImage, MemImage, Verdict

ANALYSIS_LAYERS = ("models", "graph", "behavior", "posix_behaviors", "mmio_behaviors", "grouping")

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "trace.parse_s": ("trace.parse",),
    "dsl.synth_s": ("dsl.synth",),
    "models.edges_s": ("models.edges",),
    "graph.build_s": ("graph.build",),
    "graph.induced_s": ("graph.induced",),
    "graph.dot_s": ("graph.dot",),
    "behavior.cluster_s": ("behavior.cluster",),
    "posix_behaviors.derive_s": ("posix_behaviors.derive",),
    "mmio_behaviors.derive_s": ("mmio_behaviors.derive",),
    "grouping.group_s": ("grouping.group", "grouping.represents"),
    "simulate.enumerate_s": ("simulate.enumerate",),
    "simulate.replay_s": ("simulate.replay",),
    "simulate.digest_s": ("simulate.digest",),
    "simulate.loop_s": ("simulate.test_groups",),
    "simulate.materialize_s": ("simulate.materialize",),
    "simulate.oracle_wait_s": ("simulate.oracle",),
}

COUNT_METRICS = (
    "trace.ops",
    "models.edges",
    "graph.induced_calls",
    "graph.dot_calls",
    "behavior.cluster_calls",
    "posix_behaviors.behaviors",
    "mmio_behaviors.behaviors",
    "grouping.represents_calls",
    "grouping.groups",
    "simulate.schedules",
    "simulate.replay_ops",
    "simulate.distinct_states",
    "simulate.dedup_hits",
    "simulate.oracle_calls",
    "simulate.oracle_errors",
)


class _TracedIterator:
    """Times each ``next`` of a wrapped iterator as one span."""

    def __init__(self, tracer: "Tracer", name: str, inner, on_item):
        self._tracer = tracer
        self._name = name
        self._inner = inner
        self._on_item = on_item

    def __iter__(self):
        return self

    def __next__(self):
        item = self._tracer.call(self._name, next, (self._inner,), {})
        self._on_item(item)
        return item


class Tracer:
    def __init__(self):
        # (id, parent id or None, name, command id, start, end)
        self.spans: list[tuple[int, int | None, str, int, float, float]] = []
        self.counts: Counter = Counter()
        self.command = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []
        self._digests: dict[int, list[str]] = defaultdict(list)
        self._pass_start = 0

    def call(self, name: str, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, parent, name, self.command, start, end))

    def run_command(self, command_id: int, kind: str, fn, *args):
        """Run one crashcheck command under a top-level ``cli.<kind>`` span."""
        self.command = command_id
        return self.call(f"cli.{kind}", fn, args, {})

    # -- installing wrappers ------------------------------------------------

    def _patch(self, owner, attr: str, name: str, on_result=None):
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.call(name, original, args, kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def _patch_generator(self, owner, attr: str, name: str):
        original = getattr(owner, attr)
        tracer = self

        def count(_schedule):
            tracer.counts["simulate.schedules"] += 1

        def traced(*args, **kwargs):
            return _TracedIterator(tracer, name, original(*args, **kwargs), count)

        self._undo.append((owner, attr, original))
        setattr(owner, attr, traced)

    def install(self) -> None:
        cli, sim = crashcheck.cli, crashcheck.simulate
        counts = self.counts

        def add(metric, amount=1):
            counts[metric] += amount

        def ops_of(_args, trace):
            add("trace.ops", len(trace.ops))

        def replayed(args, _image):
            schedule = args[0]
            add("simulate.replay_ops", len(schedule.context) + len(schedule.applied))

        def digested(_args, digest):
            self._digests[self.command].append(digest)

        def oracle_done(_args, result):
            add("simulate.oracle_calls")
            if result.verdict is Verdict.ORACLE_ERROR:
                add("simulate.oracle_errors")

        def grouped(_args, groups):
            add("grouping.groups", len(groups))
            add("grouping.representatives", len({g.representative for g in groups}))

        self._patch(cli, "parse_trace", "trace.parse", ops_of)
        self._patch(cli, "synth_workload", "dsl.synth", ops_of)
        self._patch(cli, "model_edges", "models.edges", lambda a, edges: add("models.edges", len(edges)))
        self._patch(cli, "build_graph", "graph.build")
        self._patch(PersistenceGraph, "induced", "graph.induced", lambda a, r: add("graph.induced_calls"))
        for owner in (cli, sim):
            self._patch(owner, "export_dot", "graph.dot", lambda a, r: add("graph.dot_calls"))
        self._patch(
            crashcheck.posix_behaviors, "cluster_temporal", "behavior.cluster",
            lambda a, r: add("behavior.cluster_calls"),
        )
        self._patch(
            cli, "derive_posix_behaviors", "posix_behaviors.derive",
            lambda a, r: add("posix_behaviors.behaviors", len(r)),
        )
        self._patch(
            cli, "derive_mmio_behaviors", "mmio_behaviors.derive",
            lambda a, r: add("mmio_behaviors.behaviors", len(r)),
        )
        self._patch(cli, "group_behaviors", "grouping.group", grouped)
        self._patch(
            crashcheck.grouping, "represents", "grouping.represents",
            lambda a, r: add("grouping.represents_calls"),
        )
        self._patch(cli, "test_groups", "simulate.test_groups")
        self._patch_generator(sim, "enumerate_schedules", "simulate.enumerate")
        self._patch_generator(cli, "exhaustive_schedules", "simulate.enumerate")
        for owner in (cli, sim):
            self._patch(owner, "replay", "simulate.replay", replayed)
            self._patch(owner, "run_oracle", "simulate.oracle", oracle_done)
            self._patch(owner, "materialize", "simulate.materialize")
        for image in (FsImage, MemImage):
            self._patch(image, "digest", "simulate.digest", digested)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def take_pass(self) -> dict:
        """Per-layer numbers for the spans and counts recorded since the
        last call, then start a fresh pass (spans are kept for writing)."""
        spans = self.spans[self._pass_start:]
        self._pass_start = len(self.spans)

        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        oracle_ms = []
        for span_id, _, name, _, start, end in spans:
            self_time[name] += end - start - child_time[span_id]
            if name == "simulate.oracle":
                oracle_ms.append((end - start) * 1000)

        counts = dict(self.counts)
        self.counts.clear()
        for digests in self._digests.values():
            counts["simulate.distinct_states"] = counts.get("simulate.distinct_states", 0) + len(set(digests))
            counts["simulate.dedup_hits"] = (
                counts.get("simulate.dedup_hits", 0) + len(digests) - len(set(digests))
            )
        self._digests.clear()

        metrics = {metric: sum(self_time[n] for n in names) for metric, names in SELF_TIME_METRICS.items()}
        metrics["cli.self_s"] = sum(t for n, t in self_time.items() if n.startswith("cli."))
        for metric in COUNT_METRICS:
            metrics[metric] = counts.get(metric, 0)
        return {
            "metrics": metrics,
            "representatives": counts.get("grouping.representatives", 0),
            "oracle_ms": oracle_ms,
            "analysis_s": sum(t for n, t in self_time.items() if n.split(".")[0] in ANALYSIS_LAYERS),
            "oracle_s": sum(self_time[n] for n in ("simulate.materialize", "simulate.oracle")),
            "explore_s": sum(self_time[n] for n in ("simulate.enumerate", "simulate.replay", "simulate.digest")),
        }

    def write(self, path: Path) -> None:
        """Write every span recorded, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, name, command, start, end in sorted(self.spans):
                out.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "command": command,
                         "start": start, "end": end}
                    )
                    + "\n"
                )


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if "_ms_" in metric:
        return "ms"
    if metric in ("grouping.rep_share", "simulate.state_yield"):
        return "ratio"
    if metric == "simulate.oracle_samples":
        return "samples"
    return "count"


def summarize(passes: list[dict]) -> tuple[dict, dict, list[str]]:
    """Per-layer metrics over traced passes: self times of the fastest pass,
    counts that must repeat exactly, and oracle latency percentiles over all
    passes with their sample count.  Returns the metrics, the shares of the
    fastest pass's ``run_s`` taken by the analysis layers, the oracle and
    exploration, and a list of counts that differed between passes."""
    fastest = min(passes, key=lambda p: p["run_s"])
    metrics = {}
    unstable = []
    for name, value in fastest["metrics"].items():
        if not name.endswith("_s"):
            values = [p["metrics"][name] for p in passes]
            if len(set(values)) > 1:
                unstable.append(f"{name} {values}")
        metrics[name] = value

    behaviors = metrics["posix_behaviors.behaviors"] + metrics["mmio_behaviors.behaviors"]
    metrics["grouping.rep_share"] = fastest["representatives"] / behaviors if behaviors else 0.0
    schedules = metrics["simulate.schedules"]
    metrics["simulate.state_yield"] = metrics["simulate.distinct_states"] / schedules if schedules else 0.0

    latencies = sorted(ms for p in passes for ms in p["oracle_ms"])
    metrics["simulate.oracle_samples"] = len(latencies)
    if len(latencies) >= 2:
        deciles = statistics.quantiles(latencies, n=10)
        metrics["simulate.oracle_ms_p50"] = statistics.median(latencies)
        metrics["simulate.oracle_ms_p90"] = deciles[8]
    else:
        metrics["simulate.oracle_ms_p50"] = latencies[0] if latencies else 0.0
        metrics["simulate.oracle_ms_p90"] = metrics["simulate.oracle_ms_p50"]

    metrics["traced.run_s"] = fastest["run_s"]
    shares = {f"share.{part}": fastest[f"{part}_s"] / fastest["run_s"] for part in ("analysis", "oracle", "explore")}
    return metrics, shares, unstable
