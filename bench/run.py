"""crashcheck benchmark: runs one workload (or all) through
``crashcheck.cli.main`` in this process and checks every verdict.

Usage, from the repository root::

    python3 bench/run.py --workload scale --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all            # scale, corpus and explore

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (a fresh
interpreter importing crashcheck plus writing the workload's inputs, median
of the set-ups spread over the run), ``run_s`` (wall time of the workload's
command sequence, each command at its median over the passes run) and
``peak_rss_mb``.  Both times are corrected for the host's speed (see
``REFERENCE_S``).  The times as measured are printed too, with the per-kind
sums of the command times (``analyze_s``, ``test_s``, ``exhaustive_s``,
``replay_s``) and ``failed_share``.  With ``--trace 1`` it alternates
traced and untraced passes and reports the per-layer metrics of
``spans.py`` plus the tracing overhead.

A run keeps inside ``--seconds``: past the minimum number of passes, a pass
starts only if one more of the longest length so far still ends in time.

Each metric is printed as ``<workload> <name> <value> <unit>``; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans and a result record with run metadata go
to ``.bench_build/crashcheck/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "crashcheck"

MIN_PASSES = 2
MIN_TRACED_PASSES = 3  # traced, untraced, traced
SETUPS_PER_PASS = 3
# Speed correction.  On a shared host the same work runs up to 1.7x slower
# for stretches of seconds to minutes, and CPU time rises with wall time, so
# the host's cores slow, not the scheduler.  A stretch can outlast a run, so
# no choice of repeats inside a run removes it.  So a fixed pure-Python
# loop that does not touch crashcheck is timed around every command and
# after every set-up; it slows with the host, not with crashcheck.  Each
# command's time is divided by the mean loop time just before and after it,
# and the median set-up by the median loop time beside the set-ups, then
# multiplied by REFERENCE_S: the corrected times are seconds on a host where
# the loop takes REFERENCE_S.
REFERENCE_S = 0.003
COMMAND_KINDS = ("analyze", "test", "exhaustive", "replay")


def reference_loop() -> float:
    """The speed-correction loop's time: the median of five runs of dict,
    set, tuple, sort, string and hashing work of the kind crashcheck does,
    about 3 ms each.  The median keeps one interrupted run out."""
    times = []
    for _ in range(5):
        start = perf_counter()
        table: dict[tuple[int, str], list[int]] = {}
        seen = set()
        for i in range(1600):
            key = (i % 61, f"op{i % 37}")
            table.setdefault(key, []).append(i)
            seen.add(hash(key) ^ i)
        ordered = sorted(table.items(), key=lambda item: (len(item[1]), item[0]))
        hashlib.blake2b("".join(f"{k[1]}:{len(v)}" for k, v in ordered).encode()).hexdigest()
        times.append(perf_counter() - start)
    return statistics.median(times)


def layout_problem() -> str | None:
    for needed in (SRC / "crashcheck" / "cli.py", ROOT / "workloads" / "checkers"):
        if not needed.exists():
            return f"benchmark needs {needed.relative_to(ROOT)} in the repository root {ROOT}"
    return None


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def time_setup(workload, work: Path, seed: int) -> float:
    """One set-up: a fresh interpreter imports crashcheck, then the
    workload's inputs are written into an empty work directory."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import crashcheck"], env=env, check=True, cwd=ROOT)
    if work.exists():
        shutil.rmtree(work)
    (work / "tmp").mkdir(parents=True)
    workload.write_inputs(work, seed)
    return perf_counter() - start


class Runner:
    def __init__(self, workload, work: Path):
        from crashcheck.cli import main as cli_main

        self.workload = workload
        self.work = work
        self.cli_main = cli_main
        self.attempted = 0
        self.failed = 0
        self.command_id = 0

    def run_pass(self, tracer=None) -> dict:
        """Run the workload's command sequence once; returns per-kind wall
        times and, under ``each``, every command's kind, wall time and the
        mean of the reference-loop times just before and just after it, in
        order.  Every command is checked against its expected answer."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        # Start every pass from a collected heap, so a collection owed by
        # the previous pass is not charged to this one.
        gc.collect()
        times: dict[str, float] = defaultdict(float)
        each: list[tuple[str, float, float]] = []
        before = reference_loop()
        for command in self.workload.commands(self.work):
            self.attempted += 1
            self.command_id += 1
            captured = io.StringIO()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                    if tracer is None:
                        code = self.cli_main(command.argv)
                    else:
                        code = tracer.run_command(self.command_id, command.kind, self.cli_main, command.argv)
            except (Exception, SystemExit):
                code = None
                captured.write(traceback.format_exc())
            elapsed = perf_counter() - start
            after = reference_loop()
            each.append((command.kind, elapsed, (before + after) / 2))
            before = after
            times[command.kind] += elapsed
            problems = self.check(command, code)
            if problems:
                self.failed += 1
                print(
                    f"FAILED {self.workload.name}: crashcheck {' '.join(command.argv)}\n  "
                    + "\n  ".join(problems)
                    + "\n"
                    + captured.getvalue(),
                    file=sys.stderr,
                )
        times["run"] = sum(t for _, t, _ in each)
        times["each"] = each
        return times

    @staticmethod
    def check(command, code) -> list[str]:
        if code != command.exit_code:
            return [f"exit code {code}, expected {command.exit_code}"]
        if command.check is None:
            return []
        try:
            return command.check(command.out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"cannot read output: {exc!r}"]


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    # Importing here first compiles crashcheck's bytecode, which users do not
    # pay on every run, before the timed fresh-interpreter imports.
    import crashcheck.cli  # noqa: F401

    work = OUT / f"work-{workload.name}-{os.getpid()}"
    time_setup(workload, work, seed)  # untimed: writes the inputs, warms the caches
    setups: list[float] = []
    references: list[float] = []
    tempfile.tempdir = str(work / "tmp")
    runner = Runner(workload, work)
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines(),
    }

    def setups_then_pass() -> dict:
        # Set-ups are timed between passes, so their median covers the
        # same machine conditions as the passes do.  Each rewrites the
        # same inputs, which the pass then reads.
        for _ in range(SETUPS_PER_PASS):
            setups.append(time_setup(workload, work, seed))
            references.append(reference_loop())
        return runner.run_pass()

    try:
        if trace:
            metrics, extra = measure_traced(runner, seconds)
        else:
            metrics, extra = measure_untraced(setups_then_pass, seconds)
            extra["measured"]["setup_s"] = statistics.median(setups)
            speed = REFERENCE_S / statistics.median(references)
            metrics["setup_s"] = (extra["measured"]["setup_s"] * speed, "s")
            record["setup_repeats"] = len(setups)
            record["setup_s_samples"] = setups
            record["setup_reference_s_samples"] = references
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work, ignore_errors=True)
    record.update(extra)
    record["attempted"] = runner.attempted
    record["failed"] = runner.failed
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    return record


def _rounds(seconds: float, minimum: int, one_round) -> list:
    """Call ``one_round`` for ``seconds``; past the minimum, a round starts
    only if one more of the longest length so far still ends inside the
    window."""
    rounds = []
    longest = 0.0
    start = perf_counter()
    while True:
        began = perf_counter()
        if len(rounds) >= minimum and began - start + longest > seconds:
            return rounds
        rounds.append(one_round())
        longest = max(longest, perf_counter() - began)


def _per_command(passes: list[dict], corrected: bool = False) -> list[tuple[str, float]]:
    """Each command's kind and its median time over the passes, as measured
    or speed-corrected.  Every pass runs the same commands in the same
    order; a pass that did not (a failed command changes what is replayed)
    is left out."""
    shape = [kind for kind, _, _ in passes[0]["each"]]
    alike = [p["each"] for p in passes if [kind for kind, _, _ in p["each"]] == shape]

    def time(seconds: float, reference: float) -> float:
        return seconds * REFERENCE_S / reference if corrected else seconds

    return [(kind, statistics.median(time(*each[i][1:]) for each in alike)) for i, kind in enumerate(shape)]


def measure_untraced(one_pass, seconds: float):
    passes = _rounds(seconds, MIN_PASSES, one_pass)
    metrics = {
        "run_s": (sum(t for _, t in _per_command(passes, corrected=True)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    # Times as measured, before the speed correction.  The per-kind times
    # are printed but not gated: not every workload runs every kind.
    each = _per_command(passes)
    per_kind = {
        f"{kind}_s": sum(t for k, t in each if k == kind) for kind in COMMAND_KINDS if any(k == kind for k, _ in each)
    }
    extra = {
        "passes": len(passes),
        "run_s_samples": [p["run"] for p in passes],
        "command_s_samples": [[t for _, t, _ in p["each"]] for p in passes],
        "command_reference_s_samples": [[r for _, _, r in p["each"]] for p in passes],
        "measured": {"run_s": sum(t for _, t in each)},
        "per_kind": per_kind,
    }
    return metrics, extra


def measure_traced(runner, seconds: float):
    """Alternate traced and untraced passes, so both see the same machine
    conditions; the tracer is installed only around traced passes."""
    import spans

    tracer = spans.Tracer()

    def traced_pass() -> dict:
        tracer.install()
        try:
            times = runner.run_pass(tracer)
        finally:
            tracer.uninstall()
        return dict(tracer.take_pass(), run_s=times["run"], each=times["each"])

    order = itertools.cycle((traced_pass, runner.run_pass))
    passes = _rounds(seconds, MIN_TRACED_PASSES, lambda: next(order)())
    traced, untraced = passes[0::2], passes[1::2]
    tracer.write(OUT / f"spans-{runner.workload.name}.jsonl")

    layers, shares, unstable = spans.summarize(traced)
    for problem in unstable:
        runner.failed += 1
        print(f"FAILED {runner.workload.name}: count differs between traced passes: {problem}", file=sys.stderr)
    # Speed-corrected, as run_s is, so a swing of the host between the two
    # kinds of pass does not read as tracing cost.
    untraced_run = sum(t for _, t in _per_command(untraced, corrected=True))
    layers["tracing.overhead_s"] = sum(t for _, t in _per_command(traced, corrected=True)) - untraced_run
    metrics = {name: (value, spans.unit_of(name)) for name, value in layers.items()}
    extra = {
        "passes": len(traced),
        "untraced_passes": len(untraced),
        "untraced_run_s": untraced_run,
        "shares": {name: {"value": value, "unit": "ratio"} for name, value in shares.items()},
    }
    return metrics, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="scale, corpus, explore or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = layout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        chosen = list(workloads.WORKLOADS.values())
    elif args.workload in workloads.WORKLOADS:
        chosen = [workloads.WORKLOADS[args.workload]]
    else:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all")

    OUT.mkdir(parents=True, exist_ok=True)
    records = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in chosen]
    for record in records:
        name = record["workload"]
        (OUT / f"result-{name}-trace{record['trace']}.json").write_text(json.dumps(record, indent=2))
        passes = record["passes"]
        print(
            f"{name} meta python={record['python']} cpus={record['cpu_count']} seed={record['seed']} "
            f"passes={passes} setup_repeats={record.get('setup_repeats', 0)} src_lines={record['src_lines']}"
        )
        for metric, entry in {**record["metrics"], **record.get("shares", {})}.items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
        for metric, value in record.get("measured", {}).items():
            print(f"{name} measured.{metric} {value:.6g} s")
        for metric, value in record.get("per_kind", {}).items():
            print(f"{name} {metric} {value:.6g} s")
        print(f"{name} failed_share {record['failed'] / record['attempted']:.6g} ratio")

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
