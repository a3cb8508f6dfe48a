"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import gen  # noqa: E402
import spans  # noqa: E402
from crashcheck.cli import main as cli_main  # noqa: E402
from crashcheck.models import model_edges  # noqa: E402
from crashcheck.trace import parse_trace  # noqa: E402


@pytest.mark.parametrize(
    "appends, tables, states, schedules",
    [
        # chain a1 -> a2 -> F, then w1, w2 after F.  Schedules: {}, a1,
        # a1a2, a1a2F, then w1, w2, w1w2, w2w1 on top: 8.  F changes no
        # bytes, so states: {}, a1, a1a2, +w1, +w2, +w1w2: 6.
        (2, 2, 6, 8),
        # chain a1 -> F, then 3 writes: 3 chain prefixes plus 3 + 6 + 6
        # orders of the non-empty write subsets; states {}, a1, + 7 subsets.
        (1, 3, 9, 18),
    ],
)
def test_explore_formulas_match_hand_count_and_crashcheck(tmp_path, appends, tables, states, schedules):
    assert gen.wal_states(appends, tables) == states
    assert gen.wal_schedules(appends, tables) == schedules
    trace = tmp_path / "wal.jsonl"
    trace.write_text(gen.wal_then_tables_trace(5, appends, tables))
    out = tmp_path / "out"
    assert cli_main(["exhaustive", "--trace", str(trace), "--out", str(out)]) == 0
    report = json.loads((out / "states.json").read_text())
    assert (report["distinct_states"], report["schedules_tested"]) == (states, schedules)


def _structure(text: str):
    trace = parse_trace(text)
    return [(op.seq, op.kind, op.backtrace, sorted(op.args)) for op in trace.ops], trace


@pytest.mark.parametrize(
    "make", [gen.pointer_update_trace, gen.entry_insert_trace, gen.wal_then_tables_trace]
)
def test_seed_changes_payloads_and_names_but_not_structure(make):
    assert make(3) == make(3)
    (shape_a, trace_a), (shape_b, trace_b) = _structure(make(3)), _structure(make(4))
    assert make(3) != make(4)
    assert shape_a == shape_b
    assert len(model_edges(trace_a)) == len(model_edges(trace_b))


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer()
    tracer.spans = [
        (0, None, "cli.test", 1, 0.0, 10.0),
        (1, 0, "graph.induced", 1, 1.0, 4.0),
        (2, 1, "grouping.represents", 1, 2.0, 3.0),
        (3, 0, "simulate.oracle", 1, 5.0, 9.0),
        (4, 3, "simulate.materialize", 1, 5.0, 5.5),
    ]
    layers = tracer.take_pass()["metrics"]
    assert layers["cli.self_s"] == pytest.approx(3.0)
    assert layers["graph.induced_s"] == pytest.approx(2.0)
    assert layers["grouping.group_s"] == pytest.approx(1.0)
    assert layers["simulate.oracle_wait_s"] == pytest.approx(3.5)
    assert layers["simulate.materialize_s"] == pytest.approx(0.5)


def test_speed_correction_takes_each_commands_median_over_passes():
    import run

    ref = run.REFERENCE_S
    passes = [
        # kind, seconds, reference-loop time beside the command
        {"each": [("test", 2.0, ref), ("replay", 1.0, 2 * ref)]},
        # a host at half speed doubles both the command and the loop
        {"each": [("test", 4.0, 2 * ref), ("replay", 2.0, 4 * ref)]},
        {"each": [("test", 3.0, ref), ("replay", 0.2, ref)]},
        # a failed command changed the sequence: left out
        {"each": [("test", 9.0, ref)]},
    ]
    assert run._per_command(passes) == [("test", 3.0), ("replay", 1.0)]
    corrected = run._per_command(passes, corrected=True)
    assert corrected == [("test", pytest.approx(2.0)), ("replay", pytest.approx(0.5))]


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


@pytest.mark.parametrize("workload", ["scale", "corpus", "explore"])
def test_traced_counts_repeat_across_runs_and_seeds(workload):
    counts = []
    for seed in (11, 12):
        proc = _run_bench(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], proc.stderr
        counts.append(
            {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}
        )
    assert counts[0] == counts[1]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "explore", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""
