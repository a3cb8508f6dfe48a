"""The benchmark's workloads: the inputs each one writes, the crashcheck
commands one pass runs, and the hand-written answer each command must give.

Why each workload exists:

* ``scale``: the analysis layers (edge model, graph, behavior derivation,
  grouping) do most of the work.  Two generated traces, a 60-round POSIX
  pointer update and 80 MMIO hash-entry inserts, each go through
  ``analyze`` and then ``test``.  ``analyze`` also writes DOT files, which
  need explicit edges, so a change that speeds up ``test`` by making edges
  lazy but slows ``analyze`` shows here.
* ``corpus``: the oracle (one checker process per crash state) does most of
  the work.  The shipped ``workloads/*.dsl`` programs go through ``test``,
  the fast ones through ``exhaustive --checker``, and every reported bug is
  re-run with ``replay``.  This is the small-program loop a developer runs;
  it should not move when only analysis code changes.
* ``explore``: in-process exploration (enumeration, replay, digests) does
  most of the work.  ``exhaustive`` without a checker runs on a generated
  log-then-tables trace, which keeps process spawn from hiding the cost of
  replaying prefixes and hashing images.
"""

from __future__ import annotations

import json
import shlex
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import gen

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS_DIR = ROOT / "workloads"
CHECKERS_DIR = WORKLOADS_DIR / "checkers"

EXPLORE_APPENDS = 100
EXPLORE_TABLES = 7


def checker(name: str) -> str:
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(CHECKERS_DIR / name))}"


@dataclass
class Command:
    """One crashcheck invocation and the answer it must give.

    ``check`` reads the command's output directory and returns a list of
    mismatches; it runs only when the exit code matched.
    """

    kind: str
    argv: list[str]
    out: Path
    exit_code: int
    check: Callable[[Path], list[str]] | None = None


def _mismatch(what: str, got, want) -> list[str]:
    return [] if got == want else [f"{what}: got {got!r}, expected {want!r}"]


def _analyze_counts(ops: int, edges: int, behaviors: int, groups: int):
    want = {"ops": ops, "graph_edges": edges, "behaviors": behaviors, "groups": groups}

    def check(out: Path) -> list[str]:
        counts = json.loads((out / "groups.json").read_text())["counts"]
        got = {key: counts[key] for key in want}
        return _mismatch("analyze counts", got, want)

    return check


def _test_outcome(states: int, messages: Callable[[list[str]], list[str]]):
    def check(out: Path) -> list[str]:
        stats = json.loads((out / "stats.json").read_text())
        bugs = json.loads((out / "bugs.json").read_text())["bugs"]
        problems = _mismatch("distinct states", stats["distinct_states"], states)
        problems += _mismatch("oracle errors", stats["oracle_errors"], 0)
        return problems + messages([bug["oracle_output"].strip() for bug in bugs])

    return check


def _exhaustive_outcome(states: int, messages: list[str], schedules: int | None = None):
    def check(out: Path) -> list[str]:
        report = json.loads((out / "states.json").read_text())
        problems = _mismatch("distinct states", report["distinct_states"], states)
        if schedules is not None:
            problems += _mismatch("schedules", report["schedules_tested"], schedules)
        problems += _mismatch("partial coverage", report["partial_coverage"], False)
        got = sorted(bug["oracle_output"].strip() for bug in report["bugs"])
        return problems + _mismatch("inconsistent states", got, sorted(messages))

    return check


def _exact(want: list[str]):
    return lambda got: _mismatch("bug messages", sorted(got), sorted(want))


def _all_start_with(prefix: str, count: int):
    def check(got: list[str]) -> list[str]:
        problems = _mismatch("bug count", len(got), count)
        return problems + [f"bug message {m!r} lacks {prefix!r}" for m in got if not m.startswith(prefix)]

    return check


class Workload:
    name = ""

    def write_inputs(self, work: Path, seed: int) -> None:
        """Write the generated inputs; the program reads only these files."""

    def commands(self, work: Path) -> Iterator[Command]:
        """One pass.  Resumed after each yielded command has run, so later
        commands may depend on earlier outputs."""
        raise NotImplementedError


class Scale(Workload):
    name = "scale"
    TRACES = (
        # file, generator, checker, analyze counts, test states, bug messages
        (
            "posix.jsonl", gen.pointer_update_trace, "current_pointer.py",
            (364, 35_315, 243, 3), 10, _all_start_with("dangling CURRENT pointer", 1),
        ),
        (
            "mmio.jsonl", gen.entry_insert_trace, "entry_valid.py",
            (400, 28_440, 80, 1), 8,
            _exact([f"valid flag set but {m} missing" for m in ("key", "value", "key/value")]),
        ),
    )

    def write_inputs(self, work: Path, seed: int) -> None:
        for file, make, *_ in self.TRACES:
            (work / file).write_text(make(seed))

    def commands(self, work: Path) -> Iterator[Command]:
        for file, _, checker_name, counts, states, messages in self.TRACES:
            trace = ["--trace", str(work / file)]
            out = work / "out" / file.split(".")[0]
            yield Command(
                "analyze", ["analyze", *trace, "--out", str(out / "analyze")],
                out / "analyze", 0, _analyze_counts(*counts),
            )
            yield Command(
                "test",
                ["test", *trace, "--checker", checker(checker_name), "--out", str(out / "test")],
                out / "test", 1, _test_outcome(states, messages),
            )


# name, mode, checker, distinct states (test and exhaustive), bug messages,
# and whether ``exhaustive`` runs.  epochs.dsl is left out of exhaustive:
# it enumerates over a million schedules.
CORPUS = (
    ("two_writes", "POSIX", "always_ok.py", 4, [], True),
    ("fig3", "POSIX", "always_ok.py", 12, [], True),
    ("current_update_buggy", "POSIX", "current_pointer.py", 8,
     ["dangling CURRENT pointer -> MANIFEST-1"], True),
    ("current_update_fixed", "POSIX", "current_pointer.py", 7, [], True),
    ("entry_insert", "MMIO", "entry_valid.py", 8,
     [f"valid flag set but {m} missing" for m in ("key", "value", "key/value")], True),
    ("entry_insert_ordered", "MMIO", "entry_valid.py", 5,
     ["valid flag set but value missing"], True),
    ("entry_insert_safe", "MMIO", "entry_valid.py", 5, [], True),
    ("epochs", "MMIO", "always_ok.py", 13, [], False),
)


class Corpus(Workload):
    """The shipped programs.  They are fixed, so the seed changes nothing."""

    name = "corpus"

    def commands(self, work: Path) -> Iterator[Command]:
        for name, mode, checker_name, states, messages, exhaustive in CORPUS:
            program = ["--dsl", str(WORKLOADS_DIR / f"{name}.dsl"), "--mode", mode]
            check = ["--checker", checker(checker_name)]
            out = work / "out" / name
            exit_code = 1 if messages else 0
            yield Command(
                "test", ["test", *program, *check, "--out", str(out / "test")],
                out / "test", exit_code, _test_outcome(states, _exact(messages)),
            )
            # Passes start from an empty output tree, so a test command that
            # failed before writing bugs.json leaves nothing to replay.
            bugs_file = out / "test" / "bugs.json"
            bugs = json.loads(bugs_file.read_text())["bugs"] if bugs_file.exists() else []
            if exhaustive:
                yield Command(
                    "exhaustive", ["exhaustive", *program, *check, "--out", str(out / "exhaustive")],
                    out / "exhaustive", exit_code, _exhaustive_outcome(states, messages),
                )
            for bug in bugs:
                schedule = out / f"{bug['id']}.json"
                schedule.write_text(json.dumps(bug))
                replay_out = out / f"replay-{bug['id']}"
                yield Command(
                    "replay",
                    ["replay", *program, *check, "--schedule", str(schedule), "--out", str(replay_out)],
                    replay_out, 1,
                )


class Explore(Workload):
    name = "explore"

    def write_inputs(self, work: Path, seed: int) -> None:
        trace = gen.wal_then_tables_trace(seed, EXPLORE_APPENDS, EXPLORE_TABLES)
        (work / "wal.jsonl").write_text(trace)

    def commands(self, work: Path) -> Iterator[Command]:
        out = work / "out" / "wal"
        yield Command(
            "exhaustive", ["exhaustive", "--trace", str(work / "wal.jsonl"), "--out", str(out)],
            out, 0,
            _exhaustive_outcome(
                gen.wal_states(EXPLORE_APPENDS, EXPLORE_TABLES), [],
                gen.wal_schedules(EXPLORE_APPENDS, EXPLORE_TABLES),
            ),
        )


WORKLOADS = {w.name: w for w in (Scale(), Corpus(), Explore())}
