"""Acceptance suite: one test per criterion, each printing a pass/fail line
(visible with ``pytest -s``) and enforcing its stated tolerance and runtime,
and criterion 8's bug-set equality on barrier-deletion mutants of the
shipped programs.
"""

import json
import random
import shlex
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path

import pytest

from crashcheck import (
    ExplosionLimit,
    build_graph,
    group_behaviors,
    posix_edges,
    represents,
    synth_workload,
)
from crashcheck import simulate
from crashcheck.behavior import make_behavior
from crashcheck.cli import RunConfig, derive_behaviors, main
from crashcheck.graph import StaticKey
from crashcheck.mmio_behaviors import EpochBoundary, mmio_epochs
from crashcheck.models import EdgeReason, model_edges
from crashcheck.simulate import (
    PreparedChecker,
    Verdict,
    enumerate_schedules,
    exhaustive_schedules,
    replay,
    run_oracle,
)

from conftest import WORKLOADS, checker_cmd, load_workload
from helpers import (
    brute_force_schedules,
    edge_triples,
    fig5_behaviors,
    node_equiv,
    op,
    output_digest,
    random_mmio_trace,
    random_posix_trace,
    run_group_tests,
    write_args,
)


@contextmanager
def criterion(num: int, title: str, limit_s: float | None = None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({title}): FAIL")
        raise
    elapsed = time.monotonic() - start
    if limit_s is not None and elapsed >= limit_s:
        print(f"ACCEPTANCE {num} ({title}): FAIL [over {limit_s}s at {elapsed:.2f}s]")
        raise AssertionError(f"criterion {num} exceeded {limit_s}s ({elapsed:.2f}s)")
    print(f"ACCEPTANCE {num} ({title}): PASS [{elapsed:.2f}s]")


def whole_behavior(trace, cfg=None):
    graph = build_graph(trace, model_edges(trace, cfg))
    return make_behavior("whole", "*", 0, graph.node_seqs, graph), graph


def pipeline(trace):
    run_cfg = RunConfig()
    _, behaviors = derive_behaviors(trace, run_cfg)
    groups = group_behaviors(behaviors)
    return behaviors, groups


def representative_states(trace):
    """Distinct crash-state digests across all distinct representatives."""
    behaviors, groups = pipeline(trace)
    by_id = {b.id: b for b in behaviors}
    digests = set()
    seen = set()
    schedules = 0
    for group in groups:
        if group.representative in seen:
            continue
        seen.add(group.representative)
        for weight, schedule, _ in enumerate_schedules(by_id[group.representative], trace):
            schedules += weight
            if schedule:
                digests.add(replay(schedule).digest())
    return digests, schedules


def state_bug_key(schedule, trace, result):
    """The bug key of one inconsistent state, computed here apart from
    ``BugReport``: the sorted static keys of the persisting trace ops that
    are neither context nor applied and were issued before the last
    persisting op applied, and the sha256 of the checker output."""
    context, applied = {o.seq for o in schedule.context}, set(schedule.applied_seqs)
    last = max((o.seq for o in schedule.applied if o.is_persisting), default=0)
    omitted = sorted(
        str(StaticKey.of(o))
        for o in trace.ops
        if o.is_persisting and o.seq < last and o.seq not in context and o.seq not in applied
    )
    return tuple(omitted), output_digest(result)


def exhaustive_outcomes(trace, checker, scratch: Path, budget=2_000_000):
    """Schedule count, the verdict of each distinct state by its digest, and
    the bug keys of the unpruned whole-trace baseline, explored the way
    ``crashcheck exhaustive`` does.  Raises :class:`ExplosionLimit` when it
    does not complete within ``budget`` subsets."""
    behavior, _ = whole_behavior(trace)
    schedules_of = partial(exhaustive_schedules, trace=trace, budget=budget)
    check = partial(run_oracle, checker=PreparedChecker(checker, scratch))
    _, stats, states = simulate.test_groups([behavior], schedules_of, trace, check)
    verdicts = {digest: result.verdict for digest, (_, result) in states.items()}
    bug_keys = {
        state_bug_key(schedule, trace, result)
        for schedule, result in states.values()
        if result.verdict is Verdict.INCONSISTENT
    }
    if stats["partial_coverage"]:
        raise ExplosionLimit(budget)
    return stats["schedules_tested"], verdicts, bug_keys


def rep_outcomes(trace, checker, scratch: Path):
    behaviors, groups = pipeline(trace)
    by_id = {b.id: b for b in behaviors}
    bugs, stats = run_group_tests(groups, by_id, trace, checker, scratch)
    return bugs, stats, {b.key for b in bugs}


def assert_bug_sets_agree(trace, checker, scratch: Path, name: str):
    """Criterion 8 on one program: ``test`` checks no more states than the
    baseline, its bug keys are the baseline's, and each state it reports is
    one the baseline found inconsistent.  Raises :class:`ExplosionLimit`
    when the baseline does not complete."""
    ex_schedules, ex_verdicts, ex_keys = exhaustive_outcomes(trace, checker, scratch / "e")
    bugs, stats, rep_keys = rep_outcomes(trace, checker, scratch / "r")
    # the reduction: the representative path never oracle-tests more
    # crash states than the exhaustive baseline
    assert stats["distinct_states"] <= len(ex_verdicts), name
    assert stats["distinct_states"] <= ex_schedules, name
    assert rep_keys == ex_keys, name
    for bug in bugs:
        assert stats["correlated_states"][bug.id] >= 1, name
        assert ex_verdicts[replay(bug.schedule).digest()] is Verdict.INCONSISTENT, name


def test_criterion_1_four_state_example(two_writes_trace, tmp_path):
    with criterion(1, "four-state example", limit_s=1.0):
        behavior, _ = whole_behavior(two_writes_trace)
        exhaustive = {replay(s).digest() for _, s, _ in exhaustive_schedules(behavior, two_writes_trace) if s}
        assert len(exhaustive) == 4
        rep_states, _ = representative_states(two_writes_trace)
        assert len(rep_states) == 4
        assert rep_states == exhaustive


FIG3_GOLDEN_EDGES = {
    (1, 2, EdgeReason.SAME_BLOCK),
    (1, 3, EdgeReason.SAME_BLOCK),
    (2, 3, EdgeReason.SAME_BLOCK),
    (4, 5, EdgeReason.SYNC_BARRIER),
    (4, 6, EdgeReason.METADATA_ORDER),
    (5, 6, EdgeReason.SYNC_BARRIER),
    (1, 7, EdgeReason.SYNC_BARRIER),
    (2, 7, EdgeReason.SYNC_BARRIER),
    (3, 7, EdgeReason.SYNC_BARRIER),
    (4, 7, EdgeReason.SYNC_BARRIER),
    (6, 7, EdgeReason.SYNC_BARRIER),
}


def test_criterion_2_fig3_golden_trace(fig3_trace):
    with criterion(2, "fig3 edges and grouping", limit_s=1.0):
        edges = posix_edges(fig3_trace)
        pairs = {(src, dst) for src, dst, _ in edge_triples(edges, fig3_trace)}
        # the f1 write chain
        assert {(1, 2), (2, 3)} <= pairs
        # the write(f2) -> rename(f2) edge
        assert (4, 6) in pairs
        # sync barriers: anchors into the fdatasync and the trailing sync
        assert {(4, 5), (5, 6), (1, 7), (2, 7), (3, 7), (4, 7), (6, 7)} <= pairs
        # exact structural match against the frozen golden set
        assert edge_triples(edges, fig3_trace) == FIG3_GOLDEN_EDGES

        behaviors, _ = pipeline(fig3_trace)
        shapes = {(b.owner_function, b.node_seqs) for b in behaviors}
        assert shapes == {
            ("Fn2", (1, 2)),
            ("Fn4", (3, 4)),
            ("Fn5", (5, 6, 7)),
            ("Fn3", (3, 4, 5, 6, 7)),
            ("Fn1", (1, 2, 3, 4, 5, 6, 7)),
        }


def test_criterion_3_represents_relation_and_grouping():
    with criterion(3, "represents relation on the fig5 trio"):
        s3_1, s3_2, s2 = fig5_behaviors()
        assert represents(s3_1, s3_2) is True
        assert represents(s2, s3_1) is False
        assert represents(s3_1, s2) is False
        groups = group_behaviors([s3_1, s3_2, s2])
        assert len(groups) == 2
        assert {g.representative for g in groups} == {"S3-1", "S2"}
        members = {g.representative: sorted(g.members) for g in groups}
        assert members["S3-1"] == ["S3-1", "S3-2"]
        assert members["S2"] == ["S2"]


def test_criterion_4_pointer_switch_reproduction(tmp_path, current_checker):
    with criterion(4, "directory-sync bug reproduction", limit_s=10.0):
        buggy = load_workload("current_update_buggy.dsl", "POSIX")
        bugs, stats, rep_keys = rep_outcomes(buggy, current_checker, tmp_path / "rb")
        assert len(bugs) >= 1
        assert any(any(o.kind == "rename" for o in b.omitted) for b in bugs)

        fixed = load_workload("current_update_fixed.dsl", "POSIX")
        fixed_bugs, _, fixed_keys = rep_outcomes(fixed, current_checker, tmp_path / "rf")
        assert fixed_bugs == []
        _, _, fixed_exhaustive_keys = exhaustive_outcomes(
            fixed, current_checker, tmp_path / "ef"
        )
        assert fixed_keys == fixed_exhaustive_keys == set()


def test_criterion_5_entry_insert_reproduction(tmp_path, entry_checker):
    with criterion(5, "valid-flag bug reproduction", limit_s=10.0):
        insert = load_workload("entry_insert.dsl", "MMIO")
        bugs, _, _ = rep_outcomes(insert, entry_checker, tmp_path / "ri")
        assert any(
            sorted(o.annotation.field_name for o in b.schedule.applied if o.kind == "store") == ["valid"]
            and sorted(o.annotation.field_name for o in b.omitted) == ["key", "value"]
            for b in bugs
        )

        ordered = load_workload("entry_insert_ordered.dsl", "MMIO")
        ordered_bugs, _, _ = rep_outcomes(ordered, entry_checker, tmp_path / "ro")
        assert any(
            "valid" in [o.annotation.field_name for o in b.schedule.applied if o.kind == "store"]
            and "value" in [o.annotation.field_name for o in b.omitted]
            for b in ordered_bugs
        )

        safe = load_workload("entry_insert_safe.dsl", "MMIO")
        safe_bugs, _, _ = rep_outcomes(safe, entry_checker, tmp_path / "rs")
        assert safe_bugs == []


def test_criterion_6_epoch_golden_trace(epochs_trace):
    with criterion(6, "three epochs for instance M"):
        epochs = mmio_epochs(epochs_trace)[("M", "m0", False)]
        assert len(epochs) == 3
        assert [reason for _, reason in epochs] == [
            EpochBoundary.CRITERION_1,
            EpochBoundary.CRITERION_2,
            EpochBoundary.TRACE_END,
        ]


def test_criterion_7_pruning_soundness_200_random_traces():
    with criterion(7, "pruning soundness on 200 random traces", limit_s=120.0):
        rng = random.Random(2024)
        mismatches = 0
        for i in range(200):
            trace = (
                random_posix_trace(rng, max_ops=8)
                if i % 2 == 0
                else random_mmio_trace(rng, max_ops=8)
            )
            behavior, _ = whole_behavior(trace)
            pruned = {replay(s).digest() for _, s, _ in enumerate_schedules(behavior, trace) if s}
            brute = {replay(s).digest() for s in brute_force_schedules(behavior, trace, budget=2_000_000)}
            if pruned != brute:
                mismatches += 1
        assert mismatches == 0


CORPUS = [
    ("two_writes.dsl", "POSIX", "always_ok.py"),
    ("fig3.dsl", "POSIX", "always_ok.py"),
    ("current_update_buggy.dsl", "POSIX", "current_pointer.py"),
    ("current_update_fixed.dsl", "POSIX", "current_pointer.py"),
    ("entry_insert.dsl", "MMIO", "entry_valid.py"),
    ("entry_insert_ordered.dsl", "MMIO", "entry_valid.py"),
    ("entry_insert_safe.dsl", "MMIO", "entry_valid.py"),
    ("epochs.dsl", "MMIO", "always_ok.py"),
]


def test_criterion_8_reduction_and_bug_set_equality(tmp_path):
    with criterion(8, "reduction with exact bug-set equality"):
        compared = 0
        for name, mode, checker_name in CORPUS:
            trace = load_workload(name, mode)
            try:
                assert_bug_sets_agree(trace, checker_cmd(checker_name), tmp_path / name.split(".")[0], name)
            except ExplosionLimit:
                continue  # exhaustive did not complete within budget
            compared += 1
        assert compared == len(CORPUS)


@pytest.mark.parametrize(
    "name, schedules, states, inconsistent",
    [("current_update_fixed", 37, 9, 0), ("current_update_buggy", 45, 11, 1)],
)
def test_setup_sync_deletion_mutants_agree_with_the_baseline(tmp_path, name, schedules, states, inconsistent):
    """The pointer-update programs with ``Setup``'s ``sync`` deleted.  Only
    the rename's consuming its destination then orders ``write CURRENT``
    before ``rename tmp CURRENT``; without that edge the baseline replayed
    the write onto the renamed-in file and reported a dangling pointer on
    the fixed program, a state no file system reaches.  ``exhaustive
    --checker`` must agree with ``test`` on the bug set."""
    program = tmp_path / f"{name}.dsl"
    program.write_text((WORKLOADS / f"{name}.dsl").read_text().replace("  sync\n", "", 1))
    checker = checker_cmd("current_pointer.py")
    args = ["--mode", "POSIX", "--dsl", str(program), "--checker", shlex.join(checker)]
    assert main(["exhaustive", *args, "--out", str(tmp_path / "exhaustive")]) == (1 if inconsistent else 0)
    report = json.loads((tmp_path / "exhaustive" / "states.json").read_text())
    assert (report["schedules_tested"], report["distinct_states"], len(report["bugs"])) == (
        schedules, states, inconsistent
    )
    assert main(["test", *args, "--out", str(tmp_path / "test")]) == (1 if inconsistent else 0)
    trace = synth_workload(program.read_text(), "POSIX")
    _, _, ex_keys = exhaustive_outcomes(trace, checker, tmp_path / "e")
    _, _, rep_keys = rep_outcomes(trace, checker, tmp_path / "r")
    assert rep_keys == ex_keys


def test_criterion_9_equivalence_properties():
    with criterion(9, "equivalence-relation properties"):
        rng = random.Random(99)
        frames_pool = [
            (("main", 1), ("f", 4)),
            (("main", 1), ("f", 5)),
            (("main", 2), ("g", 4)),
            (("main", 2),),
        ]
        kinds = ["write", "create", "rename"]
        ops = []
        for seq in range(1, 120):
            kind = rng.choice(kinds)
            if kind == "write":
                args = write_args("f", bytes([rng.randint(1, 255)]))
            elif kind == "rename":
                args = {"path": "f", "dst": "g"}
            else:
                args = {"path": "f"}
            ops.append(op(seq, kind, args, rng.choice(frames_pool)))
        violations = 0
        for _ in range(1000):
            a, b, c = rng.choice(ops), rng.choice(ops), rng.choice(ops)
            if not node_equiv(a, a):
                violations += 1
            if node_equiv(a, b) != node_equiv(b, a):
                violations += 1
            if node_equiv(a, b) and node_equiv(b, c) and not node_equiv(a, c):
                violations += 1
        assert violations == 0

        for name, mode, _ in CORPUS:
            trace = load_workload(name, mode)
            behaviors, _ = pipeline(trace)
            for behavior in behaviors:
                assert represents(behavior, behavior)
