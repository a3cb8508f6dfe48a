"""Criterion 8 on every single-barrier deletion of the shipped programs.

A mutant is a program's synthesized trace with one ordering op of its
graph (an ``fsync``, ``fdatasync``, ``sync``, ``flush`` or ``fence``: a
graph node that persists nothing) removed, and the later ops renumbered so
that the seqs stay contiguous.  Each mutant must pass criterion 8 as the
programs do: ``test`` checks no more states than the whole-trace baseline,
finds exactly its bug keys, and reports only states the baseline found
inconsistent.  The bug key does not depend on which exploration reached a
state, so a barrier's deletion may change which bugs there are, never
whether the two paths agree on them."""

import pytest

from crashcheck.trace import METADATA_ONLY_KINDS, Trace

from conftest import checker_cmd, load_workload
from helpers import replace_op
from test_acceptance import CORPUS, assert_bug_sets_agree


def barrier_deletions():
    for name, mode, checker_name in CORPUS:
        for barrier in load_workload(name, mode).ops:
            if barrier.kind not in METADATA_ONLY_KINDS and not barrier.is_persisting:
                tag = f"{name.split('.')[0]}-{barrier.kind}@{barrier.seq}"
                yield pytest.param(name, mode, checker_name, barrier.seq, id=tag)


MUTANTS = list(barrier_deletions())


def without(trace: Trace, seq: int) -> Trace:
    """``trace`` without the op at ``seq``, each later op one seq lower."""
    ops = [replace_op(o, seq=o.seq - (o.seq > seq)) for o in trace.ops if o.seq != seq]
    return Trace(trace.meta, ops)


def test_every_barrier_of_the_programs_is_deleted_once():
    assert len(MUTANTS) == 25


@pytest.mark.parametrize("name, mode, checker_name, seq", MUTANTS)
def test_a_barrier_deletion_mutant_agrees_with_the_baseline(tmp_path, name, mode, checker_name, seq):
    mutant = without(load_workload(name, mode), seq)
    assert_bug_sets_agree(mutant, checker_cmd(checker_name), tmp_path, name)
