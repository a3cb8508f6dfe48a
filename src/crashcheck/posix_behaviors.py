"""POSIX update-behavior derivation, in one pass.

Adjacent operations on one thread are grouped by the function path their
backtraces share: a stable path keeps extending the open run, a deeper
path means a new function took over (the boundary op moves into the new
run), and a shallower path closes the run.  Each closed run is a leaf
behavior under the path it was cut at.  Then every caller prefix of the
thread (a non-empty, proper prefix of some op's function path) gets one
merged behavior over the union of the leaf runs below it, deepest prefix
first, split with density clustering so periodic callers do not glue
unrelated work together.

Behaviors never cross threads, and paths run from the thread root rather
than naming a bare function, so recursion levels stay distinct.  Each
behavior's subgraph is induced once, when it is made.
"""

from __future__ import annotations

from .behavior import DEFAULT_EPS, DEFAULT_MIN_PTS, UpdateBehavior, cluster_temporal, make_behavior
from .graph import PersistenceGraph
from .trace import Backtrace, Operation, Trace, split_by_thread

FnPath = tuple[str, ...]


def common_path(a: Backtrace, b: Backtrace) -> FnPath:
    """Function names of the longest outermost-aligned run of frames two
    backtraces share.

    Frames must match exactly (function, file, line) to keep the run going;
    a pair that still agrees on function and file but diverges on line is
    the two call sites inside one function, so that frame ends the run and
    is included.  Empty when even the outermost frames disagree.
    """
    path = []
    for fa, fb in zip(a.frames, b.frames):
        if fa.function != fb.function or fa.file != fb.file:
            break
        path.append(fa.function)
        if fa.line != fb.line:
            break
    return tuple(path)


def _leaf_runs(thread_ops: list[Operation]) -> list[tuple[FnPath, list[Operation]]]:
    """One thread's ops cut into ``(path, ops)`` runs, in the order the runs
    close.  The runs are disjoint and cover ``thread_ops``."""
    runs: list[tuple[FnPath, list[Operation]]] = []
    run: list[Operation] | None = None
    run_path: FnPath = ()
    prev_path: FnPath = ()
    for op_i, op_next in zip(thread_ops, thread_ops[1:]):
        path = common_path(op_i.backtrace, op_next.backtrace)
        # An open run always ends at op_i.
        if run is None:
            run, run_path = [op_i, op_next], path
        elif path == prev_path:
            run.append(op_next)
        elif len(path) > len(prev_path):
            # A new, deeper function started with op_i: it belongs to the
            # new run, not the one being closed.
            run.pop()
            runs.append((run_path, run))
            run, run_path = [op_i, op_next], path
        else:
            runs.append((run_path, run))
            run = None
        prev_path = path
    if run is not None:
        runs.append((run_path, run))
    else:
        # The final pair closed shallow (or the thread has one op), leaving
        # the last op unassigned.
        last = thread_ops[-1]
        runs.append((last.backtrace.functions(), [last]))
    return runs


def derive_posix_behaviors(
    graph: PersistenceGraph, trace: Trace, eps: int = DEFAULT_EPS, min_pts: int = DEFAULT_MIN_PTS
) -> list[UpdateBehavior]:
    """Leaf behaviors ``t{tid}:{path}#{i}``, numbered in a stable sort of
    every thread's leaf runs by path, then merged behaviors
    ``t{tid}:{prefix}+m{k}`` for each caller prefix in (tid, -depth,
    prefix) order that has leaf runs below it, each split temporally.

    Returns all behaviors, ordered by thread, span and id.
    """
    runs: list[tuple[int, FnPath, list[int]]] = []
    callers: set[tuple[int, FnPath]] = set()
    per_tid = split_by_thread(trace)
    for tid in sorted(per_tid):
        for op in per_tid[tid]:
            funcs = op.backtrace.functions()
            callers.update((tid, funcs[:depth]) for depth in range(1, len(funcs)))
        thread_ops = [op for op in per_tid[tid] if op.seq in graph.ops_by_seq]
        if thread_ops:
            runs += ((tid, path, [op.seq for op in ops]) for path, ops in _leaf_runs(thread_ops))

    behaviors = []
    # The seqs of the leaf runs at or below each (tid, path).  Runs of one
    # thread are disjoint, so a union is a concatenation.
    below: dict[tuple[int, FnPath], list[int]] = {}
    for i, (tid, path, seqs) in enumerate(sorted(runs, key=lambda run: run[1])):
        behaviors.append(make_behavior(f"t{tid}:{'/'.join(path)}#{i}", path[-1] if path else "?", tid, seqs, graph))
        for depth in range(1, len(path) + 1):
            below.setdefault((tid, path[:depth]), []).extend(seqs)

    merged = 0
    for tid, prefix in sorted(callers, key=lambda caller: (caller[0], -len(caller[1]), caller[1])):
        seqs = below.get((tid, prefix))
        if seqs:
            combined = make_behavior(f"t{tid}:{'/'.join(prefix)}+m{merged}", prefix[-1], tid, seqs, graph)
            merged += 1
            behaviors += cluster_temporal(combined, eps=eps, min_pts=min_pts)
    return sorted(behaviors, key=lambda b: (b.tid, b.span, b.id))
