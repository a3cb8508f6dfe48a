"""POSIX update-behavior derivation.

Adjacent operations on one thread are grouped by the longest common prefix
of their backtraces: a stable prefix keeps extending the open run, a
deeper prefix means a new function took over (the boundary op moves into
the new run), and a shallower prefix closes the run.  Closed runs land
under the function path their prefix ends at.  Then, leaf to root along
the call paths seen in the trace, each function's behaviors are merged
with its children's, the merged spans split with density clustering so
periodic callers do not glue unrelated work together.

Behaviors never cross threads, and function map keys are full static paths
from the thread root rather than bare names, so recursion levels stay
distinct.  The derivation works on plain lists of ops; each behavior's
subgraph is induced once, when it is made.
"""

from __future__ import annotations

from .behavior import UpdateBehavior, cluster_temporal, make_behavior
from .graph import PersistenceGraph
from .trace import Backtrace, Operation, Trace, split_by_thread

FnPath = tuple[str, ...]


def longest_common_prefix(a: Backtrace, b: Backtrace) -> Backtrace | None:
    """Longest outermost-aligned run of frames shared by two backtraces.

    Frames must match exactly (function, file, line) to keep the run going;
    a pair that still agrees on function and file but diverges on line is
    the two call sites inside one function, so that frame terminates the
    prefix and is included (taking the first backtrace's line).  Returns
    None when even the outermost frames disagree.
    """
    frames = []
    for fa, fb in zip(a.frames, b.frames):
        if fa == fb:
            frames.append(fa)
            continue
        if fa.function == fb.function and fa.file == fb.file:
            frames.append(fa)
        break
    return Backtrace(tuple(frames)) if frames else None


def prefix_path(prefix: Backtrace | None) -> FnPath:
    if prefix is None:
        return ()
    return prefix.functions()


def _leaf_runs(thread_ops: list[Operation]) -> list[tuple[FnPath, list[Operation]]]:
    """One thread's ops cut into ``(path, ops)`` runs, in the order the runs
    close."""
    runs: list[tuple[FnPath, list[Operation]]] = []
    run: list[Operation] | None = None
    run_path: FnPath = ()
    prev_path: FnPath = ()
    for op_i, op_next in zip(thread_ops, thread_ops[1:]):
        path = prefix_path(longest_common_prefix(op_i.backtrace, op_next.backtrace))
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


def derive_function_subgraphs(
    graph: PersistenceGraph, trace: Trace
) -> dict[FnPath, list[UpdateBehavior]]:
    """Leaf-level behaviors per thread, keyed by static function path.

    Within one thread the leaf behaviors' node sets are disjoint and cover
    every graph node of the thread.
    """
    runs: dict[FnPath, list[list[Operation]]] = {}
    per_tid = split_by_thread(trace)
    for tid in sorted(per_tid):
        thread_ops = [op for op in per_tid[tid] if op.seq in graph.ops_by_seq]
        if thread_ops:
            for path, ops in _leaf_runs(thread_ops):
                runs.setdefault(path, []).append(ops)

    out: dict[FnPath, list[UpdateBehavior]] = {}
    counter = 0
    for path in sorted(runs):
        for ops in runs[path]:
            behavior = make_behavior(
                f"t{ops[0].tid}:{'/'.join(path)}#{counter}",
                path[-1] if path else "?",
                ops[0].tid,
                [op.seq for op in ops],
                graph,
            )
            out.setdefault(path, []).append(behavior)
            counter += 1
    return out


def merge_up_tree(
    fmap: dict[FnPath, list[UpdateBehavior]],
    trace: Trace,
    graph: PersistenceGraph,
    eps: int = 10,
    min_pts: int = 1,
) -> dict[FnPath, list[UpdateBehavior]]:
    """Merge child behaviors into parents, leaf to root.

    The call-stack tree is read from the trace's backtraces: per thread,
    each static path's children are the one-frame-deeper paths observed
    below it.  Deepest paths first, each function with children gains
    behaviors built from the union of its children's behavior node sets
    plus its own directly attached ones, split temporally before
    attachment.  Existing behaviors are kept; merging never invents ops and
    never crosses threads.
    """
    children: dict[tuple[int, FnPath], set[FnPath]] = {}
    for op in trace.ops:
        funcs = op.backtrace.functions()
        for depth in range(2, len(funcs) + 1):
            children.setdefault((op.tid, funcs[: depth - 1]), set()).add(funcs[:depth])
    attached: dict[tuple[int, FnPath], list[UpdateBehavior]] = {}
    for path, behaviors in fmap.items():
        for behavior in behaviors:
            attached.setdefault((behavior.tid, path), []).append(behavior)

    merged_counter = 0
    for key in sorted(children, key=lambda k: (k[0], -len(k[1]), k[1])):
        tid, path = key
        members = [key, *((tid, kid) for kid in children[key])]
        node_union = {seq for member in members for b in attached.get(member, []) for seq in b.node_seqs}
        if not node_union:
            continue
        combined = make_behavior(
            f"t{tid}:{'/'.join(path)}+m{merged_counter}",
            path[-1],
            tid,
            node_union,
            graph,
        )
        merged_counter += 1
        attached.setdefault(key, []).extend(cluster_temporal(combined, eps=eps, min_pts=min_pts))

    out: dict[FnPath, list[UpdateBehavior]] = {}
    for (tid, path), behaviors in sorted(attached.items()):
        out.setdefault(path, []).extend(behaviors)
    return out


def derive_posix_behaviors(
    graph: PersistenceGraph, trace: Trace, eps: int = 10, min_pts: int = 1
) -> list[UpdateBehavior]:
    """Full POSIX derivation: leaf behaviors, then merging up the call paths.

    Returns all behaviors (leaf and merged), ordered by thread, span and id.
    """
    fmap = derive_function_subgraphs(graph, trace)
    merged = merge_up_tree(fmap, trace, graph, eps=eps, min_pts=min_pts)
    behaviors = [b for blist in merged.values() for b in blist]
    return sorted(behaviors, key=lambda b: (b.tid, b.span, b.id))
