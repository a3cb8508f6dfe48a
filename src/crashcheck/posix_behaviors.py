"""POSIX update-behavior derivation.

Adjacent operations on one thread are grouped by the longest common prefix
of their backtraces: a stable prefix keeps extending the open behavior, a
deeper prefix means a new function took over (the boundary op moves into
the new behavior), and a shallower prefix closes the behavior.  Closed
behaviors land under the function path their prefix ends at.  A call stack
tree then merges child behaviors into parents, splitting the merged spans
with density clustering so periodic callers do not glue unrelated work
together.

Behaviors never cross threads, and function map keys are full static paths
from the thread root rather than bare names, so recursion levels stay
distinct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class _OpenBehavior:
    ops: list[Operation]
    path: FnPath


class _Derivation:
    def __init__(self):
        self.result: dict[FnPath, list[list[Operation]]] = {}

    def close(self, ops: list[Operation], path: FnPath):
        if not ops:
            return
        self.result.setdefault(path, []).append(list(ops))

    def run_thread(self, ops: list[Operation]):
        if len(ops) == 1:
            self.close(ops, self._innermost_path(ops[0]))
            return
        open_ub: _OpenBehavior | None = None
        prev_path: FnPath = ()
        for op_i, op_next in zip(ops, ops[1:]):
            lcp = longest_common_prefix(op_i.backtrace, op_next.backtrace)
            path = prefix_path(lcp)
            if open_ub is None or op_i not in open_ub.ops:
                open_ub = _OpenBehavior(ops=[op_i, op_next], path=path)
            elif path == prev_path:
                open_ub.ops.append(op_next)
            elif len(path) > len(prev_path):
                # A new, deeper function started with op_i: it belongs to the
                # new behavior, not the one being closed.
                open_ub.ops.remove(op_i)
                self.close(open_ub.ops, open_ub.path)
                open_ub = _OpenBehavior(ops=[op_i, op_next], path=path)
            else:
                self.close(open_ub.ops, open_ub.path)
                open_ub = None
            prev_path = path
        if open_ub is not None:
            self.close(open_ub.ops, open_ub.path)
        elif ops:
            # The final pair closed shallow, leaving the last op unassigned.
            last = ops[-1]
            self.close([last], self._innermost_path(last))

    @staticmethod
    def _innermost_path(op: Operation) -> FnPath:
        return op.backtrace.functions()


def derive_function_subgraphs(
    graph: PersistenceGraph, trace: Trace
) -> dict[FnPath, list[UpdateBehavior]]:
    """Leaf-level behaviors per thread, keyed by static function path.

    Within one thread the leaf behaviors' node sets are disjoint and cover
    every graph node of the thread.
    """
    deriv = _Derivation()
    node_seqs = set(graph.ops_by_seq)
    per_tid = split_by_thread(trace)
    for tid in sorted(per_tid):
        thread_ops = [op for op in per_tid[tid] if op.seq in node_seqs]
        if thread_ops:
            deriv.run_thread(thread_ops)

    out: dict[FnPath, list[UpdateBehavior]] = {}
    counter = 0
    for path in sorted(deriv.result):
        for ops in deriv.result[path]:
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


@dataclass
class CallStackTree:
    """Parent/child function relations observed in one trace's backtraces.

    Nodes are keyed by (tid, static path); each node carries the behaviors
    attached under that path.  Per thread the node set forms a forest of
    proper trees.
    """

    children: dict[tuple[int, FnPath], set[FnPath]] = field(default_factory=dict)
    behaviors: dict[tuple[int, FnPath], list[UpdateBehavior]] = field(default_factory=dict)

    @classmethod
    def from_trace(cls, trace: Trace) -> "CallStackTree":
        tree = cls()
        for op in trace.ops:
            funcs = op.backtrace.functions()
            for depth in range(1, len(funcs) + 1):
                path = funcs[:depth]
                key = (op.tid, path)
                tree.children.setdefault(key, set())
                if depth > 1:
                    tree.children.setdefault((op.tid, funcs[: depth - 1]), set()).add(path)
        return tree

    def attach(self, fmap: dict[FnPath, list[UpdateBehavior]]):
        for path, behaviors in fmap.items():
            for behavior in behaviors:
                key = (behavior.tid, path)
                self.children.setdefault(key, set())
                self.behaviors.setdefault(key, []).append(behavior)

    def paths_deepest_first(self) -> list[tuple[int, FnPath]]:
        return sorted(self.children, key=lambda k: (k[0], -len(k[1]), k[1]))


def merge_up_tree(
    tree: CallStackTree,
    fmap: dict[FnPath, list[UpdateBehavior]],
    graph: PersistenceGraph,
    eps: int = 10,
    min_pts: int = 1,
) -> dict[FnPath, list[UpdateBehavior]]:
    """Merge child behaviors into parents, leaf to root.

    Each function with children gains behaviors built from the union of its
    children's behavior node sets plus its own directly attached ops, split
    temporally before attachment.  Existing behaviors are kept; merging
    never invents ops and never crosses threads.
    """
    tree.attach(fmap)
    merged_counter = 0
    for key in tree.paths_deepest_first():
        tid, path = key
        kids = tree.children.get(key, set())
        if not kids:
            continue
        node_union: set[int] = set()
        for kid in sorted(kids):
            for behavior in tree.behaviors.get((tid, kid), []):
                node_union.update(behavior.node_seqs)
        for behavior in tree.behaviors.get(key, []):
            node_union.update(behavior.node_seqs)
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
        for piece in cluster_temporal(combined, eps=eps, min_pts=min_pts):
            tree.behaviors.setdefault(key, []).append(piece)

    out: dict[FnPath, list[UpdateBehavior]] = {}
    for (tid, path), behaviors in sorted(tree.behaviors.items()):
        out.setdefault(path, []).extend(behaviors)
    return out


def derive_posix_behaviors(
    graph: PersistenceGraph, trace: Trace, eps: int = 10, min_pts: int = 1
) -> list[UpdateBehavior]:
    """Full POSIX derivation: leaf behaviors, then call-stack-tree merging.

    Returns all behaviors (leaf and merged), ordered by thread, span and id.
    """
    fmap = derive_function_subgraphs(graph, trace)
    tree = CallStackTree.from_trace(trace)
    merged = merge_up_tree(tree, fmap, graph, eps=eps, min_pts=min_pts)
    behaviors = [b for blist in merged.values() for b in blist]
    return sorted(behaviors, key=lambda b: (b.tid, b.span, b.id))
