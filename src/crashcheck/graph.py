"""Persistence graph: operations as nodes, happens-before edges, and the
static keys used for node equivalence.

Happens-before is stored once: :func:`build_graph` indexes the model's
edges by destination seq, and every subgraph taken with
:meth:`PersistenceGraph.induced` (behaviors, MMIO types, instances and
epochs) is a view that shares that index and keeps only its own nodes.

Node identity is the trace seq; equivalence between nodes is a separate
relation built on :class:`StaticKey` (see :mod:`crashcheck.grouping`), which
keeps the dynamic/static split explicit.  Graphs are immutable after
construction and safe to share across readers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import GraphBuildError, NodeNotFound
from .models import HbEdge
from .trace import METADATA_ONLY_KINDS, Operation, Trace

FULL_KEY = "full"
INNERMOST_KEY = "innermost"


@dataclass(frozen=True, order=True)
class StaticKey:
    """Payload-independent identity of an operation's program location.

    The default mode keys a node by its kind plus the whole static call
    chain, so the same write reached through two different call paths stays
    distinct; ``innermost`` keeps only the deepest frame, which deliberately
    conflates call contexts.
    """

    kind: str
    static_stack: tuple[tuple[str, str, int], ...]

    @property
    def loc(self) -> tuple[str, int]:
        _, file, line = self.static_stack[-1]
        return (file, line)

    @classmethod
    def of(cls, op: Operation, mode: str = FULL_KEY) -> "StaticKey":
        frames = tuple((f.function, f.file, f.line) for f in op.backtrace.frames)
        if mode == INNERMOST_KEY:
            frames = frames[-1:]
        elif mode != FULL_KEY:
            raise ValueError(f"unknown static key mode {mode!r}")
        return cls(kind=op.kind, static_stack=frames)


@dataclass(frozen=True)
class PersistenceGraph:
    """Nodes ``ops_by_seq`` over one happens-before index shared by every
    graph induced from the same :func:`build_graph` result.

    ``in_edges`` maps each destination seq to its incoming edges in the full
    graph; a graph's own edges are those whose source is also one of its
    nodes, so inducing a subgraph copies nothing but the node map.
    """

    ops_by_seq: dict[int, Operation]
    in_edges: dict[int, tuple[HbEdge, ...]] = field(repr=False)
    key_mode: str = FULL_KEY

    @property
    def node_seqs(self) -> tuple[int, ...]:
        return tuple(sorted(self.ops_by_seq))

    @cached_property
    def edges(self) -> frozenset[HbEdge]:
        nodes = self.ops_by_seq
        return frozenset(
            e for seq in nodes for e in self.in_edges.get(seq, ()) if e.src_seq in nodes
        )

    def __len__(self) -> int:
        return len(self.ops_by_seq)

    def op(self, seq: int) -> Operation:
        try:
            return self.ops_by_seq[seq]
        except KeyError:
            raise NodeNotFound(f"node {seq} is not in the graph") from None

    def static_key(self, seq: int) -> StaticKey:
        return StaticKey.of(self.op(seq), self.key_mode)

    def predecessors(self, seq: int) -> set[int]:
        self.op(seq)
        return {e.src_seq for e in self.in_edges.get(seq, ()) if e.src_seq in self.ops_by_seq}

    def induced(self, node_set) -> "PersistenceGraph":
        nodes = set(node_set)
        unknown = nodes - self.ops_by_seq.keys()
        if unknown:
            raise NodeNotFound(f"nodes {sorted(unknown)} are not in the graph")
        return PersistenceGraph(
            {seq: self.ops_by_seq[seq] for seq in nodes}, self.in_edges, self.key_mode
        )


def build_graph(trace: Trace, edges: set[HbEdge], key_mode: str = FULL_KEY) -> PersistenceGraph:
    """Build the persistence graph over a trace's storage operations.

    open/close ops are recorded in traces but are pure bookkeeping; they do
    not become nodes.  Every edge endpoint must be a node and must run
    forward in trace order, otherwise :class:`GraphBuildError` is raised.
    """
    ops_by_seq = {op.seq: op for op in trace.ops if op.kind not in METADATA_ONLY_KINDS}
    in_edges: dict[int, list[HbEdge]] = {}
    for e in set(edges):
        if e.src_seq not in ops_by_seq or e.dst_seq not in ops_by_seq:
            raise GraphBuildError(f"edge {e.pair} references a seq outside the graph")
        if e.src_seq >= e.dst_seq:
            raise GraphBuildError(f"edge {e.pair} does not run forward in trace order")
        in_edges.setdefault(e.dst_seq, []).append(e)
    return PersistenceGraph(
        ops_by_seq, {seq: tuple(incoming) for seq, incoming in in_edges.items()}, key_mode
    )


def export_dot(graph: PersistenceGraph, name: str = "pg") -> str:
    """Deterministic DOT rendering: nodes labeled kind@file:line, edges
    labeled with the model rule that produced them."""
    out = [f"digraph {name} {{"]
    for seq in sorted(graph.ops_by_seq):
        op = graph.ops_by_seq[seq]
        frame = op.backtrace.innermost
        out.append(f'  n{seq} [label="{op.kind}@{frame.file}:{frame.line}"];')
    for e in sorted(graph.edges):
        out.append(f'  n{e.src_seq} -> n{e.dst_seq} [label="{e.reason.value}"];')
    out.append("}")
    return "\n".join(out) + "\n"
