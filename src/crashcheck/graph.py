"""Persistence graph: operations as nodes, happens-before edges, and the
static keys used for node equivalence.

Happens-before is stored once, as the model's per-rule bitsets ORed into
one Python-int bitset of direct predecessors per node in the vector-clock
style of FastTrack (Flanagan & Freund, PLDI'09), and every subgraph taken
with :meth:`PersistenceGraph.induced` (each update behavior's) shares
it: a view's predecessors of ``n`` are ``preds[n] & mask``.  Only
:func:`export_dot`, which labels each edge, names a pair's rule; it
renders the edges from per-source buckets filled in destination order.

Node identity is the trace seq; equivalence between nodes is a separate
relation built on :class:`StaticKey` (see :mod:`crashcheck.grouping`), which
keeps the dynamic/static split explicit.  Graphs are immutable after
construction and safe to share across readers.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import compress
from typing import Iterator

from .errors import GraphBuildError, NodeNotFound
from .models import EdgeReason, HappensBefore
from .trace import METADATA_ONLY_KINDS, Operation, Trace

_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")

FULL_KEY = "full"
INNERMOST_KEY = "innermost"


class StaticKey:
    """Payload-independent identity of an operation's program location.

    The default mode keys a node by its kind plus the whole static call
    chain, so the same write reached through two different call paths stays
    distinct; ``innermost`` keeps only the deepest frame, which deliberately
    conflates call contexts.
    """

    __slots__ = ("kind", "static_stack", "_hash")

    def __init__(self, kind: str, static_stack: tuple[tuple[str, str, int], ...]):
        self.kind, self.static_stack = kind, static_stack
        # Grouping hashes keys in every set operation; hash the frames once.
        self._hash = hash((kind, static_stack))

    def __eq__(self, other):
        if other.__class__ is not StaticKey:
            return NotImplemented
        return self.kind == other.kind and self.static_stack == other.static_stack

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"StaticKey(kind={self.kind!r}, static_stack={self.static_stack!r})"

    @classmethod
    def of(cls, op: Operation, mode: str = FULL_KEY) -> "StaticKey":
        frames = tuple(map(tuple, op.backtrace.frames))
        if mode == INNERMOST_KEY:
            frames = frames[-1:]
        elif mode != FULL_KEY:
            raise ValueError(f"unknown static key mode {mode!r}")
        return cls(kind=op.kind, static_stack=frames)


class PersistenceGraph:
    """Nodes ``ops_by_seq`` over one happens-before shared by every graph
    induced from the same :func:`build_graph` result.

    ``preds`` maps a node seq to the bitset of its direct predecessors, bit
    ``i`` standing for ``seqs[i]``, the seqs of all trace ops as in the
    model; ``rules`` names each edge; and ``static_keys`` holds one object
    per distinct key, so comparing keys is mostly an identity check.
    ``mask`` is the bitset of this graph's own nodes, so inducing a
    subgraph copies nothing but the node map.
    """

    def __init__(
        self,
        ops_by_seq: dict[int, Operation],
        seqs: tuple[int, ...],
        preds: dict[int, int],
        rules: dict[EdgeReason, dict[int, int]],
        static_keys: dict[int, StaticKey],
        mask: int,
    ):
        self.ops_by_seq, self.seqs, self.preds, self.rules = ops_by_seq, seqs, preds, rules
        self.static_keys, self.mask = static_keys, mask

    def _seqs_in(self, bitset: int) -> Iterator[int]:
        # The binary digits, lowest first, as 0/1 bytes select from seqs.
        return compress(self.seqs, bin(bitset)[:1:-1].encode().translate(_DIGIT_VALUES))

    @property
    def node_seqs(self) -> tuple[int, ...]:
        return tuple(sorted(self.ops_by_seq))

    @cached_property
    def edge_count(self) -> int:
        return sum((self.preds.get(seq, 0) & self.mask).bit_count() for seq in self.ops_by_seq)

    def __len__(self) -> int:
        return len(self.ops_by_seq)

    @cached_property
    def key_set(self) -> frozenset[StaticKey]:
        return frozenset(map(self.static_keys.__getitem__, self.ops_by_seq))

    @cached_property
    def key_pairs(self) -> frozenset[tuple[StaticKey, StaticKey]]:
        """The (source key, destination key) pairs of this graph's edges."""
        keys, mask, seqs_in = self.static_keys, self.mask, self._seqs_in
        return frozenset(
            (keys[src], keys[dst]) for dst in seqs_in(mask) for src in seqs_in(self.preds.get(dst, 0) & mask)
        )

    def induced(self, node_set) -> "PersistenceGraph":
        nodes = set(node_set)
        unknown = nodes - self.ops_by_seq.keys()
        if unknown:
            raise NodeNotFound(f"nodes {sorted(unknown)} are not in the graph")
        mask = sum(1 << bisect_left(self.seqs, seq) for seq in nodes)
        ops_by_seq = {seq: self.ops_by_seq[seq] for seq in nodes}
        return PersistenceGraph(ops_by_seq, self.seqs, self.preds, self.rules, self.static_keys, mask)


def build_graph(trace: Trace, hb: HappensBefore, key_mode: str = FULL_KEY) -> PersistenceGraph:
    """Build the persistence graph over a trace's storage operations.

    open/close ops are recorded in traces but are pure bookkeeping; they do
    not become nodes.  Every edge of ``hb`` must join two nodes and run
    forward in trace order, otherwise :class:`GraphBuildError` is raised.
    """
    seqs = tuple(op.seq for op in trace.ops)
    if any(a >= b for a, b in zip(seqs, seqs[1:])):
        raise GraphBuildError("trace seqs do not increase")
    ops_by_seq = {op.seq: op for op in trace.ops if op.kind not in METADATA_ONLY_KINDS}
    mask = sum(1 << i for i, op in enumerate(trace.ops) if op.kind not in METADATA_ONLY_KINDS)
    index = {seq: i for i, seq in enumerate(seqs)}
    preds = hb.preds()
    for dst, srcs in preds.items():
        i = index.get(dst, -1)
        if i < 0 or not mask >> i & 1 or srcs & ~mask:
            raise GraphBuildError(f"happens-before into {dst} names an op outside the graph")
        if srcs >> i:
            raise GraphBuildError(f"happens-before into {dst} does not run forward in trace order")
    keys = {seq: StaticKey.of(op, key_mode) for seq, op in ops_by_seq.items()}
    interned = {key: key for key in keys.values()}
    keys = {seq: interned[key] for seq, key in keys.items()}
    return PersistenceGraph(ops_by_seq, seqs, preds, hb.rules, keys, mask)


def export_dot(graph: PersistenceGraph, write=None) -> str | None:
    """Deterministic DOT rendering: nodes labeled kind@file:line in seq
    order, then edges in (src, dst) order, each labeled with the first of
    its destination's rules that holds it.  The text goes to ``write`` in
    pieces (a line, or one source's edges) or, without it, is returned.

    Destinations are visited in seq order and each edge's text after its
    source (``" -> n<dst> [label=...];"``, built once per destination and
    rule) goes into its source's bucket, so the buckets come out in
    destination order without sorting the edges."""
    if write is None:
        parts: list[str] = []
        export_dot(graph, parts.append)
        return "".join(parts)
    write("digraph pg {\n")
    mask, preds, rules = graph.mask, graph.preds, graph.rules.items()
    nodes = list(graph._seqs_in(mask))
    tails: dict[int, list[str]] = {}
    for seq in nodes:
        op = graph.ops_by_seq[seq]
        frame = op.backtrace.innermost
        write(f'  n{seq} [label="{op.kind}@{frame.file}:{frame.line}"];\n')
        tails[seq] = []
    for dst in nodes:
        rest = preds.get(dst, 0) & mask
        for reason, by_dst in rules:
            srcs = by_dst.get(dst, 0) & rest
            if srcs:
                rest ^= srcs
                tail = f' -> n{dst} [label="{reason.value}"];'
                for src in graph._seqs_in(srcs):
                    tails[src].append(tail)
    for src, edges in tails.items():
        if edges:
            head = f"\n  n{src}"
            write(head[1:] + head.join(edges) + "\n")
    write("}\n")
