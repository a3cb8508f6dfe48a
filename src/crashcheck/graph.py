"""Persistence graph: operations as nodes, happens-before edges, and the
static keys used for node equivalence.

Happens-before is stored once, as the model's per-rule Python-int bitsets
of direct predecessors in the vector-clock style of FastTrack (Flanagan &
Freund, PLDI'09), shared with the op map and the static keys by every
subgraph taken with :meth:`PersistenceGraph.induced` (each update
behavior's).  A graph is only its window over them: ``base`` is the
trace-wide bit of its lowest node and its ``mask`` counts bits from there,
so a view's nodes are the mask's bits, its predecessors of ``n`` are
the union of ``n``'s rule sources ``>> base & mask``, and a behavior
costs its span, not the trace.  :func:`export_dot`, which
labels each edge, draws only the transitive reduction of the graph's
pairs (Aho, Garey & Ullman, SIAM J. Comput. 1972), found by
:func:`reduction`, the pass over ancestor bitsets that schedule
enumeration also runs.

Node identity is the trace seq; equivalence between nodes is a separate
relation built on :class:`StaticKey` (see :mod:`crashcheck.grouping`), which
keeps the dynamic/static split explicit.  :func:`build_graph` makes one key
per kind and shared backtrace, so a trace costs one key object per distinct
call chain, not one per op.  Graphs are immutable after construction and
safe to share across readers.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import compress
from typing import Iterator, NamedTuple

from .errors import GraphBuildError, NodeNotFound
from .models import EdgeReason, HappensBefore, sources_of
from .trace import METADATA_ONLY_KINDS, Operation, Trace

_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")

FULL_KEY = "full"
INNERMOST_KEY = "innermost"


class StaticKey(NamedTuple):
    """Payload-independent identity of an operation's program location.

    The default mode keys a node by its kind plus the whole static call
    chain, so the same write reached through two different call paths stays
    distinct; ``innermost`` keeps only the deepest frame, which deliberately
    conflates call contexts.
    """

    kind: str
    static_stack: tuple[tuple[str, str, int], ...]

    @classmethod
    def of(cls, op: Operation, mode: str = FULL_KEY) -> "StaticKey":
        frames = tuple(map(tuple, op.backtrace.frames))
        if mode == INNERMOST_KEY:
            frames = frames[-1:]
        elif mode != FULL_KEY:
            raise ValueError(f"unknown static key mode {mode!r}")
        return cls(kind=op.kind, static_stack=frames)


def _select(items, bitset: int) -> Iterator:
    # The binary digits, lowest first, as 0/1 bytes select from items.
    return compress(items, bin(bitset)[:1:-1].encode().translate(_DIGIT_VALUES))


def bits_of(bitset: int) -> Iterator[int]:
    """The indices of a bitset's bits, highest first: for a sparse bitset,
    cheaper than selecting by its digits."""
    while bitset:
        i = bitset.bit_length() - 1
        yield i
        bitset ^= 1 << i


def reduction(preds: list[int]) -> list[int]:
    """The transitive reduction of a DAG whose edges run forward: ``preds[i]``
    is the bitset of node ``i``'s direct predecessors, all on lower bits, and
    the result keeps of each only the predecessors that no path through
    another one reaches.  One pass in node order over ancestor bitsets."""
    ancestors = [0] * len(preds)
    kept = [0] * len(preds)
    for i, pred_bits in enumerate(preds):
        rest, reach, keep = pred_bits, pred_bits, 0
        while rest:
            # The highest remaining predecessor is no ancestor of another.
            j = rest.bit_length() - 1
            keep |= 1 << j
            reach |= ancestors[j]
            rest &= ~(ancestors[j] | 1 << j)
        ancestors[i], kept[i] = reach, keep
    return kept


class PersistenceGraph:
    """The nodes of one window over the ops, happens-before and keys that
    every graph induced from the same :func:`build_graph` result shares.

    ``ops_by_seq`` maps the seq of every node of the full graph to its op;
    ``rules`` is the model's :attr:`HappensBefore.rules`, the only store of
    happens-before: per rule, each node seq's direct predecessors, bit ``i``
    for trace seq ``seqs[i]``; ``static_keys`` holds one key per call chain
    and kind, so comparing keys is mostly an identity check.  A graph's own
    state is its window: ``base`` is the bit of its lowest node (0 without
    nodes) and ``mask`` the bitset of its nodes from there, bit ``i``
    standing for ``seqs[base + i]``.  So inducing a subgraph copies nothing,
    and every bitset it reads is as wide as its span.
    """

    def __init__(
        self,
        ops_by_seq: dict[int, Operation],
        seqs: tuple[int, ...],
        rules: dict[EdgeReason, dict[int, int]],
        static_keys: dict[int, StaticKey],
        mask: int,
        base: int,
    ):
        self.ops_by_seq, self.seqs, self.rules = ops_by_seq, seqs, rules
        self.static_keys, self.mask, self.base = static_keys, mask, base

    def _seqs_in(self, bitset: int) -> Iterator[int]:
        """The seqs of a window bitset's bits, lowest first."""
        return _select(self.seqs[self.base:self.base + bitset.bit_length()], bitset)

    def own_preds(self) -> Iterator[tuple[int, int]]:
        """Each node's seq, lowest first, with its predecessors in this graph
        as a window bitset."""
        return sources_of(self.rules, self._seqs_in(self.mask), self.base, self.mask)

    @property
    def node_seqs(self) -> tuple[int, ...]:
        return tuple(self._seqs_in(self.mask))

    @cached_property
    def edge_count(self) -> int:
        return sum(bits.bit_count() for _, bits in self.own_preds())

    def __len__(self) -> int:
        return self.mask.bit_count()

    @cached_property
    def key_set(self) -> frozenset[StaticKey]:
        return frozenset(map(self.static_keys.__getitem__, self._seqs_in(self.mask)))

    @cached_property
    def key_pairs(self) -> frozenset[tuple[StaticKey, StaticKey]]:
        """The (source key, destination key) pairs of this graph's edges."""
        keys, seqs_in = self.static_keys, self._seqs_in
        return frozenset((keys[src], keys[dst]) for dst, bits in self.own_preds() for src in seqs_in(bits))

    def induced(self, node_set) -> "PersistenceGraph":
        """The subgraph on ``node_set``, nodes of this graph, as a new window
        over the same shared maps; :class:`NodeNotFound` names the others."""
        nodes = sorted(set(node_set))
        # Each node's bit in this graph's window, then its digit in the new
        # window, which starts at the lowest node.
        seqs, lo, mask = self.seqs, self.base, self.mask
        hi = lo + mask.bit_length()
        bits = [bisect_left(seqs, seq, lo, hi) for seq in nodes]
        unknown = [seq for seq, bit in zip(nodes, bits) if bit == hi or seqs[bit] != seq or not mask >> bit - lo & 1]
        if unknown:
            raise NodeNotFound(f"nodes {unknown} are not in the graph")
        window = 0, 0
        if bits:
            digits = bytearray(b"0" * (bits[-1] - bits[0] + 1))
            for bit in bits:
                digits[bits[-1] - bit] = 49  # ord("1"), most significant first
            window = int(digits, 2), bits[0]
        return PersistenceGraph(self.ops_by_seq, seqs, self.rules, self.static_keys, *window)


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
    mask = int("".join("0" if op.kind in METADATA_ONLY_KINDS else "1" for op in reversed(trace.ops)) or "0", 2)
    outside = mask ^ (1 << len(seqs)) - 1  # the open/close ops' bits
    for by_dst in hb.rules.values():
        for dst, srcs in by_dst.items():
            if dst not in ops_by_seq or srcs & outside or srcs >> bisect_left(seqs, dst):
                raise GraphBuildError(f"happens-before into {dst} names an op that is no earlier node of the graph")
    # Parsing shares one backtrace per call chain, so a key is made once
    # per (kind, backtrace object).
    by_chain: dict[tuple[str, int], StaticKey] = {}
    keys = {}
    for seq, op in ops_by_seq.items():
        chain = (op.kind, id(op.backtrace))
        key = by_chain.get(chain)
        if key is None:
            key = by_chain[chain] = StaticKey.of(op, key_mode)
        keys[seq] = key
    base = max((mask & -mask).bit_length() - 1, 0)
    return PersistenceGraph(ops_by_seq, seqs, hb.rules, keys, mask >> base, base)


def export_dot(graph: PersistenceGraph, write=None) -> str | None:
    """Deterministic DOT rendering: nodes labeled kind@file:line in seq
    order, then the edges of the transitive reduction of the graph's pairs
    in (src, dst) order, each labeled with the first of its destination's
    rules that holds it: a pair that a path of others implies is not
    drawn, though ``edge_count`` counts it.  The text goes to ``write`` in
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
    base, mask, rules = graph.base, graph.mask, graph.rules.items()
    seqs = graph.seqs[base:base + mask.bit_length()]
    tails: dict[int, list[str]] = {}
    window = [0] * len(seqs)
    nodes = []
    for bit, (seq, bits) in zip(_select(range(len(window)), mask), graph.own_preds()):
        op = graph.ops_by_seq[seq]
        frame = op.backtrace.innermost
        file = frame.file.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")  # for a quoted label
        write(f'  n{seq} [label="{op.kind}@{file}:{frame.line}"];\n')
        tails[seq] = []
        window[bit] = bits
        nodes.append((bit, seq))
    kept = reduction(window)
    for bit, dst in nodes:
        rest = kept[bit]
        for reason, by_dst in rules:
            if not rest:
                break
            srcs = by_dst.get(dst, 0) >> base & rest
            if srcs:
                rest ^= srcs
                tail = f' -> n{dst} [label="{reason.value}"];'
                for src in bits_of(srcs):
                    tails[seqs[src]].append(tail)
    for src, edges in tails.items():
        if edges:
            head = f"\n  n{src}"
            write(head[1:] + head.join(edges) + "\n")
    write("}\n")
