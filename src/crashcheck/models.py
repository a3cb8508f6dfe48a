"""Happens-before persistence models for POSIX and MMIO traces.

Both models walk the merged global trace order, so cross-thread operation
pairs pick up edges exactly where a rule fires across threads; no blanket
cross-thread ordering is added.  All edges point from a lower seq to a
higher seq, which keeps every graph acyclic by construction.

Each model returns :data:`Edges`, plain ``(src seq, dst seq) -> reason``
pairs; when several rules order a pair, the first one listed below names it.

POSIX rules (ext4-style):

* data writes overlapping the same (file, block) pair are ordered in trace
  order; spanning writes are split into per-block ranges for conflict
  detection only (they stay one graph node);
* size-extending writes to one file are ordered in trace order;
* ``fdatasync(f)`` orders every earlier data op on ``f`` before every later
  persisting op, ``fsync(f)`` additionally orders earlier metadata ops
  naming ``f``, and ``fsync`` on a directory orders earlier directory-entry
  ops in it; ``sync`` orders everything earlier before everything later.
  Each barrier with sources is also anchored: its sources point at it and
  it points at later persisting ops.  Anchors order the barrier op itself,
  so schedules never move a barrier past its sources or sinks; they add no
  ordering between persisting ops beyond the direct edges;
* metadata ops naming the same path are ordered in trace order, and a
  rename or unlink is ordered after the earlier ops that materialize its
  source (otherwise legal schedules could rename a file that never existed);
* open/close contribute nothing.

MMIO rules (persistent-x86 style): stores overlapping a cache line are
ordered in trace order; a flush followed by a later fence orders stores to
the flushed lines (issued before the flush) before all stores after the
fence; ``msync`` acts as flush+fence for its range; a fence alone orders
nothing.  :func:`line_persist_points` finds, in one pass, when each line of
each store is persisted.  A store spanning several lines is ordered once
*any* of its lines is persisted, but counts as persisted for epoch
splitting (:mod:`crashcheck.mmio_behaviors`) only when *all* of them are.

Scope note: ``fdatasync(f)`` is read here as a barrier over *f*'s own prior
data only; prior unsynced ops on other files are not ordered by it.
"""

from __future__ import annotations

import math
import posixpath
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

from .errors import ModeMismatch
from .trace import MMIO_KINDS, MMIO_MODE, POSIX_KINDS, POSIX_MODE, Operation, Trace


class EdgeReason(str, Enum):
    SAME_BLOCK = "SameBlock"
    SYNC_BARRIER = "SyncBarrier"
    METADATA_ORDER = "MetadataOrder"
    SAME_CACHE_LINE = "SameCacheLine"
    FLUSH_FENCE = "FlushFence"
    MSYNC = "Msync"


# Happens-before: (src seq, dst seq) -> the first rule that orders the pair.
Edges = dict[tuple[int, int], EdgeReason]


@dataclass(frozen=True)
class ModelConfig:
    block_size: int = 4096
    cache_line_size: int = 64
    split_writes_at_block_boundary: bool = True

    def __post_init__(self):
        for name in ("block_size", "cache_line_size"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{name} must be a power of two, got {value}")


def parent_dir(path: str) -> str:
    parent = posixpath.dirname(path.rstrip("/"))
    return parent if parent else "."


def entry_name(path: str) -> str:
    return posixpath.basename(path.rstrip("/"))


def blocks_of(offset: int, length: int, block_size: int) -> frozenset[int]:
    if length <= 0:
        return frozenset({offset // block_size})
    return frozenset(range(offset // block_size, (offset + length - 1) // block_size + 1))


def lines_of(addr: int, length: int, line_size: int) -> frozenset[int]:
    if length <= 0:
        return frozenset({addr // line_size})
    return frozenset(range(addr // line_size, (addr + length - 1) // line_size + 1))


_DATA_KINDS = {"write", "pwrite"}
_METADATA_KINDS = {"create", "mkdir", "rename", "unlink"}
_POSIX_PERSISTING = {"write", "pwrite", "create", "mkdir", "rename", "unlink"}


def _paths_named(op: Operation) -> tuple[str, ...]:
    if op.kind == "rename":
        return (op.args["path"], op.args["dst"])
    if op.kind in _METADATA_KINDS:
        return (op.args["path"],)
    return ()


def posix_edges(trace: Trace, cfg: ModelConfig | None = None) -> Edges:
    """Happens-before edges for a POSIX trace under the file-system model."""
    cfg = cfg or ModelConfig()
    if trace.meta.mode != POSIX_MODE:
        raise ModeMismatch(f"posix_edges requires a POSIX trace, got {trace.meta.mode}")
    for op in trace.ops:
        if op.kind not in POSIX_KINDS:
            raise ModeMismatch(f"op {op.seq} has MMIO kind {op.kind!r} in a POSIX trace")

    edges: Edges = {}
    add = edges.setdefault
    ops = trace.ops

    # Per-file data write conflicts, at block granularity when splitting is
    # enabled and whole-file granularity otherwise.
    writes_by_path: dict[str, list[tuple[Operation, frozenset[int]]]] = {}
    sizes: dict[str, int] = {}
    extenders_by_path: dict[str, list[Operation]] = {}
    for op in ops:
        if op.kind not in _DATA_KINDS:
            continue
        path = op.args["path"]
        if cfg.split_writes_at_block_boundary:
            blks = blocks_of(op.args["offset"], op.args["length"], cfg.block_size)
        else:
            blks = frozenset({-1})
        for earlier, earlier_blks in writes_by_path.get(path, []):
            if earlier_blks & blks:
                add((earlier.seq, op.seq), EdgeReason.SAME_BLOCK)
        writes_by_path.setdefault(path, []).append((op, blks))

        end = op.args["offset"] + op.args["length"]
        if end > sizes.get(path, 0):
            for earlier in extenders_by_path.get(path, []):
                add((earlier.seq, op.seq), EdgeReason.METADATA_ORDER)
            extenders_by_path.setdefault(path, []).append(op)
            sizes[path] = end

    # Metadata ops naming a shared path, in trace order.
    meta_by_path: dict[str, list[Operation]] = {}
    for op in ops:
        for path in dict.fromkeys(_paths_named(op)):
            for earlier in meta_by_path.get(path, []):
                add((earlier.seq, op.seq), EdgeReason.METADATA_ORDER)
            meta_by_path.setdefault(path, []).append(op)

    # A rename's source (and an unlink's target) must have been materialized,
    # and recreating a consumed path is ordered after the consumer; the
    # per-path life cycle then replays in trace order under any legal
    # schedule, so path-based replay never sees an impossible state.
    creators_by_path: dict[str, list[int]] = {}
    consumers_by_path: dict[str, list[int]] = {}
    for op in ops:
        consumed = op.args["path"] if op.kind in ("rename", "unlink") else None
        created = op.args["dst"] if op.kind == "rename" else None
        if op.kind in _DATA_KINDS or op.kind in ("create", "mkdir"):
            created = op.args["path"]
        for seq in creators_by_path.get(consumed, []) + consumers_by_path.get(created, []):
            add((seq, op.seq), EdgeReason.METADATA_ORDER)
        if created is not None:
            creators_by_path.setdefault(created, []).append(op.seq)
        if consumed is not None:
            # Appended last, so ``rename a a`` is not ordered after itself.
            consumers_by_path.setdefault(consumed, []).append(op.seq)

    # Durability barriers, in one forward pass that indexes the persisting ops
    # issued so far.  A source points at every barrier covering it; the sinks
    # of its first covering barrier include those of every later one.
    data_at: dict[str, list[int]] = {}
    meta_at: dict[str, list[int]] = {}
    meta_in_dir: dict[str, list[int]] = {}
    issued: list[int] = []
    first_barrier: dict[int, int] = {}
    anchored: list[int] = []
    for op in ops:
        if op.kind == "sync":
            sources = issued
        elif op.kind == "fsync" and op.args.get("dir"):
            sources = meta_in_dir.get(op.args["path"].rstrip("/") or ".", [])
        elif op.kind in ("fsync", "fdatasync"):
            sources = data_at.get(op.args["path"], [])
            if op.kind == "fsync":
                sources = sources + meta_at.get(op.args["path"], [])
        else:
            if op.kind in _POSIX_PERSISTING:
                issued.append(op.seq)
            if op.kind in _DATA_KINDS:
                data_at.setdefault(op.args["path"], []).append(op.seq)
            named = _paths_named(op)
            for path in dict.fromkeys(named):
                meta_at.setdefault(path, []).append(op.seq)
            for dirpath in dict.fromkeys(map(parent_dir, named)):
                meta_in_dir.setdefault(dirpath, []).append(op.seq)
            continue
        if sources:
            # A barrier with nothing pending constrains nothing.
            anchored.append(op.seq)
        for seq in sources:
            add((seq, op.seq), EdgeReason.SYNC_BARRIER)
            first_barrier.setdefault(seq, op.seq)
    for src, barrier in [*first_barrier.items(), *zip(anchored, anchored)]:
        for dst in issued[bisect_right(issued, barrier):]:
            add((src, dst), EdgeReason.SYNC_BARRIER)
    return edges


def line_persist_points(trace: Trace, cfg: ModelConfig) -> dict[int, list[list[float]]]:
    """When each cache line of each store is persisted, in one forward pass.

    Maps a store's seq to one ``[fence, msync]`` pair per line it touches:
    the seq of the first fence after the first flush of the line issued
    after the store, and the seq of the first later msync covering the line
    (``inf`` when none follows).  The edge model and epoch splitting both
    read this table.
    """
    points: dict[int, list[list[float]]] = {}
    unflushed: dict[int, list[list[float]]] = {}
    unsynced: dict[int, list[list[float]]] = {}
    flushed: list[list[float]] = []
    for op in trace.ops:
        if op.kind == "fence":
            for point in flushed:
                point[0] = op.seq
            flushed = []
            continue
        if op.kind not in ("store", "flush", "msync"):
            continue
        for line in sorted(lines_of(op.args["addr"], op.args["length"], cfg.cache_line_size)):
            if op.kind == "store":
                point = [math.inf, math.inf]
                points.setdefault(op.seq, []).append(point)
                unflushed.setdefault(line, []).append(point)
                unsynced.setdefault(line, []).append(point)
            elif op.kind == "flush":
                flushed += unflushed.pop(line, ())
            else:
                for point in unsynced.pop(line, ()):
                    point[1] = op.seq
    return points


def mmio_edges(trace: Trace, cfg: ModelConfig | None = None) -> Edges:
    """Happens-before edges for an MMIO trace under the memory model."""
    cfg = cfg or ModelConfig()
    if trace.meta.mode != MMIO_MODE:
        raise ModeMismatch(f"mmio_edges requires an MMIO trace, got {trace.meta.mode}")
    for op in trace.ops:
        if op.kind not in MMIO_KINDS:
            raise ModeMismatch(f"op {op.seq} has POSIX kind {op.kind!r} in an MMIO trace")

    edges: Edges = {}
    add = edges.setdefault
    stores = [op for op in trace.ops if op.kind == "store"]

    # Same-cache-line conflicts in trace order, from the stores so far on
    # each line.
    stores_on_line: dict[int, list[int]] = {}
    for op in stores:
        for line in lines_of(op.args["addr"], op.args["length"], cfg.cache_line_size):
            earlier = stores_on_line.setdefault(line, [])
            for seq in earlier:
                add((seq, op.seq), EdgeReason.SAME_CACHE_LINE)
            earlier.append(op.seq)

    # A store happens before every store after the first point at which any
    # of its lines is persisted; flush+fence wins the reason over msync.
    seqs = [op.seq for op in stores]
    for src, lines in line_persist_points(trace, cfg).items():
        after_fence = bisect_right(seqs, min(fence for fence, _ in lines))
        after_msync = bisect_right(seqs, min(msync for _, msync in lines))
        for dst in seqs[after_fence:]:
            add((src, dst), EdgeReason.FLUSH_FENCE)
        for dst in seqs[after_msync:after_fence]:
            add((src, dst), EdgeReason.MSYNC)
    return edges


def model_edges(trace: Trace, cfg: ModelConfig | None = None) -> Edges:
    """Dispatch to the model matching the trace's mode."""
    if trace.meta.mode == POSIX_MODE:
        return posix_edges(trace, cfg)
    return mmio_edges(trace, cfg)
