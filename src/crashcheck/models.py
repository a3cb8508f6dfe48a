"""Happens-before persistence models for POSIX and MMIO traces.

Both models walk the merged global trace order, so cross-thread operation
pairs pick up edges exactly where a rule fires across threads; no blanket
cross-thread ordering is added.  All edges point from a lower seq to a
higher seq, which keeps every graph acyclic by construction.

Each model returns a :class:`HappensBefore`, per-rule predecessor bitsets
(the relation's only store, read through :func:`sources_of`) filled from
one running bitset per path, block, directory or line, so no ``(src, dst)``
pair is built.  When several rules order a pair, the first in naming
priority names it: ``SameBlock`` > ``MetadataOrder`` >
``SyncBarrier``, and ``SameCacheLine`` > ``FlushFence`` > ``Msync``.
In both models every two persisting ops whose replays do not commute are
ordered by a direct edge, so every order of a downward-closed set of ops
replays to one image, that of its ops in seq order;
:mod:`crashcheck.simulate` relies on it.

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
* metadata ops naming the same path are ordered in trace order; a rename
  or unlink consumes the paths it names, a rename both its source and its
  destination, and is ordered after the earlier ops that create them
  (otherwise legal schedules could rename a file that never existed, or
  land an earlier write to the destination on the file renamed onto it);
  a later write or create of a consumed path is ordered after the
  consumer; an op that creates a path (a write, ``create``, ``mkdir`` or a
  rename's destination) is ordered after the earlier metadata ops that name
  the path's parent directory, so ``write d/x`` follows ``mkdir d`` and
  whatever ``create d``/``unlink d`` came before it;
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
from collections import defaultdict
from enum import Enum
from typing import Iterable, Iterator, NamedTuple

from .errors import CrashCheckError, ModeMismatch
from .trace import MMIO_KINDS, MMIO_MODE, POSIX_KINDS, POSIX_MODE, Operation, Trace


class EdgeReason(str, Enum):
    # Each model's rules, in naming priority.
    SAME_BLOCK = "SameBlock"
    METADATA_ORDER = "MetadataOrder"
    SYNC_BARRIER = "SyncBarrier"
    SAME_CACHE_LINE = "SameCacheLine"
    FLUSH_FENCE = "FlushFence"
    MSYNC = "Msync"


class HappensBefore(NamedTuple):
    """Happens-before of one trace as per-rule predecessor bitsets.

    ``rules``, the relation's only store, maps each rule in naming priority
    to a map from a destination seq to the bitset of its sources, bit ``i``
    for ``trace.ops[i]``; a pair's reason is the first rule that holds it."""

    rules: dict[EdgeReason, dict[int, int]]

    def __len__(self) -> int:
        """The number of ordered (src, dst) pairs."""
        return sum(bits.bit_count() for _, bits in sources_of(self.rules, set().union(*self.rules.values())))


def sources_of(rules: dict, dsts: Iterable[int], base: int = 0, mask: int = -1) -> Iterator[tuple[int, int]]:
    """Each of ``dsts`` with its sources under any of :attr:`HappensBefore.rules`
    (0 where none names it) as a bitset of the window from trace bit
    ``base``, cut to ``mask``."""
    gets = [by_dst.get for by_dst in rules.values()]
    for dst in dsts:
        bits = 0
        for get in gets:
            bits |= get(dst, 0)
        yield dst, bits >> base & mask


class ModelConfig(NamedTuple):
    """Block and cache-line sizes are powers of two; ``crashcheck.cli``
    checks the values it reads."""

    block_size: int = 4096
    cache_line_size: int = 64
    split_writes_at_block_boundary: bool = True


def parent_dir(path: str) -> str:
    parent = posixpath.dirname(path)
    return parent if parent else "."


def entry_name(path: str) -> str:
    return posixpath.basename(path)


# The most blocks or cache lines one op may cover.  A write ending by byte
# 2^26 covers at most 2^14 blocks of 4096 bytes, and a 2^20-byte range at
# most 2^14 + 1 lines of 64 bytes (when it starts mid-line), so every trace
# valid under the default sizes stays valid and a smaller size cannot make
# one op's block or line set any larger.
MAX_UNITS_PER_OP = (1 << 14) + 1


def _check_units(op: Operation, start: int, size: int, unit: str) -> None:
    """Raise when ``op``'s byte range from ``start`` covers more than
    :data:`MAX_UNITS_PER_OP` units of ``size`` bytes."""
    count = (start + max(op.args["length"], 1) - 1) // size - start // size + 1
    if count > MAX_UNITS_PER_OP:
        raise CrashCheckError(
            f"op {op.seq} covers {count} {unit}s of size {size}, more than the {MAX_UNITS_PER_OP} one op may cover"
        )


def units_of(start: int, length: int, size: int) -> frozenset[int]:
    """The indices of the ``size``-byte units (blocks or cache lines) that
    the byte range from ``start`` covers; an empty range covers the unit
    that holds ``start``."""
    if length <= 0:
        return frozenset({start // size})
    return frozenset(range(start // size, (start + length - 1) // size + 1))


_DATA_KINDS = {"write", "pwrite"}
_METADATA_KINDS = {"create", "mkdir", "rename", "unlink"}


def _paths_named(op: Operation) -> tuple[str, ...]:
    if op.kind == "rename":
        return (op.args["path"], op.args["dst"])
    if op.kind in _METADATA_KINDS:
        return (op.args["path"],)
    return ()


def posix_edges(trace: Trace, cfg: ModelConfig | None = None) -> HappensBefore:
    """Happens-before for a POSIX trace under the file-system model."""
    cfg = cfg or ModelConfig()
    if trace.meta.mode != POSIX_MODE:
        raise ModeMismatch(f"posix_edges requires a POSIX trace, got {trace.meta.mode}")
    for op in trace.ops:
        if op.kind not in POSIX_KINDS:
            raise ModeMismatch(f"op {op.seq} has MMIO kind {op.kind!r} in a POSIX trace")
        if op.kind in _DATA_KINDS:
            _check_units(op, op.args["offset"], cfg.block_size, "block")

    same_block: dict[int, int] = {}
    metadata: dict[int, int] = {}
    barrier: dict[int, int] = {}
    # Running bitsets of the ops issued so far: data writes per (path,
    # block), block -1 when writes are not split; size-extending writes,
    # data ops, metadata ops, creators and consumers per path; metadata ops
    # per directory; every persisting op; and every op a barrier released.
    written, extenders, data_at, meta_at, creators, consumers, meta_in_dir = (
        defaultdict(int) for _ in range(7)
    )
    sizes: dict[str, int] = {}
    split = cfg.split_writes_at_block_boundary
    issued = released = 0
    for i, op in enumerate(trace.ops):
        bit, kind, args = 1 << i, op.kind, op.args
        if kind in ("sync", "fsync", "fdatasync"):
            if kind == "sync":
                sources = issued
            elif kind == "fsync" and args.get("dir"):
                sources = meta_in_dir[args["path"]]
            else:
                sources = data_at[args["path"]] | (meta_at[args["path"]] if kind == "fsync" else 0)
            # A barrier with nothing pending constrains nothing; one with
            # sources releases them and itself to every later persisting op.
            barrier[op.seq] = sources
            if sources:
                released |= sources | bit
            continue
        if not op.is_persisting:
            continue
        barrier[op.seq] = released
        issued |= bit
        same = ordered = 0
        if kind in _DATA_KINDS:
            path, end = args["path"], args["offset"] + args["length"]
            for blk in units_of(args["offset"], args["length"], cfg.block_size) if split else (-1,):
                same |= written[path, blk]
                written[path, blk] |= bit
            if end > sizes.get(path, 0):
                ordered, sizes[path] = extenders[path], end
                extenders[path] |= bit
            data_at[path] |= bit
        same_block[op.seq] = same

        # Metadata ops naming a shared path, in trace order.  A rename or
        # unlink consumes the paths it names (a rename replaces what its
        # destination held) and is ordered after their earlier creators,
        # and recreating or writing a consumed path is ordered after the
        # consumer; the per-path life cycle then replays in trace order
        # under any legal schedule, so path-based replay never sees an
        # impossible state.  A created path is also ordered after the
        # earlier metadata ops naming its parent directory, so a file never
        # lands in a directory that is not made yet or is still a file.
        # Every bitset is read before this op joins any, so ``rename a a``
        # is not ordered after itself.
        named = _paths_named(op)
        consumed = named if kind in ("rename", "unlink") else ()
        created = args["dst"] if kind == "rename" else (None if kind == "unlink" else args["path"])
        for path in named:
            ordered |= meta_at[path]
        for path in consumed:
            ordered |= creators[path]
        if created is not None:
            ordered |= consumers[created] | meta_at[parent_dir(created)]
        metadata[op.seq] = ordered
        for path in named:
            meta_at[path] |= bit
            meta_in_dir[parent_dir(path)] |= bit
        if created is not None:
            creators[created] |= bit
        for path in consumed:
            consumers[path] |= bit
    return HappensBefore({
        EdgeReason.SAME_BLOCK: same_block,
        EdgeReason.METADATA_ORDER: metadata,
        EdgeReason.SYNC_BARRIER: barrier,
    })


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
        for line in sorted(units_of(op.args["addr"], op.args["length"], cfg.cache_line_size)):
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


def mmio_edges(trace: Trace, cfg: ModelConfig | None = None) -> HappensBefore:
    """Happens-before for an MMIO trace under the memory model."""
    cfg = cfg or ModelConfig()
    if trace.meta.mode != MMIO_MODE:
        raise ModeMismatch(f"mmio_edges requires an MMIO trace, got {trace.meta.mode}")
    for op in trace.ops:
        if op.kind not in MMIO_KINDS:
            raise ModeMismatch(f"op {op.seq} has POSIX kind {op.kind!r} in an MMIO trace")
        if op.kind != "fence":
            _check_units(op, op.args["addr"], cfg.cache_line_size, "cache line")

    # A store happens before every store after the first point at which any
    # of its lines is persisted: it joins the released bitsets there.
    index = {op.seq: i for i, op in enumerate(trace.ops)}
    at_fence, at_msync, on_line = defaultdict(int), defaultdict(int), defaultdict(int)
    for seq, lines in line_persist_points(trace, cfg).items():
        at_fence[min(fence for fence, _ in lines)] |= 1 << index[seq]
        at_msync[min(msync for _, msync in lines)] |= 1 << index[seq]
    same_line: dict[int, int] = {}
    flush_fence: dict[int, int] = {}
    msynced: dict[int, int] = {}
    fenced = synced = 0
    for i, op in enumerate(trace.ops):
        if op.kind != "store":
            fenced |= at_fence[op.seq]
            synced |= at_msync[op.seq]
            continue
        # Same-cache-line conflicts in trace order, from the stores so far
        # on each line.
        same = 0
        for line in units_of(op.args["addr"], op.args["length"], cfg.cache_line_size):
            same |= on_line[line]
            on_line[line] |= 1 << i
        same_line[op.seq], flush_fence[op.seq], msynced[op.seq] = same, fenced, synced
    return HappensBefore({
        EdgeReason.SAME_CACHE_LINE: same_line,
        EdgeReason.FLUSH_FENCE: flush_fence,
        EdgeReason.MSYNC: msynced,
    })


def model_edges(trace: Trace, cfg: ModelConfig | None = None) -> HappensBefore:
    """Dispatch to the model matching the trace's mode."""
    if trace.meta.mode == POSIX_MODE:
        return posix_edges(trace, cfg)
    return mmio_edges(trace, cfg)
