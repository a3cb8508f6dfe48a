"""Crash-schedule enumeration, replay into storage images, and oracle runs.

A crash schedule applies every trace op issued before the behavior under
test (the context) and then some downward-closed subset of the behavior's
nodes in an order that respects its edges.  Ordering ops are schedule
members but replay no-ops.

Enumeration prunes linearizations that provably replay to the same image:
two ops commute when they touch disjoint (file, block) pairs or disjoint
cache lines and share no directory-entry or inode conflict, and only
sequences with no adjacent commuting inversion are emitted (the
lexicographically-least order within each commuting class survives).
:func:`explore`, the one enumerate → replay → dedup → digest → check loop,
dedups on image contents, which catches any equivalent images that still
slip through, so the distinct-image set always equals the unpruned set.  The
unpruned enumerator ``exhaustive_schedules`` backtracks over valid orders
and backs the whole-trace baseline, which ``exhaustive`` runs through the
same :func:`explore`.  Both enumerators are one generator with an explicit
stack of branch points, so a schedule costs the same however long it is.

A bare :func:`replay` builds one schedule's crash image by applying the
context and then the applied ops to an empty image it owns.  Exploration
builds images inside the enumerator instead: given a :class:`StateCache`,
the walk carries the image along its depth-first search and applies each
placed op once per node.  Replay is a deterministic function of (image
contents, op), so the cache interns every image by ``content_key`` (equal
contents share one object) and memoizes each (interned image, op) step:
each distinct step is applied once per cache, and every repeat is one dict
lookup.  Below a branch point the walk's choices depend only on the placed
set and the candidates, so a branch point reached again with the same
interned image can only yield states already seen; the walk counts the
schedules below it once and reports the count instead of walking them
again, the state caching of explicit-state model checkers.  The next
subset keeps the previous one's nodes below the node it adds, so the walk
keeps the *trunk* of the previous subset's search, its forced stretch from
the root, and resumes there instead of placing that prefix again, the way
linear extensions are generated by changing only the tail of the previous
one (Pruesse & Ruskey, 1994).  Images are
copy-on-write: interned images share every file and directory an op did
not touch, so they must be treated as read-only.  :func:`explore` dedups
on the identity of the interned image and computes the sha256 digest once
per distinct state.  A POSIX digest is joined from one JSON fragment per
file and per directory, memoized in the cache by (path, contents), so a
file that many states share is encoded once; the digest's input is the
same text as ``json.dumps`` of the whole image with sorted keys.

The oracle materializes each new state and runs ``<checker> <scratch>``.
A checker of the form ``<this interpreter> <script>`` runs in a fork of
this process, which skips interpreter start-up; any other command runs as
a new process.  Both give the same verdict and output.
"""

from __future__ import annotations

import builtins
import hashlib
import io
import itertools
import json
import locale
import os
import posixpath
import select
import shlex
import shutil
import signal
import subprocess
import sys
import threading
import types
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn

from .behavior import UpdateBehavior
from .errors import CheckerError, ExplosionLimit, ReplayError
from .graph import FULL_KEY, StaticKey, export_dot
from .models import ModelConfig, blocks_of, lines_of, parent_dir, entry_name
from .trace import MMIO_MODE, POSIX_MODE, Operation, Trace, escapes_root


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CrashSchedule:
    behavior_id: str
    mode: str
    context: tuple[Operation, ...]
    applied: tuple[Operation, ...]

    @property
    def applied_seqs(self) -> tuple[int, ...]:
        return tuple(op.seq for op in self.applied)

    @property
    def context_seqs(self) -> tuple[int, ...]:
        return tuple(op.seq for op in self.context)

    def to_json(self) -> dict:
        return {
            "behavior_id": self.behavior_id,
            "mode": self.mode,
            "context_seqs": list(self.context_seqs),
            "applied_seqs": list(self.applied_seqs),
        }


def schedule_from_json(data, trace: Trace) -> CrashSchedule:
    """Rebuild a schedule written by :meth:`CrashSchedule.to_json`, or the
    one inside a bug report, over ``trace``.  Raises :class:`ReplayError`
    when it is not a schedule of this trace."""
    if isinstance(data, dict) and "schedule" in data:
        data = data["schedule"]
    keys = {"behavior_id", "mode", "context_seqs", "applied_seqs"}
    if not isinstance(data, dict) or not data.keys() >= keys:
        raise ReplayError(f"a schedule is a JSON object with keys {sorted(keys)}")
    if data["mode"] != trace.meta.mode:
        raise ReplayError(f"schedule mode {data['mode']!r} does not match the {trace.meta.mode} trace")
    ops = trace.ops_by_seq()
    try:
        context = tuple(ops[s] for s in data["context_seqs"])
        applied = tuple(ops[s] for s in data["applied_seqs"])
    except (TypeError, KeyError):
        raise ReplayError("schedule seqs must be lists of seqs of this trace") from None
    return CrashSchedule(data["behavior_id"], data["mode"], context, applied)


# ---------------------------------------------------------------------------
# Commutation
# ---------------------------------------------------------------------------

_ALL_BLOCKS = frozenset({-1})


def _posix_resources(op: Operation, cfg: ModelConfig):
    kind = op.kind
    if kind in ("write", "pwrite"):
        return (
            {("data", op.args["path"], b) for b in blocks_of(op.args["offset"], op.args["length"], cfg.block_size)},
            set(),
        )
    if kind in ("create", "mkdir"):
        path = op.args["path"]
        return set(), {("dirent", parent_dir(path), entry_name(path)), ("inode", path)}
    if kind == "unlink":
        path = op.args["path"]
        return (
            {("data", path, b) for b in _ALL_BLOCKS},
            {("dirent", parent_dir(path), entry_name(path)), ("inode", path)},
        )
    if kind == "rename":
        src, dst = op.args["path"], op.args["dst"]
        return (
            {("data", p, b) for p in (src, dst) for b in _ALL_BLOCKS},
            {
                ("dirent", parent_dir(src), entry_name(src)),
                ("dirent", parent_dir(dst), entry_name(dst)),
                ("inode", src),
                ("inode", dst),
            },
        )
    return set(), set()


def _data_conflict(a: set, b: set) -> bool:
    paths_a: dict[str, set[int]] = {}
    for _, path, blk in a:
        paths_a.setdefault(path, set()).add(blk)
    for _, path, blk in b:
        blks = paths_a.get(path)
        if blks is None:
            continue
        if blk == -1 or -1 in blks or blk in blks:
            return True
    return False


def ops_commute(a: Operation, b: Operation, cfg: ModelConfig) -> bool:
    """True when replaying a then b provably equals replaying b then a."""
    if not (a.is_persisting and b.is_persisting):
        return True
    if a.kind == "store" or b.kind == "store":
        if a.kind != "store" or b.kind != "store":
            return True
        la = lines_of(a.args["addr"], a.args["length"], cfg.cache_line_size)
        lb = lines_of(b.args["addr"], b.args["length"], cfg.cache_line_size)
        return not (la & lb)
    data_a, meta_a = _posix_resources(a, cfg)
    data_b, meta_b = _posix_resources(b, cfg)
    if meta_a & meta_b:
        return False
    return not _data_conflict(data_a, data_b)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def _schedules(
    behavior: UpdateBehavior,
    trace: Trace,
    cfg: ModelConfig | None,
    budget: int,
    cache: StateCache | None = None,
) -> Iterator:
    """Every downward-closed subset of the behavior's nodes, and for each
    every order that respects its edges.  With a config, only orders with
    no adjacent commuting inversion are produced.

    Subsets come in lexicographic order of their membership vectors over
    ascending seqs, "absent" before "present", and the orders of a subset
    in lexicographic order of their seqs.  Bit ``i`` of every bitset is the
    ``i``-th node in seq order.  An explicit stack holds the branch points
    of the order search; a node that is the only possible next one is
    placed without a stack entry.

    Without a cache each order is yielded as a :class:`CrashSchedule`.
    With one, the walk carries the crash image: it starts from the interned
    image after the context, each placed op goes through ``cache.step``, and
    it yields ``(weight, schedule, image)`` items.  An order is
    ``(1, schedule, image)`` when its image is not in ``cache.seen`` (it is
    added) and ``(1, None, None)`` when it is.  Within one subset, the
    orders below a branch point depend only on (placed bitset, candidates,
    image): the available nodes follow from the placed ones, and each
    child's candidates from the child.  So once a branch point's orders are
    all walked, their count is recorded under that key, and a branch point
    reached again with the same key, whose orders can only end in images
    already seen, is yielded as one ``(count, None, None)`` item.  Counts
    stop at ``budget`` as the orders do.  The memo is per subset.

    A subset's *trunk* is the forced stretch of its walk from the root up
    to its first branch point or order end.  On the trunk every available
    node is a candidate: the nodes that placing a node makes available lie
    above it, and commutation only prunes nodes below the last placed one.
    So at each depth short of the end exactly one node is available, and
    it is placed.  The next subset adds node ``i`` and keeps only the
    nodes below it, so its walk repeats the trunk step for step until
    ``i`` becomes available, and to the trunk's end if it never does.  It
    cannot reach a trunk node above ``i`` first: such a node is available
    only once the subset's nodes below ``i``, ``i``'s predecessors among
    them, are all placed.  The walk resumes at that depth with the trunk's
    image, and with ``i`` added to the available set and the candidates;
    every placed node is below ``i``, so commutation cannot prune it.  The
    trunk keeps one node and one image per depth and the bitsets at its
    end only; the bitsets at the resume depth are rebuilt by taking the
    nodes above it back off, and those depths are dropped, so each trunk
    depth is built by one step and dropped at most once.  Items, budget
    crossings and replay errors stay as they would be with every subset
    walked from the root.
    """
    context = tuple(op for op in trace.ops if op.seq < behavior.span[0])
    graph = behavior.subgraph
    seqs = sorted(graph.ops_by_seq)
    ops = [graph.ops_by_seq[seq] for seq in seqs]
    bit = {seq: 1 << i for i, seq in enumerate(seqs)}
    preds = [sum(map(bit.__getitem__, graph.predecessors(seq))) for seq in seqs]
    # Edges run forward, so a node's predecessors sit on lower bits.  succs
    # keeps only the edges of the transitive reduction: the placed nodes are
    # always downward closed, so a node becomes available when the last of
    # its reduction predecessors is placed.
    succs = [0] * len(seqs)
    ancestors = [0] * len(seqs)
    for i, pred_bits in enumerate(preds):
        rest = pred_bits
        while rest:
            # The highest remaining predecessor is no ancestor of another.
            j = rest.bit_length() - 1
            succs[j] |= 1 << i
            ancestors[i] |= ancestors[j]
            rest &= ~(ancestors[j] | 1 << j)
        ancestors[i] |= pred_bits
    # commutes[i] holds the nodes below i found to commute with it so far,
    # tested[i] every node below i tested so far.
    commutes = [0] * len(seqs)
    tested = [0] * len(seqs)

    def candidates(avail: int, last: int) -> int:
        """The available nodes that may follow node ``last``."""
        if cfg is None:
            return avail
        for j in _bits(avail & ((1 << last) - 1) & ~tested[last]):
            tested[last] |= 1 << j
            if ops_commute(ops[last], ops[j], cfg):
                commutes[last] |= 1 << j
        return avail & ~commutes[last]

    mode = trace.meta.mode
    # The context is replayed in place and only the image after it is
    # interned, so a long context costs no image per op.
    base = None if cache is None else cache.intern(replay(CrashSchedule(behavior.id, mode, context, ())))
    # The trunk of the last subset's walk: the node placed at each of its
    # depths, the image after it (``images[0]`` is the base) and, at its
    # end, the placed and available bitsets.  ``applied`` starts with the
    # trunk's ops.  The empty subset's walk starts with nothing available.
    trunk: list[int] = []
    images = [base]
    applied: list[Operation] = []
    placed = avail = 0
    count = 0
    subset = 0
    while True:
        # The orders of ``subset``, from the depth its trunk resumes at.  A
        # stack entry is (ops placed, placed bitset, available bitset,
        # untried candidates, image, memo key, count on arrival) at a
        # branch point, kept until its last candidate's orders are walked.
        # The memo maps a key to its count.
        cands = avail
        image = images[-1]
        memo: dict[tuple[int, int, int], int] = {}
        stack = []
        on_trunk = True
        while True:
            node = -1
            if placed == subset:
                count += 1
                if count > budget:
                    raise ExplosionLimit(budget)
                if cache is None:
                    yield CrashSchedule(behavior.id, mode, context, tuple(applied))
                elif isinstance(image, ReplayError):
                    raise image
                elif id(image) in cache.seen:
                    yield 1, None, None
                else:
                    cache.seen.add(id(image))
                    yield 1, CrashSchedule(behavior.id, mode, context, tuple(applied)), image
            elif cands & (cands - 1):
                key = placed, cands, id(image)
                weight = memo.get(key)
                if weight is None:
                    stack.append((len(applied), placed, avail, cands, image, key, count))
                else:
                    if count + weight > budget:
                        if budget > count:
                            yield budget - count, None, None
                        raise ExplosionLimit(budget)
                    count += weight
                    yield weight, None, None
            elif cands:
                node = cands.bit_length() - 1
            if node < 0:
                if on_trunk:
                    on_trunk = False
                    trunk_placed, trunk_avail = placed, avail
                while stack:
                    depth, placed, avail, cands, image, key, start = stack.pop()
                    if cands:
                        low = cands & -cands
                        stack.append((depth, placed, avail, cands ^ low, image, key, start))
                        del applied[depth:]
                        node = low.bit_length() - 1
                        break
                    # Without a cache every order is yielded, so no count is kept.
                    if cache is not None:
                        memo[key] = count - start
                else:
                    break
            applied.append(ops[node])
            placed |= 1 << node
            avail ^= 1 << node
            for j in _bits(succs[node] & subset):
                if not preds[j] & ~placed:
                    avail |= 1 << j
            if cache is not None and not isinstance(image, ReplayError):
                try:
                    image = cache.step(image, ops[node])
                except ReplayError as exc:
                    # Raised at the first order that reaches it, as a replay
                    # of that order would; a dead end never raises it.
                    image = exc
            cands = candidates(avail, node)
            if on_trunk:
                trunk.append(node)
                images.append(image)
        # The next subset: the highest absent node that the nodes below it
        # admit joins them, and every node above it leaves.
        for i in range(len(seqs) - 1, -1, -1):
            if not subset >> i & 1 and not preds[i] & ~subset:
                break
        else:
            return
        # Its walk repeats the trunk up to the first depth where i is
        # available, or to the trunk's end: take the nodes above that depth
        # back off.  Short of the end, the one node available at a depth is
        # the one placed there.
        below = (1 << i) - 1
        placed, avail = trunk_placed, trunk_avail & below
        if not preds[i] & ~placed:
            while trunk and not preds[i] >> trunk[-1] & 1:
                node = trunk.pop()
                images.pop()
                placed ^= 1 << node
                avail = 1 << node & below
            avail |= 1 << i
        del applied[len(trunk):]
        subset = subset & below | 1 << i


def _bits(bitset: int) -> Iterator[int]:
    """The positions of the set bits of ``bitset``, lowest first."""
    while bitset:
        low = bitset & -bitset
        yield low.bit_length() - 1
        bitset ^= low


def enumerate_schedules(
    behavior: UpdateBehavior,
    trace: Trace,
    cfg: ModelConfig | None = None,
    budget: int = 100_000,
    cache: StateCache | None = None,
) -> Iterator:
    """Pruned crash schedules for one behavior.

    Yields one schedule per (downward-closed subset, commuting class);
    raises :class:`ExplosionLimit` after ``budget`` schedules.  With a
    ``cache`` it yields weighted items instead (see :func:`_schedules`).
    """
    yield from _schedules(behavior, trace, cfg or ModelConfig(), budget, cache)


def exhaustive_schedules(
    behavior: UpdateBehavior,
    trace: Trace,
    budget: int = 1_000_000,
    cache: StateCache | None = None,
) -> Iterator:
    """Every downward-closed subset and every linearization, unpruned.

    This is the baseline model checker's enumerator: no commutation
    reasoning at all, but it backtracks over valid orders instead of
    filtering raw permutations, so dense graphs stay tractable.  With a
    ``cache`` it yields weighted items (see :func:`_schedules`).
    """
    yield from _schedules(behavior, trace, None, budget, cache)


# ---------------------------------------------------------------------------
# Storage images and replay
# ---------------------------------------------------------------------------


@dataclass
class FsImage:
    """File contents and directory entries.  Both are immutable values, so
    :meth:`copy` shares them and an op replaces the ones it changes."""

    files: dict[str, bytes] = field(default_factory=dict)
    dirents: dict[str, frozenset[str]] = field(default_factory=dict)

    def digest(self, fragments: dict | None = None) -> str:
        """The sha256 of ``json.dumps(payload, sort_keys=True)`` for the
        payload ``{"files": {path: hex}, "dirents": {dir: sorted names}}``,
        joined from one ``"key": value`` fragment per file and directory.
        ``fragments`` memoizes them by ``(path, bytes)`` and ``(dir,
        names)``: images of one :class:`StateCache` share the file and
        directory objects an op did not change, so each is encoded once."""
        memo = {} if fragments is None else fragments
        dirs = _joined(self.dirents.items(), _dir_text, memo)
        files = _joined(self.files.items(), _file_text, memo)
        return hashlib.sha256(f'{{"dirents": {{{dirs}}}, "files": {{{files}}}}}'.encode()).hexdigest()

    def content_key(self) -> tuple:
        """Hashable; equal for two images exactly when their digests are."""
        return frozenset(self.files.items()), frozenset(self.dirents.items())

    def copy(self) -> FsImage:
        return FsImage(dict(self.files), dict(self.dirents))


def _joined(items: Iterable[tuple], text: Callable, memo: dict) -> str:
    """The ``text`` of each ``(key, value)`` item, in key order, joined as
    ``json.dumps`` joins the members of an object; ``memo`` keeps each
    item's text."""
    out = []
    for item in sorted(items):
        fragment = memo.get(item)
        if fragment is None:
            fragment = memo[item] = text(*item)
        out.append(fragment)
    return ", ".join(out)


def _file_text(path: str, data: bytes) -> str:
    return f'{_quote(path)}: "{data.hex()}"'


def _dir_text(path: str, names: frozenset[str]) -> str:
    return f"{_quote(path)}: [{', '.join(map(_quote, sorted(names)))}]"


@dataclass
class MemImage:
    cells: dict[int, int] = field(default_factory=dict)

    def digest(self, fragments: dict | None = None) -> str:
        """The sha256 of the sorted ``[addr, byte]`` cells as JSON.  The
        cells are one dict, with no parts shared between images, so
        ``fragments`` is not used."""
        payload = json.dumps(sorted(self.cells.items())).encode()
        return hashlib.sha256(payload).hexdigest()

    def content_key(self) -> frozenset:
        """Hashable; equal for two images exactly when their digests are."""
        return frozenset(self.cells.items())

    def copy(self) -> MemImage:
        return MemImage(dict(self.cells))


@lru_cache(maxsize=4096)
def _entry_of(path: str) -> tuple[str, str]:
    """The directory that lists ``path``, and the name it lists."""
    return parent_dir(path), entry_name(path)


def _add_entry(dirents: dict[str, frozenset[str]], path: str):
    parent, name = _entry_of(path)
    names = dirents.get(parent, frozenset())
    if name not in names:
        dirents[parent] = names | {name}


def _remove_entry(dirents: dict[str, frozenset[str]], path: str):
    parent, name = _entry_of(path)
    if name in dirents.get(parent, ()):
        dirents[parent] = dirents[parent] - {name}


def _apply_posix_op(image: FsImage, op: Operation):
    kind = op.kind
    files = image.files
    if kind in ("write", "pwrite"):
        path = op.args["path"]
        buf = files.get(path)
        if buf is None:
            buf = b""
            _add_entry(image.dirents, path)
        offset = op.args["offset"]
        payload = op.payload()
        if len(buf) < offset:
            buf += bytes(offset - len(buf))
        files[path] = buf[:offset] + payload + buf[offset + len(payload):]
    elif kind == "create":
        path = op.args["path"]
        files.setdefault(path, b"")
        _add_entry(image.dirents, path)
    elif kind == "mkdir":
        path = op.args["path"].rstrip("/")
        _add_entry(image.dirents, path)
        image.dirents.setdefault(path, frozenset())
    elif kind == "rename":
        src, dst = op.args["path"], op.args["dst"]
        if src not in files:
            raise ReplayError(f"rename of nonexistent source {src!r} (op {op.seq})")
        files[dst] = files.pop(src)
        _remove_entry(image.dirents, src)
        _add_entry(image.dirents, dst)
    elif kind == "unlink":
        path = op.args["path"]
        if path not in files:
            raise ReplayError(f"unlink of nonexistent file {path!r} (op {op.seq})")
        del files[path]
        _remove_entry(image.dirents, path)
    # fsync/fdatasync/sync/open/close leave the image untouched.


def _apply_mmio_op(image: MemImage, op: Operation):
    if op.kind == "store":
        addr = op.args["addr"]
        payload = op.payload()
        image.cells.update(zip(range(addr, addr + len(payload)), payload))
    # flush/fence/msync leave the image untouched.


_IMAGES = {POSIX_MODE: FsImage, MMIO_MODE: MemImage}
_APPLY = {FsImage: _apply_posix_op, MemImage: _apply_mmio_op}


@dataclass
class StateCache:
    """Crash images interned by content, the steps between them, and the
    images that ended a schedule, for every walk given this cache.

    ``interned`` maps each image's ``content_key`` to the one image object
    with that content (an ``FsImage`` key never equals a ``MemImage`` one),
    so two images from one cache are equal exactly when they are the same
    object.  ``steps`` maps ``(id(image), id(op))`` to ``(op, image after
    op)`` for every op applied to an interned image so far; keeping the op
    in the value keeps its ``id`` from being reused, and the images stay
    alive in ``interned``.  ``seen`` holds the ids of the images that ended
    a schedule, and ``fragments`` the digest fragments of their files and
    directories (see :meth:`FsImage.digest`).  Interned images are never
    changed, and they share unchanged file and directory objects with each
    other, so they must be treated as read-only.
    """

    interned: dict[tuple | frozenset, FsImage | MemImage] = field(default_factory=dict)
    steps: dict[tuple[int, int], tuple[Operation, FsImage | MemImage]] = field(default_factory=dict)
    seen: set[int] = field(default_factory=set)
    fragments: dict[tuple, str] = field(default_factory=dict)

    def intern(self, image: FsImage | MemImage) -> FsImage | MemImage:
        """The interned image with ``image``'s content."""
        return self.interned.setdefault(image.content_key(), image)

    def step(self, image: FsImage | MemImage, op: Operation) -> FsImage | MemImage:
        """The interned image after ``op`` on the interned ``image``.  Replay
        is a function of (image content, op), so each distinct step is
        applied once per cache; a step that raises records nothing."""
        key = id(image), id(op)
        hit = self.steps.get(key)
        if hit is None:
            after = image
            # Ordering ops are replay no-ops, so they map an image to itself.
            if op.is_persisting:
                after = image.copy()
                _APPLY[type(image)](after, op)
                after = self.intern(after)
            hit = self.steps[key] = op, after
        return hit[1]


def replay(schedule: CrashSchedule) -> FsImage | MemImage:
    """Apply the context and then the applied list, in order, to an empty
    image of the schedule's storage kind.  The caller owns the image, so
    every op changes it in place."""
    image = _IMAGES[schedule.mode]()
    apply = _APPLY[type(image)]
    for op in itertools.chain(schedule.context, schedule.applied):
        apply(image, op)
    return image


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------


class Verdict(str, Enum):
    CONSISTENT = "Consistent"
    INCONSISTENT = "Inconsistent"
    ORACLE_ERROR = "OracleError"


@dataclass
class CheckResult:
    verdict: Verdict
    oracle_output: str


MEM_IMAGE_FILE = "mem_image.json"


def materialize(image: FsImage | MemImage, scratch: Path):
    """Write an image into a scratch directory for the checker to inspect.

    The directory is owned by the run: any previous contents are removed so
    files absent from the image are absent on disk.
    """
    scratch = Path(scratch)
    if scratch.exists():
        shutil.rmtree(scratch)
    scratch.mkdir(parents=True)
    if isinstance(image, MemImage):
        payload = {"cells": {str(a): v for a, v in sorted(image.cells.items())}}
        (scratch / MEM_IMAGE_FILE).write_text(json.dumps(payload, indent=0))
        return
    for path in (*image.dirents, *image.files):
        if escapes_root(path):
            raise ReplayError(f"refusing to materialize path {path!r}")
    # Every directory on disk: the dirent keys, each file's parent, and all
    # their ancestors.  A file may not name one of them.
    dirs: set[str] = set()
    for path in (*image.dirents, *(posixpath.dirname(posixpath.normpath(f)) for f in image.files)):
        path = posixpath.normpath(path)
        while path not in dirs:
            dirs.add(path)
            path = posixpath.normpath(posixpath.dirname(path))
    for path in image.files:
        if posixpath.normpath(path) in dirs:
            raise ReplayError(f"cannot materialize file {path!r}: the image also has it as a directory")
    for dirpath in dirs:
        (scratch / dirpath).mkdir(parents=True, exist_ok=True)
    for path, data in image.files.items():
        (scratch / posixpath.normpath(path)).write_bytes(data)


def _decode(data: bytes) -> str:
    """Checker output as ``subprocess.run(text=True)`` decodes it (locale
    encoding, universal newlines), except that undecodable bytes become
    ``\\xNN`` escapes instead of an exception."""
    text = data.decode(locale.getpreferredencoding(False), "backslashreplace")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _check_result(returncode: int, stdout: bytes, stderr: bytes) -> CheckResult:
    verdict = Verdict.CONSISTENT if returncode == 0 else Verdict.INCONSISTENT
    return CheckResult(verdict, _decode(stdout) + _decode(stderr))


def _forkable(argv: list[str]) -> bool:
    """True for ``<this interpreter> <script file> ...``, which
    :func:`_fork_check` can run in a fork of this process.  The interpreter
    path is compared unresolved, so a venv interpreter never matches its
    base one."""
    exe = shutil.which(argv[0])
    return (
        exe is not None
        and bool(sys.executable)
        and os.path.abspath(exe) == os.path.abspath(sys.executable)
        and len(argv) > 1
        and not argv[1].startswith("-")
        and os.path.isfile(argv[1])
        and hasattr(os, "fork")
        and hasattr(os, "pidfd_open")
        and threading.active_count() == 1
    )


def _subprocess_check(argv: list[str], timeout: float) -> CheckResult:
    """Run the checker as a new process."""
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return CheckResult(Verdict.ORACLE_ERROR, f"timeout after {timeout}s")
    except OSError as exc:
        raise CheckerError(f"cannot spawn checker {argv[0]!r}: {exc}") from exc
    return _check_result(proc.returncode, proc.stdout, proc.stderr)


def _fork_check(argv: list[str], timeout: float) -> CheckResult:
    """Run ``<python> <script> <args...>`` in a fork of this process: the
    child executes the script as ``__main__`` the way a fresh interpreter
    would, but skips interpreter start-up.  Output goes through anonymous
    temporary files, so a checker that writes a lot cannot block on a full
    pipe."""
    import tempfile  # only this path needs it; ``import crashcheck`` does not load it

    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        try:
            pid = os.fork()
        except OSError as exc:
            raise CheckerError(f"cannot fork checker {argv[1]!r}: {exc}") from exc
        if pid == 0:
            _run_forked_checker(argv[1:], out.fileno(), err.fileno())
        try:
            pidfd = os.pidfd_open(pid)
            try:
                exited = select.select([pidfd], [], [], timeout)[0]
            finally:
                os.close(pidfd)
        except BaseException as exc:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            if isinstance(exc, OSError):
                raise CheckerError(f"cannot wait for checker {argv[1]!r}: {exc}") from exc
            raise
        if not exited:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return CheckResult(Verdict.ORACLE_ERROR, f"timeout after {timeout}s")
        status = os.waitpid(pid, 0)[1]
        out.seek(0)
        err.seek(0)
        return _check_result(os.waitstatus_to_exitcode(status), out.read(), err.read())


def _run_forked_checker(args: list[str], out_fd: int, err_fd: int) -> NoReturn:
    """The child side of :func:`_fork_check`: run ``args[0]`` as a script
    with ``sys.argv = args`` and leave through ``os._exit`` with the exit
    status the interpreter would give."""
    status = 1
    try:
        import gc

        # The checker's collections should not finalize this process's
        # objects (a finalizer could remove the parent's files).
        gc.freeze()
        os.dup2(out_fd, 1)
        os.dup2(err_fd, 2)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        # A fault handler enabled here (pytest enables one) would write a
        # crashing checker's dump to a descriptor that is now closed or
        # reused; a fresh interpreter has none.
        if "faulthandler" in sys.modules:
            sys.modules["faulthandler"].disable()
        sys.stdout = sys.__stdout__ = _stdio(1, sys.__stdout__, "strict")
        sys.stderr = sys.__stderr__ = _stdio(2, sys.__stderr__, "backslashreplace", line_buffering=True)
        status = _exec_main(args)
        for stream in (sys.stdout, sys.stderr, sys.__stdout__, sys.__stderr__):
            if not stream.closed:
                stream.flush()
    finally:
        os._exit(status)


def _stdio(fd: int, like, errors: str, line_buffering: bool = False) -> io.TextIOWrapper:
    """A new text stream on ``fd`` with the encoding, error handler and
    buffering (``-u``/``PYTHONUNBUFFERED`` make it write through) of the
    interpreter's own stream ``like``, as a fresh interpreter of this
    configuration would open it."""
    raw = io.FileIO(fd, "w", closefd=False)
    unbuffered = getattr(like, "write_through", False)
    return io.TextIOWrapper(
        raw if unbuffered else io.BufferedWriter(raw),
        encoding=getattr(like, "encoding", None),
        errors=getattr(like, "errors", errors),
        line_buffering=line_buffering,
        write_through=unbuffered,
    )


def _exec_main(args: list[str]) -> int:
    """Execute the script ``args[0]`` in a fresh ``__main__`` module and
    return the exit status the interpreter would give for how it ended."""
    script = os.path.abspath(args[0])
    sys.argv = list(args)
    sys.path[:1] = [os.path.dirname(os.path.realpath(script))]
    main = types.ModuleType("__main__")
    main.__file__ = script
    main.__builtins__ = builtins
    sys.modules["__main__"] = main
    code = None
    try:
        with open(script, "rb") as source:
            code = compile(source.read(), script, "exec", dont_inherit=True)
        exec(code, main.__dict__)
    except SystemExit as exc:
        if exc.code is None:
            return 0
        if isinstance(exc.code, int):
            return exc.code & 0xFF
        print(exc.code, file=sys.stderr)
        return 1
    except BaseException as exc:
        import traceback

        # Start the traceback at the script's own frame, as the
        # interpreter does; a SyntaxError from compile has none.
        tb = exc.__traceback__
        while tb is not None and tb.tb_frame.f_code is not code:
            tb = tb.tb_next
        traceback.print_exception(type(exc), exc, tb)
        return 1
    return 0


# The longest checker timeout in seconds that both oracle paths can wait:
# ``subprocess`` polls for at most 2^31 - 1 milliseconds.
MAX_ORACLE_TIMEOUT = (2**31 - 1) // 1000


def run_oracle(
    image: FsImage | MemImage,
    checker: str | list[str],
    scratch: Path,
    timeout: float = 30.0,
) -> CheckResult:
    """Materialize the image, invoke ``<checker> <scratch>``, map the exit
    status: 0 is consistent, anything else inconsistent, a timeout is an
    oracle error.

    A checker of the form ``<this interpreter> <script> ...`` runs in a
    fork of this process (:func:`_fork_check`); any other command runs as
    a new process.  ``timeout`` may be at most :data:`MAX_ORACLE_TIMEOUT`."""
    materialize(image, scratch)
    argv = shlex.split(checker) if isinstance(checker, str) else list(checker)
    argv.append(str(scratch))
    if _forkable(argv):
        return _fork_check(argv, timeout)
    return _subprocess_check(argv, timeout)


# ---------------------------------------------------------------------------
# Exploration and group testing
# ---------------------------------------------------------------------------


@dataclass
class BugReport:
    id: str
    behavior_id: str
    schedule: CrashSchedule
    applied: list[Operation]
    omitted: list[Operation]
    oracle_output: str
    subgraph_dot: str

    def dedup_key(self, key_mode: str) -> tuple:
        omitted_keys = sorted(
            str(StaticKey.of(op, key_mode)) for op in self.omitted if op.is_persisting
        )
        digest = hashlib.sha256(self.oracle_output.encode()).hexdigest()
        return (tuple(omitted_keys), digest)

    def to_json(self) -> dict:
        def op_json(op: Operation) -> dict:
            return {
                "seq": op.seq,
                "kind": op.kind,
                "loc": f"{op.backtrace.innermost.file}:{op.backtrace.innermost.line}",
                "backtrace": op.backtrace.to_json(),
            }

        return {
            "id": self.id,
            "behavior_id": self.behavior_id,
            "schedule": self.schedule.to_json(),
            "applied": [op_json(op) for op in self.applied],
            "omitted": [op_json(op) for op in self.omitted],
            "oracle_output": self.oracle_output,
            "subgraph_dot": self.subgraph_dot,
        }


@dataclass
class RunStats:
    representatives_tested: int = 0
    schedules_tested: int = 0
    distinct_states: int = 0
    states_deduped: int = 0
    oracle_errors: int = 0
    partial_coverage: bool = False
    correlated_states: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "representatives_tested": self.representatives_tested,
            "schedules_tested": self.schedules_tested,
            "distinct_states": self.distinct_states,
            "states_deduped": self.states_deduped,
            "oracle_errors": self.oracle_errors,
            "partial_coverage": self.partial_coverage,
            "correlated_states": dict(sorted(self.correlated_states.items())),
        }


def explore(
    behaviors: Iterable[UpdateBehavior],
    schedules_of: Callable[[UpdateBehavior], Iterator[CrashSchedule]],
    stats: RunStats,
    check: Callable[[FsImage | MemImage], CheckResult] | None = None,
) -> Iterator[tuple[UpdateBehavior, CrashSchedule, str, CheckResult | None]]:
    """Walk the schedules of each behavior and yield each crash state not
    seen before as ``(behavior, schedule, digest, check(image) or None)``.

    ``schedules_of(behavior, cache=...)`` is an enumerator such as
    :func:`enumerate_schedules` with its other arguments bound.  One
    :class:`StateCache` spans all behaviors, so each walk builds its images
    through the same interned steps, a state is new when its interned
    object has not ended a schedule before, and the digest is computed once
    per distinct state.  A weighted item from the walk counts its weight in
    ``stats.schedules_tested``, and in ``stats.states_deduped`` when it
    carries no new state.  A behavior whose enumerator runs out of budget
    sets ``stats.partial_coverage`` and the next behavior is explored.
    """
    cache = StateCache()
    for behavior in behaviors:
        try:
            for weight, schedule, image in schedules_of(behavior, cache=cache):
                stats.schedules_tested += weight
                if schedule is None:
                    stats.states_deduped += weight
                    continue
                stats.distinct_states += 1
                yield behavior, schedule, image.digest(cache.fragments), check(image) if check else None
        except ExplosionLimit:
            stats.partial_coverage = True


def _behavior_locs(behavior: UpdateBehavior) -> set[tuple[str, int]]:
    return {
        (op.backtrace.innermost.file, op.backtrace.innermost.line)
        for op in behavior.subgraph.ops_by_seq.values()
    }


def test_groups(
    groups,
    behaviors_by_id: dict[str, UpdateBehavior],
    trace: Trace,
    checker: str | list[str],
    scratch_root: Path,
    cfg: ModelConfig | None = None,
    budget: int = 100_000,
    timeout: float = 30.0,
) -> tuple[list[BugReport], RunStats]:
    """Explore every distinct representative and check each new state.

    Because :func:`explore` shares its interned images across representatives,
    no crash state is oracle-tested twice, including states that sit on the
    boundary between one behavior's context and another's subsets.
    Inconsistent states become bug reports, deduplicated by the static-key
    multiset of omitted persisting ops plus the oracle output digest.  The
    correlated-state count for a bug is the number of distinct tested
    states whose generating behavior covers the bug's root-cause source
    location.
    """
    scratch = Path(scratch_root) / "state"
    reps = [behaviors_by_id[rep_id] for rep_id in dict.fromkeys(g.representative for g in groups)]
    stats = RunStats(representatives_tested=len(reps))
    key_mode = reps[0].subgraph.key_mode if reps else FULL_KEY
    bugs: list[BugReport] = []
    bug_keys: set[tuple] = set()
    states_by_rep: Counter[str] = Counter()
    schedules_of = partial(enumerate_schedules, trace=trace, cfg=cfg, budget=budget)
    argv = shlex.split(checker) if isinstance(checker, str) else checker
    check = partial(run_oracle, checker=argv, scratch=scratch, timeout=timeout)
    for rep, schedule, _, result in explore(reps, schedules_of, stats, check):
        states_by_rep[rep.id] += 1
        if result.verdict is Verdict.ORACLE_ERROR:
            stats.oracle_errors += 1
        elif result.verdict is Verdict.INCONSISTENT:
            applied = set(schedule.applied_seqs)
            report = BugReport(
                id=f"bug{len(bugs)}",
                behavior_id=rep.id,
                schedule=schedule,
                applied=list(schedule.applied),
                omitted=[rep.subgraph.ops_by_seq[s] for s in rep.node_seqs if s not in applied],
                oracle_output=result.oracle_output,
                subgraph_dot=export_dot(rep.subgraph),
            )
            key = report.dedup_key(key_mode)
            if key not in bug_keys:
                bug_keys.add(key)
                bugs.append(report)

    for bug in bugs:
        anchor = next((op for op in bug.omitted if op.is_persisting), None)
        if anchor is None:
            continue
        loc = (anchor.backtrace.innermost.file, anchor.backtrace.innermost.line)
        stats.correlated_states[bug.id] = sum(
            states_by_rep[rep.id] for rep in reps if loc in _behavior_locs(rep)
        )
    return bugs, stats
