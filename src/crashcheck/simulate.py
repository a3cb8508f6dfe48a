"""Crash-schedule enumeration, replay into storage images, and oracle runs.

A crash schedule applies every trace op issued before the behavior under
test (the context) and then a subset of the behavior's nodes that holds
their full-graph ancestors in its span, in an order that respects the
edges: a span op outside the behavior is never applied, nor is any node it
precedes, so every crash state is downward closed in the full graph.
Ordering ops are schedule members but replay no-ops.

The persistence models order every two persisting ops that do not commute
(see :mod:`crashcheck.models`), so every order of a downward-closed subset
replays to one image, that of its ops in seq order: a crash state is a
subset, and enumeration never walks orders.  The one enumerator,
:func:`enumerate_schedules`, visits each downward-closed subset once, in a
fixed order (a depth-first walk whose stack holds the subset's members in
seq order); the budget counts subsets per behavior.  Each stack entry
carries the interned image of the members up to it, so a subset's image is
one step from the entry below its highest node, and the walk holds one
image per depth.  It counts one order per subset.  With ``every_order``,
as ``exhaustive_schedules`` binds it for the whole-trace baseline, it
counts every valid order, as the sum of the counts of the subsets one
maximal node smaller (the way linear extensions are counted; De Loof,
De Meyer & De Baets, 2006), so it keeps one count per visited subset.

:func:`test_groups` is the one checked run of both ``test`` (over the
distinct group representatives, one order per subset) and ``exhaustive``
(over the whole trace, every order), and its one loop: it walks each
behavior's enumerator, counts and digests each new state, checks it, and
records inconsistent states as :class:`BugReport` records deduplicated by
one key, whatever behavior reached them.

A bare :func:`replay` builds one schedule's crash image by applying the
context and then the applied ops to an empty image it owns.  A
:class:`StateCache` interns every image by ``content_key`` (equal contents
share one object), and a step copies an interned image, applies one op and
interns the result.  Images are copy-on-write: interned images share every
file and directory an op did not touch, so they must be treated as
read-only.  The enumerator dedups on the identity of the interned image,
and :func:`test_groups` computes the sha256 digest once per distinct state.
A POSIX digest is joined from one JSON fragment per file and per directory,
memoized for the run by (path, contents), so a file that many states share
is encoded once; the digest's input is the same text as ``json.dumps`` of
the whole image with sorted keys.

The oracle materializes each new state and runs ``<checker> <scratch>``.
A :class:`PreparedChecker` is made once per run and checks every state:
the scratch directory is emptied in place before each one, and anything a
checker left at its path, a symlink included, is removed unfollowed.  A
checker of the form ``<this interpreter> <script>`` runs in a fork of
this process, which skips interpreter start-up; the script is read once
per checked state and compiled once per distinct content, and its bytes
and code are passed on as values.  The fork is made on the CPU this
process runs on, and this process stays on it until the child is reaped;
the checker runs with this process's affinity mask.  Any other command
runs as a new process.  Both give the same verdict and output.

A forked check returns the log of its reads (:func:`_record_reads`) with
its result, and a later state where each read of a check of the same script
sees what it saw reuses that result unmaterialized (after Jaaru, Gorjiara
et al., ASPLOS'21).  The checker is taken to be deterministic, and what it
reads outside the scratch directory, the script aside, not to change
during a run.
"""

from __future__ import annotations

import builtins
import contextlib
import gc
import hashlib
import io
import itertools
import json
import locale
import os
import select
import shutil
import signal
import subprocess
import sys
import threading
import types
import warnings
from collections import Counter
from enum import Enum
from functools import lru_cache, partial
from json.encoder import encode_basestring_ascii as _quote
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, NoReturn

from .behavior import UpdateBehavior
from .errors import CheckerError, ExplosionLimit, ReplayError
from .graph import bits_of, export_dot, reduction
from .models import entry_name, parent_dir, sources_of
from .trace import MMIO_MODE, POSIX_MODE, Operation, Trace, escapes_root


# ---------------------------------------------------------------------------
# Schedules
# ---------------------------------------------------------------------------


class CrashSchedule(NamedTuple):
    behavior_id: str
    mode: str
    context: tuple[Operation, ...]
    applied: tuple[Operation, ...]

    @property
    def applied_seqs(self) -> tuple[int, ...]:
        return tuple(map(attrgetter("seq"), self.applied))

    def to_json(self) -> dict:
        return {
            "behavior_id": self.behavior_id,
            "mode": self.mode,
            "context_seqs": list(map(attrgetter("seq"), self.context)),
            "applied_seqs": list(map(attrgetter("seq"), self.applied)),
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
    context, applied = data["context_seqs"], data["applied_seqs"]
    # A seq is an exact int (JSON true and 1.0 are not seq 1), and a
    # schedule names each op at most once.
    seqs = [*context, *applied] if type(context) is type(applied) is list else [None]
    if not all(type(s) is int and s in ops for s in seqs) or len(set(seqs)) < len(seqs):
        raise ReplayError("schedule seqs must be lists of distinct seqs of this trace")
    return CrashSchedule(
        data["behavior_id"], data["mode"], tuple(ops[s] for s in context), tuple(ops[s] for s in applied)
    )


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

# The downward-closed subsets an enumerator completes for one behavior
# before it raises :class:`ExplosionLimit`.
DEFAULT_BUDGET = 100_000


def enumerate_schedules(
    behavior: UpdateBehavior,
    trace: Trace,
    budget: int = DEFAULT_BUDGET,
    cache: StateCache | None = None,
    every_order: bool = False,
) -> Iterator[tuple[int, CrashSchedule | None, FsImage | MemImage | None]]:
    """The crash state of every subset of the behavior's nodes closed under
    the full graph's edges in the span, with the number of its orders that
    respect the edges when ``every_order`` is set, and one order per
    subset otherwise.  Without a ``cache`` the states are new against a
    private one.

    Subsets come in lexicographic order of their membership vectors over
    ascending seqs, "absent" before "present".  Bit ``i`` of every bitset is
    the ``i``-th trace op of the span (the full graph's rules, unioned by
    :func:`sources_of` and shifted), and ``ops[i]`` its op from the full
    graph's shared map: a graph node outside the behavior has one too (an
    open or close has None), but only the behavior's nodes (``own``) join.
    Per subset it yields ``(1, schedule, image)`` if the image is not in
    ``cache.seen`` (it is added), the schedule applying the subset in seq
    order, then ``(rest, None, None)`` for its other orders; a
    :class:`ReplayError` is raised at the first subset whose image cannot
    be replayed.  ``budget`` counts subsets: after the ``budget``-th, if any
    remain, it raises :class:`ExplosionLimit`, so the weights it yielded are
    the exact order count of the subsets it completed.

    The model orders every two persisting ops that do not commute, so
    every order of a subset replays to the image of its ops in seq order.
    The walk's stack holds the subset's members in ascending order, each
    with the interned image of the members up to it: a subset's image is
    one ``cache.step`` of its highest node from the entry below it, so the
    walk holds one image per depth.  With ``every_order`` it also keeps the
    order count of each visited subset, the sum of the counts of the
    subsets one maximal node smaller.
    """
    cache = StateCache() if cache is None else cache
    context = tuple(op for op in trace.ops if op.seq < behavior.span[0])
    graph = behavior.subgraph
    own, start = graph.mask, graph.base
    span = graph.seqs[start:start + own.bit_length()]
    ops = [graph.ops_by_seq.get(seq) for seq in span]
    preds = [bits for _, bits in sources_of(graph.rules, span, start)]
    # Edges run forward, so a node's predecessors sit on lower bits.  succs
    # keeps only the edges of the transitive reduction: subsets are always
    # downward closed, so a node becomes addable when the last of its
    # reduction predecessors joins.
    succs = [0] * len(ops)
    for i, kept in enumerate(reduction(preds)):
        for j in bits_of(kept):
            succs[j] |= 1 << i

    mode = trace.meta.mode
    # The context is replayed in place and only the image after it is
    # interned, so a long context costs no image per op.
    base = cache.intern(replay(CrashSchedule(behavior.id, mode, context, ())))
    # The order count of each visited subset, summed into the counts of the
    # subsets one node larger; only counting every order needs it.
    counts = {0: 1}
    # The current subset, the nodes that may join it, and its members in
    # ascending order, each with the union of the predecessors of the
    # members up to it and the interned image of the members up to it, and
    # their ops; ``visited`` counts the subsets up to this one.
    subset = 0
    addable = own & sum(1 << i for i, pred_bits in enumerate(preds) if not pred_bits)
    members = [(-1, 0, base)]
    applied: list[Operation] = []
    for visited in itertools.count(1):
        image = members[-1][2]
        orders = counts[subset] if every_order else 1
        if id(image) not in cache.seen:
            cache.seen.add(id(image))
            orders -= 1
            yield 1, CrashSchedule(behavior.id, mode, context, tuple(applied)), image
        if orders:
            yield orders, None, None
        if not addable:
            return
        if visited >= budget:
            raise ExplosionLimit(budget)
        # The next subset: the highest node that may join does, and every
        # node above it leaves.  Below it the addable nodes stay; above it
        # a node may join if it left and its predecessors stay, or if it
        # follows the joining node and its predecessors are all in.
        i = addable.bit_length() - 1
        below = (1 << i) - 1
        left, subset = subset & ~below, subset & below | 1 << i
        addable &= below
        for rest in (left, succs[i] & own):
            while rest:
                low = rest & -rest
                rest ^= low
                if not preds[low.bit_length() - 1] & ~subset:
                    addable |= low
        while members[-1][0] > i:
            members.pop()
            applied.pop()
        # i is the highest node, so it is maximal, and the members left
        # are the subset without it.
        _, pred_bits, image = members[-1]
        members.append((i, pred_bits | preds[i], cache.step(image, ops[i])))
        applied.append(ops[i])
        if every_order:
            orders = 0
            maximal = subset & ~members[-1][1]
            while maximal:
                low = maximal & -maximal
                maximal ^= low
                orders += counts[subset ^ low]
            counts[subset] = orders


# The baseline model checker's enumerator: every valid order counted.
exhaustive_schedules = partial(enumerate_schedules, every_order=True)


# ---------------------------------------------------------------------------
# Storage images and replay
# ---------------------------------------------------------------------------


class FsImage:
    """File contents and directory listings.  Both are immutable values, so
    :meth:`copy` shares them and an op replaces the ones it changes."""

    __slots__ = ("files", "dirents")

    def __init__(self, files: dict[str, bytes] | None = None, dirents: dict[str, frozenset[str]] | None = None):
        self.files = {} if files is None else files
        self.dirents = {} if dirents is None else dirents

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


class MemImage:
    __slots__ = ("cells",)

    def __init__(self, cells: dict[int, int] | None = None):
        self.cells = {} if cells is None else cells

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
        path = op.args["path"]
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


class StateCache:
    """Crash images interned by content, and the images already yielded as
    states, for every enumerator given this cache.

    ``interned`` maps each image's ``content_key`` to the one image object
    with that content (an ``FsImage`` key never equals a ``MemImage`` one),
    so two images from one cache are equal exactly when they are the same
    object.  ``seen`` holds the ids of the images yielded as new states.
    Interned images are never changed, and they share unchanged file and
    directory objects with each other, so they must be treated as
    read-only.
    """

    __slots__ = ("interned", "seen")

    def __init__(self):
        self.interned: dict[tuple | frozenset, FsImage | MemImage] = {}
        self.seen: set[int] = set()

    def intern(self, image: FsImage | MemImage) -> FsImage | MemImage:
        """The interned image with ``image``'s content."""
        return self.interned.setdefault(image.content_key(), image)

    def step(self, image: FsImage | MemImage, op: Operation) -> FsImage | MemImage:
        """The interned image after ``op`` on the interned ``image``: a copy
        with the op applied, interned.  Ordering ops are replay no-ops, so
        they return ``image`` itself; a step that raises interns nothing."""
        if not op.is_persisting:
            return image
        after = image.copy()
        _APPLY[type(image)](after, op)
        return self.intern(after)


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


class CheckResult(NamedTuple):
    verdict: Verdict
    oracle_output: str


MEM_IMAGE_FILE = "mem_image.json"


class _View:
    """An image as :func:`materialize` lays it out: files (the memory image's
    one file without the bytes only rendering gives) and directories, ``"."``
    included.  ``whole`` is set by a read of that file: it sees every cell."""

    __slots__ = ("files", "dirs", "whole")

    def __init__(self, image: FsImage | MemImage):
        self.whole = False
        if isinstance(image, MemImage):
            self.files, self.dirs = {MEM_IMAGE_FILE: None}, {"."}
            return
        for path in (*image.dirents, *image.files):
            if escapes_root(path):
                raise ReplayError(f"refusing to materialize path {path!r}")
        # The dirent keys, each file's parent, and all their ancestors.  A
        # file may not name one of them.
        self.files, self.dirs = image.files, {"."}
        for path in (*image.dirents, *map(parent_dir, image.files)):
            while path not in self.dirs:
                self.dirs.add(path)
                path = parent_dir(path)
        for path in image.files:
            if path in self.dirs:
                raise ReplayError(f"cannot materialize file {path!r}: the image also has it as a directory")

    def seen(self, kind: str, path: str):
        """What an ``o``pen, ``l``isting or ``s``tat of ``path`` sees: a
        directory's names, each with what a stat of it sees, or ``"dir"``;
        a file's bytes if opened, else its size; ``"notdir"`` under a file."""
        if path in self.dirs:
            entries = (e for e in itertools.chain(self.files, self.dirs) if e != "." and _entry_of(e)[0] == path)
            return tuple(sorted((_entry_of(e)[1], self.seen("s", e)) for e in entries)) if kind == "l" else "dir"
        if path in self.files:
            data = self.files[path]
            self.whole |= data is None
            return data if kind == "o" or data is None else len(data)
        while path != "." and parent_dir(path) not in self.files:
            path = parent_dir(path)
        return None if path == "." else "notdir"


def materialize(image: FsImage | MemImage, scratch: Path, view: _View | None = None):
    """Write an image into a scratch directory for the checker to inspect.

    The directory is owned by the run: it is emptied in place, so files
    absent from the image are absent on disk, and anything else at its path,
    a symlink included, is removed without being followed.  ``view`` is the
    image's :class:`_View` when the caller has already built it.  It runs
    before every forked check, so it works on ``str`` paths and makes no
    ``pathlib`` objects.
    """
    view = _View(image) if view is None else view
    root = os.fspath(scratch)
    if os.path.isdir(root) and not os.path.islink(root):
        with os.scandir(root) as listing:
            for entry in listing:
                if entry.is_dir(follow_symlinks=False):
                    shutil.rmtree(entry.path)
                else:
                    os.unlink(entry.path)
    else:
        if os.path.lexists(root):
            os.unlink(root)
        os.makedirs(root)
    files = image.files if isinstance(image, FsImage) else {
        MEM_IMAGE_FILE: json.dumps({"cells": {str(a): v for a, v in sorted(image.cells.items())}}, indent=0).encode()
    }
    # A directory sorts before every path under it.
    for dirpath in sorted(view.dirs):
        if dirpath != ".":
            os.mkdir(f"{root}/{dirpath}")
    for path, data in files.items():
        with open(f"{root}/{path}", "wb") as file:
            file.write(data)


def _decode(data: bytes) -> str:
    """Checker output as ``subprocess.run(text=True)`` decodes it (locale
    encoding, universal newlines), except that undecodable bytes become
    ``\\xNN`` escapes instead of an exception."""
    text = data.decode(locale.getpreferredencoding(False), "backslashreplace")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _check_result(returncode: int, stdout: bytes, stderr: bytes) -> CheckResult:
    verdict = Verdict.CONSISTENT if returncode == 0 else Verdict.INCONSISTENT
    return CheckResult(verdict, _decode(stdout) + _decode(stderr))


# The checker timeout in seconds when none is configured, and the longest
# that both oracle paths can wait: ``subprocess`` polls for at most 2^31 - 1
# milliseconds.
DEFAULT_TIMEOUT = 30.0
MAX_ORACLE_TIMEOUT = (2**31 - 1) // 1000


class PreparedChecker:
    """A checker command prepared once per run for :func:`run_oracle`:
    ``argv`` is the command with ``scratch`` appended.  Whether it has the
    form ``<this interpreter> <script> ...`` is decided here, with one
    ``shutil.which`` (the interpreter path compared unresolved, so a venv
    interpreter never matches its base one); :meth:`script` reads the
    script's bytes at every checked state and compiles each distinct
    content once.  Per content, the reusable checks form a tree of
    ``[read, {what it saw: node}]`` nodes and result leaves, grown from the
    read logs :func:`_fork_check` returns."""

    def __init__(self, checker: list[str], scratch: Path, timeout: float = DEFAULT_TIMEOUT):
        self.argv, self.scratch, self.timeout = [*checker, str(scratch)], scratch, timeout
        exe = shutil.which(checker[0])
        self._interpreter_form = (
            exe is not None
            and bool(sys.executable)
            and os.path.abspath(exe) == os.path.abspath(sys.executable)
            and not self.argv[1].startswith("-")
            and all(hasattr(os, name) for name in ("fork", "pidfd_open", "memfd_create", "sched_setaffinity"))
        )
        self._codes: dict[bytes, types.CodeType | None] = {}
        self._trees: dict[bytes, list | CheckResult] = {}

    def forkable(self) -> bool:
        """True when :func:`_fork_check` can check this state: the command
        has the interpreter form, its script is a file now and this process
        has no second thread."""
        return self._interpreter_form and os.path.isfile(self.argv[1]) and threading.active_count() == 1

    def script(self) -> tuple[bytes | None, types.CodeType | None]:
        """The script's bytes as read now, and their code.  Both are None
        when the script cannot be read, and the code is None when the bytes
        compile with an error or a warning: the child then compiles the
        script and reports what it gets, as a fresh interpreter would."""
        try:
            with open(self.argv[1], "rb") as script:
                source = script.read()
        except OSError:
            return None, None
        if source not in self._codes:
            self._codes[source] = None
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with contextlib.suppress(SyntaxError, ValueError, RecursionError, MemoryError, Warning):
                    self._codes[source] = compile(source, os.path.abspath(self.argv[1]), "exec", dont_inherit=True)
        return source, self._codes[source]

    def reused(self, source: bytes | None, view: _View) -> CheckResult | None:
        """The result of a check of the script ``source`` whose every read
        sees in ``view`` what it saw.  The checker is deterministic, so its
        next read depends only on what it saw: a lookup walks one path."""
        node = self._trees.get(source)
        while type(node) is list:
            node = node[1].get(view.seen(*node[0]))
        return node

    def remember(self, source: bytes | None, view: _View, reads: list[tuple[str, str]] | None, result: CheckResult):
        """Store ``result`` of a check of ``source`` under what ``reads``
        saw in ``view``, unless there are no reads (a timeout has none), the
        script could not be read, or the reads saw the whole image."""
        if reads is None or source is None:
            return
        values = [view.seen(*read) for read in reads]
        opened, listed = ({path for kind, path in reads if kind == k} for k in "ol")
        if view.whole or opened >= view.files.keys() and listed >= view.dirs:
            return
        children, key = self._trees, source
        for read, value in zip(reads, values):
            node = children.setdefault(key, [read, {}])
            if type(node) is not list or node[0] != read:
                return  # the same view read differently: not deterministic
            children, key = node[1], value
        children.setdefault(key, result)


def _subprocess_check(argv: list[str], timeout: float) -> CheckResult:
    """Run the checker as a new process."""
    try:
        proc = subprocess.run(argv, capture_output=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return CheckResult(Verdict.ORACLE_ERROR, f"timeout after {timeout}s")
    except OSError as exc:
        raise CheckerError(f"cannot spawn checker {argv[0]!r}: {exc}") from exc
    return _check_result(proc.returncode, proc.stdout, proc.stderr)


def _fork_check(argv: list[str], code: types.CodeType | None, timeout: float) -> tuple[CheckResult, list | None]:
    """Run ``<python> <script> <args...>`` in a fork of this process: the
    child executes ``code`` as ``__main__`` the way a fresh interpreter
    would (compiling the script itself when ``code`` is None), but skips
    interpreter start-up.  Output goes to two anonymous memory files made
    for this state only, so a checker that writes a lot cannot block on a
    full pipe, and a descendant it leaves running cannot write into another
    state's output.  A third one carries back the log of its reads,
    returned with the result when it is whole.  The fork is made on the CPU
    this process runs on, which it stays pinned to until the child is
    reaped; the checker runs with this process's mask."""
    with (
        open(os.memfd_create("stdout"), "rb", 0) as out,
        open(os.memfd_create("stderr"), "rb", 0) as err,
        open(os.memfd_create("reads"), "rb", 0) as log,
    ):
        # Resolved here, not under the child's audited ``os.lstat``.
        root, home = os.path.realpath(argv[-1]), os.path.dirname(os.path.realpath(argv[1]))
        mask, pinned = os.sched_getaffinity(0), False
        # Pin to the CPU this process runs on, field 39 of its stat counted
        # after the last ")" (the command name may hold spaces).
        with contextlib.suppress(OSError, ValueError, IndexError), io.FileIO("/proc/thread-self/stat") as stat:
            if len(mask) > 1:
                os.sched_setaffinity(0, {int(stat.read().rpartition(b")")[2].split()[36])})
                pinned = True
        try:
            try:
                pid = os.fork()
            except OSError as exc:
                raise CheckerError(f"cannot fork checker {argv[1]!r}: {exc}") from exc
            if pid == 0:
                _run_forked_checker(argv[1:], code, (out, err, log), mask if pinned else None, root, home)
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
                return CheckResult(Verdict.ORACLE_ERROR, f"timeout after {timeout}s"), None
            status = os.waitpid(pid, 0)[1]
        finally:
            if pinned:
                os.sched_setaffinity(0, mask)
        for memfd in (out, err, log):
            memfd.seek(0)
        # No record is empty, so an empty one ends a whole log.
        records = log.read().split(b"\0")
        reads = [(r[:1].decode(), os.fsdecode(r[1:])) for r in records[:-2]] if records[-2:] == [b"", b""] else None
        return _check_result(os.waitstatus_to_exitcode(status), out.read(), err.read()), reads


# Audit events that leave a forked check reusable: reads, and events that
# run or inspect code and reach nothing outside the process.
_READ_EVENTS = {"open": "o", "os.listdir": "l", "os.scandir": "l", "os.stat": "s"}
_PURE_EVENTS = {
    "exec", "compile", "import", "marshal.loads", "sys._getframe", "object.__getattr__", "object.__setattr__",
    "object.__delattr__", "builtins.id", "os.walk", "glob.glob", "glob.glob/2", "time.sleep",
}
_WRITE_FLAGS = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND


def _record_reads(root: str) -> Callable[[], bytes | None]:
    """Record this forked child's reads; the function returned stops and
    gives the log of those in the real directory ``root``, each its kind
    and real path there ended by NUL, then a NUL.  Not reusable (None): a
    path in ``root`` with ``..``, ``os.open`` (it may give a directory
    descriptor), a write, a ``dir_fd`` stat, any other event.  ``os.stat``,
    ``os.lstat``, ``os.access`` and ``os.readlink`` raise none, so wrappers
    raise one."""
    reads: list | None = []

    def hook(event: str, args: tuple):
        nonlocal reads
        kind = _READ_EVENTS.get(event)
        if kind == "o" and (args[1] is None or args[2] & _WRITE_FLAGS) or not kind and event not in _PURE_EVENTS:
            reads = None
        elif kind and reads is not None and not isinstance(args[0], int):
            reads.append((kind, args[0]))

    def wrap(stat):
        def audited(path, *args, **options):
            sys.audit("os.stat" if options.get("dir_fd") is None else "os.stat dir_fd", path)
            return stat(path, *args, **options)

        return audited

    def stop() -> bytes | None:
        nonlocal reads
        taken, reads, log, prefix = reads, None, [], root + "/"
        for kind, path in taken or ():
            path, real = os.fsdecode(path), os.path.realpath(path) + "/"
            if real.startswith(prefix):
                if ".." in path.split("/"):
                    return None
                log.append(os.fsencode(kind + (real[len(prefix):-1] or ".")) + b"\0")
        return None if taken is None else b"".join(log) + b"\0"

    sys.addaudithook(hook)
    os.stat, os.lstat, os.access, os.readlink = map(wrap, (os.stat, os.lstat, os.access, os.readlink))
    return stop


def _run_forked_checker(
    args: list[str], code: types.CodeType | None, memfds: tuple, mask: set[int] | None, root: str, home: str
) -> NoReturn:
    """The child side of :func:`_fork_check`: restore the affinity
    ``mask`` unless it is None, run ``code``, or the script ``args[0]`` when
    there is none, with ``sys.argv = args`` and ``sys.path[0] = home``, and
    leave through ``os._exit`` with the exit status the interpreter would
    give.  Output goes to the first two ``memfds``, then the log of the
    reads in the real scratch ``root`` to the third."""
    status, log = 1, None
    out_fd, err_fd, log_fd = (memfd.fileno() for memfd in memfds)
    try:
        if mask is not None:
            os.sched_setaffinity(0, mask)
        # The checker's collections should not finalize this process's
        # objects (a finalizer could remove the parent's files).  ``gc`` is
        # imported with this module: where the parent has not loaded it,
        # importing it here cost each child about 0.4 ms.
        gc.freeze()
        os.dup2(out_fd, 1)
        os.dup2(err_fd, 2)
        os.closerange(3, log_fd)
        os.closerange(log_fd + 1, os.sysconf("SC_OPEN_MAX"))
        # A fault handler enabled here (pytest enables one) would write a
        # crashing checker's dump to a descriptor that is now closed or
        # reused; a fresh interpreter has none.
        if "faulthandler" in sys.modules:
            sys.modules["faulthandler"].disable()
        sys.stdout = sys.__stdout__ = _stdio(1, sys.__stdout__, "strict")
        sys.stderr = sys.__stderr__ = _stdio(2, sys.__stderr__, "backslashreplace", line_buffering=True)
        stop = _record_reads(root)
        status = _exec_main(args, code, home)
        for stream in (sys.stdout, sys.stderr, sys.__stdout__, sys.__stderr__):
            if not stream.closed:
                stream.flush()
        log = stop()
    finally:
        if log is not None:
            with contextlib.suppress(OSError):
                os.write(log_fd, log)
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


def _exec_main(args: list[str], code: types.CodeType | None, home: str) -> int:
    """Execute ``code``, or the script ``args[0]`` compiled here when it is
    None, in a fresh ``__main__`` module with ``home`` as ``sys.path[0]``
    and return the exit status the interpreter would give for how it
    ended."""
    script = os.path.abspath(args[0])
    sys.argv = list(args)
    sys.path[:1] = [home]
    main = types.ModuleType("__main__")
    main.__file__ = script
    main.__builtins__ = builtins
    sys.modules["__main__"] = main
    try:
        if code is None:
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


def run_oracle(image: FsImage | MemImage, checker: PreparedChecker) -> CheckResult:
    """Materialize the image under ``checker.scratch``, run the checker and
    map its exit status: 0 is consistent, anything else inconsistent, a
    timeout is an oracle error.

    A checker of the form ``<this interpreter> <script> ...`` runs in a
    fork of this process (:func:`_fork_check`); any other command runs as
    a new process.  ``checker.timeout`` may be at most
    :data:`MAX_ORACLE_TIMEOUT`.  A forked check's result is reused, with
    nothing materialized or run, for a later state on which each of its
    reads sees what it saw (see the module docstring)."""
    if not checker.forkable():
        materialize(image, checker.scratch)
        return _subprocess_check(checker.argv, checker.timeout)
    view = _View(image)
    source, code = checker.script()
    result = checker.reused(source, view)
    if result is None:
        materialize(image, checker.scratch, view)
        result, reads = _fork_check(checker.argv, code, checker.timeout)
        checker.remember(source, view, reads, result)
    return result


# ---------------------------------------------------------------------------
# Group testing
# ---------------------------------------------------------------------------


class BugReport:
    """One inconsistent crash state, the same record for ``test`` and
    ``exhaustive``.  ``omitted`` holds the persisting ops issued after the
    context and before the last persisting op applied that are not applied,
    so it is defined by the state, whatever behavior explored it.  ``key``,
    by which reports are deduplicated, is the sorted static keys of the
    omitted ops and the sha256 of the checker output."""

    __slots__ = ("id", "behavior", "schedule", "omitted", "oracle_output", "key")

    def __init__(self, id: str, behavior: UpdateBehavior, schedule: CrashSchedule, trace: Trace, oracle_output: str):
        self.id, self.behavior, self.schedule, self.oracle_output = id, behavior, schedule, oracle_output
        applied = set(schedule.applied_seqs)
        last = max((op.seq for op in schedule.applied if op.is_persisting), default=0)
        self.omitted = [
            op for op in trace.ops[len(schedule.context):]
            if op.seq < last and op.is_persisting and op.seq not in applied
        ]
        keys = behavior.subgraph.static_keys
        self.key = (
            tuple(sorted(str(keys[op.seq]) for op in self.omitted)),
            hashlib.sha256(oracle_output.encode()).hexdigest(),
        )

    def to_json(self, dots: dict[str, str] | None = None) -> dict:
        """``dots`` keeps each behavior's DOT by id: one report renders it once."""
        dots = {} if dots is None else dots
        dot = dots.get(self.behavior.id) or dots.setdefault(self.behavior.id, export_dot(self.behavior.subgraph))

        def op_json(op: Operation) -> dict:
            return {
                "seq": op.seq,
                "kind": op.kind,
                "loc": f"{op.backtrace.innermost.file}:{op.backtrace.innermost.line}",
                "backtrace": op.backtrace.to_json(),
            }

        return {
            "id": self.id,
            "behavior_id": self.behavior.id,
            "schedule": self.schedule.to_json(),
            "applied": [op_json(op) for op in self.schedule.applied],
            "omitted": [op_json(op) for op in self.omitted],
            "oracle_output": self.oracle_output,
            "subgraph_dot": dot,
        }


def _behavior_locs(behavior: UpdateBehavior) -> set[tuple[str, int]]:
    frames = (behavior.subgraph.ops_by_seq[seq].backtrace.innermost for seq in behavior.node_seqs)
    return {(frame.file, frame.line) for frame in frames}


def test_groups(
    behaviors: list[UpdateBehavior],
    schedules_of: Callable[..., Iterable[tuple[int, CrashSchedule | None, FsImage | MemImage | None]]],
    trace: Trace,
    check: Callable[[FsImage | MemImage], CheckResult] | None = None,
) -> tuple[list[BugReport], dict, dict[str, tuple[CrashSchedule, CheckResult | None]]]:
    """The one checked run of ``test`` and ``exhaustive``: walk the
    schedules of each behavior, digest each crash state not seen before,
    check it when ``check`` is given, and record the bugs.

    ``schedules_of(behavior, cache=...)`` is an enumerator such as
    :func:`enumerate_schedules` with its other arguments bound.  One
    :class:`StateCache` spans all behaviors, so a state is new when its
    interned image has not been yielded before, and no state is digested
    or checked twice, even one on the boundary between one behavior's
    context and another's subsets.  Each item's weight counts as schedules
    tested; those of the items that carry no new state are deduped.  A
    behavior that runs out of its budget of subsets sets
    ``partial_coverage`` and the next behavior is explored.

    Inconsistent states become bug reports, deduplicated by
    :attr:`BugReport.key`.  The correlated-state count for a bug is the
    number of distinct tested states whose generating behavior covers the
    source location of its first omitted op, or, when it omits nothing,
    that its own behavior generated.  Returns the bugs, the counts as
    ``stats.json`` holds them, and each distinct state's schedule and check
    result by its digest.
    """
    cache, fragments = StateCache(), {}
    bugs: dict[tuple, BugReport] = {}
    states: dict[str, tuple[CrashSchedule, CheckResult | None]] = {}
    schedules = 0
    partial_coverage = False
    for behavior in behaviors:
        try:
            for weight, schedule, image in schedules_of(behavior, cache=cache):
                schedules += weight
                if schedule is None:
                    continue
                result = check(image) if check else None
                states[image.digest(fragments)] = schedule, result
                if result is not None and result.verdict is Verdict.INCONSISTENT:
                    report = BugReport(f"bug{len(bugs)}", behavior, schedule, trace, result.oracle_output)
                    bugs.setdefault(report.key, report)
        except ExplosionLimit:
            partial_coverage = True

    states_of = Counter(schedule.behavior_id for schedule, _ in states.values())
    correlated = {}
    for bug in bugs.values():
        anchor = bug.omitted[0].backtrace.innermost if bug.omitted else None
        owners = [b for b in behaviors if (anchor.file, anchor.line) in _behavior_locs(b)] if anchor else [bug.behavior]
        correlated[bug.id] = sum(states_of[b.id] for b in owners)
    return list(bugs.values()), {
        "representatives_tested": len(behaviors),
        "schedules_tested": schedules,
        "distinct_states": len(states),
        "states_deduped": schedules - len(states),
        "oracle_errors": sum(r is not None and r.verdict is Verdict.ORACLE_ERROR for _, r in states.values()),
        "partial_coverage": partial_coverage,
        "correlated_states": dict(sorted(correlated.items())),
    }, states
