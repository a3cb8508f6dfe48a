"""Canonical trace representation and the newline-delimited JSON trace format.

A trace file is UTF-8 text: a one-line header
``{"app": <text>, "mode": "POSIX"|"MMIO", "version": 1}`` followed by one
JSON object per operation with keys ``seq``, ``tid``, ``kind``, ``args``,
``backtrace`` and ``annotation`` (nullable).

Payloads travel as a sha256 hex digest plus optional inline bytes (hex,
<= 256 bytes). Replay uses the inline bytes when present and otherwise a
deterministic pattern derived from the digest, so traces stay small while
replay stays reproducible.

Parsing shares one immutable :class:`Backtrace`, with its frames, among all
ops of one call chain (hash-consing: Filliâtre & Conchon, ML Workshop
2006), so a trace holds one per distinct chain rather than one per op.
Every frame is validated before it is looked up.
"""

from __future__ import annotations

import hashlib
import json
import posixpath
from typing import NamedTuple

from .errors import ParseError, SequenceOrderError, UnknownOperationKind

POSIX_MODE = "POSIX"
MMIO_MODE = "MMIO"

POSIX_KINDS = {
    "write", "pwrite", "rename", "unlink", "create", "fsync",
    "fdatasync", "sync", "open", "close", "mkdir",
}
MMIO_KINDS = {"store", "flush", "fence", "msync"}

# Kinds that mutate durable state when replayed.  Barrier and bookkeeping
# kinds constrain ordering but are no-ops in a crash image.
PERSISTING_KINDS = {"write", "pwrite", "rename", "unlink", "create", "mkdir", "store"}
# open/close are recorded for completeness but contribute neither nodes
# nor edges to the persistence graph.
METADATA_ONLY_KINDS = {"open", "close"}

MAX_INLINE_PAYLOAD = 256
# Replay grows a file up to its highest written byte and the models build
# one block or cache-line number per unit covered, so parsing bounds the
# extents an operation may name.
MAX_WRITE_END = 1 << 26  # offset + length of a write or pwrite
MAX_RANGE_LENGTH = 1 << 20  # length of a store, flush or msync

# Each kind's required args, then the args it may also carry.
_ARG_KEYS = {
    "write": ({"path", "offset", "length", "digest"}, {"data"}),
    "pwrite": ({"path", "offset", "length", "digest"}, {"data"}),
    "rename": ({"path", "dst"}, set()),
    "unlink": ({"path"}, set()),
    "create": ({"path"}, set()),
    "mkdir": ({"path"}, set()),
    "open": ({"path"}, set()),
    "close": ({"path"}, set()),
    "fsync": ({"path"}, {"dir"}),
    "fdatasync": ({"path"}, set()),
    "sync": (set(), set()),
    "store": ({"addr", "length", "digest"}, {"data", "line"}),
    "flush": ({"addr", "length"}, set()),
    "msync": ({"addr", "length"}, set()),
    "fence": (set(), set()),
}


def payload_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def payload_from_digest(digest: str, length: int) -> bytes:
    """Deterministic stand-in bytes for a payload that was not inlined."""
    pattern = hashlib.sha256(digest.encode("ascii")).digest()
    reps = length // len(pattern) + 1
    return (pattern * reps)[:length]


class Frame(NamedTuple):
    function: str
    file: str
    line: int


class Backtrace(NamedTuple):
    """Call stack of an operation, outermost frame first; never empty."""

    frames: tuple[Frame, ...]

    @property
    def innermost(self) -> Frame:
        return self.frames[-1]

    def functions(self) -> tuple[str, ...]:
        return tuple(f.function for f in self.frames)

    def to_json(self) -> list:
        return [f._asdict() for f in self.frames]


class Annotation(NamedTuple):
    """Data-structure annotation carried by MMIO stores."""

    type_name: str
    instance_id: str
    field_name: str


_OP_FIELDS = ("seq", "tid", "kind", "args", "backtrace", "annotation")


class Operation:
    """One traced operation.  Equal to another exactly when every field is;
    the replay payload is decoded at most once and is not compared."""

    __slots__ = (*_OP_FIELDS, "_payload")

    def __init__(
        self, seq: int, tid: int, kind: str, args: dict, backtrace: Backtrace, annotation: Annotation | None = None
    ):
        self.seq, self.tid, self.kind, self.args = seq, tid, kind, args
        self.backtrace, self.annotation, self._payload = backtrace, annotation, None

    def _values(self) -> tuple:
        return self.seq, self.tid, self.kind, self.args, self.backtrace, self.annotation

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is Operation else NotImplemented

    def __repr__(self) -> str:
        return f"Operation({', '.join(f'{n}={v!r}' for n, v in zip(_OP_FIELDS, self._values()))})"

    @property
    def is_persisting(self) -> bool:
        return self.kind in PERSISTING_KINDS

    def payload(self) -> bytes:
        """Concrete bytes this operation writes, for replay; decoded once,
        as replay asks at every apply."""
        if self._payload is None:
            data = self.args.get("data")
            if data is not None:
                self._payload = bytes.fromhex(data)
            else:
                self._payload = payload_from_digest(self.args["digest"], self.args["length"])
        return self._payload

    def to_json(self) -> dict:
        return {
            "seq": self.seq,
            "tid": self.tid,
            "kind": self.kind,
            "args": self.args,
            "backtrace": self.backtrace.to_json(),
            "annotation": self.annotation._asdict() if self.annotation else None,
        }


class TraceMeta(NamedTuple):
    app_name: str
    mode: str


class Trace:
    __slots__ = ("meta", "ops")

    def __init__(self, meta: TraceMeta, ops: list[Operation] | None = None):
        self.meta = meta
        self.ops = [] if ops is None else ops

    def __len__(self) -> int:
        return len(self.ops)

    def ops_by_seq(self) -> dict[int, Operation]:
        return {op.seq: op for op in self.ops}


def escapes_root(path: str) -> bool:
    """True when ``path`` is absolute or climbs out of the image root."""
    rel = posixpath.normpath(path)
    return rel.startswith("..") or posixpath.isabs(rel)


def _kind_mode(kind: str, line_no: int) -> str:
    if kind in POSIX_KINDS:
        return POSIX_MODE
    if kind in MMIO_KINDS:
        return MMIO_MODE
    raise UnknownOperationKind(f"line {line_no}: unknown operation kind {kind!r}")


def _validate_args(kind: str, args: dict, line_no: int, error: type = ParseError) -> dict:
    """Check an op's arguments and bound the extents and payload it names,
    raising ``error(line_no, message)``: a trace's or a workload's."""
    required, optional = _ARG_KEYS[kind]
    missing = required - args.keys()
    if missing:
        raise error(line_no, f"{kind} args missing {sorted(missing)}")
    extra = args.keys() - required - optional
    if extra:
        raise error(line_no, f"{kind} args have unknown keys {sorted(extra)}")
    for key in ("path", "dst", "digest"):
        if key in args and not isinstance(args[key], str):
            raise error(line_no, f"{kind} arg {key!r} must be a string")
    for key in ("path", "dst"):
        if key in args:
            if "\0" in args[key]:
                raise error(line_no, f"{kind} arg {key!r} must not hold a NUL byte, got {args[key]!r}")
            if escapes_root(args[key]):
                raise error(line_no, f"{kind} arg {key!r} must stay inside the image, got {args[key]!r}")
            # One spelling per file: ``./a``, ``a/`` and ``d/../a`` are all ``a``.
            path = posixpath.normpath(args[key])
            # Replay would turn the root into a file, so only the ops it skips may name it.
            if path == "." and kind in PERSISTING_KINDS:
                raise error(line_no, f"{kind} arg {key!r} names the image root, got {args[key]!r}")
            args[key] = path
    if "digest" in args and not args["digest"].isascii():
        raise error(line_no, f"{kind} arg 'digest' must be ASCII")
    for key in ("offset", "length", "addr", "line"):
        # ``type`` and not ``isinstance``: JSON's true and false are bools.
        if key in args and (type(args[key]) is not int or args[key] < 0):
            raise error(line_no, f"{kind} arg {key!r} must be a non-negative integer")
    if not isinstance(args.get("dir", False), bool):
        raise error(line_no, f"{kind} arg 'dir' must be true or false")
    if kind in ("write", "pwrite") and args["offset"] + args["length"] > MAX_WRITE_END:
        raise error(line_no, f"{kind} ends past byte {MAX_WRITE_END}")
    if kind in ("store", "flush", "msync") and args["length"] > MAX_RANGE_LENGTH:
        raise error(line_no, f"{kind} length exceeds {MAX_RANGE_LENGTH} bytes")
    data = args.get("data")
    if data is not None:
        try:
            raw = bytes.fromhex(data)
        except (TypeError, ValueError):
            raise error(line_no, "inline payload must be a hex string") from None
        if len(raw) > MAX_INLINE_PAYLOAD:
            raise error(line_no, f"inline payload exceeds {MAX_INLINE_PAYLOAD} bytes")
    return args


def _check_paths(kind: str, args: dict, line_no: int, directories: set[str], files: set[str], error: type = ParseError):
    """Raise ``error(line_no, message)`` when the op would make a path both
    a file and a directory at that point, or renames a directory (replay
    moves files only).  A directory is one an earlier ``mkdir`` made or that
    holds an earlier op's path; a file is live from a write, create or
    rename to it until it is unlinked or renamed away.  Else record what
    this op makes of its paths in ``directories`` and ``files``, which the
    caller keeps across ops."""
    path = args.get("path")
    if kind == "rename" and path in directories:
        raise error(line_no, f"rename of directory {path!r} is not modeled, only files")
    for key in ("path", "dst"):
        # Paths are normalized and relative: the parent is what precedes the last "/".
        parent = args.get(key, "").rpartition("/")[0]
        while parent and parent not in directories:
            if parent in files:
                raise error(line_no, f"{kind} arg {key!r} lies under the file {parent!r}, got {args[key]!r}")
            directories.add(parent)
            parent = parent.rpartition("/")[0]
    key = "dst" if kind == "rename" else "path"
    made = args[key] if kind in ("write", "pwrite", "create", "rename") else None
    if made in directories:
        raise error(line_no, f"{kind} arg {key!r} names a directory, got {made!r}")
    if kind == "mkdir":
        if path in files:
            raise error(line_no, f"mkdir arg 'path' names a file, got {path!r}")
        directories.add(path)
    elif kind in ("unlink", "rename"):
        files.discard(path)
    if made is not None:
        files.add(made)


# A call chain as plain (function, file, line) tuples, outermost first.
Chain = tuple[tuple[str, str, int], ...]


def _shared_backtrace(chains: dict[Chain, Backtrace], chain: Chain) -> Backtrace:
    """The one backtrace in ``chains`` of a validated call chain, made on
    first sight.  Validated fields are exactly str, str and int, so equal
    chains serialize alike."""
    backtrace = chains.get(chain)
    if backtrace is None:
        backtrace = chains[chain] = Backtrace(tuple(Frame(*frame) for frame in chain))
    return backtrace


def _parse_backtrace(raw, line_no: int, chains: dict[Chain, Backtrace]) -> Backtrace:
    """The validated backtrace of a record, shared through ``chains`` with
    every earlier record of the same call chain.  Each frame is validated
    before the lookup, so sharing never lets one through that would fail."""
    if not isinstance(raw, list) or not raw:
        raise ParseError(line_no, "backtrace must be a non-empty list of frames")
    chain = []
    for item in raw:
        try:
            frame = item["function"], item["file"], item["line"]
        except (TypeError, KeyError):
            frame = None
        # ``type`` and not ``isinstance``: JSON's true and false are bools.
        if frame is None or type(frame[2]) is not int or frame[2] < 0:
            raise ParseError(line_no, f"malformed frame {item!r}")
        if not (isinstance(frame[0], str) and isinstance(frame[1], str)):
            raise ParseError(line_no, f"frame function and file must be strings in {item!r}")
        chain.append(frame)
    return _shared_backtrace(chains, tuple(chain))


def _json_line(line: str, line_no: int, what: str):
    """``json.loads(line)``, or a :class:`ParseError` naming the line."""
    try:
        return json.loads(line)
    except json.JSONDecodeError:
        raise ParseError(line_no, f"{what} is not valid JSON") from None
    except (ValueError, RecursionError):  # past the int-digit or recursion limit
        raise ParseError(line_no, f"{what} holds an integer too long or nesting too deep to read") from None


def parse_trace(stream: bytes | str) -> Trace:
    """Parse a trace file into a validated :class:`Trace`.

    Raises :class:`ParseError` for malformed records or invariant
    violations, :class:`UnknownOperationKind` for unknown kinds and
    :class:`SequenceOrderError` when seq values do not strictly increase.
    """
    text = stream.decode("utf-8") if isinstance(stream, bytes) else stream
    lines = text.splitlines()
    if not lines or all(not line.strip() for line in lines):
        return Trace(meta=TraceMeta(app_name="", mode=POSIX_MODE))

    header = _json_line(lines[0], 1, "header")
    # ``1`` also equals true and 1.0, which are no version.
    if not isinstance(header, dict) or type(header.get("version")) is not int or header["version"] != 1:
        raise ParseError(1, "header must declare version 1")
    mode = header.get("mode")
    if mode not in (POSIX_MODE, MMIO_MODE):
        raise ParseError(1, f"header mode must be POSIX or MMIO, got {mode!r}")
    app = header.get("app", "")
    if not isinstance(app, str):
        raise ParseError(1, "header app must be a string")
    meta = TraceMeta(app_name=app, mode=mode)

    ops: list[Operation] = []
    prev_seq = 0
    chains: dict[Chain, Backtrace] = {}
    directories: set[str] = set()
    files: set[str] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        rec = _json_line(line, line_no, "record")
        if not isinstance(rec, dict):
            raise ParseError(line_no, "record must be a JSON object")
        missing = {"seq", "tid", "kind", "args", "backtrace"} - rec.keys()
        if missing:
            raise ParseError(line_no, f"record missing keys {sorted(missing)}")

        kind = rec["kind"]
        if not isinstance(kind, str):
            raise ParseError(line_no, "kind must be a string")
        kind_mode = _kind_mode(kind, line_no)
        if kind_mode != meta.mode:
            raise ParseError(line_no, f"{kind} is a {kind_mode} kind in a {meta.mode} trace")

        seq = rec["seq"]
        if type(seq) is not int or seq <= 0:
            raise ParseError(line_no, "seq must be a positive integer")
        if seq <= prev_seq:
            raise SequenceOrderError(
                f"line {line_no}: seq {seq} does not increase past {prev_seq}"
            )
        prev_seq = seq

        tid = rec["tid"]
        if type(tid) is not int or tid < 0:
            raise ParseError(line_no, "tid must be a non-negative integer")

        args = rec["args"]
        if not isinstance(args, dict):
            raise ParseError(line_no, "args must be a JSON object")
        args = _validate_args(kind, args, line_no)
        _check_paths(kind, args, line_no, directories, files)

        annotation = None
        raw_ann = rec.get("annotation")
        if raw_ann is not None:
            if kind != "store":
                raise ParseError(line_no, f"{kind} operations must not carry annotations")
            try:
                annotation = Annotation(
                    raw_ann["type_name"], raw_ann["instance_id"], raw_ann["field_name"]
                )
            except (TypeError, KeyError):
                raise ParseError(line_no, f"malformed annotation {raw_ann!r}") from None
            if not all(isinstance(v, str) for v in annotation):
                raise ParseError(line_no, f"annotation fields must be strings in {raw_ann!r}")

        ops.append(
            Operation(
                seq=seq,
                tid=tid,
                kind=kind,
                args=args,
                backtrace=_parse_backtrace(rec["backtrace"], line_no, chains),
                annotation=annotation,
            )
        )
    return Trace(meta=meta, ops=ops)


def serialize_trace(trace: Trace) -> bytes:
    """Serialize a trace to the newline-delimited JSON format."""
    out = [json.dumps({"app": trace.meta.app_name, "mode": trace.meta.mode, "version": 1})]
    for op in trace.ops:
        out.append(json.dumps(op.to_json(), sort_keys=False))
    return ("\n".join(out) + "\n").encode("utf-8")


def split_by_thread(trace: Trace) -> dict[int, list[Operation]]:
    """Partition ops by thread id, preserving global seq order per thread."""
    per_tid: dict[int, list[Operation]] = {}
    for op in trace.ops:
        per_tid.setdefault(op.tid, []).append(op)
    return per_tid
