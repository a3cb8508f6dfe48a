"""Workload DSL: a small line-oriented language that compiles to a trace.

Statements::

    fn NAME { ... }
    write PATH "BYTES" @OFFSET
    rename SRC DST
    unlink PATH
    create PATH
    fsync PATH
    fdatasync PATH
    fsyncdir PATH
    sync
    store TYPE.INSTANCE.FIELD @ADDR LEN "BYTES"
    flush ADDR LEN
    fence
    msync ADDR LEN

Statements may share a line separated by ``;``.  Every storage statement
must appear inside at least one ``fn`` block; the lexical nesting of those
blocks becomes the synthetic backtrace of each emitted operation, with the
opening line of a nested block serving as the enclosing frame's call-site
line.  Store annotations are mandatory; a ``TYPE`` containing ``/``
declares containment (``Outer/Inner``).
"""

from __future__ import annotations

import re

from .errors import DslError
from .trace import (
    MMIO_MODE,
    POSIX_MODE,
    Annotation,
    Backtrace,
    Chain,
    Operation,
    Trace,
    TraceMeta,
    _check_paths,
    _shared_backtrace,
    _validate_args,
    payload_digest,
)

_TOKEN_RE = re.compile(r'"(?:\\.|[^"\\])*"|\{|\}|;|#|[^\s;{}"#]+')

_POSIX_STMTS = {"write", "rename", "unlink", "create", "fsync", "fdatasync", "fsyncdir", "sync"}
_MMIO_STMTS = {"store", "flush", "fence", "msync"}


def _unquote(token: str, line_no: int) -> bytes:
    body = token[1:-1]
    try:
        text = body.encode("ascii", "backslashreplace").decode("unicode_escape")
        return text.encode("latin-1")
    except (UnicodeDecodeError, UnicodeEncodeError):
        raise DslError(line_no, f"bad string literal {token}") from None


def _to_int(token: str, line_no: int, what: str) -> int:
    try:
        value = int(token, 0)
    except ValueError:
        raise DslError(line_no, f"{what} must be an integer, got {token!r}") from None
    if value < 0:
        raise DslError(line_no, f"{what} must be non-negative")
    return value


def _tokenize(program: str):
    """Yield (line_no, token) pairs, dropping `#` comments."""
    for line_no, line in enumerate(program.splitlines(), start=1):
        for match in _TOKEN_RE.finditer(line):
            token = match.group(0)
            if token == "#":
                break
            yield line_no, token


class _Synth:
    def __init__(self, mode: str, cache_line_size: int):
        self.mode = mode
        self.cache_line_size = cache_line_size
        # stack of (function name, line where its block opens)
        self.fn_stack: list[tuple[str, int]] = []
        self.ops: list[Operation] = []
        # One Backtrace per distinct call chain, shared by its ops.
        self.chains: dict[Chain, Backtrace] = {}
        self.paths: dict[str, str] = {}  # each path's one spelling
        self.directories: set[str] = set()
        self.files: set[str] = set()

    def backtrace(self, stmt_line: int) -> Backtrace:
        chain = []
        for i, (name, _open_line) in enumerate(self.fn_stack):
            if i + 1 < len(self.fn_stack):
                call_line = self.fn_stack[i + 1][1]
            else:
                call_line = stmt_line
            chain.append((name, "<dsl>", call_line))
        return _shared_backtrace(self.chains, tuple(chain))

    def emit(self, line_no: int, kind: str, args: dict, annotation: Annotation | None = None):
        if not self.fn_stack:
            raise DslError(line_no, f"{kind} statement outside any fn block")
        _validate_args(kind, args, line_no, self.paths, DslError)
        _check_paths(kind, args, line_no, self.directories, self.files, DslError)
        self.ops.append(
            Operation(
                seq=len(self.ops) + 1,
                tid=0,
                kind=kind,
                args=args,
                backtrace=self.backtrace(line_no),
                annotation=annotation,
            )
        )

    def statement(self, line_no: int, words: list[str]):
        head = words[0]
        if head in _POSIX_STMTS and self.mode != POSIX_MODE:
            raise DslError(line_no, f"{head} is a POSIX statement in an MMIO workload")
        if head in _MMIO_STMTS and self.mode != MMIO_MODE:
            raise DslError(line_no, f"{head} is an MMIO statement in a POSIX workload")

        if head == "write":
            self._write(line_no, words)
        elif head == "rename":
            self._expect(line_no, words, 3)
            self.emit(line_no, "rename", {"path": words[1], "dst": words[2]})
        elif head in ("unlink", "create", "fdatasync"):
            self._expect(line_no, words, 2)
            self.emit(line_no, head, {"path": words[1]})
        elif head == "fsync":
            self._expect(line_no, words, 2)
            self.emit(line_no, "fsync", {"path": words[1], "dir": False})
        elif head == "fsyncdir":
            self._expect(line_no, words, 2)
            self.emit(line_no, "fsync", {"path": words[1], "dir": True})
        elif head == "sync":
            self._expect(line_no, words, 1)
            self.emit(line_no, "sync", {})
        elif head == "store":
            self._store(line_no, words)
        elif head in ("flush", "msync"):
            self._expect(line_no, words, 3)
            addr = _to_int(words[1], line_no, "address")
            length = _to_int(words[2], line_no, "length")
            self.emit(line_no, head, {"addr": addr, "length": length})
        elif head == "fence":
            self._expect(line_no, words, 1)
            self.emit(line_no, "fence", {})
        else:
            raise DslError(line_no, f"unknown statement {head!r}")

    def _expect(self, line_no: int, words: list[str], count: int):
        if len(words) != count:
            raise DslError(line_no, f"{words[0]} expects {count - 1} argument(s)")

    def _write(self, line_no: int, words: list[str]):
        self._expect(line_no, words, 4)
        path, literal, at_offset = words[1], words[2], words[3]
        if not literal.startswith('"'):
            raise DslError(line_no, "write payload must be a quoted string")
        if not at_offset.startswith("@"):
            raise DslError(line_no, "write offset must be @-prefixed")
        raw = _unquote(literal, line_no)
        offset = _to_int(at_offset[1:], line_no, "offset")
        args = {"path": path, "offset": offset, "length": len(raw)}
        args.update(digest=payload_digest(raw), data=raw.hex())
        self.emit(line_no, "write", args)

    def _store(self, line_no: int, words: list[str]):
        self._expect(line_no, words, 5)
        target, at_addr, len_tok, literal = words[1], words[2], words[3], words[4]
        parts = target.split(".")
        if len(parts) != 3 or not all(parts):
            raise DslError(line_no, "store target must be TYPE.INSTANCE.FIELD")
        if not at_addr.startswith("@"):
            raise DslError(line_no, "store address must be @-prefixed")
        if not literal.startswith('"'):
            raise DslError(line_no, "store payload must be a quoted string")
        addr = _to_int(at_addr[1:], line_no, "address")
        length = _to_int(len_tok, line_no, "length")
        raw = _unquote(literal, line_no)
        args = {"addr": addr, "length": length, "line": addr // self.cache_line_size}
        args.update(digest=payload_digest(raw), data=raw.hex())
        self.emit(line_no, "store", args, Annotation(parts[0], parts[1], parts[2]))


def synth_workload(
    program: str,
    mode: str,
    cache_line_size: int = 64,
) -> Trace:
    """Compile a workload program into a deterministic trace.

    Operations correspond 1:1 to storage statements in program order, with
    seq starting at 1 and all ops on tid 0.  The trace's app name is
    ``workload`` and every frame's file ``<dsl>``.
    """
    if mode not in (POSIX_MODE, MMIO_MODE):
        raise DslError(0, f"mode must be POSIX or MMIO, got {mode!r}")

    synth = _Synth(mode, cache_line_size)
    pending: list[str] = []
    pending_line = 0
    pending_fn: str | None = None

    def flush_pending():
        nonlocal pending, pending_fn
        if pending_fn is not None:
            raise DslError(pending_line, "fn declaration missing '{'")
        if pending:
            synth.statement(pending_line, pending)
            pending = []

    last_line = 0
    for line_no, token in _tokenize(program):
        last_line = line_no
        if pending and line_no != pending_line and pending_fn is None:
            flush_pending()
        if token == ";":
            flush_pending()
        elif token == "{":
            if pending_fn is None:
                raise DslError(line_no, "'{' without fn declaration")
            synth.fn_stack.append((pending_fn, pending_line))
            pending_fn = None
            pending = []
        elif token == "}":
            flush_pending()
            if not synth.fn_stack:
                raise DslError(line_no, "unbalanced '}'")
            synth.fn_stack.pop()
        elif token == "fn":
            flush_pending()
            pending = [token]
            pending_line = line_no
        elif pending and pending[0] == "fn":
            if len(pending) > 1:
                raise DslError(line_no, "fn declaration takes a single name")
            pending_fn = token
            pending.append(token)
            pending_line = pending_line if line_no == pending_line else line_no
        else:
            if not pending:
                pending_line = line_no
            pending.append(token)
    flush_pending()
    if synth.fn_stack:
        raise DslError(last_line, f"unclosed fn block {synth.fn_stack[-1][0]!r}")

    return Trace(meta=TraceMeta(app_name="workload", mode=mode), ops=synth.ops)
