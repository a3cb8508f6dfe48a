"""Seeded trace generators for the ``scale`` and ``explore`` workloads.

Each generator returns the trace as newline-delimited JSON text in the
format ``crashcheck.trace.parse_trace`` reads.  The seed picks payload
bytes and file or instance names only; op kinds, op order, offsets,
lengths and call sites are fixed, so the expected answers in
``workloads.py`` hold for every seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

# Rounds start this many seqs apart.  The gap must exceed the default DBSCAN
# radius (10): without it, adjacent rounds merge into one behavior whose
# schedule space does not finish enumerating.
ROUND_STRIDE = 32


def _frame(function: str, file: str, line: int) -> dict:
    return {"function": function, "file": file, "line": line}


def _payload(data: bytes) -> dict:
    return {"digest": hashlib.sha256(data).hexdigest(), "data": data.hex()}


def _nonzero_bytes(rng: random.Random, length: int) -> bytes:
    return bytes(rng.randrange(1, 256) for _ in range(length))


def _name_tag(rng: random.Random) -> str:
    return "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(6))


def _jsonl(mode: str, records: list[dict]) -> str:
    lines = [json.dumps({"app": "bench", "mode": mode, "version": 1})]
    lines.extend(json.dumps(rec) for rec in records)
    return "\n".join(lines) + "\n"


def _op(seq: int, kind: str, args: dict, backtrace: list[dict], annotation=None) -> dict:
    return {
        "seq": seq,
        "tid": 0,
        "kind": kind,
        "args": args,
        "backtrace": backtrace,
        "annotation": annotation,
    }


def pointer_update_trace(seed: int, rounds: int = 60) -> str:
    """POSIX: ``rounds`` repetitions of the missing-directory-sync pointer
    update (``workloads/current_update_buggy.dsl``), each round switching
    CURRENT to a fresh manifest and unlinking the previous one.

    Every round issues its ops from the same call sites, as a loop in a
    traced program would, so grouping collapses the rounds.
    """
    rng = random.Random(f"pointer-update:{seed}")
    tag = _name_tag(rng)
    src = "db.c"
    setup = [_frame("main", src, 10), _frame("Setup", src, 20)]
    update = [_frame("main", src, 12), _frame("UpdateManifest", src, 30)]

    def at(frames: list[dict], line: int) -> list[dict]:
        return frames[:-1] + [dict(frames[-1], line=line)]

    def set_current(line: int) -> list[dict]:
        return at(update, 33) + [_frame("SetCurrentFile", src, line)]

    def manifest(index: int) -> str:
        return f"MANIFEST-{tag}-{index:04d}"

    records = []
    seq = 1

    def emit(kind: str, args: dict, backtrace: list[dict]):
        nonlocal seq
        records.append(_op(seq, kind, args, backtrace))
        seq += 1

    tmp = f"CURRENT.{tag}.tmp"
    first = manifest(0)
    body = _nonzero_bytes(rng, 16)
    emit("write", {"path": first, "offset": 0, "length": len(body), **_payload(body)}, at(setup, 21))
    emit("fdatasync", {"path": first}, at(setup, 22))
    pointer = first.encode()
    emit("write", {"path": "CURRENT", "offset": 0, "length": len(pointer), **_payload(pointer)}, at(setup, 23))
    emit("sync", {}, at(setup, 24))

    for index in range(1, rounds + 1):
        seq = ROUND_STRIDE * index
        new, old = manifest(index), manifest(index - 1)
        body = _nonzero_bytes(rng, 16)
        pointer = new.encode()
        emit("write", {"path": new, "offset": 0, "length": len(body), **_payload(body)}, at(update, 31))
        emit("fdatasync", {"path": new}, at(update, 32))
        emit("write", {"path": tmp, "offset": 0, "length": len(pointer), **_payload(pointer)}, set_current(40))
        emit("fdatasync", {"path": tmp}, set_current(41))
        emit("rename", {"path": tmp, "dst": "CURRENT"}, set_current(42))
        emit("unlink", {"path": old}, at(update, 34))
    return _jsonl("POSIX", records)


def entry_insert_trace(seed: int, inserts: int = 80) -> str:
    """MMIO: ``inserts`` repetitions of the unordered hash-entry insert
    (``workloads/entry_insert.dsl``) into one slot: key, value and valid
    flag stored with no ordering among them, then one flush and a fence.

    The slot sits at the addresses ``workloads/checkers/entry_valid.py``
    reads (key 0, value 64, valid flag 128).
    """
    rng = random.Random(f"entry-insert:{seed}")
    instance = f"e{_name_tag(rng)}"
    src = "table.c"
    caller = _frame("main", src, 7)

    def store(seq: int, field: str, addr: int, data: bytes, line: int) -> dict:
        args = {"addr": addr, "length": len(data), "line": addr // 64, **_payload(data)}
        annotation = {"type_name": "entry_t", "instance_id": instance, "field_name": field}
        return _op(seq, "store", args, [caller, _frame("insert", src, line)], annotation)

    records = []
    for index in range(inserts):
        seq = ROUND_STRIDE * index + 1
        records += [
            store(seq, "key", 0, _nonzero_bytes(rng, 8), 15),
            store(seq + 1, "value", 64, _nonzero_bytes(rng, 8), 16),
            store(seq + 2, "valid", 128, b"\x01", 17),
            _op(seq + 3, "flush", {"addr": 0, "length": 192}, [caller, _frame("insert", src, 18)]),
            _op(seq + 4, "fence", {}, [caller, _frame("insert", src, 19)]),
        ]
    return _jsonl("MMIO", records)


def wal_then_tables_trace(seed: int, appends: int = 100, tables: int = 7) -> str:
    """POSIX: ``appends`` appends to one log, one ``fdatasync`` of the log,
    then ``tables`` writes to distinct files that nothing orders.

    The appends form a chain and the barrier orders all of them before
    every table write, so the whole-trace explorer sees
    ``appends + 2 ** tables`` distinct states over
    ``appends + 2 + sum(C(tables, j) * j!)`` schedules (``j`` from 1).
    """
    rng = random.Random(f"wal-tables:{seed}")
    tag = _name_tag(rng)
    src = "wal.c"
    log = f"wal-{tag}.log"
    records = []
    seq = 1
    for index in range(appends):
        data = _nonzero_bytes(rng, 12)
        args = {"path": log, "offset": index * len(data), "length": len(data), **_payload(data)}
        records.append(_op(seq, "write", args, [_frame("main", src, 5), _frame("append", src, 20)]))
        seq += 1
    records.append(_op(seq, "fdatasync", {"path": log}, [_frame("main", src, 6)]))
    seq += 1
    for index in range(tables):
        data = _nonzero_bytes(rng, 64)
        args = {"path": f"table-{tag}-{index}", "offset": 0, "length": len(data), **_payload(data)}
        records.append(_op(seq, "write", args, [_frame("main", src, 8), _frame("flush_table", src, 40)]))
        seq += 1
    return _jsonl("POSIX", records)


def wal_states(appends: int, tables: int) -> int:
    """Distinct crash states of :func:`wal_then_tables_trace`: every log
    prefix short of the barrier, then every subset of the table writes."""
    return appends + 2 ** tables


def wal_schedules(appends: int, tables: int) -> int:
    """Unpruned schedules of :func:`wal_then_tables_trace`: the
    ``appends + 2`` prefixes of the append-and-barrier chain, then every
    ordering of every non-empty subset of the table writes."""
    orders = sum(math.comb(tables, j) * math.factorial(j) for j in range(1, tables + 1))
    return appends + 2 + orders
