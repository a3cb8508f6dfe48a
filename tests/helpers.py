"""Shared builders for hand-constructed traces and random workload traces,
and the independent oracles the tests compare the library against,
among them the rule-by-rule reference of the persistence models."""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from bisect import bisect_right
from functools import partial
from typing import Iterator, NamedTuple

from crashcheck import Annotation, Backtrace, Frame, Operation, PersistenceGraph, Trace, build_graph
from crashcheck.behavior import UpdateBehavior, make_behavior
from crashcheck.errors import ExplosionLimit
from crashcheck.graph import FULL_KEY, StaticKey
from crashcheck.grouping import represents
from crashcheck.models import (
    _DATA_KINDS,
    EdgeReason,
    HappensBefore,
    ModelConfig,
    _paths_named,
    entry_name,
    line_persist_points,
    parent_dir,
    units_of,
)
from crashcheck.posix_behaviors import _leaf_runs
from crashcheck.simulate import (
    DEFAULT_BUDGET,
    DEFAULT_TIMEOUT,
    CheckResult,
    CrashSchedule,
    FsImage,
    PreparedChecker,
    enumerate_schedules,
    replay,
    run_oracle,
    test_groups,
)
from crashcheck.trace import MMIO_MODE, POSIX_MODE, TraceMeta, payload_digest, split_by_thread


def bt(*frames: tuple[str, int], file: str = "app.c") -> Backtrace:
    return Backtrace(tuple(Frame(fn, file, line) for fn, line in frames))


def replace_op(o: Operation, **changes) -> Operation:
    """A copy of ``o`` with the named fields changed."""
    fields = {name: getattr(o, name) for name in ("seq", "tid", "kind", "args", "backtrace", "annotation")}
    return Operation(**{**fields, **changes})


def op(
    seq: int,
    kind: str,
    args: dict,
    frames: tuple = (("main", 1),),
    tid: int = 0,
    annotation=None,
    file: str = "app.c",
) -> Operation:
    return Operation(
        seq=seq,
        tid=tid,
        kind=kind,
        args=args,
        backtrace=bt(*frames, file=file),
        annotation=annotation,
    )


def write_args(path: str, data: bytes, offset: int = 0) -> dict:
    return {
        "path": path,
        "offset": offset,
        "length": len(data),
        "digest": payload_digest(data),
        "data": data.hex(),
    }


def store_args(addr: int, data: bytes) -> dict:
    return {
        "addr": addr,
        "length": len(data),
        "digest": payload_digest(data),
        "data": data.hex(),
        "line": addr // 64,
    }


def posix_trace(ops: list[Operation], app: str = "test") -> Trace:
    return Trace(meta=TraceMeta(app_name=app, mode=POSIX_MODE), ops=ops)


def mmio_trace(ops: list[Operation], app: str = "test") -> Trace:
    return Trace(meta=TraceMeta(app_name=app, mode=MMIO_MODE), ops=ops)


def edge_triples(edges, trace: Trace | None = None) -> set[tuple[int, int, EdgeReason]]:
    """The ``(src, dst, reason)`` triples of a graph, of a model's
    :class:`HappensBefore` over ``trace`` (read through the graph), or of
    the reference model's ``(src, dst) -> reason`` pairs: the one form
    tests compare happens-before in."""
    if isinstance(edges, HappensBefore):
        edges = build_graph(trace, edges)
    if isinstance(edges, PersistenceGraph):
        return set(graph_edges(edges))
    return {(src, dst, reason) for (src, dst), reason in edges.items()}


def graph_edges(graph: PersistenceGraph) -> list[tuple[int, int, EdgeReason]]:
    """A graph's ``(src, dst, reason)`` triples in (src, dst) order, each
    pair named by the first of its destination's rules that holds it, read
    one pair at a time from the predecessor sets and the rules."""
    index = {seq: i for i, seq in enumerate(graph.seqs)}
    triples = []
    for dst in graph.node_seqs:
        for src in predecessors(graph, dst):
            reason = next(r for r, by_dst in graph.rules.items() if by_dst.get(dst, 0) >> index[src] & 1)
            triples.append((src, dst, reason))
    return sorted(triples, key=lambda t: t[:2])


def reference_fs_digest(image: FsImage) -> str:
    """``FsImage.digest`` written as the sha256 of ``json.dumps`` of the
    whole payload."""
    payload = {
        "files": {p: b.hex() for p, b in sorted(image.files.items())},
        "dirents": {d: sorted(names) for d, names in sorted(image.dirents.items())},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


# The reference model: (src seq, dst seq) -> the first rule that orders the
# pair, filled rule by rule with ``setdefault``.
Pairs = dict[tuple[int, int], EdgeReason]


def reference_posix_pairs(trace: Trace, cfg: ModelConfig | None = None) -> Pairs:
    """The POSIX model written rule by rule over lists of earlier ops: the
    reference ``crashcheck.models.posix_edges`` is compared against."""
    cfg = cfg or ModelConfig()

    edges: Pairs = {}
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
            blks = units_of(op.args["offset"], op.args["length"], cfg.block_size)
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

    # A rename's source and destination (and an unlink's target) are
    # consumed: each must have been materialized, and recreating or
    # writing a consumed path is ordered after the consumer; the per-path
    # life cycle then replays in trace order under any legal schedule, so
    # path-based replay never sees an impossible state.
    # A created path is also ordered after the earlier metadata ops that
    # name its parent directory: a file never lands in a directory that is
    # not made yet or is still a file.
    creators_by_path: dict[str, list[int]] = {}
    consumers_by_path: dict[str, list[int]] = {}
    for i, op in enumerate(ops):
        consumed = []
        if op.kind in ("rename", "unlink"):
            consumed.append(op.args["path"])
        if op.kind == "rename":
            consumed.append(op.args["dst"])
        created = op.args["dst"] if op.kind == "rename" else None
        if op.kind in _DATA_KINDS or op.kind in ("create", "mkdir"):
            created = op.args["path"]
        earlier = [seq for path in consumed for seq in creators_by_path.get(path, [])]
        if created is not None:
            earlier += [o.seq for o in ops[:i] if parent_dir(created) in _paths_named(o)]
        for seq in earlier + consumers_by_path.get(created, []):
            add((seq, op.seq), EdgeReason.METADATA_ORDER)
        if created is not None:
            creators_by_path.setdefault(created, []).append(op.seq)
        for path in consumed:
            # Appended last, so ``rename a a`` is not ordered after itself.
            consumers_by_path.setdefault(path, []).append(op.seq)

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
            if op.is_persisting:
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


def reference_mmio_pairs(trace: Trace, cfg: ModelConfig | None = None) -> Pairs:
    """The MMIO model written rule by rule over lists of earlier stores:
    the reference ``crashcheck.models.mmio_edges`` is compared against."""
    cfg = cfg or ModelConfig()

    edges: Pairs = {}
    add = edges.setdefault
    stores = [op for op in trace.ops if op.kind == "store"]

    # Same-cache-line conflicts in trace order, from the stores so far on
    # each line.
    stores_on_line: dict[int, list[int]] = {}
    for op in stores:
        for line in units_of(op.args["addr"], op.args["length"], cfg.cache_line_size):
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


def reference_model_pairs(trace: Trace, cfg: ModelConfig | None = None) -> Pairs:
    if trace.meta.mode == POSIX_MODE:
        return reference_posix_pairs(trace, cfg)
    return reference_mmio_pairs(trace, cfg)


def hb_from_pairs(trace: Trace, pairs: Pairs) -> HappensBefore:
    """Hand-written ``(src, dst) -> reason`` pairs as the per-rule bitsets
    ``build_graph`` reads, bit ``i`` standing for ``trace.ops[i]``."""
    index = {o.seq: i for i, o in enumerate(trace.ops)}
    rules: dict[EdgeReason, dict[int, int]] = {reason: {} for reason in EdgeReason}
    for (src, dst), reason in pairs.items():
        rules[reason][dst] = rules[reason].get(dst, 0) | 1 << index[src]
    return HappensBefore(rules)


def predecessors(graph: PersistenceGraph, seq: int) -> set[int]:
    """The nodes of ``graph`` with a direct edge into ``seq``, read one bit
    at a time from its predecessor bitset in the graph's window."""
    bits = dict(graph.own_preds()).get(seq, 0)
    return {src for i, src in enumerate(graph.seqs[graph.base:]) if bits >> i & 1}


def ancestors(graph, seq: int) -> set[int]:
    """Every node with a happens-before path to ``seq`` in ``graph``."""
    out: set[int] = set()
    stack = list(predecessors(graph, seq))
    while stack:
        cur = stack.pop()
        if cur not in out:
            out.add(cur)
            stack.extend(predecessors(graph, cur))
    return out


# The paper's equivalence definitions, which ``grouping.represents`` is
# checked against: it reads the same relations from cached key sets.


def node_equiv(n1: Operation, n2: Operation, mode: str = FULL_KEY) -> bool:
    """True when two operations share all static information."""
    return StaticKey.of(n1, mode) == StaticKey.of(n2, mode)


def edge_equiv(e1: tuple[Operation, Operation], e2: tuple[Operation, Operation], mode: str = FULL_KEY) -> bool:
    """True when sources are equivalent and destinations are equivalent.
    Edges are resolved (source op, destination op) pairs, so the two edges
    may come from different graphs."""
    return node_equiv(e1[0], e2[0], mode) and node_equiv(e1[1], e2[1], mode)


def _keys(ops, mode: str) -> set[StaticKey]:
    return {StaticKey.of(op, mode) for op in ops}


def subset_equiv_nodes(n2, n1, mode: str = FULL_KEY) -> bool:
    """N2 is subset-equivalent to N1: every op in N2 has an equivalent in N1."""
    return _keys(n2, mode) <= _keys(n1, mode)


def equivalence_image(n1, n2, mode: str = FULL_KEY) -> list[Operation]:
    """The ops of N1 that are equivalent to some op of N2."""
    wanted = _keys(n2, mode)
    return [op for op in n1 if StaticKey.of(op, mode) in wanted]


def subset_equiv_edges(e1, e2, mode: str = FULL_KEY) -> bool:
    """E1 is subset-equivalent to E2 over resolved (src op, dst op) pairs."""

    def keypairs(edges) -> set[tuple[StaticKey, StaticKey]]:
        return {(StaticKey.of(s, mode), StaticKey.of(d, mode)) for s, d in edges}

    return keypairs(e1) <= keypairs(e2)


def reference_group_behaviors(behaviors: list[UpdateBehavior]) -> list[tuple[str, list[str]]]:
    """Grouping as one ``represents`` call per (group, behavior) and one
    edge count per behavior: the loop ``grouping.group_behaviors`` must
    agree with, as (representative, members) pairs in order."""
    by_id = {b.id: b for b in behaviors}
    ordered = sorted(behaviors, key=lambda b: (-b.size, b.subgraph.edge_count, b.span[0], b.id))
    groups: list[tuple[str, list[str]]] = []
    for behavior in ordered:
        joined = False
        for representative, members in groups:
            if represents(by_id[representative], behavior):
                members.append(behavior.id)
                joined = True
        if not joined:
            groups.append((behavior.id, [behavior.id]))
    return groups


def fig5_behaviors():
    """The pointer-switch trio: a run of Fn3 with the rename (S3-1), a run
    without it (S3-2, different payloads, aligned static locations), and a
    behavior from another function (S2).  S3-1 carries the write->write
    dependency plus the write->rename one; S3-2 carries just the former."""
    mo = EdgeReason.METADATA_ORDER

    def w(seq, path, payload, frames):
        return op(seq, "write", write_args(path, payload), frames)

    run_a = posix_trace(
        [
            w(1, "f3", b"s2-a", (("Fn1", 1), ("Fn2", 10))),
            w(2, "f3", b"s2-b", (("Fn1", 1), ("Fn2", 11))),
            w(3, "f1", b"one", (("Fn1", 2), ("Fn3", 20))),
            w(4, "f2", b"two", (("Fn1", 2), ("Fn3", 21))),
            op(5, "rename", {"path": "f2", "dst": "CUR"}, (("Fn1", 2), ("Fn3", 22))),
        ]
    )
    graph_a = build_graph(run_a, hb_from_pairs(run_a, {(1, 2): mo, (3, 4): mo, (4, 5): mo}))

    run_b = posix_trace(
        [
            w(3, "f1", b"ONE", (("Fn1", 2), ("Fn3", 20))),
            w(4, "f2", b"TWO", (("Fn1", 2), ("Fn3", 21))),
        ]
    )
    graph_b = build_graph(run_b, hb_from_pairs(run_b, {(3, 4): mo}))

    s3_1 = make_behavior("S3-1", "Fn3", 0, (3, 4, 5), graph_a)
    s3_2 = make_behavior("S3-2", "Fn3", 0, (3, 4), graph_b)
    s2 = make_behavior("S2", "Fn2", 0, (1, 2), graph_a)
    return s3_1, s3_2, s2


def random_posix_trace(rng: random.Random, max_ops: int = 8, threads: int = 1) -> Trace:
    """Random small POSIX trace mixing data, metadata and ordering ops.

    The total op count stays within ``max_ops`` (every op is a graph node,
    so this bounds brute-force enumeration); at most ``max_ops`` persisting
    ops appear.  Renames/unlinks only ever name a currently existing file,
    mirroring what a real traced execution could produce.  With several
    ``threads`` each op gets a random tid; one thread draws nothing more
    from ``rng``, so existing seeds give the same traces.
    """
    paths = ["f1", "f2", "f3"]
    total = rng.randint(3, max_ops)
    ops: list[Operation] = []
    live: set[str] = set()
    for seq in range(1, total + 1):
        roll = rng.random()
        if roll < 0.5 or (roll < 0.8 and not live) or seq <= 2:
            path = rng.choice(paths)
            data = bytes([rng.randint(1, 255)]) * rng.randint(1, 4)
            offset = rng.choice([0, 2, 4096, 4094])
            ops.append(op(seq, "write", write_args(path, data, offset), (("main", seq),)))
            live.add(path)
        elif roll < 0.58:
            path = rng.choice(paths)
            ops.append(op(seq, "create", {"path": path}, (("main", seq),)))
            live.add(path)
        elif roll < 0.66:
            src = rng.choice(sorted(live))
            dst = rng.choice([p for p in paths if p != src])
            ops.append(op(seq, "rename", {"path": src, "dst": dst}, (("main", seq),)))
            live.discard(src)
            live.add(dst)
        elif roll < 0.78:
            path = rng.choice(sorted(live))
            ops.append(op(seq, "unlink", {"path": path}, (("main", seq),)))
            live.discard(path)
        elif roll < 0.86:
            path = rng.choice(paths)
            kind = rng.choice(["fsync", "fdatasync"])
            args = {"path": path}
            if kind == "fsync":
                args["dir"] = False
            ops.append(op(seq, kind, args, (("main", seq),)))
        elif roll < 0.92:
            ops.append(op(seq, "fsync", {"path": ".", "dir": True}, (("main", seq),)))
        else:
            ops.append(op(seq, "sync", {}, (("main", seq),)))
    return posix_trace(_spread_over_threads(rng, ops, threads))


def random_nested_posix_trace(rng: random.Random, max_ops: int = 8, threads: int = 1) -> Trace:
    """:func:`random_posix_trace` with each op's backtrace taken from a
    random call-stack walk per thread: calls, returns and call-site changes
    at any depth, at most 5 frames deep, reusing function names so a path
    can recurse.  Leaf runs close deeper and shallower, so derivation
    reaches merging and temporal splitting."""
    trace = random_posix_trace(rng, max_ops, threads)
    functions = ["put", "log", "sync_all", "main"]
    stacks: dict[int, list[tuple[str, int]]] = {}
    ops = []
    for o in trace.ops:
        stack = stacks.setdefault(o.tid, [("main", 1)])
        roll = rng.random()
        if roll < 0.3 and len(stack) < 5:
            stack.append((rng.choice(functions), rng.randint(1, 3)))
        elif roll < 0.5 and len(stack) > 1:
            del stack[rng.randrange(1, len(stack)) :]
        elif roll < 0.75:
            depth = rng.randrange(len(stack))
            del stack[depth + 1 :]
            stack[depth] = (stack[depth][0], rng.randint(1, 3))
        ops.append(replace_op(o, backtrace=bt(*stack)))
    return posix_trace(ops)


def random_dir_posix_trace(rng: random.Random, max_ops: int = 8) -> Trace:
    """Random small POSIX trace over files in directories: ``mkdir`` of a
    top-level name, writes and creates of files at the top level and one
    level down, renames and unlinks of files only, and fsyncs.  A top-level
    name that was a file and was unlinked or renamed away may be made a
    directory, and files then land in it.  Every op is legal where it is
    issued: a file's directory exists and is no file, and a renamed or
    unlinked file exists."""
    names = ["a", "b"]
    files: set[str] = set()
    dirs: set[str] = set()
    was_file: set[str] = set()
    ops: list[Operation] = []
    for seq in range(1, rng.randint(3, max_ops) + 1):
        homes = [n for n in names if n not in dirs] + [f"{d}/{n}" for d in sorted(dirs) for n in ("x", "y")]
        free = [n for n in names if n not in files and n not in dirs]
        roll = rng.random()
        frames = (("main", seq),)
        if free and roll < 0.25 and (set(free) & was_file or roll < 0.1):
            path = rng.choice(sorted(set(free) & was_file) or free)
            ops.append(op(seq, "mkdir", {"path": path}, frames))
            dirs.add(path)
        elif roll < 0.55 or not files:
            path = rng.choice(homes)
            if rng.random() < 0.3:
                ops.append(op(seq, "create", {"path": path}, frames))
            else:
                data = bytes([rng.randint(1, 255)]) * rng.randint(1, 4)
                ops.append(op(seq, "write", write_args(path, data, rng.choice([0, 2])), frames))
            files.add(path)
        elif roll < 0.7:
            path = rng.choice(sorted(files))
            ops.append(op(seq, "unlink", {"path": path}, frames))
            files.discard(path)
            was_file.add(path)
        elif roll < 0.85:
            src = rng.choice(sorted(files))
            dst = rng.choice([p for p in homes if p != src])
            ops.append(op(seq, "rename", {"path": src, "dst": dst}, frames))
            files.discard(src)
            files.add(dst)
            was_file.add(src)
        else:
            path = rng.choice(sorted(files | dirs | {"."}))
            ops.append(op(seq, "fsync", {"path": path, "dir": path in dirs or path == "."}, frames))
    return posix_trace(ops)


def log_then_tables_trace(appends: int, tables: int) -> Trace:
    """``appends`` appends to one log, its fdatasync, then ``tables``
    writes to distinct files that nothing orders."""
    ops = [op(seq, "write", write_args("log", bytes([seq]) * 4, 4 * (seq - 1))) for seq in range(1, appends + 1)]
    ops.append(op(appends + 1, "fdatasync", {"path": "log"}))
    ops += [
        op(appends + 2 + i, "write", write_args(f"table{i}", bytes([100 + i]) * 8))
        for i in range(tables)
    ]
    return posix_trace(ops)


def store_flush_fence_chain_trace(stores: int) -> Trace:
    """``stores`` stores to distinct cache lines, each followed by a flush
    of its line and a fence.  The model allows ``stores + 1`` states, but
    most subsets differ only in flushes and fences, so almost every order
    repeats a state."""
    ops = []
    for i in range(stores):
        ops.append(op(3 * i + 1, "store", store_args(64 * i, bytes([i + 1]) * 8)))
        ops.append(op(3 * i + 2, "flush", {"addr": 64 * i, "length": 64}))
        ops.append(op(3 * i + 3, "fence", {}))
    return mmio_trace(ops)


def side_node_chain_trace(appends: int, synced: int) -> Trace:
    """``appends`` appends to one log with its fdatasync after the first
    ``synced``, a write to ``early`` right after the fdatasync and a write
    to ``late`` after the last append.  The fdatasync orders the first
    appends before both writes and before every later append, so both
    writes become available in the middle of the append chain: ``early``
    has a lower seq than the appends after it, ``late`` a higher one."""
    ops = [op(seq, "write", write_args("log", bytes([seq]) * 4, 4 * (seq - 1))) for seq in range(1, synced + 1)]
    ops.append(op(synced + 1, "fdatasync", {"path": "log"}))
    ops.append(op(synced + 2, "write", write_args("early", b"\xee" * 4)))
    ops += [
        op(seq + 2, "write", write_args("log", bytes([seq]) * 4, 4 * (seq - 1)))
        for seq in range(synced + 1, appends + 1)
    ]
    ops.append(op(appends + 3, "write", write_args("late", b"\xaa" * 4)))
    return posix_trace(ops)


def _spread_over_threads(rng: random.Random, ops: list[Operation], threads: int) -> list[Operation]:
    if threads == 1:
        return ops
    return [replace_op(o, tid=rng.randrange(threads)) for o in ops]


def random_mmio_trace(rng: random.Random, max_ops: int = 8, threads: int = 1) -> Trace:
    """Random small MMIO trace mixing stores, flushes, fences and msyncs,
    capped at ``max_ops`` total operations and spread over ``threads`` like
    :func:`random_posix_trace`."""
    addrs = [0, 8, 64, 128, 192]
    total = rng.randint(3, max_ops)
    ops: list[Operation] = []
    for seq in range(1, total + 1):
        roll = rng.random()
        if roll < 0.6 or seq <= 2:
            addr = rng.choice(addrs)
            data = bytes([rng.randint(1, 255)]) * rng.randint(1, 8)
            ops.append(op(seq, "store", store_args(addr, data), (("main", seq),)))
        elif roll < 0.75:
            addr = rng.choice([0, 64, 128])
            ops.append(op(seq, "flush", {"addr": addr, "length": rng.choice([64, 128])}, (("main", seq),)))
        elif roll < 0.9:
            ops.append(op(seq, "fence", {}, (("main", seq),)))
        else:
            addr = rng.choice([0, 64])
            ops.append(op(seq, "msync", {"addr": addr, "length": 128}, (("main", seq),)))
    return mmio_trace(_spread_over_threads(rng, ops, threads))


def random_annotated_mmio_trace(rng: random.Random, max_ops: int = 8, threads: int = 1) -> Trace:
    """:func:`random_mmio_trace` with each store annotated with one of the
    types ``Log``, ``Log/Hdr``, ``Log/Body`` and ``Tab/Row/Cell`` or left
    unannotated, over 2 instances and 3 fields, so derivation reaches
    composite types and both epoch criteria."""
    types = [None, "Log", "Log/Hdr", "Log/Body", "Tab/Row/Cell"]
    ops = []
    for o in random_mmio_trace(rng, max_ops, threads).ops:
        type_name = rng.choice(types) if o.kind == "store" else None
        if type_name is not None:
            annotation = Annotation(type_name, rng.choice(["i0", "i1"]), rng.choice(["a", "b", "c"]))
            o = replace_op(o, annotation=annotation)
        ops.append(o)
    return mmio_trace(ops)


def leaf_runs_by_path(graph: PersistenceGraph, trace: Trace) -> dict[tuple[str, ...], list[tuple[int, ...]]]:
    """Every thread's leaf runs over its graph ops, threads in tid order,
    as ``{path: [seqs of each run]}``."""
    out: dict[tuple[str, ...], list[tuple[int, ...]]] = {}
    for _, ops in sorted(split_by_thread(trace).items()):
        thread_ops = [o for o in ops if o.seq in graph.ops_by_seq]
        if thread_ops:
            for path, run in _leaf_runs(thread_ops):
                out.setdefault(path, []).append(tuple(o.seq for o in run))
    return out


def dbscan_1d_reference(points: list[int], eps: int, min_pts: int) -> tuple[list[list[int]], list[int]]:
    """``behavior.dbscan_1d`` as first written: every neighbor list found by
    scanning all points, the frontier a list popped from the front."""
    pts = sorted(points)
    neighbors = {p: [q for q in pts if abs(q - p) <= eps] for p in pts}
    core = {p for p in pts if len(neighbors[p]) >= min_pts}
    assigned: dict[int, int] = {}
    clusters: list[list[int]] = []
    for p in pts:
        if p in assigned or p not in core:
            continue
        cluster_id = len(clusters)
        clusters.append([])
        frontier = [p]
        assigned[p] = cluster_id
        while frontier:
            cur = frontier.pop(0)
            clusters[cluster_id].append(cur)
            if cur not in core:
                continue
            for q in neighbors[cur]:
                if q not in assigned:
                    assigned[q] = cluster_id
                    frontier.append(q)
    noise = [p for p in pts if p not in assigned]
    return [sorted(c) for c in clusters], noise


def straddling_mmio_trace(rng: random.Random, threads: int = 1) -> Trace:
    """Random MMIO trace whose stores may cross a cache-line boundary,
    spread over ``threads`` like :func:`random_posix_trace`."""
    ops = []
    for seq in range(1, rng.randint(3, 14) + 1):
        roll = rng.random()
        if roll < 0.5:
            addr = rng.choice([0, 8, 56, 60, 64, 120, 124, 128])
            data = bytes([rng.randint(1, 255)]) * rng.randint(1, 12)
            ops.append(op(seq, "store", store_args(addr, data), (("main", seq),)))
        elif roll < 0.7:
            flush = {"addr": rng.choice([0, 60, 64, 128]), "length": rng.choice([1, 8, 64, 128])}
            ops.append(op(seq, "flush", flush, (("main", seq),)))
        elif roll < 0.88:
            ops.append(op(seq, "fence", {}, (("main", seq),)))
        else:
            msync = {"addr": rng.choice([0, 64, 120]), "length": rng.choice([8, 64])}
            ops.append(op(seq, "msync", msync, (("main", seq),)))
    return mmio_trace(_spread_over_threads(rng, ops, threads))


def output_digest(result: CheckResult) -> str:
    """The sha256 of a check's oracle output, as bug dedup keys hash it."""
    return hashlib.sha256(result.oracle_output.encode()).hexdigest()


def run_group_tests(groups, by_id, trace: Trace, checker: list[str], scratch, budget=DEFAULT_BUDGET,
                    timeout=DEFAULT_TIMEOUT):
    """The bugs and counts of ``crashcheck test``'s checked run: each
    distinct representative of ``groups`` explored one order per subset,
    and every new state checked by ``checker`` under ``scratch``."""
    reps = [by_id[rep_id] for rep_id in dict.fromkeys(g.representative for g in groups)]
    schedules_of = partial(enumerate_schedules, trace=trace, budget=budget)
    check = partial(run_oracle, checker=PreparedChecker(checker, scratch, timeout))
    bugs, stats, _ = test_groups(reps, schedules_of, trace, check)
    return bugs, stats


def brute_force_schedules(
    behavior: UpdateBehavior,
    trace: Trace,
    budget: int = 1_000_000,
) -> Iterator[CrashSchedule]:
    """Every downward-closed subset and every linearization, enumerated the
    dumbest possible way: plain combinations and permutations with filters.

    Deliberately shares no enumeration logic with ``enumerate_schedules``
    so it can serve as an independent oracle in the pruning-soundness
    suite.  Quadratic waste makes it unsuitable beyond ~8 nodes; the CLI
    baseline uses ``exhaustive_schedules`` instead.
    """
    context = tuple(op for op in trace.ops if op.seq < behavior.span[0])
    graph = behavior.subgraph
    nodes = graph.node_seqs
    edge_pairs = {(src, dst) for src, dst, _ in edge_triples(graph)}
    count = 0
    for size in range(len(nodes) + 1):
        for combo in itertools.combinations(nodes, size):
            chosen = set(combo)
            if any(dst in chosen and src not in chosen for src, dst in edge_pairs):
                continue
            for perm in itertools.permutations(combo):
                pos = {seq: i for i, seq in enumerate(perm)}
                if any(
                    src in chosen and dst in chosen and pos[src] > pos[dst]
                    for src, dst in edge_pairs
                ):
                    continue
                count += 1
                if count > budget:
                    raise ExplosionLimit(budget)
                yield CrashSchedule(
                    behavior_id=behavior.id,
                    mode=trace.meta.mode,
                    context=context,
                    applied=tuple(graph.ops_by_seq[s] for s in perm),
                )


_ALL_BLOCKS = frozenset({-1})


def _posix_resources(op: Operation, cfg: ModelConfig):
    kind = op.kind
    if kind in ("write", "pwrite"):
        return (
            {("data", op.args["path"], b) for b in units_of(op.args["offset"], op.args["length"], cfg.block_size)},
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
        la = units_of(a.args["addr"], a.args["length"], cfg.cache_line_size)
        lb = units_of(b.args["addr"], b.args["length"], cfg.cache_line_size)
        return not (la & lb)
    data_a, meta_a = _posix_resources(a, cfg)
    data_b, meta_b = _posix_resources(b, cfg)
    if meta_a & meta_b:
        return False
    return not _data_conflict(data_a, data_b)


class ReferenceState(NamedTuple):
    """One set of :func:`reference_states`: its ``applied`` seqs, the
    full-graph ancestors it lacks (``pulled``), the number of its orders
    that respect the behavior's edges, and its image's digest."""

    applied: tuple[int, ...]
    pulled: tuple[int, ...]
    orders: int
    digest: str


def reference_states(
    behavior: UpdateBehavior,
    graph: PersistenceGraph,
    trace: Trace,
    budget: int | None = None,
) -> Iterator[ReferenceState]:
    """Every set of the behavior's nodes closed under its own edges, barrier
    nodes included, found by brute force over bitmasks in the order the
    enumerators visit subsets: lexicographic in membership over ascending
    seqs, "absent" first.  Shares no code with the enumerators.

    ``pulled`` is read from the full ``graph``: the ancestors of the set at
    or after the span start that it lacks.  The digest is that of the
    context, the set and ``pulled`` replayed from scratch in seq order, so a
    set whose ``pulled`` is empty is a state of the full model as it
    stands, and one whose ``pulled`` is not must either pull those ops in or
    be dropped.  The order count comes from a memoized recursion that
    removes one minimal node at a time.  Raises :class:`ExplosionLimit`
    before the ``budget + 1``-th set, and the :class:`ReplayError` of the
    first set whose replay fails."""
    ops = trace.ops_by_seq()
    start = behavior.span[0]
    context = tuple(op for op in trace.ops if op.seq < start)
    seqs = behavior.node_seqs
    # The lowest seq is the highest bit, so counting up is lexicographic.
    bit = {seq: 1 << (len(seqs) - 1 - i) for i, seq in enumerate(seqs)}
    preds = {seq: sum(map(bit.__getitem__, predecessors(behavior.subgraph, seq))) for seq in seqs}
    counts = {0: 1}

    def orders(mask: int) -> int:
        if mask not in counts:
            counts[mask] = sum(orders(mask ^ bit[seq]) for seq in seqs if mask & bit[seq] and not preds[seq] & mask)
        return counts[mask]

    in_span = {seq: {a for a in ancestors(graph, seq) if a >= start} for seq in seqs}
    visited = 0
    for mask in range(1 << len(seqs)):
        applied = tuple(seq for seq in seqs if mask & bit[seq])
        if any(preds[seq] & ~mask for seq in applied):
            continue
        if visited == budget:
            raise ExplosionLimit(budget)
        visited += 1
        pulled = tuple(sorted(set().union(*map(in_span.__getitem__, applied)).difference(applied)))
        schedule = CrashSchedule(behavior.id, trace.meta.mode, context, tuple(ops[s] for s in sorted(applied + pulled)))
        yield ReferenceState(applied, pulled, orders(mask), replay(schedule).digest())
