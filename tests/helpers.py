"""Shared builders for hand-constructed traces and random workload traces,
and the independent oracles the tests compare the library against."""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random
from typing import Iterator

from crashcheck import Backtrace, Frame, Operation, PersistenceGraph, Trace, build_graph
from crashcheck.behavior import UpdateBehavior, make_behavior
from crashcheck.errors import ExplosionLimit
from crashcheck.mmio_behaviors import EpochSubgraph, InstanceSubgraph, _split_epochs, persisted_at
from crashcheck.models import EdgeReason, ModelConfig
from crashcheck.simulate import CheckResult, CrashSchedule
from crashcheck.trace import MMIO_MODE, POSIX_MODE, TraceMeta, payload_digest


def bt(*frames: tuple[str, int], file: str = "app.c") -> Backtrace:
    return Backtrace(tuple(Frame(fn, file, line) for fn, line in frames))


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


def edge_triples(edges) -> set[tuple[int, int, EdgeReason]]:
    """The ``(src, dst, reason)`` triples of a graph, or of a model's
    ``(src, dst) -> reason`` pairs: the one form tests compare
    happens-before in."""
    if isinstance(edges, PersistenceGraph):
        edges = edges.edges()
    return {(src, dst, reason) for (src, dst), reason in edges.items()}


def split_epochs(
    isg: InstanceSubgraph,
    full_graph: PersistenceGraph,
    trace: Trace,
    cfg: ModelConfig | None = None,
) -> list[EpochSubgraph]:
    """Cut one instance's stores into epochs using the full trace's
    flush/fence history.  Epochs are contiguous seq intervals restricted to
    the instance and partition its subgraph."""
    return _split_epochs(isg, full_graph, trace, persisted_at(trace, cfg))


def ancestors(graph, seq: int) -> set[int]:
    """Every node with a happens-before path to ``seq`` in ``graph``."""
    out: set[int] = set()
    stack = list(graph.predecessors(seq))
    while stack:
        cur = stack.pop()
        if cur not in out:
            out.add(cur)
            stack.extend(graph.predecessors(cur))
    return out


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
    edges_a = {(1, 2): mo, (3, 4): mo, (4, 5): mo}
    graph_a = build_graph(run_a, edges_a)

    run_b = posix_trace(
        [
            w(3, "f1", b"ONE", (("Fn1", 2), ("Fn3", 20))),
            w(4, "f2", b"TWO", (("Fn1", 2), ("Fn3", 21))),
        ]
    )
    graph_b = build_graph(run_b, {(3, 4): mo})

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


def _spread_over_threads(rng: random.Random, ops: list[Operation], threads: int) -> list[Operation]:
    if threads == 1:
        return ops
    return [dataclasses.replace(o, tid=rng.randrange(threads)) for o in ops]


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
    nodes = sorted(graph.ops_by_seq)
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
