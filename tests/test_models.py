import itertools
import random

import pytest

from crashcheck import ModeMismatch, ModelConfig, build_graph, mmio_edges, model_edges, posix_edges
from crashcheck.mmio_behaviors import persisted_at
from crashcheck.models import EdgeReason, units_of
from crashcheck.trace import POSIX_MODE, Trace

from helpers import (
    edge_triples,
    mmio_trace,
    op,
    ops_commute,
    posix_trace,
    predecessors,
    random_mmio_trace,
    random_posix_trace,
    reference_model_pairs,
    replace_op,
    store_args,
    straddling_mmio_trace,
    write_args,
)


def pairs(edges, trace):
    return {(src, dst) for src, dst, _ in edge_triples(edges, trace)}


def reasons(edges, trace):
    return {reason for _, _, reason in edge_triples(edges, trace)}


def test_same_block_writes_are_ordered():
    trace = posix_trace(
        [
            op(1, "write", write_args("f", b"aa", 0), (("main", 1),)),
            op(2, "write", write_args("f", b"bb", 8), (("main", 2),)),
        ]
    )
    assert pairs(posix_edges(trace), trace) == {(1, 2)}


def test_different_blocks_same_file_unordered_by_default():
    trace = posix_trace(
        [
            op(1, "write", write_args("f", b"aa", 0), (("main", 1),)),
            op(2, "write", write_args("f", b"bb", 8192), (("main", 2),)),
        ]
    )
    edges = posix_edges(trace)
    # Both writes extend the file, so only the size-metadata edge remains.
    assert pairs(edges, trace) == {(1, 2)}
    assert reasons(edges, trace) == {EdgeReason.METADATA_ORDER}
    overwrite = posix_trace(
        [
            op(1, "write", write_args("f", b"aa", 8192), (("main", 1),)),
            op(2, "write", write_args("f", b"bb", 0), (("main", 2),)),
        ]
    )
    assert pairs(posix_edges(overwrite), overwrite) == set()


def test_pwrite_behaves_like_write_in_the_model():
    trace = posix_trace(
        [
            op(1, "pwrite", write_args("f", b"aa", 0), (("main", 1),)),
            op(2, "pwrite", write_args("f", b"bb", 8), (("main", 2),)),
            op(3, "fdatasync", {"path": "f"}, (("main", 3),)),
            op(4, "pwrite", write_args("g", b"cc", 0), (("main", 4),)),
        ]
    )
    edge_pairs = pairs(posix_edges(trace), trace)
    assert (1, 2) in edge_pairs
    assert {(1, 4), (2, 4)} <= edge_pairs


def test_block_spanning_write_conflicts_on_every_block():
    trace = posix_trace(
        [
            op(1, "write", write_args("f", b"x" * 8, 4092), (("main", 1),)),
            op(2, "write", write_args("f", b"y" * 4, 4096), (("main", 2),)),
        ]
    )
    assert (1, 2) in pairs(posix_edges(trace), trace)
    assert units_of(4092, 8, 4096) == frozenset({0, 1})


def test_no_block_split_orders_whole_file():
    trace = posix_trace(
        [
            op(1, "write", write_args("f", b"aa", 8192), (("main", 1),)),
            op(2, "write", write_args("f", b"bb", 0), (("main", 2),)),
        ]
    )
    cfg = ModelConfig(split_writes_at_block_boundary=False)
    assert (1, 2) in pairs(posix_edges(trace, cfg), trace)


def test_fdatasync_orders_write_before_rename():
    trace = posix_trace(
        [
            op(1, "write", write_args("f2", b"aa"), (("main", 1),)),
            op(2, "fdatasync", {"path": "f2"}, (("main", 2),)),
            op(3, "rename", {"path": "f2", "dst": "g"}, (("main", 3),)),
        ]
    )
    edges = posix_edges(trace)
    assert (1, 3) in pairs(edges, trace)
    # barrier anchors keep the fdatasync node connected
    assert pairs(edges, trace) == {(1, 2), (1, 3), (2, 3)}


def test_source_covered_by_several_barriers():
    trace = posix_trace(
        [
            op(1, "write", write_args("f", b"a"), (("main", 1),)),
            op(2, "fdatasync", {"path": "f"}, (("main", 2),)),
            op(3, "fsync", {"path": "f", "dir": False}, (("main", 3),)),
            op(4, "write", write_args("g", b"b"), (("main", 4),)),
            op(5, "sync", {}, (("main", 5),)),
            op(6, "write", write_args("h", b"c"), (("main", 6),)),
        ]
    )
    sb = EdgeReason.SYNC_BARRIER
    assert edge_triples(posix_edges(trace), trace) == {
        # the write points at each barrier covering it ...
        (1, 2, sb), (1, 3, sb), (1, 5, sb),
        # ... and precedes the persisting ops after the first of them
        (1, 4, sb), (1, 6, sb),
        (4, 5, sb), (4, 6, sb),
        # each barrier with sources precedes the persisting ops after it
        (2, 4, sb), (2, 6, sb), (3, 4, sb), (3, 6, sb), (5, 6, sb),
    }


def test_two_writes_to_different_files_have_no_edges():
    trace = posix_trace(
        [
            op(1, "write", write_args("f1", b"a"), (("main", 1),)),
            op(2, "write", write_args("f2", b"b"), (("main", 2),)),
        ]
    )
    assert edge_triples(posix_edges(trace), trace) == set()


def test_fdatasync_scopes_to_its_own_file():
    trace = posix_trace(
        [
            op(1, "write", write_args("other", b"aa"), (("main", 1),)),
            op(2, "fdatasync", {"path": "f"}, (("main", 2),)),
            op(3, "write", write_args("third", b"bb"), (("main", 3),)),
        ]
    )
    assert pairs(posix_edges(trace), trace) == set()


def test_fsync_file_includes_metadata_ops():
    trace = posix_trace(
        [
            op(1, "create", {"path": "f"}, (("main", 1),)),
            op(2, "fsync", {"path": "f", "dir": False}, (("main", 2),)),
            op(3, "write", write_args("g", b"x"), (("main", 3),)),
        ]
    )
    assert pairs(posix_edges(trace), trace) == {(1, 2), (1, 3), (2, 3)}


def test_fsync_directory_orders_entry_ops():
    trace = posix_trace(
        [
            op(1, "create", {"path": "d/a"}, (("main", 1),)),
            op(2, "write", write_args("d/a", b"zz"), (("main", 2),)),
            op(3, "fsync", {"path": "d", "dir": True}, (("main", 3),)),
            op(4, "unlink", {"path": "d/b"}, (("main", 4),)),
            op(5, "create", {"path": "d/b"}, (("main", 5),)),
        ]
    )
    # The dirent op (create d/a) is barriered; the plain write is not.
    edge_pairs = pairs(posix_edges(trace), trace)
    assert (1, 3) in edge_pairs
    assert (1, 4) in edge_pairs and (1, 5) in edge_pairs
    assert (3, 4) in edge_pairs and (3, 5) in edge_pairs
    assert (2, 4) not in edge_pairs


def test_fsync_directory_with_subdirectory_paths():
    trace = posix_trace(
        [
            op(1, "create", {"path": "db/wal/seg1"}, (("main", 1),)),
            op(2, "create", {"path": "db/other"}, (("main", 2),)),
            op(3, "fsync", {"path": "db/wal", "dir": True}, (("main", 3),)),
            op(4, "create", {"path": "db/wal/seg2"}, (("main", 4),)),
        ]
    )
    edge_pairs = pairs(posix_edges(trace), trace)
    assert (1, 3) in edge_pairs and (1, 4) in edge_pairs  # entry of db/wal
    assert (2, 3) not in edge_pairs  # db/other lives in db, not db/wal


def test_sync_orders_everything_before_after():
    trace = posix_trace(
        [
            op(1, "write", write_args("a", b"x"), (("main", 1),)),
            op(2, "create", {"path": "b"}, (("main", 2),)),
            op(3, "sync", {}, (("main", 3),)),
            op(4, "write", write_args("c", b"y"), (("main", 4),)),
        ]
    )
    edge_pairs = pairs(posix_edges(trace), trace)
    assert {(1, 4), (2, 4), (1, 3), (2, 3), (3, 4)} <= edge_pairs


def test_metadata_ops_on_same_path_are_ordered():
    trace = posix_trace(
        [
            op(1, "create", {"path": "a"}, (("main", 1),)),
            op(2, "rename", {"path": "a", "dst": "b"}, (("main", 2),)),
            op(3, "unlink", {"path": "b"}, (("main", 3),)),
        ]
    )
    edge_pairs = pairs(posix_edges(trace), trace)
    assert (1, 2) in edge_pairs  # both name 'a'
    assert (2, 3) in edge_pairs  # both name 'b'


def test_recreating_consumed_path_is_ordered_after_consumer():
    trace = posix_trace(
        [
            op(1, "write", write_args("a", b"1"), (("main", 1),)),
            op(2, "rename", {"path": "a", "dst": "b"}, (("main", 2),)),
            op(3, "write", write_args("a", b"2"), (("main", 3),)),
            op(4, "rename", {"path": "a", "dst": "c"}, (("main", 4),)),
        ]
    )
    edge_pairs = pairs(posix_edges(trace), trace)
    assert {(1, 2), (2, 3), (3, 4)} <= edge_pairs


@pytest.mark.parametrize(
    "cfg",
    [ModelConfig(), ModelConfig(split_writes_at_block_boundary=False), ModelConfig(block_size=16, cache_line_size=16)],
    ids=["default", "unsplit", "16-byte units"],
)
def test_every_unordered_pair_of_persisting_ops_commutes(cfg):
    """The invariant enumeration relies on: two persisting ops with no
    direct edge commute under the reference predicate, so every order of a
    downward-closed set of ops replays to one image.  Random 1-3-thread
    POSIX traces, whose renames may land on written paths, and MMIO
    traces."""
    rng = random.Random(2006)
    for i in range(400):
        make = random_posix_trace if i % 4 else random_mmio_trace
        trace = make(rng, 12, threads=rng.randint(1, 3))
        graph = build_graph(trace, model_edges(trace, cfg))
        persisting = [o for o in trace.ops if o.is_persisting]
        for a, b in itertools.combinations(persisting, 2):
            if a.seq not in predecessors(graph, b.seq):
                assert ops_commute(a, b, cfg), (i, a, b)


def test_open_close_contribute_no_edges():
    trace = posix_trace(
        [
            op(1, "open", {"path": "f"}, (("main", 1),)),
            op(2, "write", write_args("f", b"x"), (("main", 2),)),
            op(3, "close", {"path": "f"}, (("main", 3),)),
        ]
    )
    assert edge_triples(posix_edges(trace), trace) == set()


def test_posix_rejects_mmio_trace_and_vice_versa():
    mm = mmio_trace([op(1, "store", store_args(0, b"x"), (("main", 1),))])
    with pytest.raises(ModeMismatch):
        posix_edges(mm)
    px = posix_trace([op(1, "sync", {}, (("main", 1),))])
    with pytest.raises(ModeMismatch):
        mmio_edges(px)


# --- MMIO ---


def test_flush_fence_orders_across():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"A"), (("main", 1),)),
            op(2, "flush", {"addr": 0, "length": 64}, (("main", 2),)),
            op(3, "fence", {}, (("main", 3),)),
            op(4, "store", store_args(64, b"B"), (("main", 4),)),
        ]
    )
    edges = mmio_edges(trace)
    assert pairs(edges, trace) == {(1, 4)}
    assert reasons(edges, trace) == {EdgeReason.FLUSH_FENCE}


def test_unflushed_stores_are_unordered():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"k"), (("main", 1),)),
            op(2, "store", store_args(64, b"v"), (("main", 2),)),
            op(3, "store", store_args(128, b"\x01"), (("main", 3),)),
        ]
    )
    assert edge_triples(mmio_edges(trace), trace) == set()


def test_same_cache_line_stores_are_ordered():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"old"), (("main", 1),)),
            op(2, "store", store_args(8, b"new"), (("main", 2),)),
        ]
    )
    edges = mmio_edges(trace)
    assert pairs(edges, trace) == {(1, 2)}
    assert reasons(edges, trace) == {EdgeReason.SAME_CACHE_LINE}
    assert units_of(8, 3, 64) == frozenset({0})


def test_fence_alone_orders_nothing():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("main", 1),)),
            op(2, "fence", {}, (("main", 2),)),
            op(3, "store", store_args(64, b"b"), (("main", 3),)),
        ]
    )
    assert edge_triples(mmio_edges(trace), trace) == set()


def test_flush_without_fence_orders_nothing():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("main", 1),)),
            op(2, "flush", {"addr": 0, "length": 64}, (("main", 2),)),
            op(3, "store", store_args(64, b"b"), (("main", 3),)),
        ]
    )
    assert edge_triples(mmio_edges(trace), trace) == set()


def test_msync_acts_as_flush_fence():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("main", 1),)),
            op(2, "msync", {"addr": 0, "length": 64}, (("main", 2),)),
            op(3, "store", store_args(64, b"b"), (("main", 3),)),
        ]
    )
    edges = mmio_edges(trace)
    assert pairs(edges, trace) == {(1, 3)}
    assert reasons(edges, trace) == {EdgeReason.MSYNC}


def test_store_persisted_before_helper():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("main", 1),)),
            op(2, "flush", {"addr": 0, "length": 64}, (("main", 2),)),
            op(3, "fence", {}, (("main", 3),)),
            op(4, "store", store_args(0, b"b"), (("main", 4),)),
        ]
    )
    persisted = persisted_at(trace)
    assert persisted[1] < 4
    assert not persisted[1] < 2
    assert not persisted[4] < 5


def test_mmio_durability_matches_its_definition_with_straddling_stores():
    """Brute force, per flush and per line: a store is ordered before a
    later store once *any* of its lines was flushed after it and a fence
    followed (or an msync covered it) before the later store; it counts
    as persisted before I only when *every* line was, before I."""
    rng = random.Random(29)
    straddled = 0
    for _ in range(300):
        trace = straddling_mmio_trace(rng)
        stores = [o for o in trace.ops if o.kind == "store"]
        lines = {o.seq: units_of(o.args["addr"], o.args["length"], 64) for o in trace.ops if o.kind != "fence"}
        straddled += any(len(lines[s.seq]) > 1 for s in stores)

        def persisted_by(kind, store, line, before):
            """Some flush (with a later fence) or msync, issued between the
            store and ``before``, persists ``line`` of the store."""
            return any(
                f.kind == kind and store.seq < f.seq < before and line in lines[f.seq]
                and (kind == "msync" or any(f.seq < g.seq < before and g.kind == "fence" for g in trace.ops))
                for f in trace.ops
            )

        def ordered_by(kind, a, b):
            return any(persisted_by(kind, a, line, b.seq) for line in lines[a.seq])

        expected = set()
        for a in stores:
            for b in stores:
                if a.seq >= b.seq:
                    continue
                if lines[a.seq] & lines[b.seq]:
                    expected.add((a.seq, b.seq, EdgeReason.SAME_CACHE_LINE))
                elif ordered_by("flush", a, b):
                    expected.add((a.seq, b.seq, EdgeReason.FLUSH_FENCE))
                elif ordered_by("msync", a, b):
                    expected.add((a.seq, b.seq, EdgeReason.MSYNC))
        assert edge_triples(mmio_edges(trace), trace) == expected

        persisted = persisted_at(trace)
        assert persisted.keys() == {s.seq for s in stores}
        for store in stores:
            for before in range(1, len(trace.ops) + 2):
                assert (persisted[store.seq] < before) == all(
                    persisted_by("flush", store, line, before) or persisted_by("msync", store, line, before)
                    for line in lines[store.seq]
                )
    assert straddled > 100


def test_straddling_store_is_ordered_by_one_line_but_persisted_by_all():
    trace = mmio_trace(
        [
            op(1, "store", store_args(60, b"ab" * 4), (("main", 1),)),
            op(2, "flush", {"addr": 0, "length": 64}, (("main", 2),)),
            op(3, "fence", {}, (("main", 3),)),
            op(4, "store", store_args(256, b"c"), (("main", 4),)),
            op(5, "flush", {"addr": 64, "length": 64}, (("main", 5),)),
            op(6, "fence", {}, (("main", 6),)),
            op(7, "store", store_args(320, b"d"), (("main", 7),)),
        ]
    )
    edges = mmio_edges(trace)
    assert pairs(edges, trace) == {(1, 4), (1, 7)}
    assert reasons(edges, trace) == {EdgeReason.FLUSH_FENCE}
    persisted = persisted_at(trace)
    assert not persisted[1] < 4
    assert persisted[1] < 7


# --- shared invariants ---


def _sparse(trace, rng):
    """The trace with its seqs spread three apart and, for POSIX, open and
    close ops between them, so model bits and seqs part ways."""
    ops = []
    for o in trace.ops:
        if trace.meta.mode == POSIX_MODE and rng.random() < 0.3:
            kind = rng.choice(["open", "close"])
            ops.append(op(3 * o.seq - 1, kind, {"path": rng.choice(["f1", "f2"])}, tid=o.tid))
        ops.append(replace_op(o, seq=3 * o.seq))
    return Trace(trace.meta, ops)


@pytest.mark.parametrize(
    "cfg",
    [
        ModelConfig(),
        ModelConfig(split_writes_at_block_boundary=False),
        ModelConfig(block_size=16, cache_line_size=16),
    ],
    ids=["default", "unsplit", "16_byte_units"],
)
def test_model_matches_the_rule_by_rule_reference(cfg):
    """The per-rule bitsets, read through the graph, give exactly the
    reference model's (src, dst, reason) triples and pair count: 684
    traces per config, 2,052 in all."""
    rng = random.Random(31)
    sources = [
        lambda threads: random_posix_trace(rng, 16, threads),
        lambda threads: random_mmio_trace(rng, 16, threads),
        lambda threads: straddling_mmio_trace(rng, threads),
    ]
    for threads in (1, 2, 3):
        for make in sources:
            for _ in range(76):
                trace = make(threads)
                if rng.random() < 0.5:
                    trace = _sparse(trace, rng)
                hb, want = model_edges(trace, cfg), reference_model_pairs(trace, cfg)
                assert edge_triples(build_graph(trace, hb)) == edge_triples(want)
                assert len(hb) == len(want)


def test_all_edges_run_forward():
    rng = random.Random(3)
    for _ in range(30):
        for trace, fn in (
            (random_posix_trace(rng), posix_edges),
            (random_mmio_trace(rng), mmio_edges),
        ):
            for src, dst, _ in edge_triples(fn(trace), trace):
                assert src < dst


def _renumber(trace_ops, insert_at):
    mapping = {}
    for o in trace_ops:
        mapping[o.seq] = o.seq + 1 if o.seq >= insert_at else o.seq
    return mapping


def test_monotonicity_inserting_ordering_op_never_removes_edges():
    rng = random.Random(11)
    for _ in range(40):
        trace = random_posix_trace(rng)
        before = posix_edges(trace)
        insert_at = rng.randint(1, len(trace.ops) + 1)
        mapping = _renumber(trace.ops, insert_at)
        new_ops = []
        for o in trace.ops:
            new_ops.append(
                op(mapping[o.seq], o.kind, o.args, tuple((f.function, f.line) for f in o.backtrace.frames))
            )
        barrier = rng.choice(
            [
                op(insert_at, "sync", {}, (("main", 99),)),
                op(insert_at, "fsync", {"path": "f1", "dir": False}, (("main", 99),)),
                op(insert_at, "fdatasync", {"path": "f2"}, (("main", 99),)),
            ]
        )
        new_ops.append(barrier)
        new_ops.sort(key=lambda o: o.seq)
        after_trace = posix_trace(new_ops)
        after_pairs = pairs(posix_edges(after_trace), after_trace)
        for src, dst, _ in edge_triples(before, trace):
            assert (mapping[src], mapping[dst]) in after_pairs


def test_model_rules_fire_across_threads():
    # rules act on the merged global order; tids do not exempt a pair
    trace = posix_trace(
        [
            op(1, "write", write_args("f", b"aa", 0), (("t1", 1),), tid=1),
            op(2, "write", write_args("f", b"bb", 4), (("t2", 1),), tid=2),
            op(3, "sync", {}, (("t1", 2),), tid=1),
            op(4, "write", write_args("g", b"cc"), (("t2", 2),), tid=2),
        ]
    )
    edge_pairs = pairs(posix_edges(trace), trace)
    assert (1, 2) in edge_pairs  # same block, different threads
    assert {(1, 4), (2, 4)} <= edge_pairs  # sync on t1 barriers t2's write


def test_global_barrier_isolates_suffix_from_prefix():
    # After covering flush+fence, every earlier store is ordered before
    # every later store, so any legal state containing a later store
    # contains all earlier ones.
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("main", 1),)),
            op(2, "store", store_args(64, b"b"), (("main", 2),)),
            op(3, "flush", {"addr": 0, "length": 128}, (("main", 3),)),
            op(4, "fence", {}, (("main", 4),)),
            op(5, "store", store_args(128, b"c"), (("main", 5),)),
            op(6, "store", store_args(192, b"d"), (("main", 6),)),
        ]
    )
    edge_pairs = pairs(mmio_edges(trace), trace)
    assert {(1, 5), (1, 6), (2, 5), (2, 6)} <= edge_pairs
