import random

from crashcheck import (
    build_graph,
    common_path,
    posix_edges,
    synth_workload,
)
from crashcheck.behavior import cluster_temporal, dbscan_1d, make_behavior
from crashcheck.graph import StaticKey
from crashcheck.posix_behaviors import derive_posix_behaviors

from helpers import (
    bt,
    dbscan_1d_reference,
    edge_triples,
    leaf_runs_by_path,
    op,
    posix_trace,
    random_posix_trace,
    write_args,
)


def behavior_sets(behaviors):
    return {(b.owner_function, b.node_seqs) for b in behaviors}


# --- longest common prefix ---


def test_lcp_of_identical_backtraces_is_full():
    trace = bt(("main", 1), ("f", 2), ("g", 3))
    assert common_path(trace, trace) == trace.functions()


def test_lcp_stops_at_diverging_functions():
    a = bt(("main", 1), ("Fn1", 5), ("Fn3", 8), ("Fn4", 9))
    b = bt(("main", 1), ("Fn1", 5), ("Fn3", 8), ("Fn5", 9))
    assert common_path(a, b) == ("main", "Fn1", "Fn3")


def test_lcp_includes_frame_with_differing_call_sites():
    a = bt(("main", 1), ("f", 7))
    b = bt(("main", 1), ("f", 9))
    # Two call sites inside f: the prefix ends at f itself.
    assert common_path(a, b) == ("main", "f")


def test_lcp_of_disjoint_roots_is_empty():
    a = bt(("alpha", 1))
    b = bt(("beta", 1))
    assert common_path(a, b) == ()


# --- leaf derivation (pairwise LCP walk) ---


def graph_for(trace):
    return build_graph(trace, posix_edges(trace))


def test_fig3_leaf_derivation(fig3_trace):
    graph = graph_for(fig3_trace)
    assert leaf_runs_by_path(graph, fig3_trace) == {
        ("Fn1", "Fn2"): [(1, 2)],
        ("Fn1", "Fn3", "Fn4"): [(3, 4)],
        ("Fn1", "Fn3", "Fn5"): [(5, 6, 7)],
    }


def test_constant_backtrace_yields_single_behavior():
    frames = (("main", 2), ("writer", 7))
    trace = posix_trace(
        [op(s, "write", write_args("f", b"x", 4096 * s), frames) for s in (1, 2, 3)]
    )
    assert leaf_runs_by_path(graph_for(trace), trace) == {
        ("main", "writer"): [(1, 2, 3)]
    }


def test_alternating_leaves_handmade_walk():
    # Leaves alternate A,B,A,B under main; every adjacent pair meets at
    # main, so the walk keeps one behavior open for all four ops.
    trace = posix_trace(
        [
            op(1, "write", write_args("a", b"1"), (("main", 2), ("A", 10))),
            op(2, "write", write_args("b", b"2"), (("main", 4), ("B", 20))),
            op(3, "write", write_args("a", b"3"), (("main", 2), ("A", 11))),
            op(4, "write", write_args("b", b"4"), (("main", 4), ("B", 21))),
        ]
    )
    assert leaf_runs_by_path(graph_for(trace), trace) == {
        ("main",): [(1, 2, 3, 4)]
    }


def test_single_op_thread_gets_singleton_behavior():
    trace = posix_trace([op(1, "write", write_args("f", b"x"), (("main", 3), ("w", 9)))])
    assert leaf_runs_by_path(graph_for(trace), trace) == {
        ("main", "w"): [(1,)]
    }


def test_trailing_op_after_shallow_close_gets_singleton():
    trace = posix_trace(
        [
            op(1, "write", write_args("a", b"1"), (("main", 2), ("deep", 10))),
            op(2, "write", write_args("a", b"2"), (("main", 2), ("deep", 11))),
            op(3, "write", write_args("b", b"3"), (("main", 5),)),
        ]
    )
    assert leaf_runs_by_path(graph_for(trace), trace) == {
        ("main", "deep"): [(1, 2)],
        ("main",): [(3,)],
    }


def test_leaf_behaviors_cover_thread_and_stay_disjoint():
    rng = random.Random(23)
    for _ in range(20):
        trace = random_posix_trace(rng)
        graph = graph_for(trace)
        seen = []
        for runs in leaf_runs_by_path(graph, trace).values():
            for seqs in runs:
                seen.extend(seqs)
        assert sorted(seen) == list(graph.node_seqs)  # disjoint cover


def test_recursion_levels_stay_distinct():
    # same function name at two stack depths: path keys keep them apart
    trace = posix_trace(
        [
            op(1, "write", write_args("a", b"1"), (("work", 5), ("work", 9))),
            op(2, "write", write_args("a", b"2"), (("work", 5), ("work", 10))),
            op(3, "write", write_args("b", b"3"), (("work", 7),)),
            op(4, "write", write_args("b", b"4"), (("work", 8),)),
        ]
    )
    assert leaf_runs_by_path(graph_for(trace), trace) == {
        ("work", "work"): [(1, 2)],
        ("work",): [(3, 4)],
    }


def test_multithreaded_leaf_coverage_and_disjointness():
    rng = random.Random(77)
    for _ in range(10):
        ops = []
        for s in range(1, 15):
            tid = rng.choice([0, 1])
            fn = rng.choice(["a", "b"])
            ops.append(
                op(s, "write", write_args(f"f{tid}", b"x", 4096 * s),
                   (("main", tid * 100), (fn, s)), tid=tid)
            )
        trace = posix_trace(ops)
        graph = graph_for(trace)
        tid_of = {o.seq: o.tid for o in trace.ops}
        per_tid_nodes = {}
        for runs in leaf_runs_by_path(graph, trace).values():
            for seqs in runs:
                per_tid_nodes.setdefault(tid_of[seqs[0]], []).extend(seqs)
        for tid, nodes in per_tid_nodes.items():
            expected = [o.seq for o in trace.ops if o.tid == tid]
            assert sorted(nodes) == expected  # disjoint cover per thread


def test_threads_are_never_merged():
    trace = posix_trace(
        [
            op(1, "write", write_args("a", b"1"), (("main", 1), ("w", 5)), tid=1),
            op(2, "write", write_args("a", b"2"), (("main", 1), ("w", 6)), tid=2),
            op(3, "write", write_args("a", b"3"), (("main", 1), ("w", 7)), tid=1),
            op(4, "write", write_args("a", b"4"), (("main", 1), ("w", 8)), tid=2),
        ]
    )
    behaviors = derive_posix_behaviors(graph_for(trace), trace)
    for b in behaviors:
        tids = {trace.ops_by_seq()[s].tid for s in b.node_seqs}
        assert len(tids) == 1


# --- call stack tree merge ---


def test_fig6_merge(fig3_trace):
    graph = graph_for(fig3_trace)
    behaviors = derive_posix_behaviors(graph, fig3_trace)
    got = behavior_sets(behaviors)
    assert ("Fn3", (3, 4, 5, 6, 7)) in got
    assert ("Fn1", (1, 2, 3, 4, 5, 6, 7)) in got
    assert ("Fn2", (1, 2)) in got
    assert ("Fn4", (3, 4)) in got
    assert ("Fn5", (5, 6, 7)) in got
    assert len(behaviors) == 5


def test_childless_function_is_unchanged():
    trace = posix_trace(
        [op(s, "write", write_args("f", b"x", 4096 * s), (("main", s),)) for s in (1, 2)]
    )
    graph = graph_for(trace)
    behaviors = derive_posix_behaviors(graph, trace)
    assert [(b.owner_function, b.node_seqs) for b in behaviors] == [("main", (1, 2))]


def test_temporally_dispersed_children_split_on_merge():
    # Two child behaviors far apart in seq space: hand-running 1-D density
    # clustering with eps=10 on {1,2} vs {100,101} gives two clusters.
    ops = [
        op(1, "write", write_args("a", b"1"), (("main", 1), ("child", 2))),
        op(2, "write", write_args("a", b"2"), (("main", 1), ("child", 3))),
        op(100, "write", write_args("b", b"3"), (("main", 5), ("child2", 6))),
        op(101, "write", write_args("b", b"4"), (("main", 5), ("child2", 7))),
    ]
    trace = posix_trace(ops)
    graph = graph_for(trace)
    behaviors = derive_posix_behaviors(graph, trace, eps=10, min_pts=1)
    main_behaviors = {b.node_seqs for b in behaviors if b.owner_function == "main"}
    assert main_behaviors == {(1, 2), (100, 101)}


def test_merge_is_monotone_no_invented_ops():
    rng = random.Random(31)
    for _ in range(15):
        trace = random_posix_trace(rng)
        graph = graph_for(trace)
        behaviors = derive_posix_behaviors(graph, trace)
        all_nodes = set(graph.node_seqs)
        for b in behaviors:
            assert set(b.node_seqs) <= all_nodes


def test_rerun_on_payload_mutated_trace_preserves_structure(fig3_trace):
    mutated_src = (
        "fn Fn1 {\n"
        "  fn Fn2 {\n"
        '    write f1 "XX" @0\n'
        '    write f1 "YY" @0\n'
        "  }\n"
        "  fn Fn3 {\n"
        "    fn Fn4 {\n"
        '      write f1 "ZZ" @0\n'
        '      write f2 "WW" @0\n'
        "    }\n"
        "    fn Fn5 {\n"
        "      fdatasync f2\n"
        "      rename f2 CURRENT\n"
        "      sync\n"
        "    }\n"
        "  }\n"
        "}\n"
    )
    mutated = synth_workload(mutated_src, "POSIX")
    g1 = graph_for(fig3_trace)
    g2 = graph_for(mutated)
    b1 = derive_posix_behaviors(g1, fig3_trace)
    b2 = derive_posix_behaviors(g2, mutated)
    shape1 = [(b.owner_function, b.node_seqs) for b in b1]
    shape2 = [(b.owner_function, b.node_seqs) for b in b2]
    assert shape1 == shape2
    keys1 = [sorted(str(StaticKey.of(g1.ops_by_seq[s])) for s in g1.node_seqs)]
    keys2 = [sorted(str(StaticKey.of(g2.ops_by_seq[s])) for s in g2.node_seqs)]
    assert keys1 == keys2


# --- temporal clustering ---


def test_dbscan_two_clusters():
    clusters, noise = dbscan_1d([1, 2, 3, 100, 101], eps=10, min_pts=1)
    assert clusters == [[1, 2, 3], [100, 101]]
    assert noise == []


def test_dbscan_single_dense_cluster():
    clusters, noise = dbscan_1d(list(range(1, 9)), eps=10, min_pts=1)
    assert clusters == [list(range(1, 9))]
    assert noise == []


def test_dbscan_matches_the_scanning_definition_on_random_multisets():
    rng = random.Random(41)
    for _ in range(500):
        points = [rng.randint(-30, 120) for _ in range(rng.randint(0, 40))]
        points += rng.sample(points, min(len(points), rng.randint(0, 5)))  # repeats
        rng.shuffle(points)
        eps, min_pts = rng.randint(1, 15), rng.randint(1, 6)
        assert dbscan_1d(points, eps, min_pts) == dbscan_1d_reference(points, eps, min_pts)


def test_dbscan_min_pts_marks_noise():
    clusters, noise = dbscan_1d([1, 2, 50], eps=5, min_pts=2)
    assert clusters == [[1, 2]]
    assert noise == [50]


def test_cluster_temporal_partitions_and_fixed_point():
    trace = posix_trace(
        [op(s, "write", write_args("f", b"x", 4096 * s), (("main", s),)) for s in (1, 2, 3, 40, 41)]
    )
    graph = graph_for(trace)
    whole = make_behavior("whole", "main", 0, graph.node_seqs, graph)
    pieces = cluster_temporal(whole, eps=10, min_pts=1)
    assert [p.node_seqs for p in pieces] == [(1, 2, 3), (40, 41)]
    union = sorted(s for p in pieces for s in p.node_seqs)
    assert union == list(whole.node_seqs)

    single = make_behavior("one", "main", 0, (1,), graph)
    assert cluster_temporal(single) == [single]


def test_cluster_temporal_noise_becomes_singletons():
    trace = posix_trace(
        [op(s, "write", write_args("f", b"x", 4096 * s), (("main", s),)) for s in (1, 2, 50)]
    )
    graph = graph_for(trace)
    whole = make_behavior("whole", "main", 0, graph.node_seqs, graph)
    pieces = cluster_temporal(whole, eps=5, min_pts=2)
    assert [p.node_seqs for p in pieces] == [(1, 2), (50,)]


def test_cluster_pieces_keep_induced_edges():
    # restricting the behavior's subgraph equals restricting the full graph
    trace = posix_trace(
        [
            op(1, "write", write_args("f", b"a", 0), (("main", 1),)),
            op(2, "write", write_args("f", b"b", 0), (("main", 2),)),
            op(50, "write", write_args("g", b"c", 0), (("main", 50),)),
        ]
    )
    graph = graph_for(trace)
    whole = make_behavior("whole", "main", 0, graph.node_seqs, graph)
    pieces = cluster_temporal(whole, eps=10, min_pts=1)
    first = next(p for p in pieces if p.node_seqs == (1, 2))
    assert {(src, dst) for src, dst, _ in edge_triples(first.subgraph)} == {(1, 2)}
