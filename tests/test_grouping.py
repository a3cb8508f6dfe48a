import gc
import random
import tracemalloc

import pytest

from crashcheck import build_graph, group_behaviors, grouping, parse_trace, represents, serialize_trace
from crashcheck.behavior import make_behavior
from crashcheck.cli import RunConfig, derive_behaviors
from crashcheck.models import EdgeReason

from conftest import bench_module
from helpers import (
    bt,
    edge_equiv,
    edge_triples,
    equivalence_image,
    fig5_behaviors,
    graph_edges,
    hb_from_pairs,
    node_equiv,
    mmio_trace,
    op,
    posix_trace,
    random_annotated_mmio_trace,
    random_nested_posix_trace,
    random_posix_trace,
    reference_group_behaviors,
    replace_op,
    subset_equiv_edges,
    subset_equiv_nodes,
    write_args,
)

MO = EdgeReason.METADATA_ORDER


def w(seq, path, payload, frames):
    return op(seq, "write", write_args(path, payload), frames)


# --- node equivalence ---


def test_same_call_site_different_payload_is_equivalent():
    a = w(1, "f", b"aaa", (("main", 1), ("h", 5)))
    b = w(9, "g", b"zzz", (("main", 1), ("h", 5)))
    assert node_equiv(a, b)


def test_different_kind_same_line_not_equivalent():
    a = w(1, "f", b"x", (("main", 5),))
    b = op(2, "rename", {"path": "f", "dst": "g"}, (("main", 5),))
    assert not node_equiv(a, b)


def test_different_call_site_not_equivalent():
    a = w(1, "f", b"x", (("main", 5),))
    b = w(2, "f", b"x", (("main", 6),))
    assert not node_equiv(a, b)


def test_innermost_mode_conflates_call_contexts():
    a = w(1, "f", b"x", (("main", 1), ("h", 5)))
    b = w(2, "f", b"x", (("main", 2), ("h", 5)))
    assert not node_equiv(a, b)
    assert node_equiv(a, b, mode="innermost")


def test_node_equiv_is_an_equivalence_relation():
    rng = random.Random(17)
    pool_frames = [(("main", 1), ("f", 4)), (("main", 1), ("f", 5)), (("main", 2), ("g", 4))]
    pool_kinds = ["write", "create"]
    ops = []
    for seq in range(1, 200):
        frames = rng.choice(pool_frames)
        kind = rng.choice(pool_kinds)
        args = write_args("f", b"x") if kind == "write" else {"path": "f"}
        ops.append(op(seq, kind, args, frames))
    for _ in range(1000):
        a, b, c = rng.choice(ops), rng.choice(ops), rng.choice(ops)
        assert node_equiv(a, a)
        assert node_equiv(a, b) == node_equiv(b, a)
        if node_equiv(a, b) and node_equiv(b, c):
            assert node_equiv(a, c)


# --- edge equivalence ---


def test_edge_equiv_reflexive_and_loop_iterations():
    a1 = w(1, "f", b"x", (("main", 1), ("h", 5)))
    b1 = w(2, "f", b"y", (("main", 1), ("h", 6)))
    a2 = w(7, "f", b"z", (("main", 1), ("h", 5)))
    b2 = w(8, "f", b"w", (("main", 1), ("h", 6)))
    assert edge_equiv((a1, b1), (a1, b1))
    assert edge_equiv((a1, b1), (a2, b2))
    assert not edge_equiv((a1, b1), (b2, a2))  # direction matters


# --- subset equivalence and image ---


def test_empty_set_is_vacuously_subset_equivalent():
    ops = [w(1, "f", b"x", (("main", 1),))]
    assert subset_equiv_nodes([], ops)
    assert equivalence_image(ops, []) == []
    assert subset_equiv_edges([], [])


def test_reflexive_subset_and_full_image():
    ops = [w(1, "f", b"x", (("main", 1),)), w(2, "f", b"y", (("main", 2),))]
    assert subset_equiv_nodes(ops, ops)
    assert equivalence_image(ops, ops) == ops


def test_fig5_subset_and_image():
    s3_1, s3_2, _ = fig5_behaviors()
    n1 = [s3_1.subgraph.ops_by_seq[s] for s in s3_1.node_seqs]
    n2 = [s3_2.subgraph.ops_by_seq[s] for s in s3_2.node_seqs]
    assert subset_equiv_nodes(n2, n1)
    image = equivalence_image(n1, n2)
    assert [o.kind for o in image] == ["write", "write"]
    assert len(image) == 2


def test_image_can_be_smaller_than_matched_set():
    # Two nodes of N2 sharing one static key match a single N1 node: the
    # existential definitions hold but the image is smaller than N2.
    n1 = [w(1, "f", b"x", (("main", 5),))]
    n2 = [w(2, "f", b"y", (("main", 5),)), w(3, "g", b"z", (("main", 5),))]
    assert subset_equiv_nodes(n2, n1)
    assert len(equivalence_image(n1, n2)) == 1


# --- represents ---


def test_fig5_represents_relations():
    s3_1, s3_2, s2 = fig5_behaviors()
    assert represents(s3_1, s3_2)
    assert not represents(s3_2, s3_1)
    assert not represents(s2, s3_1)
    assert not represents(s3_1, s2)
    assert not represents(s2, s3_2)
    assert not represents(s3_2, s2)


def test_represents_is_reflexive():
    for behavior in fig5_behaviors():
        assert represents(behavior, behavior)


def test_mutual_represents_at_equal_size_means_same_labeled_structure():
    # With all static keys distinct, equal node counts plus representation
    # in both directions force identical key sets and identical edge
    # key-pair sets: the two subgraphs are isomorphic under StaticKey
    # labeling.  (Duplicate keys can break the cardinality side; see the
    # image test above.)
    s3_1, _, _ = fig5_behaviors()
    t = posix_trace(
        [
            w(3, "f9", b"X", (("Fn1", 2), ("Fn3", 20))),
            w(4, "f8", b"Y", (("Fn1", 2), ("Fn3", 21))),
            op(5, "rename", {"path": "f8", "dst": "Z"}, (("Fn1", 2), ("Fn3", 22))),
        ]
    )
    twin = make_behavior(
        "twin", "Fn3", 0, (3, 4, 5),
        build_graph(t, hb_from_pairs(t, {(3, 4): MO, (4, 5): MO})),
    )
    assert represents(s3_1, twin) and represents(twin, s3_1)
    assert s3_1.size == twin.size

    def keyset(b):
        return {str(b.subgraph.static_keys[s]) for s in b.node_seqs}

    def edge_keys(b):
        return {
            (str(b.subgraph.static_keys[src]), str(b.subgraph.static_keys[dst]))
            for src, dst, _ in edge_triples(b.subgraph)
        }

    assert keyset(s3_1) == keyset(twin)
    assert edge_keys(s3_1) == edge_keys(twin)


def test_innermost_key_mode_conflates_call_paths_end_to_end():
    # same write line reached through two different callers: distinct under
    # full keys, equivalent under innermost keys
    t1 = posix_trace([w(1, "a", b"1", (("caller_a", 3), ("leaf", 9)))])
    t2 = posix_trace([w(1, "a", b"2", (("caller_b", 7), ("leaf", 9)))])
    hb1, hb2 = hb_from_pairs(t1, {}), hb_from_pairs(t2, {})
    full_1 = make_behavior("p", "leaf", 0, (1,), build_graph(t1, hb1, key_mode="full"))
    full_2 = make_behavior("q", "leaf", 0, (1,), build_graph(t2, hb2, key_mode="full"))
    assert not represents(full_1, full_2)
    inner_1 = make_behavior("p", "leaf", 0, (1,), build_graph(t1, hb1, key_mode="innermost"))
    inner_2 = make_behavior("q", "leaf", 0, (1,), build_graph(t2, hb2, key_mode="innermost"))
    assert represents(inner_1, inner_2) and represents(inner_2, inner_1)


def test_extra_member_dependencies_are_allowed():
    # The member may be more ordered than the representative, never less.
    trace_loose = posix_trace(
        [w(1, "a", b"1", (("m", 1),)), w(2, "b", b"2", (("m", 2),))]
    )
    loose = make_behavior(
        "loose", "m", 0, (1, 2), build_graph(trace_loose, hb_from_pairs(trace_loose, {}))
    )
    trace_tight = posix_trace(
        [w(1, "a", b"3", (("m", 1),)), w(2, "b", b"4", (("m", 2),))]
    )
    tight = make_behavior(
        "tight", "m", 0, (1, 2), build_graph(trace_tight, hb_from_pairs(trace_tight, {(1, 2): MO}))
    )
    assert represents(loose, tight)
    assert not represents(tight, loose)


def test_represents_matches_its_definition_on_random_behaviors():
    """``represents`` reads cached key sets; the definition recomputes
    them from the ops.  Call sites repeat, so many pairs share keys."""
    rng = random.Random(73)
    outcomes = {True: 0, False: 0}
    for _ in range(40):
        ops = random_posix_trace(rng, max_ops=14, threads=rng.randint(1, 3)).ops
        trace = posix_trace(
            [replace_op(o, backtrace=bt(("main", 1), (rng.choice(["put", "sync"]), rng.randint(1, 3)))) for o in ops]
        )
        _, behaviors = derive_behaviors(trace, RunConfig())
        for u1 in behaviors:
            n1 = [u1.subgraph.ops_by_seq[seq] for seq in u1.node_seqs]
            for u2 in behaviors:
                n2 = [u2.subgraph.ops_by_seq[seq] for seq in u2.node_seqs]
                image = {o.seq for o in equivalence_image(n1, n2)}
                image_edges = [(u1.subgraph.ops_by_seq[s], u1.subgraph.ops_by_seq[d]) for s, d, _ in graph_edges(u1.subgraph) if {s, d} <= image]
                member_edges = [(u2.subgraph.ops_by_seq[s], u2.subgraph.ops_by_seq[d]) for s, d, _ in graph_edges(u2.subgraph)]
                want = subset_equiv_nodes(n2, n1) and subset_equiv_edges(image_edges, member_edges)
                assert represents(u1, u2) == want
                outcomes[want] += 1
    assert min(outcomes.values()) > 100


# --- grouping ---


def test_fig5_grouping_two_groups():
    s3_1, s3_2, s2 = fig5_behaviors()
    groups = group_behaviors([s3_1, s3_2, s2])
    assert len(groups) == 2
    reps = {g.representative for g in groups}
    assert reps == {"S3-1", "S2"}
    by_rep = {g.representative: sorted(g.members) for g in groups}
    assert by_rep["S3-1"] == ["S3-1", "S3-2"]
    assert by_rep["S2"] == ["S2"]


def test_empty_input_gives_no_groups():
    assert group_behaviors([]) == []


def test_identical_twins_share_one_group_either_order():
    t1 = posix_trace([w(1, "a", b"1", (("m", 1),)), w(2, "b", b"2", (("m", 2),))])
    t2 = posix_trace([w(1, "a", b"9", (("m", 1),)), w(2, "b", b"8", (("m", 2),))])
    b1 = make_behavior("B", "m", 0, (1, 2), build_graph(t1, hb_from_pairs(t1, {})))
    b2 = make_behavior("B'", "m", 0, (1, 2), build_graph(t2, hb_from_pairs(t2, {})))
    assert represents(b1, b2) and represents(b2, b1)
    for ordering in ([b1, b2], [b2, b1]):
        groups = group_behaviors(ordering)
        assert len(groups) == 1
        assert groups[0].representative == "B"  # deterministic tie-break by id
        assert sorted(groups[0].members) == ["B", "B'"]


def test_behavior_may_join_multiple_groups():
    tall = posix_trace(
        [
            w(1, "a", b"1", (("m", 1),)),
            w(2, "b", b"2", (("m", 2),)),
            w(3, "c", b"3", (("m", 3),)),
        ]
    )
    g_tall = build_graph(tall, hb_from_pairs(tall, {}))
    rep1 = make_behavior("r1", "m", 0, (1, 2, 3), g_tall)
    other = posix_trace(
        [
            w(1, "a", b"1", (("m", 1),)),
            w(2, "b", b"2", (("m", 2),)),
            w(4, "d", b"4", (("m", 4),)),
        ]
    )
    rep2 = make_behavior("r2", "m", 0, (1, 2, 4), build_graph(other, hb_from_pairs(other, {})))
    small_trace = posix_trace([w(1, "a", b"9", (("m", 1),)), w(2, "b", b"8", (("m", 2),))])
    small = make_behavior(
        "small", "m", 0, (1, 2), build_graph(small_trace, hb_from_pairs(small_trace, {}))
    )
    groups = group_behaviors([rep1, rep2, small])
    member_of = [g.representative for g in groups if "small" in g.members]
    assert sorted(member_of) == ["r1", "r2"]


def test_every_behavior_lands_in_a_group_and_invariants_hold():
    s3_1, s3_2, s2 = fig5_behaviors()
    behaviors = [s3_1, s3_2, s2]
    by_id = {b.id: b for b in behaviors}
    groups = group_behaviors(behaviors)
    grouped = {m for g in groups for m in g.members}
    assert grouped == set(by_id)
    for g in groups:
        assert g.representative in g.members
        for member in g.members:
            assert represents(by_id[g.representative], by_id[member])


def test_duplicate_ids_are_rejected():
    t = posix_trace([w(1, "a", b"1", (("m", 1),))])
    g = build_graph(t, hb_from_pairs(t, {}))
    b1 = make_behavior("x", "m", 0, (1,), g)
    b2 = make_behavior("x", "m", 0, (1,), g)
    with pytest.raises(ValueError):
        group_behaviors([b1, b2])


# --- grouping by shape ---


def grouped(groups):
    return [(g.representative, g.members) for g in groups]


@pytest.mark.parametrize(
    "random_trace, make, few_sites",
    [
        (random_posix_trace, posix_trace, True),
        (random_nested_posix_trace, posix_trace, False),
        (random_annotated_mmio_trace, mmio_trace, True),
    ],
    ids=["posix", "nested", "annotated-mmio"],
)
def test_grouping_by_shape_equals_grouping_by_behavior_on_random_traces(random_trace, make, few_sites):
    """Traces are written out and parsed back, so equal chains share one
    backtrace; the flat generators' ops move onto six call sites, so
    behaviors repeat shapes."""
    rng = random.Random(32)
    repeats = 0
    for _ in range(60):
        trace = random_trace(rng, max_ops=12, threads=rng.randint(1, 2))
        if few_sites:
            trace = make([replace_op(o, backtrace=bt(("main", 1), (rng.choice(["put", "sync"]), rng.randint(1, 3)))) for o in trace.ops])
        trace = parse_trace(serialize_trace(trace))
        _, behaviors = derive_behaviors(trace, RunConfig())
        assert grouped(group_behaviors(behaviors)) == reference_group_behaviors(behaviors)
        repeats += len(behaviors) - len({grouping._shape(b.subgraph) for b in behaviors})
    assert repeats > 30


@pytest.mark.parametrize("seed", [1, 3, 7])
@pytest.mark.parametrize("generator", ["pointer_update_trace", "entry_insert_trace"])
def test_grouping_by_shape_equals_grouping_by_behavior_on_the_scale_traces(generator, seed):
    trace = parse_trace(getattr(bench_module("gen"), generator)(seed))
    _, behaviors = derive_behaviors(trace, RunConfig())
    assert grouped(group_behaviors(behaviors)) == reference_group_behaviors(behaviors)


def test_equal_keys_and_predecessor_bits_at_other_window_places_are_other_shapes():
    """Behaviors a (window bits 0, 1, 4, 5) and b (bits 0, 4, 5, 6) list the
    same keys and the same window predecessor bitsets, node by node, but
    bit 4 is a's third node and b's second, so their last nodes depend on
    different keys and neither represents the other."""
    k0, k1, x1, x2, k2, k3 = ("k0", 1), ("k1", 1), ("x", 1), ("x", 2), ("k2", 1), ("k3", 1)
    sites = [k0, k1, x1, x2, k2, k3] + [k0, x1, x2, x2, k1, k2, k3]
    trace = posix_trace([w(seq, f"f{seq}", b"x", (site,)) for seq, site in enumerate(sites, start=1)])
    # a: seqs 1, 2, 5, 6 with 5 -> 6; b: seqs 7, 11, 12, 13 with 11 -> 13.
    graph = build_graph(trace, hb_from_pairs(trace, {(5, 6): MO, (11, 13): MO}))
    a = make_behavior("a", "m", 0, (1, 2, 5, 6), graph)
    b = make_behavior("b", "m", 0, (7, 11, 12, 13), graph)
    assert [bits for _, bits in a.subgraph.own_preds()] == [bits for _, bits in b.subgraph.own_preds()]
    assert a.subgraph.key_set == b.subgraph.key_set and a.subgraph.key_pairs != b.subgraph.key_pairs
    assert not represents(a, b) and not represents(b, a)
    assert grouped(group_behaviors([a, b])) == [("a", ["a"]), ("b", ["b"])]


def test_represents_runs_once_per_pair_of_shapes(monkeypatch):
    """On the benchmark's 364-op pointer-update trace, 243 behaviors have 6
    shapes; a call per (group, behavior) pair made 484 calls."""
    calls = []
    original = grouping.represents

    def counted(u1, u2):
        calls.append((u1.id, u2.id))
        return original(u1, u2)

    monkeypatch.setattr(grouping, "represents", counted)
    _, behaviors = derive_behaviors(parse_trace(bench_module("gen").pointer_update_trace(7)), RunConfig())
    groups = group_behaviors(behaviors)
    assert len(behaviors) == 243 and len(groups) == 3
    assert len(calls) <= 15


def test_parse_derive_and_group_of_a_4984_op_trace_hold_under_7_mb():
    """What parsing, deriving and grouping the 830-round pointer-update
    trace leave allocated: 18.8 MB when every op had its own backtrace and
    static key and every behavior its own cached key sets, 10.3 MB when
    every view copied its node map and every behavior kept its own node
    tuple, and every record its own key strings, and 7.55 MB when the graph
    kept a merged copy of the model's per-rule predecessor bitsets."""
    text = bench_module("gen").pointer_update_trace(7, rounds=830)
    gc.collect()
    tracemalloc.start()
    try:
        trace = parse_trace(text)
        _, behaviors = derive_behaviors(trace, RunConfig())
        groups = group_behaviors(behaviors)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace.ops) == 4984 and len(groups) == 3
    assert held < 7_000_000
