import pytest

from crashcheck import ModeMismatch, build_graph, mmio_edges
from crashcheck.mmio_behaviors import (
    EpochBoundary,
    build_instance_subgraphs,
    build_type_subgraphs,
    derive_mmio_behaviors,
    effective_annotation,
)
from helpers import (
    edge_triples,
    hb_from_pairs,
    mmio_trace,
    op,
    posix_trace,
    split_epochs,
    store_args,
    write_args,
)
from crashcheck.trace import Annotation


def ann(t, i, f):
    return Annotation(t, i, f)


def graph_for(trace):
    return build_graph(trace, mmio_edges(trace))


def epochs_graph(epochs_trace):
    return graph_for(epochs_trace)


# --- type subgraphs ---


def test_two_types_give_two_subgraphs(epochs_trace):
    graph = graph_for(epochs_trace)
    tsgs = build_type_subgraphs(graph, epochs_trace)
    assert [(t.type_name, t.composite) for t in tsgs] == [("M", False), ("N", False)]
    assert tsgs[0].subgraph.node_seqs == (1, 2, 3, 6, 11)
    assert tsgs[1].subgraph.node_seqs == (7, 8)


def test_single_type_projects_store_nodes():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("m", 1),), annotation=ann("T", "i", "x")),
            op(2, "flush", {"addr": 0, "length": 64}, (("m", 2),)),
            op(3, "fence", {}, (("m", 3),)),
            op(4, "store", store_args(64, b"b"), (("m", 4),), annotation=ann("T", "i", "y")),
        ]
    )
    graph = graph_for(trace)
    tsgs = build_type_subgraphs(graph, trace)
    assert len(tsgs) == 1
    assert tsgs[0].subgraph.node_seqs == (1, 4)
    # the flush/fence edge among the stores survives the projection
    assert {(src, dst) for src, dst, _ in edge_triples(tsgs[0].subgraph)} == {(1, 4)}


def test_unannotated_store_falls_into_address_pseudo_type():
    trace = mmio_trace([op(1, "store", store_args(320, b"a"), (("m", 1),))])
    graph = graph_for(trace)
    tsgs = build_type_subgraphs(graph, trace)
    assert [t.type_name for t in tsgs] == ["addr:320"]
    assert effective_annotation(trace.ops[0]) == Annotation("addr:320", "addr:320", "320")


def test_type_subgraphs_partition_store_nodes(epochs_trace):
    graph = graph_for(epochs_trace)
    tsgs = [t for t in build_type_subgraphs(graph, epochs_trace) if not t.composite]
    seen = sorted(s for t in tsgs for s in t.subgraph.node_seqs)
    store_nodes = [s for s in graph.node_seqs if graph.ops_by_seq[s].kind == "store"]
    assert seen == store_nodes


def test_composite_type_combined_subgraph():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"h"), (("m", 1),), annotation=ann("Log/Hdr", "l0", "len")),
            op(2, "store", store_args(64, b"b"), (("m", 2),), annotation=ann("Log/Body", "l0", "data")),
            op(3, "store", store_args(128, b"x"), (("m", 3),), annotation=ann("Other", "o0", "f")),
        ]
    )
    graph = graph_for(trace)
    tsgs = build_type_subgraphs(graph, trace)
    names = [(t.type_name, t.composite) for t in tsgs]
    assert ("Log/Hdr", False) in names and ("Log/Body", False) in names
    assert ("Log", True) in names
    combined = next(t for t in tsgs if t.composite)
    assert combined.subgraph.node_seqs == (1, 2)
    isgs = build_instance_subgraphs(combined)
    assert [(i.instance_id, i.subgraph.node_seqs) for i in isgs] == [("l0", (1, 2))]


def test_posix_trace_is_rejected():
    trace = posix_trace([op(1, "write", write_args("f", b"x"), (("m", 1),))])
    graph = build_graph(trace, hb_from_pairs(trace, {}))
    with pytest.raises(ModeMismatch):
        build_type_subgraphs(graph, trace)


# --- instance subgraphs ---


def test_single_instance_equals_type_subgraph(epochs_trace):
    graph = graph_for(epochs_trace)
    tsg = build_type_subgraphs(graph, epochs_trace)[0]
    isgs = build_instance_subgraphs(tsg)
    assert len(isgs) == 1
    assert isgs[0].instance_id == "m0"
    assert isgs[0].subgraph.node_seqs == tsg.subgraph.node_seqs


def test_disjoint_instances_split():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("m", 1),), annotation=ann("E", "e0", "k")),
            op(2, "store", store_args(64, b"b"), (("m", 2),), annotation=ann("E", "e1", "k")),
        ]
    )
    graph = graph_for(trace)
    isgs = build_instance_subgraphs(build_type_subgraphs(graph, trace)[0])
    assert [(i.instance_id, i.subgraph.node_seqs) for i in isgs] == [
        ("e0", (1,)),
        ("e1", (2,)),
    ]


def test_fig8_m_instance_has_five_store_nodes(epochs_trace):
    graph = graph_for(epochs_trace)
    tsg = next(t for t in build_type_subgraphs(graph, epochs_trace) if t.type_name == "M")
    isg = build_instance_subgraphs(tsg)[0]
    assert len(isg.subgraph) == 5


# --- epochs ---


def test_fig8_epochs_golden(epochs_trace):
    graph = graph_for(epochs_trace)
    tsg = next(t for t in build_type_subgraphs(graph, epochs_trace) if t.type_name == "M")
    isg = build_instance_subgraphs(tsg)[0]
    epochs = split_epochs(isg, graph, epochs_trace)
    assert [(e.epoch_index, e.subgraph.node_seqs, e.boundary_reason) for e in epochs] == [
        (0, (1, 2, 3), EpochBoundary.CRITERION_1),
        (1, (6,), EpochBoundary.CRITERION_2),
        (2, (11,), EpochBoundary.TRACE_END),
    ]


def test_no_flush_means_single_epoch():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("m", 1),), annotation=ann("T", "i", "x")),
            op(2, "store", store_args(64, b"b"), (("m", 2),), annotation=ann("T", "i", "x")),
            op(3, "store", store_args(0, b"c"), (("m", 3),), annotation=ann("T", "i", "x")),
        ]
    )
    graph = graph_for(trace)
    isg = build_instance_subgraphs(build_type_subgraphs(graph, trace)[0])[0]
    epochs = split_epochs(isg, graph, trace)
    assert len(epochs) == 1
    assert epochs[0].boundary_reason is EpochBoundary.TRACE_END


def test_criterion1_requires_field_repetition():
    # persisted but a fresh field: no cut
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("m", 1),), annotation=ann("T", "i", "x")),
            op(2, "flush", {"addr": 0, "length": 64}, (("m", 2),)),
            op(3, "fence", {}, (("m", 3),)),
            op(4, "store", store_args(64, b"b"), (("m", 4),), annotation=ann("T", "i", "y")),
        ]
    )
    graph = graph_for(trace)
    isg = build_instance_subgraphs(build_type_subgraphs(graph, trace)[0])[0]
    assert len(split_epochs(isg, graph, trace)) == 1


def test_criterion1_requires_persistence():
    # repeated field but nothing persisted: no cut
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("m", 1),), annotation=ann("T", "i", "x")),
            op(2, "store", store_args(0, b"b"), (("m", 2),), annotation=ann("T", "i", "x")),
        ]
    )
    graph = graph_for(trace)
    isg = build_instance_subgraphs(build_type_subgraphs(graph, trace)[0])[0]
    assert len(split_epochs(isg, graph, trace)) == 1


def test_field_tracking_resets_at_boundary():
    # After a criterion-1 cut the repeated-field set restarts: the second
    # rewrite of x is unpersisted, so no further cut happens.
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("m", 1),), annotation=ann("T", "i", "x")),
            op(2, "flush", {"addr": 0, "length": 64}, (("m", 2),)),
            op(3, "fence", {}, (("m", 3),)),
            op(4, "store", store_args(0, b"b"), (("m", 4),), annotation=ann("T", "i", "x")),
            op(5, "store", store_args(0, b"c"), (("m", 5),), annotation=ann("T", "i", "x")),
        ]
    )
    graph = graph_for(trace)
    isg = build_instance_subgraphs(build_type_subgraphs(graph, trace)[0])[0]
    epochs = split_epochs(isg, graph, trace)
    assert [e.subgraph.node_seqs for e in epochs] == [(1,), (4, 5)]
    assert epochs[0].boundary_reason is EpochBoundary.CRITERION_1


def test_epochs_are_contiguous_partitions(epochs_trace):
    graph = graph_for(epochs_trace)
    for tsg in build_type_subgraphs(graph, epochs_trace):
        for isg in build_instance_subgraphs(tsg):
            epochs = split_epochs(isg, graph, epochs_trace)
            all_nodes = sorted(s for e in epochs for s in e.subgraph.node_seqs)
            assert all_nodes == list(isg.subgraph.node_seqs)
            # contiguity: epoch seq intervals do not interleave
            spans = [
                (e.subgraph.node_seqs[0], e.subgraph.node_seqs[-1]) for e in epochs
            ]
            for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
                assert b1 < a2


def test_composite_epochs_flow_into_behaviors_and_group():
    from crashcheck import group_behaviors

    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"h"), (("m", 1),), annotation=ann("Log/Hdr", "l0", "len")),
            op(2, "store", store_args(64, b"b"), (("m", 2),), annotation=ann("Log/Body", "l0", "data")),
        ]
    )
    graph = graph_for(trace)
    behaviors = derive_mmio_behaviors(graph, trace)
    owners = sorted(b.owner_function for b in behaviors)
    assert owners == ["Log.l0", "Log/Body.l0", "Log/Hdr.l0"]
    groups = group_behaviors(behaviors)
    # the combined behavior spans both constituent-type behaviors
    combined = next(b for b in behaviors if b.owner_function == "Log.l0")
    assert combined.node_seqs == (1, 2)
    rep_of = {m: g.representative for g in groups for m in g.members}
    assert rep_of["t0:Log/Hdr.l0#e0"] == combined.id
    assert rep_of["t0:Log/Body.l0#e0"] == combined.id


def test_derive_mmio_behaviors_labels(epochs_trace):
    graph = graph_for(epochs_trace)
    behaviors = derive_mmio_behaviors(graph, epochs_trace)
    got = {(b.owner_function, b.node_seqs) for b in behaviors}
    assert got == {
        ("M.m0", (1, 2, 3)),
        ("M.m0", (6,)),
        ("M.m0", (11,)),
        ("N.n0", (7, 8)),
    }
