import pytest

from crashcheck import ModeMismatch, build_graph, mmio_edges
from crashcheck.mmio_behaviors import (
    EpochBoundary,
    derive_mmio_behaviors,
    effective_annotation,
    mmio_epochs,
)
from helpers import (
    edge_triples,
    mmio_trace,
    op,
    posix_trace,
    store_args,
    write_args,
)
from crashcheck.trace import Annotation


def ann(t, i, f):
    return Annotation(t, i, f)


def graph_for(trace):
    return build_graph(trace, mmio_edges(trace))


def run_seqs(trace):
    """(type, instance, composite) -> the run's store seqs, its epochs
    joined."""
    return {key: tuple(o.seq for ops, _ in epochs for o in ops) for key, epochs in mmio_epochs(trace).items()}


def type_seqs(trace):
    """(type, composite) -> the store seqs of all the type's runs."""
    out = {}
    for (type_name, _, composite), seqs in run_seqs(trace).items():
        out[(type_name, composite)] = tuple(sorted(out.get((type_name, composite), ()) + seqs))
    return out


def only_epochs(trace):
    """The epochs of a trace whose stores form a single run."""
    (epochs,) = mmio_epochs(trace).values()
    return epochs


# --- type subgraphs ---


def test_two_types_give_two_subgraphs(epochs_trace):
    types = type_seqs(epochs_trace)
    assert list(types) == [("M", False), ("N", False)]
    assert types[("M", False)] == (1, 2, 3, 6, 11)
    assert types[("N", False)] == (7, 8)


def test_single_type_projects_store_nodes():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("m", 1),), annotation=ann("T", "i", "x")),
            op(2, "flush", {"addr": 0, "length": 64}, (("m", 2),)),
            op(3, "fence", {}, (("m", 3),)),
            op(4, "store", store_args(64, b"b"), (("m", 4),), annotation=ann("T", "i", "y")),
        ]
    )
    types = type_seqs(trace)
    assert len(types) == 1
    assert types[("T", False)] == (1, 4)
    # the flush/fence edge among the stores survives the projection
    view = graph_for(trace).induced(types[("T", False)])
    assert {(src, dst) for src, dst, _ in edge_triples(view)} == {(1, 4)}


def test_unannotated_store_falls_into_address_pseudo_type():
    trace = mmio_trace([op(1, "store", store_args(320, b"a"), (("m", 1),))])
    assert [type_name for type_name, _ in type_seqs(trace)] == ["addr:320"]
    assert effective_annotation(trace.ops[0]) == Annotation("addr:320", "addr:320", "320")


def test_type_subgraphs_partition_store_nodes(epochs_trace):
    graph = graph_for(epochs_trace)
    seen = sorted(s for (_, composite), seqs in type_seqs(epochs_trace).items() if not composite for s in seqs)
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
    types = type_seqs(trace)
    names = list(types)
    assert ("Log/Hdr", False) in names and ("Log/Body", False) in names
    assert ("Log", True) in names
    assert types[("Log", True)] == (1, 2)
    composite_runs = [(instance, seqs) for (_, instance, composite), seqs in run_seqs(trace).items() if composite]
    assert composite_runs == [("l0", (1, 2))]


def test_posix_trace_is_rejected():
    trace = posix_trace([op(1, "write", write_args("f", b"x"), (("m", 1),))])
    with pytest.raises(ModeMismatch):
        mmio_epochs(trace)


# --- instance subgraphs ---


def test_single_instance_equals_type_subgraph(epochs_trace):
    m_runs = [(instance, seqs) for (type_name, instance, _), seqs in run_seqs(epochs_trace).items() if type_name == "M"]
    assert len(m_runs) == 1
    assert m_runs[0][0] == "m0"
    assert m_runs[0][1] == type_seqs(epochs_trace)[("M", False)]


def test_disjoint_instances_split():
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("m", 1),), annotation=ann("E", "e0", "k")),
            op(2, "store", store_args(64, b"b"), (("m", 2),), annotation=ann("E", "e1", "k")),
        ]
    )
    assert [(instance, seqs) for (_, instance, _), seqs in run_seqs(trace).items()] == [
        ("e0", (1,)),
        ("e1", (2,)),
    ]


def test_fig8_m_instance_has_five_store_nodes(epochs_trace):
    assert len(run_seqs(epochs_trace)[("M", "m0", False)]) == 5


# --- epochs ---


def test_fig8_epochs_golden(epochs_trace):
    epochs = mmio_epochs(epochs_trace)[("M", "m0", False)]
    assert [(index, tuple(o.seq for o in ops), reason) for index, (ops, reason) in enumerate(epochs)] == [
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
    epochs = only_epochs(trace)
    assert len(epochs) == 1
    assert epochs[0][1] is EpochBoundary.TRACE_END


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
    assert len(only_epochs(trace)) == 1


def test_criterion1_requires_persistence():
    # repeated field but nothing persisted: no cut
    trace = mmio_trace(
        [
            op(1, "store", store_args(0, b"a"), (("m", 1),), annotation=ann("T", "i", "x")),
            op(2, "store", store_args(0, b"b"), (("m", 2),), annotation=ann("T", "i", "x")),
        ]
    )
    assert len(only_epochs(trace)) == 1


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
    epochs = only_epochs(trace)
    assert [tuple(o.seq for o in ops) for ops, _ in epochs] == [(1,), (4, 5)]
    assert epochs[0][1] is EpochBoundary.CRITERION_1


def test_epochs_are_contiguous_partitions(epochs_trace):
    for (type_name, instance, composite), epochs in mmio_epochs(epochs_trace).items():
        all_nodes = sorted(o.seq for ops, _ in epochs for o in ops)
        run = []
        for o in epochs_trace.ops:
            if o.kind == "store":
                a = effective_annotation(o)
                owner = a.type_name.split("/", 1)[0] if composite else a.type_name
                if (owner, a.instance_id) == (type_name, instance):
                    run.append(o.seq)
        assert all_nodes == run
        # contiguity: epoch seq intervals do not interleave
        spans = [(ops[0].seq, ops[-1].seq) for ops, _ in epochs]
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
