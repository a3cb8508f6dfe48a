import random
import re
import tracemalloc

import pytest

from crashcheck import (
    GraphBuildError,
    HappensBefore,
    NodeNotFound,
    StaticKey,
    build_graph,
    export_dot,
    model_edges,
    posix_edges,
    synth_workload,
)
from crashcheck.behavior import cluster_temporal, make_behavior
from crashcheck.mmio_behaviors import derive_mmio_behaviors
from crashcheck.models import EdgeReason
from crashcheck.posix_behaviors import derive_posix_behaviors
from crashcheck.trace import POSIX_MODE, Trace, TraceMeta

from conftest import WORKLOADS, load_workload
from helpers import (
    edge_triples,
    graph_edges,
    hb_from_pairs,
    op,
    posix_trace,
    predecessors,
    random_annotated_mmio_trace,
    random_mmio_trace,
    random_nested_posix_trace,
    random_posix_trace,
    reference_model_pairs,
    straddling_mmio_trace,
    write_args,
)

MO = EdgeReason.METADATA_ORDER

# Frozen golden edge set for the fig3 workload, derived by hand from the
# model rules: the three same-block writes to f1 chain up, fdatasync(f2)
# orders the f2 write before the rename (the rename-source rule fires
# first, hence MetadataOrder on (4,6)), and the trailing sync gathers every
# earlier persisting op.
FIG3_EDGES = {
    (1, 2, EdgeReason.SAME_BLOCK),
    (1, 3, EdgeReason.SAME_BLOCK),
    (2, 3, EdgeReason.SAME_BLOCK),
    (4, 5, EdgeReason.SYNC_BARRIER),
    (4, 6, EdgeReason.METADATA_ORDER),
    (5, 6, EdgeReason.SYNC_BARRIER),
    (1, 7, EdgeReason.SYNC_BARRIER),
    (2, 7, EdgeReason.SYNC_BARRIER),
    (3, 7, EdgeReason.SYNC_BARRIER),
    (4, 7, EdgeReason.SYNC_BARRIER),
    (6, 7, EdgeReason.SYNC_BARRIER),
}


def chain_graph():
    trace = posix_trace(
        [
            op(1, "create", {"path": "a"}, (("main", 1),)),
            op(2, "create", {"path": "b"}, (("main", 2),)),
            op(3, "create", {"path": "c"}, (("main", 3),)),
        ]
    )
    return build_graph(trace, hb_from_pairs(trace, {(1, 2): MO, (2, 3): MO}))


def test_fig3_graph_has_seven_nodes_and_frozen_edges(fig3_trace):
    edges = posix_edges(fig3_trace)
    graph = build_graph(fig3_trace, edges)
    assert len(graph) == 7
    assert edge_triples(graph) == FIG3_EDGES


def test_empty_trace_builds_empty_graph():
    trace = Trace(meta=TraceMeta(app_name="", mode="POSIX"))
    graph = build_graph(trace, hb_from_pairs(trace, {}))
    assert len(graph) == 0
    assert edge_triples(graph) == set()


def test_foreign_edge_is_rejected(fig3_trace):
    beyond = len(fig3_trace.ops)
    for rules in ({MO: {2: 1 << beyond}}, {MO: {9: 1}}):
        with pytest.raises(GraphBuildError):
            build_graph(fig3_trace, HappensBefore(rules))


def test_backward_edge_is_rejected(fig3_trace):
    for pairs in ({(3, 2): MO}, {(2, 2): MO}):
        with pytest.raises(GraphBuildError):
            build_graph(fig3_trace, hb_from_pairs(fig3_trace, pairs))


def test_trace_out_of_seq_order_is_rejected(fig3_trace):
    # Bits follow trace order, so it must be seq order.
    trace = posix_trace(list(reversed(fig3_trace.ops)))
    with pytest.raises(GraphBuildError):
        build_graph(trace, hb_from_pairs(trace, {}))


def test_edge_on_open_or_close_is_rejected():
    trace = posix_trace(
        [
            op(1, "open", {"path": "f"}, (("main", 1),)),
            op(2, "write", write_args("f", b"x"), (("main", 2),)),
            op(3, "close", {"path": "f"}, (("main", 3),)),
        ]
    )
    for pairs in ({(1, 2): MO}, {(2, 3): MO}):
        with pytest.raises(GraphBuildError):
            build_graph(trace, hb_from_pairs(trace, pairs))


def test_open_close_are_not_nodes():
    trace = posix_trace(
        [
            op(1, "open", {"path": "f"}, (("main", 1),)),
            op(2, "write", write_args("f", b"x"), (("main", 2),)),
            op(3, "close", {"path": "f"}, (("main", 3),)),
        ]
    )
    graph = build_graph(trace, hb_from_pairs(trace, {}))
    assert graph.node_seqs == (2,)


def test_induced_edges_full_set_is_identity():
    graph = chain_graph()
    assert edge_triples(graph.induced({1, 2, 3})) == edge_triples(graph)


def test_induced_edges_skip_nonadjacent_pairs():
    graph = chain_graph()
    assert edge_triples(graph.induced({1, 3})) == set()


def window_graph():
    """Nodes 1, 3, 4 and 6 with edges 1 -> 3 -> 6; op 2 opens and op 5
    closes a file, so neither is a node."""
    trace = posix_trace(
        [
            op(1, "create", {"path": "a"}, (("main", 1),)),
            op(2, "open", {"path": "a"}, (("main", 2),)),
            op(3, "create", {"path": "b"}, (("main", 3),)),
            op(4, "create", {"path": "c"}, (("main", 4),)),
            op(5, "close", {"path": "a"}, (("main", 5),)),
            op(6, "create", {"path": "d"}, (("main", 6),)),
        ]
    )
    return build_graph(trace, hb_from_pairs(trace, {(1, 3): MO, (3, 6): MO}))


@pytest.mark.parametrize(
    "view_nodes, foreign",
    [
        (None, 2),
        (None, 5),
        (None, 9),
        ({1, 4, 6}, 3),
        ({1, 3}, 4),
        ({1, 4, 6}, 2),
        ({1, 4, 6}, 5),
        ({1, 4, 6}, 9),
        (set(), 1),
    ],
    ids=["open", "close", "missing", "view-node-in-span", "view-node-past-span", "view-open", "view-close",
         "view-missing", "empty-view"],
)
def test_induced_edges_reject_foreign_nodes(view_nodes, foreign):
    """Inducing from the full graph or from a view names every seq that is
    no node of it: a node outside the view, an open or close, a seq the
    trace lacks.  Every view shares the full graph's maps."""
    graph = window_graph()
    source = graph if view_nodes is None else graph.induced(view_nodes)
    assert source.ops_by_seq is graph.ops_by_seq and source.static_keys is graph.static_keys
    assert source.rules is graph.rules
    known = set(source.node_seqs)
    with pytest.raises(NodeNotFound, match=rf"^nodes \[{foreign}\] are not in the graph$"):
        source.induced(known | {foreign})
    assert source.induced(known).node_seqs == source.node_seqs


def test_induced_edges_monotone_under_union():
    rng = random.Random(5)
    graph = chain_graph()
    for _ in range(10):
        a = {s for s in graph.node_seqs if rng.random() < 0.5}
        b = a | {s for s in graph.node_seqs if rng.random() < 0.5}
        assert edge_triples(graph.induced(a)) <= edge_triples(graph.induced(b))


def test_pointer_switch_subset_keeps_only_write_dependency():
    # Three nodes write(f1) -> write(f2) -> rename(f2); restricting to the
    # two writes keeps exactly the write->write dependency.
    trace = posix_trace(
        [
            op(1, "write", write_args("f1", b"a"), (("Fn3", 10),)),
            op(2, "write", write_args("f2", b"b"), (("Fn3", 11),)),
            op(3, "rename", {"path": "f2", "dst": "CUR"}, (("Fn3", 12),)),
        ]
    )
    graph = build_graph(trace, hb_from_pairs(trace, {(1, 2): MO, (2, 3): MO}))
    assert edge_triples(graph.induced({1, 2})) == {(1, 2, MO)}


def closure(pairs) -> set[tuple[int, int]]:
    """Every (src, dst) joined by a path of ``pairs``, by brute force."""
    closed = set(pairs)
    while True:
        more = {(a, d) for a, b in closed for c, d in closed if b == c} - closed
        if not more:
            return closed
        closed |= more


def reduction_pairs(pairs) -> set[tuple[int, int]]:
    """The pairs of a DAG that no path through a third node implies."""
    closed = closure(pairs)
    nodes = {n for pair in pairs for n in pair}
    return {(a, b) for a, b in pairs if not any((a, c) in closed and (c, b) in closed for c in nodes)}


DOT_EDGE = re.compile(r'^  n(\d+) -> n(\d+) \[label="(\w+)"\];$', re.MULTILINE)


def dot_edges(dot: str) -> set[tuple[int, int, EdgeReason]]:
    return {(int(src), int(dst), EdgeReason(reason)) for src, dst, reason in DOT_EDGE.findall(dot)}


def reference_dot(trace, edges, nodes) -> str:
    """DOT text for the subgraph on ``nodes``, from the trace and the
    reference model's full pair dict alone: the transitive reduction of
    the pairs with both ends in ``nodes``."""
    ops = {o.seq: o for o in trace.ops}
    lines = ["digraph pg {"]
    for seq in sorted(nodes):
        frame = ops[seq].backtrace.innermost
        file = frame.file.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        lines.append(f'  n{seq} [label="{ops[seq].kind}@{file}:{frame.line}"];')
    drawn = reduction_pairs({pair for pair in edges if pair[0] in nodes and pair[1] in nodes})
    for src, dst in sorted(drawn):
        lines.append(f'  n{src} -> n{dst} [label="{edges[src, dst].value}"];')
    return "\n".join(lines + ["}"]) + "\n"


def check_view(view, trace, edges, nodes):
    """A view's edges, counts, keys, predecessors and DOT against the
    reference pairs with both ends in ``nodes``."""
    want = {e for e in edge_triples(edges) if e[0] in nodes and e[1] in nodes}
    assert view.node_seqs == tuple(sorted(nodes)) and len(view) == len(nodes)
    assert edge_triples(view) == want
    assert graph_edges(view) == sorted(want)
    assert view.edge_count == len(want)
    keys = {o.seq: StaticKey.of(o) for o in trace.ops if o.seq in nodes}
    assert view.key_set == frozenset(keys.values())
    assert view.key_pairs == {(keys[src], keys[dst]) for src, dst, _ in want}
    for n in nodes:
        assert predecessors(view, n) == {src for src, dst, _ in want if dst == n}
    assert export_dot(view) == reference_dot(trace, edges, nodes)
    parts = []
    assert export_dot(view, write=parts.append) is None
    assert "".join(parts) == export_dot(view)


@pytest.mark.parametrize(
    "make",
    [
        random_posix_trace,
        random_mmio_trace,
        pytest.param(
            lambda rng, max_ops: random_posix_trace(rng, 2 * max_ops, threads=rng.randint(2, 3)),
            id="posix_threads",
        ),
        pytest.param(
            lambda rng, max_ops: straddling_mmio_trace(rng, threads=rng.randint(2, 3)),
            id="mmio_straddling",
        ),
    ],
)
def test_induced_views_match_filtering_the_full_edge_set(make):
    """Windowed predecessor bitsets against the naive reading of
    happens-before: a view's edges, edge count, key set and key pairs are
    those of the reference model's pairs with both ends in the view, and
    so are those of a view of a view and of temporal clustering's pieces."""
    rng = random.Random(23)
    for _ in range(30):
        trace = make(rng, max_ops=12)
        edges = reference_model_pairs(trace)
        hb = model_edges(trace)
        graph = build_graph(trace, hb)
        assert graph.rules is hb.rules and len(hb) == graph.edge_count
        check_view(graph, trace, edges, set(graph.node_seqs))
        for _ in range(5):
            s = {n for n in graph.node_seqs if rng.random() < 0.6}
            t = {n for n in s if rng.random() < 0.6}
            view = graph.induced(s)
            assert view.ops_by_seq is graph.ops_by_seq
            check_view(view, trace, edges, s)
            # Re-inducing a view (as temporal clustering does) equals
            # inducing the full graph directly.
            check_view(view.induced(t), trace, edges, t)
            if s:
                # eps from the view, so the traces drawn stay those of rng.
                whole = make_behavior("whole", "main", 0, s, graph)
                for piece in cluster_temporal(whole, eps=1 + len(s) % 3):
                    check_view(piece.subgraph, trace, edges, set(piece.node_seqs))


def test_dot_labels_escape_the_file_name():
    """A file name holding a quote, a backslash and a newline is written
    into a DOT label as ``\\"``, ``\\\\`` and ``\\n``, in the full graph and
    in a view, so every label stays one quoted DOT string."""
    name = 'we"ird\\x\n'
    trace = posix_trace(
        [
            op(1, "write", write_args("f", b"a"), (("main", 1),), file=name),
            op(2, "write", write_args("f", b"b"), (("main", 2),), file=name),
            op(3, "write", write_args("g", b"c"), (("main", 3),)),
        ]
    )
    edges = reference_model_pairs(trace)
    graph = build_graph(trace, model_edges(trace))
    check_view(graph, trace, edges, {1, 2, 3})
    check_view(graph.induced({2, 3}), trace, edges, {2, 3})
    assert export_dot(graph).splitlines()[1:4] == [
        '  n1 [label="write@we\\"ird\\\\x\\n:1"];',
        '  n2 [label="write@we\\"ird\\\\x\\n:2"];',
        '  n3 [label="write@app.c:3"];',
    ]


def assert_dot_is_the_reduction(graph):
    """The DOT of ``graph`` draws the transitive reduction of its stored
    pairs, each edge labeled with the first rule of its destination that
    holds it (``graph_edges`` names each pair so)."""
    drawn = dot_edges(export_dot(graph))
    stored = graph_edges(graph)
    assert drawn <= set(stored)
    pairs = {(src, dst) for src, dst, _ in drawn}
    assert closure(pairs) == closure({(src, dst) for src, dst, _ in stored})
    closed = closure(pairs)
    assert not any((a, c) in closed and (c, b) in closed for a, b in pairs for c in graph.node_seqs)
    for src, dst, reason in drawn:
        assert reason is next(r for r, by_dst in graph.rules.items() if by_dst.get(dst, 0) >> graph.seqs.index(src) & 1)


def reduction_cases():
    for path in sorted(WORKLOADS.glob("*.dsl")):
        mode = "MMIO" if path.stem.startswith("entry") or path.stem == "epochs" else "POSIX"
        yield path.stem, load_workload(path.name, mode)
    rng = random.Random(11)
    makers = (random_posix_trace, random_nested_posix_trace, random_mmio_trace, random_annotated_mmio_trace)
    for i in range(60):
        make = makers[i % len(makers)]
        yield f"{make.__name__}_{i}", make(rng, rng.randint(8, 30), threads=rng.randint(1, 3))


def test_dot_draws_the_transitive_reduction():
    """On the 8 programs and on 60 random 1-3-thread POSIX and MMIO traces,
    the DOT of the full graph, of every behavior's subgraph and of views of
    those (temporal pieces and random subsets) is the transitive reduction
    of the graph's stored pairs."""
    rng = random.Random(3)
    for name, trace in reduction_cases():
        graph = build_graph(trace, model_edges(trace))
        if trace.meta.mode == POSIX_MODE:
            behaviors = derive_posix_behaviors(graph, trace)
        else:
            behaviors = derive_mmio_behaviors(graph, trace)
        assert behaviors or not len(graph), name
        assert_dot_is_the_reduction(graph)
        for behavior in behaviors:
            assert_dot_is_the_reduction(behavior.subgraph)
            for piece in cluster_temporal(behavior, eps=1):
                assert_dot_is_the_reduction(piece.subgraph)
            for _ in range(2):
                some = [n for n in behavior.node_seqs if rng.random() < 0.6]
                assert_dot_is_the_reduction(behavior.subgraph.induced(some))


def test_streamed_dot_holds_less_than_its_text():
    """Streaming a large graph's DOT into a sink holds nothing per stored
    pair: on the seeded 240-op trace the ``analyze`` pins use for POSIX,
    over 20,000 stored pairs draw as fewer than 2 edges per node, and the
    allocation peak stays below a fifth of the text that drawing every
    stored pair would take."""
    trace = random_posix_trace(random.Random(0), 240)
    graph = build_graph(trace, model_edges(trace))
    assert graph.edge_count > 20_000
    every_pair = sum(len(f'  n{src} -> n{dst} [label="{r.value}"];\n') for src, dst, r in graph_edges(graph))
    written = 0

    def sink(piece):
        nonlocal written
        written += len(piece)

    tracemalloc.start()
    try:
        export_dot(graph, write=sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dot = export_dot(graph)
    assert written == len(dot)
    assert dot.count(" -> ") < 2 * len(graph)
    assert every_pair > 700_000
    assert peak < every_pair / 5


def test_export_dot_empty_graph():
    trace = Trace(meta=TraceMeta(app_name="", mode="POSIX"))
    dot = export_dot(build_graph(trace, hb_from_pairs(trace, {})))
    assert dot == "digraph pg {\n}\n"


def test_export_dot_single_node():
    trace = posix_trace([op(1, "create", {"path": "f"}, (("main", 4),))])
    dot = export_dot(build_graph(trace, hb_from_pairs(trace, {})))
    assert dot.count(" -> ") == 0
    assert 'n1 [label="create@app.c:4"];' in dot


def test_export_dot_fig3_counts(fig3_trace):
    """fig3's 11 stored pairs draw as the 6 of their transitive reduction:
    the two chains 1 -> 2 -> 3 -> 7 and 4 -> 5 -> 6 -> 7."""
    edges = posix_edges(fig3_trace)
    graph = build_graph(fig3_trace, edges)
    dot = export_dot(graph)
    assert graph.edge_count == len(edge_triples(graph)) == 11
    assert dot.count("[label=") == len(graph) + 6
    assert dot_edges(dot) == {
        (1, 2, EdgeReason.SAME_BLOCK),
        (2, 3, EdgeReason.SAME_BLOCK),
        (3, 7, EdgeReason.SYNC_BARRIER),
        (4, 5, EdgeReason.SYNC_BARRIER),
        (5, 6, EdgeReason.SYNC_BARRIER),
        (6, 7, EdgeReason.SYNC_BARRIER),
    }
    assert export_dot(graph) == dot  # deterministic


def test_static_key_ignores_payload():
    a = synth_workload('fn main {\n  write f "aa" @0\n}\n', "POSIX")
    b = synth_workload('fn main {\n  write f "zz" @0\n}\n', "POSIX")
    key = StaticKey.of(a.ops[0])
    assert key == StaticKey.of(b.ops[0])
    # The hash is that of the fields equality compares; bug dedup keys are
    # ``str(key)``, which must show nothing else.
    assert hash(key) == hash((key.kind, key.static_stack))
    assert "_hash" not in repr(key)


def test_static_key_modes():
    trace = synth_workload("fn outer {\n  fn inner {\n    sync\n  }\n}\n", "POSIX")
    full = StaticKey.of(trace.ops[0], "full")
    inner = StaticKey.of(trace.ops[0], "innermost")
    assert len(full.static_stack) == 2
    assert len(inner.static_stack) == 1
    assert full.static_stack[-1][1:] == inner.static_stack[-1][1:] == ("<dsl>", 3)

