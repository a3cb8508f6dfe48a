"""MMIO update-behavior derivation: type subgraphs, instance subgraphs and
epoch splitting.

Stores are grouped by annotated data type, then by instance.  Each
instance's run of stores is cut into epochs before a store I when either

1. every store to the instance since the last cut is already persisted and
   I rewrites a field already written in the current epoch, or
2. some other instance was updated since this instance's previous store and
   all of that instance's stores issued before I are persisted before I.

"Persisted" means each cache line of the store was flushed after the store
and a fence (or covering msync) followed, all before I, as read from the
one table :func:`crashcheck.models.line_persist_points`.  Field-repetition
tracking resets at each cut.  Unannotated stores fall into a per-address
pseudo type; a type name containing ``/`` (``Outer/Inner``) additionally
contributes to a combined subgraph for the outer type, keyed by the declared
instance id, so constituent-type orderings stay testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .behavior import UpdateBehavior, make_behavior
from .errors import ModeMismatch
from .graph import PersistenceGraph
from .models import ModelConfig, line_persist_points
from .trace import MMIO_MODE, Annotation, Operation, Trace


class EpochBoundary(str, Enum):
    CRITERION_1 = "Criterion1"
    CRITERION_2 = "Criterion2"
    TRACE_END = "TraceEnd"


@dataclass(frozen=True)
class TypeSubgraph:
    type_name: str
    subgraph: PersistenceGraph
    composite: bool = False


@dataclass(frozen=True)
class InstanceSubgraph:
    type_name: str
    instance_id: str
    subgraph: PersistenceGraph
    composite: bool = False


@dataclass(frozen=True)
class EpochSubgraph:
    type_name: str
    instance_id: str
    epoch_index: int
    subgraph: PersistenceGraph
    boundary_reason: EpochBoundary


def effective_annotation(op: Operation) -> Annotation:
    """The store's annotation, or its per-address pseudo type when absent."""
    if op.annotation is not None:
        return op.annotation
    addr = op.args["addr"]
    return Annotation(f"addr:{addr}", f"addr:{addr}", str(addr))


def build_type_subgraphs(graph: PersistenceGraph, trace: Trace) -> list[TypeSubgraph]:
    """One subgraph per observed data type, plus combined subgraphs for
    declared composite types.  Non-composite subgraphs partition the store
    nodes."""
    if trace.meta.mode != MMIO_MODE:
        raise ModeMismatch(f"type subgraphs require an MMIO trace, got {trace.meta.mode}")
    stores = [
        graph.ops_by_seq[seq]
        for seq in graph.node_seqs
        if graph.ops_by_seq[seq].kind == "store"
    ]
    by_type: dict[str, set[int]] = {}
    for op in stores:
        by_type.setdefault(effective_annotation(op).type_name, set()).add(op.seq)

    out = [
        TypeSubgraph(type_name=name, subgraph=graph.induced(seqs))
        for name, seqs in sorted(by_type.items())
    ]
    outer_types = sorted({name.split("/", 1)[0] for name in by_type if "/" in name})
    for outer in outer_types:
        members: set[int] = set()
        for name, seqs in by_type.items():
            if name == outer or name.startswith(outer + "/"):
                members.update(seqs)
        out.append(TypeSubgraph(type_name=outer, subgraph=graph.induced(members), composite=True))
    return out


def build_instance_subgraphs(tsg: TypeSubgraph) -> list[InstanceSubgraph]:
    """Assign each node of a type subgraph to its instance, edges induced."""
    by_instance: dict[str, set[int]] = {}
    for seq in tsg.subgraph.node_seqs:
        ann = effective_annotation(tsg.subgraph.ops_by_seq[seq])
        by_instance.setdefault(ann.instance_id, set()).add(seq)
    return [
        InstanceSubgraph(
            type_name=tsg.type_name,
            instance_id=instance,
            subgraph=tsg.subgraph.induced(seqs),
            composite=tsg.composite,
        )
        for instance, seqs in sorted(by_instance.items())
    ]


def persisted_at(trace: Trace, cfg: ModelConfig | None = None) -> dict[int, float]:
    """Store seq -> the seq by which every cache line of the store is
    persisted (``inf`` when some line never is).  A store counts as
    persisted before I when this is below I's seq."""
    points = line_persist_points(trace, cfg or ModelConfig())
    return {seq: max(min(point) for point in lines) for seq, lines in points.items()}


def _split_epochs(
    isg: InstanceSubgraph,
    full_graph: PersistenceGraph,
    trace: Trace,
    persisted: dict[int, float],
) -> list[EpochSubgraph]:
    own_ops = [isg.subgraph.ops_by_seq[seq] for seq in isg.subgraph.node_seqs]
    if not own_ops:
        return []
    others_by_instance: dict[tuple[str, str], list[int]] = {}
    for other in trace.ops:
        if other.kind == "store" and other.seq not in isg.subgraph.ops_by_seq:
            ann = effective_annotation(other)
            others_by_instance.setdefault((ann.type_name, ann.instance_id), []).append(other.seq)

    epochs: list[tuple[list[Operation], EpochBoundary]] = []
    current: list[Operation] = [own_ops[0]]
    fields_written = {effective_annotation(own_ops[0]).field_name}

    for op in own_ops[1:]:
        field = effective_annotation(op).field_name
        prev_seq = current[-1].seq
        crit1 = field in fields_written and all(persisted[s.seq] < op.seq for s in current)
        crit2 = not crit1 and any(
            any(prev_seq < seq < op.seq for seq in seqs)
            and all(persisted[seq] < op.seq for seq in seqs if seq < op.seq)
            for seqs in others_by_instance.values()
        )
        if crit1 or crit2:
            reason = EpochBoundary.CRITERION_1 if crit1 else EpochBoundary.CRITERION_2
            epochs.append((current, reason))
            current = [op]
            fields_written = {field}
        else:
            current.append(op)
            fields_written.add(field)
    epochs.append((current, EpochBoundary.TRACE_END))

    return [
        EpochSubgraph(
            type_name=isg.type_name,
            instance_id=isg.instance_id,
            epoch_index=index,
            subgraph=full_graph.induced([op.seq for op in ops]),
            boundary_reason=reason,
        )
        for index, (ops, reason) in enumerate(epochs)
    ]


def derive_mmio_behaviors(
    graph: PersistenceGraph,
    trace: Trace,
    cfg: ModelConfig | None = None,
) -> list[UpdateBehavior]:
    """Full MMIO derivation: every epoch of every instance of every type
    becomes one update behavior."""
    behaviors = []
    persisted = persisted_at(trace, cfg)
    for tsg in build_type_subgraphs(graph, trace):
        for isg in build_instance_subgraphs(tsg):
            for epoch in _split_epochs(isg, graph, trace, persisted):
                label = f"{epoch.type_name}.{epoch.instance_id}"
                tid = epoch.subgraph.ops_by_seq[epoch.subgraph.node_seqs[0]].tid
                behaviors.append(
                    make_behavior(
                        f"t{tid}:{label}#e{epoch.epoch_index}"
                        + ("+composite" if tsg.composite else ""),
                        label,
                        tid,
                        epoch.subgraph.node_seqs,
                        graph,
                    )
                )
    return sorted(behaviors, key=lambda b: (b.tid, b.span, b.id))
