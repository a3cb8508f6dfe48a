"""MMIO update-behavior derivation: stores split by type and instance,
each run cut into epochs.

Stores are grouped by annotated data type and instance, and each such run
of stores is cut into epochs before a store I when either

1. every store of the run since the last cut is already persisted and I
   rewrites a field already written in the current epoch, or
2. some other instance was updated since the run's previous store and all
   of that instance's stores issued before I are persisted before I.

"Persisted" means each cache line of the store was flushed after the store
and a fence (or covering msync) followed, all before I, as read from the
one table :func:`crashcheck.models.line_persist_points`.  Field-repetition
tracking resets at each cut.  Unannotated stores fall into a per-address
pseudo type; a type name containing ``/`` (``Outer/Inner``) additionally
joins a composite run for the outer type, keyed by the declared instance
id, so constituent-type orderings stay testable.  The derivation works on
plain lists of ops; each epoch's subgraph is induced once, when it becomes
a behavior.
"""

from __future__ import annotations

from enum import Enum
from operator import attrgetter

from .behavior import UpdateBehavior, make_behavior
from .errors import ModeMismatch
from .graph import PersistenceGraph
from .models import ModelConfig, line_persist_points
from .trace import MMIO_MODE, Annotation, Operation, Trace


class EpochBoundary(str, Enum):
    CRITERION_1 = "Criterion1"
    CRITERION_2 = "Criterion2"
    TRACE_END = "TraceEnd"


def effective_annotation(op: Operation) -> Annotation:
    """The store's annotation, or its per-address pseudo type when absent."""
    if op.annotation is not None:
        return op.annotation
    addr = op.args["addr"]
    return Annotation(f"addr:{addr}", f"addr:{addr}", str(addr))


def persisted_at(trace: Trace, cfg: ModelConfig | None = None) -> dict[int, float]:
    """Store seq -> the seq by which every cache line of the store is
    persisted (``inf`` when some line never is).  A store counts as
    persisted before I when this is below I's seq."""
    points = line_persist_points(trace, cfg or ModelConfig())
    return {seq: max(min(point) for point in lines) for seq, lines in points.items()}


def mmio_epochs(
    trace: Trace, cfg: ModelConfig | None = None
) -> dict[tuple[str, str, bool], list[tuple[list[Operation], EpochBoundary]]]:
    """Every run of stores cut into epochs, keyed by (type, instance,
    composite) in sorted order; each epoch is its stores in seq order and
    the reason it ended.  Non-composite runs partition the stores."""
    if trace.meta.mode != MMIO_MODE:
        raise ModeMismatch(f"MMIO epochs require an MMIO trace, got {trace.meta.mode}")
    persisted = persisted_at(trace, cfg)
    stores: dict[tuple[str, str], list[Operation]] = {}
    # Every store in seq order with its (type, instance) key, and the
    # persist point of that key's stores up to it: criterion 2 asks, of the
    # last store of each other key between two stores of a run, whether
    # this running max lies below the later store.
    order: list[tuple[int, tuple[str, str]]] = []
    reach: dict[int, float] = {}
    last_reach: dict[tuple[str, str], float] = {}
    for op in trace.ops:
        if op.kind == "store":
            ann = effective_annotation(op)
            key = ann.type_name, ann.instance_id
            stores.setdefault(key, []).append(op)
            order.append((op.seq, key))
            reach[op.seq] = last_reach[key] = max(last_reach.get(key, 0), persisted[op.seq])
    position = {seq: i for i, (seq, _) in enumerate(order)}
    # run key -> the (type, instance) keys whose stores it holds
    runs = {(type_name, instance, False): [(type_name, instance)] for type_name, instance in stores}
    outer_types = {type_name.split("/", 1)[0] for type_name, _ in stores if "/" in type_name}
    for type_name, instance in stores:
        outer = type_name.split("/", 1)[0]
        if outer in outer_types:
            runs.setdefault((outer, instance, True), []).append((type_name, instance))

    out = {}
    for run_key, members in sorted(runs.items()):
        # Sorted, so no store of a member lies between two adjacent ops.
        ops = sorted((op for key in members for op in stores[key]), key=attrgetter("seq"))
        epochs: list[tuple[list[Operation], EpochBoundary]] = []
        current = [ops[0]]
        fields_written = {effective_annotation(ops[0]).field_name}
        current_reach = persisted[ops[0].seq]
        for op in ops[1:]:
            field = effective_annotation(op).field_name
            reason = None
            if field in fields_written and current_reach < op.seq:
                reason = EpochBoundary.CRITERION_1
            else:
                others = set()
                for seq, key in reversed(order[position[current[-1].seq] + 1 : position[op.seq]]):
                    if key not in others:
                        others.add(key)
                        if reach[seq] < op.seq:
                            reason = EpochBoundary.CRITERION_2
                            break
            if reason is not None:
                epochs.append((current, reason))
                current = [op]
                fields_written = {field}
                current_reach = persisted[op.seq]
            else:
                current.append(op)
                fields_written.add(field)
                current_reach = max(current_reach, persisted[op.seq])
        epochs.append((current, EpochBoundary.TRACE_END))
        out[run_key] = epochs
    return out


def derive_mmio_behaviors(
    graph: PersistenceGraph,
    trace: Trace,
    cfg: ModelConfig | None = None,
) -> list[UpdateBehavior]:
    """Full MMIO derivation: every epoch of every run becomes one update
    behavior."""
    behaviors = []
    for (type_name, instance, composite), epochs in mmio_epochs(trace, cfg).items():
        label = f"{type_name}.{instance}"
        for index, (ops, _) in enumerate(epochs):
            tid = ops[0].tid
            behavior_id = f"t{tid}:{label}#e{index}" + ("+composite" if composite else "")
            behaviors.append(make_behavior(behavior_id, label, tid, [op.seq for op in ops], graph))
    return sorted(behaviors, key=lambda b: (b.tid, b.span, b.id))
