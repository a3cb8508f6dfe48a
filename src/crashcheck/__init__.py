"""Crash-consistency testing via persistence graphs and representative
update behaviors.

Pipeline: trace (parsed or synthesized from the workload DSL) -> happens-
before edges under a POSIX or MMIO persistence model -> persistence graph
-> update behaviors (backtrace runs merged up the call paths for POSIX,
per-instance store runs cut into epochs for MMIO) -> behavior groups under
the represents relation -> crash-schedule enumeration, replay and
consistency checking of each group representative.
"""

from .behavior import UpdateBehavior, cluster_temporal, make_behavior
from .dsl import synth_workload
from .errors import (
    CheckerError,
    CrashCheckError,
    DslError,
    ExplosionLimit,
    GraphBuildError,
    ModeMismatch,
    NodeNotFound,
    ParseError,
    ReplayError,
    SequenceOrderError,
    UnknownOperationKind,
)
from .graph import PersistenceGraph, StaticKey, build_graph, export_dot
from .grouping import BehaviorGroup, group_behaviors, represents
from .mmio_behaviors import EpochBoundary, derive_mmio_behaviors, mmio_epochs
from .models import EdgeReason, HappensBefore, ModelConfig, mmio_edges, model_edges, posix_edges
from .posix_behaviors import common_path, derive_posix_behaviors
from .simulate import (
    BugReport,
    CheckResult,
    CrashSchedule,
    FsImage,
    MemImage,
    PreparedChecker,
    Verdict,
    enumerate_schedules,
    run_oracle,
    test_groups,
)
from .trace import (
    Annotation,
    Backtrace,
    Frame,
    Operation,
    Trace,
    parse_trace,
    serialize_trace,
    split_by_thread,
)

__version__ = "0.1.0"
