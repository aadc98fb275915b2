"""flowtrace: message-flow observability modeling and selection toolkit.

The package models system-level communication protocols as labeled Petri
nets, simulates a bandwidth-limited on-chip tracing module that observes
them with loss, reconstructs flow executions from the lossy trace, scores
the result with flow-instance and complete-execution coverage, and
selects which flow events to observe so those metrics stay high under
limited observability.
"""

from .coverage import (
    CoverageReport,
    InconsistentTrace,
    InstanceReconstruction,
    Interleaving,
    interleavings,
    reconstruct,
    reconstruct_result,
    score,
)
from .flow_model import (
    Event,
    Flow,
    FlowPath,
    Marking,
    NotEnabled,
    PathExplosion,
    Transition,
    ValidationReport,
    enabled_transitions,
    end_events,
    enumerate_paths,
    fire,
    path_labels,
    start_events,
    validate,
)
from .selection import (
    Selection,
    SelectionProblem,
    guaranteed_events,
    reallocate_queues,
    select_cec,
    select_fc_baseline,
    select_fic,
)
from .spec_io import (
    Link,
    SpecSemanticError,
    SpecSyntaxError,
    SystemSpec,
    Topology,
    load_prototype,
    parse_system,
    serialize_system,
)
from .tracing_sim import (
    ConfigError,
    ConservationError,
    EventRecord,
    GroundTruth,
    InstanceTag,
    Livelock,
    ObservabilityConfig,
    SimulationResult,
    WorkloadConfig,
    event_generation_trace,
    replay_trace,
    run_simulation,
    run_workload,
)

__all__ = [
    "ConfigError",
    "ConservationError",
    "CoverageReport",
    "Event",
    "EventRecord",
    "Flow",
    "FlowPath",
    "GroundTruth",
    "InconsistentTrace",
    "InstanceReconstruction",
    "InstanceTag",
    "Interleaving",
    "Link",
    "Livelock",
    "Marking",
    "NotEnabled",
    "ObservabilityConfig",
    "PathExplosion",
    "Selection",
    "SelectionProblem",
    "SimulationResult",
    "SpecSemanticError",
    "SpecSyntaxError",
    "SystemSpec",
    "Topology",
    "Transition",
    "ValidationReport",
    "WorkloadConfig",
    "enabled_transitions",
    "end_events",
    "enumerate_paths",
    "event_generation_trace",
    "fire",
    "guaranteed_events",
    "interleavings",
    "load_prototype",
    "parse_system",
    "path_labels",
    "reallocate_queues",
    "reconstruct",
    "reconstruct_result",
    "replay_trace",
    "run_simulation",
    "run_workload",
    "score",
    "select_cec",
    "select_fc_baseline",
    "select_fic",
    "serialize_system",
    "start_events",
    "validate",
]

__version__ = "0.1.0"
