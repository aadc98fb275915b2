"""flowtrace: message-flow observability modeling and selection toolkit.

The package models system-level communication protocols as labeled Petri
nets, simulates a bandwidth-limited on-chip tracing module that observes
them with loss, reconstructs flow executions from the lossy trace, scores
the result with flow-instance and complete-execution coverage, and
selects which flow events to observe so those metrics stay high under
limited observability.

The top level holds the names of the README's Python API; everything
else is imported from its module (``flowtrace.coverage``,
``flowtrace.experiment``, ``flowtrace.flow_model``, ``flowtrace.selection``,
``flowtrace.spec_io``, ``flowtrace.tracing_sim``).
"""

from .coverage import reconstruct_result, score
from .selection import SelectionProblem, select_cec
from .spec_io import load_prototype
from .tracing_sim import (
    ObservabilityConfig,
    WorkloadConfig,
    reallocate_queues,
    replay_trace,
    run_simulation,
    run_workload,
)

__all__ = [
    "ObservabilityConfig",
    "SelectionProblem",
    "WorkloadConfig",
    "load_prototype",
    "reallocate_queues",
    "reconstruct_result",
    "replay_trace",
    "run_simulation",
    "run_workload",
    "score",
    "select_cec",
]

__version__ = "0.1.0"
