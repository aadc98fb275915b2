"""flowtrace: message-flow observability modeling and selection toolkit.

The package models system-level communication protocols as labeled Petri
nets, simulates a bandwidth-limited on-chip tracing module that observes
them with loss, scores the lossy trace with flow-instance and
complete-execution coverage, reconstructs the execution paths each
observed instance could have taken, and selects which flow events to
observe so the coverage stays high under limited observability.

The top level holds exactly the names of the README's Python API.
Everything else, reconstruction included, is imported from its module
(``flowtrace.coverage``, ``flowtrace.experiment``,
``flowtrace.flow_model``, ``flowtrace.selection``, ``flowtrace.spec_io``,
``flowtrace.tracing_sim``).
"""

from .coverage import score_result
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
    "replay_trace",
    "run_simulation",
    "run_workload",
    "score_result",
    "select_cec",
]

__version__ = "0.1.0"
