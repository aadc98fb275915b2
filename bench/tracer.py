"""Span recorder for the traced benchmark run.

The tracer wraps flowtrace's public functions from outside the package:
each wrapped name is replaced in every flowtrace module that holds it,
and restored afterwards.  Each call records a span (name, layer, start,
end, parent) in memory; spans made inside ``experiment.run_cell`` carry
that cell's ``(method, capacity, seed)`` id.  Self time is a span's
duration minus the time its direct children cover.
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from typing import Callable, Iterator

from checks import result_conservation_problems

# (defining module, function, layer).  The layer is the module's name.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("flowtrace.spec_io", "parse_system", "spec_io"),
    ("flowtrace.flow_model", "validate", "flow_model"),
    ("flowtrace.flow_model", "enumerate_paths", "flow_model"),
    ("flowtrace.selection", "select_fic", "selection"),
    ("flowtrace.selection", "select_cec", "selection"),
    ("flowtrace.selection", "select_fc_baseline", "selection"),
    ("flowtrace.tracing_sim", "run_simulation", "tracing_sim"),
    ("flowtrace.coverage", "reconstruct", "coverage"),
    ("flowtrace.coverage", "score", "coverage"),
    ("flowtrace.experiment", "run_cell", "experiment"),
    ("flowtrace.experiment", "write_cell", "experiment"),
    ("flowtrace.experiment", "aggregate_cells", "experiment"),
    ("flowtrace.cli", "main", "cli"),
)
LAYERS: tuple[str, ...] = (
    "spec_io", "flow_model", "selection", "tracing_sim", "coverage", "experiment", "cli",
)
BENCH_LAYER = "bench"


def cell_file(cell) -> str:
    """The cell file a ``(method, capacity, seed)`` id is written to."""
    if cell is None:
        return "simulation outside a cell"
    method, capacity, seed = cell
    return f"{method.lower().replace(':', '')}_{capacity}_{seed}.json"


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "cell", "counts")

    def __init__(self, name: str, layer: str, parent: int | None, cell):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.cell = cell
        self.start = self.end = 0.0
        self.counts: dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "layer": self.layer,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "cell": list(self.cell) if self.cell else None,
            "counts": self.counts,
        }


def _count_simulation(tracer: "Tracer", span: Span, args, kwargs, result) -> None:
    span.counts = {
        "events": len(result.ground_truth),
        "cycles": result.cycles,
        "detected": sum(result.detected.values()),
        "observed": len(result.observed),
        "drops": result.total_drops,
        "residual": result.total_residual,
    }
    problems = result_conservation_problems(
        result.detected, result.drops, result.residual, (r.link for r in result.observed)
    )
    if problems:
        tracer.problems.setdefault(cell_file(span.cell), []).extend(problems)


def _count_reconstruct(tracer: "Tracer", span: Span, args, kwargs, result) -> None:
    observed = args[0] if args else kwargs["observed"]
    span.counts = {"records": len(observed), "instances": len(result)}


def _count_selection(tracer: "Tracer", span: Span, args, kwargs, result) -> None:
    span.counts = {"events": len(result.events), "links": len(result.links)}


HOOKS: dict[str, Callable] = {
    "run_simulation": _count_simulation,
    "reconstruct": _count_reconstruct,
    "select_fic": _count_selection,
    "select_cec": _count_selection,
    "select_fc_baseline": _count_selection,
}


class Tracer:
    """Records spans for calls into flowtrace while :meth:`patched` is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.problems: dict[str, list[str]] = {}  # cell file name -> problems
        self.roots: dict[str, int] = {}  # phase name -> its root span
        self._stack: list[int] = []
        self._cell = None

    def _open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, parent, self._cell))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """A root span for one phase of the benchmark (set-up or pipeline)."""
        index = self._open(name, BENCH_LAYER)
        self.roots[name] = index
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        hook = HOOKS.get(name)
        cell_of = inspect.signature(fn).bind if name == "run_cell" else None

        def wrapper(*args, **kwargs):
            outer_cell = self._cell
            if cell_of is not None:
                bound = cell_of(*args, **kwargs).arguments
                self._cell = (bound["method"], bound["capacity"], bound["seed"])
            index = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
                self._cell = outer_cell
            if hook is not None:
                hook(self, self.spans[index], args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def patched(self) -> Iterator[None]:
        """Replace every target in every loaded flowtrace module; restore on exit."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "flowtrace" or n.startswith("flowtrace."))
        ]
        undo: list[tuple[object, str, Callable]] = []
        try:
            for module_name, name, layer in TARGETS:
                original = getattr(sys.modules[module_name], name)
                wrapper = self._wrap(name, layer, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)
                        undo.append((module, name, original))
            yield
        finally:
            for module, name, original in reversed(undo):
                setattr(module, name, original)

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent is not None:
                own[span.parent] -= span.duration
        return own

    def root_of(self) -> list[int]:
        roots: list[int] = []
        for i, span in enumerate(self.spans):
            roots.append(i if span.parent is None else roots[span.parent])
        return roots


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``spec_io.parse_s`` is parse time in the set-up phase, the share of
    ``setup_s`` the program spends parsing.  Every other metric covers
    the pipeline phase.  The ``<layer>.self_s`` values plus
    ``unattributed_s`` (time in the pipeline span outside every recorded
    span) add up to ``traced_wall_s``.
    """
    setup_root, pipeline_root = tracer.roots["setup"], tracer.roots["pipeline"]
    spans = tracer.spans
    own = tracer.self_times()
    roots = tracer.root_of()
    pipe = [i for i in range(len(spans)) if roots[i] == pipeline_root and i != pipeline_root]

    def total(name: str, idx=pipe) -> float:
        return sum(spans[i].duration for i in idx if spans[i].name == name)

    def calls(*names: str) -> int:
        return sum(1 for i in pipe if spans[i].name in names)

    def count(key: str, *names: str) -> int:
        return sum(spans[i].counts.get(key, 0) for i in pipe if spans[i].name in names)

    def rate(numerator: float, seconds: float) -> float:
        return numerator / seconds if seconds > 0 else 0.0

    setup = [i for i in range(len(spans)) if roots[i] == setup_root]
    selectors = ("select_fic", "select_cec", "select_fc_baseline")
    sim_s = total("run_simulation")
    reconstruct_s = total("reconstruct")
    detected = count("detected", "run_simulation")
    observed = count("observed", "run_simulation")
    m: dict[str, float] = {
        "spec_io.parse_s": total("parse_system", setup),
        "flow_model.validate_s": total("validate"),
        "flow_model.paths_s": total("enumerate_paths"),
        "flow_model.paths_calls": calls("enumerate_paths"),
        "selection.fic_s": total("select_fic"),
        "selection.cec_s": total("select_cec"),
        "selection.fc_s": total("select_fc_baseline"),
        "selection.calls": calls(*selectors),
        "selection.events_selected": count("events", *selectors),
        "selection.links_selected": count("links", *selectors),
        "tracing_sim.run_s": sim_s,
        "tracing_sim.calls": calls("run_simulation"),
        "tracing_sim.events": count("events", "run_simulation"),
        "tracing_sim.events_per_s": rate(count("events", "run_simulation"), sim_s),
        "tracing_sim.cycles": count("cycles", "run_simulation"),
        "tracing_sim.detected": detected,
        "tracing_sim.observed": observed,
        "tracing_sim.drops": count("drops", "run_simulation"),
        "tracing_sim.residual": count("residual", "run_simulation"),
        "tracing_sim.delivery_ratio": observed / detected if detected else 0.0,
        "coverage.reconstruct_s": reconstruct_s,
        "coverage.records_per_s": rate(count("records", "reconstruct"), reconstruct_s),
        "coverage.instances": count("instances", "reconstruct"),
        "coverage.score_s": total("score"),
        "experiment.run_cell_self_s": sum(own[i] for i in pipe if spans[i].name == "run_cell"),
        "experiment.cells": calls("run_cell"),
        "experiment.write_s": total("write_cell"),
        "experiment.aggregate_s": total("aggregate_cells"),
        "traced_wall_s": spans[pipeline_root].duration,
        "unattributed_s": own[pipeline_root],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[i] for i in pipe if spans[i].layer == layer)
    return m
