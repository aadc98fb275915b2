"""Experiment grid: selection x capacity x seed cells, with aggregation.

A plan names a spec, an observation scope, a selection method, a list of
base queue capacities and a seed list.  Each cell replays its seed's
workload through its trace hardware (an :class:`ObservabilityConfig` of
its selected events and base capacity), scores what was observed as
:func:`coverage.score_result` does, and is written to its own JSON file,
with no timestamps and key-sorted dictionaries, so re-runs are
byte-identical.  Aggregate tables are recomputed purely from the cells.

The grid selects events once per (method, capacity) and runs each seed's
workload once, as a stream of record chunks that every cell of the seed
replays and scores as they come; no process holds a whole ground truth.
With more than one usable CPU and seed, the seeds are split into lanes:
the process runs the first lane itself and a forked child runs each
other lane, each up to its first failing seed.  Only the parent writes
cells, in seed order, and it runs each seed that no lane finished when
its turn comes, so the cells, tables and errors do not depend on the
number of lanes.
"""

from __future__ import annotations

import json
import os
import re
import reprlib
import statistics
import threading
from collections import deque
from pathlib import Path
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar

from .coverage import _Tally, score_result
from .selection import (
    Selection,
    SelectionProblem,
    select_cec,
    select_fc_baseline,
    select_fic,
)
from .spec_io import SpecSemanticError, SpecSyntaxError, SystemSpec, load_prototype, parse_system
from .tracing_sim import (
    ObservabilityConfig,
    WorkloadConfig,
    _is_int,
    _is_list,
    _stream_workload,
    _trace_module,
    run_simulation,
    summary_json,
)

__all__ = [
    "COMPARE_METHODS",
    "DEFAULT_SEEDS",
    "ExperimentPlan",
    "aggregate_cells",
    "build_selection",
    "format_table",
    "load_plan",
    "load_spec_source",
    "rows_csv",
    "run_cell",
    "write_cell",
]

DEFAULT_SEEDS: tuple[int, ...] = tuple(range(1, 11))
COMPARE_METHODS: tuple[str, ...] = ("none", "fic", "cec", "fc:16")


class _PlanFields(NamedTuple):
    spec_source: str = "prototype"
    scope: tuple[str, ...] | None = None  # initiator subset; None means ALL
    selection_method: str = "none"  # none | fic | cec | fc:<k>
    capacities: tuple[int, ...] = (8,)
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    instances_per_initiator: int = WorkloadConfig._field_defaults["instances_per_initiator"]
    initiation_delay: tuple[int, int] = WorkloadConfig._field_defaults["initiation_delay"]
    transition_latency: tuple[int, int] = WorkloadConfig._field_defaults["transition_latency"]
    port_bandwidth: int = ObservabilityConfig._field_defaults["port_bandwidth"]
    drain: bool = True
    out_dir: str = "results"


class ExperimentPlan(_PlanFields):
    """One experiment grid over (selection method, capacity, seed).

    Built in Python or by :func:`load_plan`, it checks every field by its
    plan key's rule (``_PLAN_KEYS``) and each seed's :class:`WorkloadConfig`,
    raising :class:`ValueError` that names the key.  Lists are stored as
    tuples, so the plan equals and hashes like its plain field tuple."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ExperimentPlan:
        self = super().__new__(cls, *args, **kwargs)
        for key, (ok, expected) in _PLAN_KEYS.items():
            value = getattr(self, _PLAN_FIELDS.get(key, key))
            if not ok(value):
                raise ValueError(f"plan key {key!r} must be {expected}, got {value!r}")
        scope = parse_scope(self.scope)
        if self.port_bandwidth < 1:
            raise ValueError(f"port_bandwidth must be positive, got {self.port_bandwidth}")
        for key, noun in (("capacities", "capacity"), ("seeds", "seed")):
            if not (values := getattr(self, key)):
                raise ValueError(f"plan needs at least one {noun}")
            if len(set(values)) != len(values):
                raise ValueError(f"plan key {key!r} repeats a value: {list(values)}")
        _parse_method(self.selection_method)
        for seed in self.seeds:  # each seed's workload is valid before any cell
            self.workload(seed)
        lists = {k: tuple(v) for k, v in self._asdict().items() if isinstance(v, list)}
        return self._replace(**{**lists, "scope": scope})

    def workload(self, seed: int) -> WorkloadConfig:
        return WorkloadConfig(
            self.instances_per_initiator, self.initiation_delay, self.transition_latency, seed
        )


def _parse_method(method: str) -> tuple[str, int | None]:
    """``(kind, k)`` of a selection method, one of the lower-case forms
    ``none``, ``fic``, ``cec`` and ``fc:<k>``; ``k`` is set only for
    ``fc:<k>``."""
    if method in ("none", "fic", "cec"):
        return method, None
    kind, _, k = method.partition(":")
    # At most 18 significant digits: ``int`` refuses a string of over 4300,
    # and no scope has 10**18 events.  A long value is quoted shortened.
    if kind == "fc" and (digits := re.fullmatch("0*([1-9][0-9]{0,17})", k)):
        return "fc", int(digits[1])
    raise ValueError(
        f"selection {reprlib.repr(method)} is not none, fic, cec or fc:<k> "
        "with an integer 1 <= k < 10**18"
    )


def method_label(method: str) -> str:
    kind, k = _parse_method(method)
    return f"fc{k}" if kind == "fc" else kind


def _is_str(value) -> bool:
    return isinstance(value, str)


# Every plan key but "workload": (type check, what the value must be).
_PLAN_KEYS = {
    "spec": (_is_str, "a string"),
    "scope": (
        lambda v: v is None or _is_str(v) or _is_list(v, _is_str),
        "a string or a list of strings",
    ),
    "selection": (_is_str, "a string"),
    "capacities": (
        lambda v: _is_list(v, lambda c: _is_int(c) and c >= 1),
        "a list of positive integers",
    ),
    "seeds": (lambda v: _is_list(v, _is_int), "a list of integers"),
    "port_bandwidth": (_is_int, "an integer"),
    "drain": (lambda v: isinstance(v, bool), "true or false"),
    "out_dir": (_is_str, "a string"),
}
# Plan keys whose ExperimentPlan field has another name.
_PLAN_FIELDS = {"spec": "spec_source", "selection": "selection_method"}
# The keys of a plan's "workload" object, checked by WorkloadConfig.
_WORKLOAD_KEYS = ("instances_per_initiator", "initiation_delay", "transition_latency")


def _json_object(data, where: str, keys: Sequence[str]) -> dict:
    """``data`` without its null values, which mean "use the default";
    raises :class:`ValueError` if it is not an object or has a key not in
    ``keys``, naming the first such key."""
    if not isinstance(data, Mapping):
        raise ValueError(f"{where} must be a JSON object, got {data!r}")
    for key in data:
        if key not in keys:
            raise ValueError(f"{where} has unknown key {key!r}; accepted: {', '.join(keys)}")
    return {key: value for key, value in data.items() if value is not None}


def load_plan(data: Mapping) -> ExperimentPlan:
    """Build a plan from parsed JSON.  Only the keys the plan sets reach
    :class:`ExperimentPlan`, so the others take its defaults; the plan and
    its workload check the values."""
    data = _json_object(data, "plan", (*_PLAN_KEYS, "workload"))
    data.update(_json_object(data.pop("workload", {}), "plan 'workload'", _WORKLOAD_KEYS))
    return ExperimentPlan(**{_PLAN_FIELDS.get(key, key): value for key, value in data.items()})


def load_spec_source(source: str) -> SystemSpec:
    if source == "prototype":
        return load_prototype()
    try:
        return parse_system(Path(source).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ValueError(f"{source}: {exc}") from None
    except (SpecSyntaxError, SpecSemanticError) as exc:
        exc.args = (f"{source}: {exc}",)  # the exit code still reads ``findings``
        raise


def parse_scope(scope: str | Sequence[str] | None) -> tuple[str, ...] | None:
    """The distinct initiators a plan's ``scope`` or ``select --scope``
    names: ``None`` (every initiator) for null, ``"ALL"`` or ``"all"``; a
    string is a comma-separated list."""
    if scope is None or scope in ("ALL", "all"):
        return None
    names = tuple(scope.split(",") if isinstance(scope, str) else scope)
    if not names:
        raise ValueError("scope must name at least one initiator")
    if "" in names:
        raise ValueError(f"scope {scope!r} names an empty initiator")
    if len(set(names)) < len(names):
        raise ValueError(f"scope repeats initiator {max(names, key=names.count)!r}")
    return names


def scoped_flows(spec: SystemSpec, scope: tuple[str, ...] | None):
    if scope is None:
        return spec.flows
    if unknown := set(scope).difference(c for c, _ in spec.initiators):
        raise ValueError(f"unknown initiators in scope: {sorted(unknown)}")
    ids = set().union(*(fids for c, fids in spec.initiators if c in scope))
    return tuple(f for f in spec.flows if f.id in ids)


def build_selection(
    spec: SystemSpec,
    scope: tuple[str, ...] | None,
    method: str,
    base_capacity: int,
) -> Selection:
    """Resolve a method name into its selection for a scope; ``none``
    selects every event of the scope's flows, with no rationale."""
    flows = scoped_flows(spec, scope)
    events = frozenset().union(*(f.events for f in flows))
    kind, k = _parse_method(method)
    if kind == "none":
        elmap = spec.topology.event_link_map
        return Selection(events, frozenset(elmap[e] for e in events))
    if not flows:
        raise ValueError(f"spec {spec.name!r} has no flows to select events from")
    problem = SelectionProblem(
        flows,
        spec.topology.event_link_map,
        base_capacity * len(spec.topology.links),
    )
    if kind == "fic":
        return select_fic(problem)
    if kind == "cec":
        return select_cec(problem)
    if k > len(events):
        raise ValueError(
            f"selection {method!r} needs {k} distinct events, "
            f"but the scope has {len(events)}"
        )
    return select_fc_baseline(problem, k)


# One (method, capacity) column of the grid: its selection and trace hardware.
_CellConfig = tuple[str, int, Selection, ObservabilityConfig]


def _cell_config(
    spec: SystemSpec, plan: ExperimentPlan, method: str, capacity: int
) -> _CellConfig:
    selection = build_selection(spec, plan.scope, method, capacity)
    obs = ObservabilityConfig(selection.events, capacity, plan.port_bandwidth)
    return method, capacity, selection, obs


def _seed_bodies(
    spec: SystemSpec, plan: ExperimentPlan, cells: Sequence[_CellConfig], seed: int
) -> list[dict]:
    """Every cell's body for one seed, whose workload streams once through each
    cell's trace module and tally.  With ``drain`` a finished tag is folded at
    once, without at the end; a tag matching no path raises its cell's error."""
    runs = []
    for cell in cells:
        replay = _trace_module(spec, cell[3], plan.drain, deque(maxlen=0))  # keeps no record
        next(replay)
        runs.append((cell, replay, _Tally(spec)))
    records = 0
    # Each ``settled`` list and each chunk is emptied once read, so that no
    # reference to a chunk's records outlives it while the engine builds the
    # next: the engine and each trace module only rebind theirs.
    for chunk, finished, end in _stream_workload(spec, plan.workload(seed)):
        records += len(chunk)
        for _, replay, tally in runs:
            tally.read(settled := replay.send(chunk))
            settled.clear()
            if plan.drain:
                tally.fold(finished)
        chunk.clear()
    cycles, executed = end  # a flow not run counts zero
    totals = {f.id: executed.get(f.id, 0) for f in scoped_flows(spec, plan.scope)}
    bodies = []
    for (method, capacity, selection, obs), replay, tally in runs:
        result, settled = replay.send(cycles)
        if (report := tally.read(settled).report(totals, result.exact)) is None:
            # A tag matches no path: scoring the cell whole raises its error.
            whole = run_simulation(spec, plan.workload(seed), obs, drain=plan.drain)
            report = score_result(whole, spec, totals)
        bodies.append({
            "method": method_label(method),
            "capacity": capacity,
            "seed": seed,
            "scope": sorted(plan.scope) if plan.scope else "ALL",
            "links": sorted(result.enabled_links),
            "link_count": len(result.enabled_links),
            "selected_events": sorted(str(e) for e in result.selected_events),
            "rationale": {str(e): r for e, r in sorted(selection.rationale.items())},
            "coverage": report.to_json(),
            "lossless": result.lossless,
            **summary_json(result),
            "ground_truth_events": records,  # the streamed result holds no records
        })
    return bodies


def run_cell(
    spec: SystemSpec,
    plan: ExperimentPlan,
    method: str,
    capacity: int,
    seed: int,
) -> dict:
    """Run one (method, capacity, seed) cell and return its JSON body."""
    return _seed_bodies(spec, plan, [_cell_config(spec, plan, method, capacity)], seed)[0]


def write_cell(out_dir: Path, body: dict) -> Path:
    """Write a cell to ``<method>_<capacity>_<seed>.json``, where the
    method is its label (``fc16`` for the method ``fc:16``)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{body['method']}_{body['capacity']}_{body['seed']}.json"
    path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_T = TypeVar("_T")


def _in_lanes(run: Callable[[int], _T], seeds: Sequence[int]) -> dict[int, _T]:
    """``run(seed)`` of each seed the lanes finished.  Lane ``k`` of ``n``
    runs ``seeds[k::n]`` in order and stops at its first seed that raises.
    The parent runs lane 0 and a forked child each other lane, sending
    back one pickle; a child that could not fork, failed or died delivers
    nothing.  With one lane nothing runs here: ``{}``."""
    # One lane per usable CPU and seed.  On a 2-CPU x86_64 host a fork,
    # pipe and reap took 1.4-1.9 ms, while a spawned worker that imports
    # the package took 110-115 ms, more than a whole 2-seed compare.  A
    # process with a second thread alive runs one lane: its child could
    # inherit a lock that thread holds.
    one_lane = not hasattr(os, "fork") or threading.active_count() > 1
    lanes = 1 if one_lane else min(_usable_cpus(), len(seeds))
    if lanes == 1:
        return {}
    import pickle  # here, so one-lane grids and other commands skip its import

    def lane(k: int) -> dict[int, _T]:
        done = {}
        for seed in seeds[k::lanes]:
            try:
                done[seed] = run(seed)
            except Exception:
                break
        return done

    children, done = [], {}
    try:
        for k in range(1, lanes):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no room for another process: the parent runs these seeds
                os.close(read_end)
                os.close(write_end)
                continue
            if pid == 0:
                status = 1
                try:
                    with open(write_end, "wb") as pipe:
                        pickle.dump(lane(k), pipe)
                    status = 0
                finally:
                    os._exit(status)  # never return into the parent's call stack
            os.close(write_end)
            children.append((pid, read_end))
        done = lane(0)
    finally:  # read every child's pipe to EOF and reap it, even if lane 0 raised
        for pid, read_end in children:
            with open(read_end, "rb") as pipe:
                data = pipe.read()
            if os.waitpid(pid, 0)[1] == 0:
                done.update(pickle.loads(data))
    return done


def _run_grid(
    spec: SystemSpec, plan: ExperimentPlan, methods: Sequence[str]
) -> list[Path]:
    """Write every (method, plan capacity, seed) cell, running each seed's
    workload once; returns the cell files grouped by (method, capacity)."""
    cells = [
        _cell_config(spec, plan, method, capacity)
        for method in methods
        for capacity in plan.capacities
    ]
    done = _in_lanes(lambda seed: _seed_bodies(spec, plan, cells, seed), plan.seeds)
    # Only the parent writes, in seed order, and runs a seed that no lane
    # finished: the error is the first failing seed's, raised after the
    # cells of every earlier seed are written, whatever the lanes.
    out_dir = Path(plan.out_dir)
    written: list[list[Path]] = [[] for _ in cells]
    for seed in plan.seeds:
        bodies = done.pop(seed) if seed in done else _seed_bodies(spec, plan, cells, seed)
        for body, paths in zip(bodies, written):
            paths.append(write_cell(out_dir, body))
    return [path for paths in written for path in paths]


def _ratio_cell(numerator: float, denominator: int) -> str:
    """Render one ``A/B (r)`` table cell."""
    ratio = numerator / denominator if denominator else 0.0
    return f"{numerator:.15g}/{denominator} ({ratio:.3g})"


def aggregate_cells(paths: Iterable[Path | str]) -> list[dict]:
    """Median-over-seeds rows grouped by (method, capacity).

    The instance total is the upper median of the cells' totals, which
    differ by seed when a scoped flow is also started by an initiator
    outside the scope; the median observed and complete counts never
    exceed it, so FIC and CEC stay at most 1.

    A pure function of the cell files, so tables can be recomputed
    offline from previously written results.
    """
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in paths:
        body = json.loads(Path(path).read_text(encoding="utf-8"))
        groups.setdefault((body["method"], body["capacity"]), []).append(body)
    rows = []
    for (method, capacity), cells in sorted(groups.items()):
        total = statistics.median_high(c["coverage"]["total"] for c in cells)
        observed = statistics.median(c["coverage"]["observed"] for c in cells)
        complete = statistics.median(c["coverage"]["complete"] for c in cells)
        links = max(c["link_count"] for c in cells)
        rows.append(
            {
                "method": method,
                "capacity": capacity,
                "links": links,
                "seeds": len(cells),
                "total": total,
                "observed_median": observed,
                "complete_median": complete,
                "fic": observed / total if total else 0.0,
                "cec": complete / total if total else 0.0,
                "fic_cell": _ratio_cell(observed, total),
                "cec_cell": _ratio_cell(complete, total),
            }
        )
    return rows


def format_table(rows: Sequence[dict], methods: Sequence[str]) -> str:
    """The aggregate rows in the order of ``methods``, then by capacity."""
    order = {method_label(m): i for i, m in enumerate(methods)}
    rows = sorted(rows, key=lambda r: (order[r["method"]], r["capacity"]))
    header = f"{'method':<8} {'cap':>4} {'links':>5} {'FIC':>18} {'CEC':>18}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['method']:<8} {row['capacity']:>4} {row['links']:>5} "
            f"{row['fic_cell']:>18} {row['cec_cell']:>18}"
        )
    return "\n".join(lines)


def rows_csv(rows: Sequence[dict]) -> str:
    cols = [
        "method",
        "capacity",
        "links",
        "seeds",
        "total",
        "observed_median",
        "complete_median",
        "fic",
        "cec",
    ]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"
