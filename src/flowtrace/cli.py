"""Command-line front end.

Subcommands:

* ``validate <spec>``      parse a spec file and report findings
* ``paths <spec> <flow>``  print every execution path of one flow
* ``select <spec>``        compute an event selection (fic / cec / fc)
* ``simulate <spec>``      run one simulation and export traces
* ``run <plan.json>``      run an experiment grid, emit cell JSON + table
* ``compare <plan.json>``  the same grid over all four selection methods

Exit codes: 0 on success, 1 for validation or selection findings, 2 for
a malformed spec, and I/O and configuration errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from .coverage import InconsistentTrace, score_result
from .experiment import (
    COMPARE_METHODS,
    _cell_config,
    _run_grid,
    aggregate_cells,
    build_selection,
    format_table,
    load_plan,
    load_spec_source,
    parse_scope,
    rows_csv,
)
from .flow_model import DEFAULT_PATH_BOUND, Event, PathExplosion, enumerate_paths
from .selection import Selection
from .spec_io import SpecSemanticError, SpecSyntaxError
from .tracing_sim import (
    ConfigError,
    Livelock,
    ObservabilityConfig,
    WorkloadConfig,
    _refuse_certain_livelock,
    queue_capacities,
    records_csv,
    replay_trace,
    run_workload,
    summary_json,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_IO = 2


def cmd_validate(args: argparse.Namespace) -> int:
    spec = load_spec_source(args.spec)
    print(
        f"{spec.name}: {len(spec.flows)} flows, "
        f"{len(spec.topology.links)} links, "
        f"{len(spec.topology.components)} components: ok"
    )
    return EXIT_OK


def cmd_paths(args: argparse.Namespace) -> int:
    if args.max_paths < 1:
        raise ValueError(f"--max-paths must be positive, got {args.max_paths}")
    spec = load_spec_source(args.spec)
    flow = spec.flow_by_id.get(args.flow_id)
    if flow is None:
        raise ValueError(f"no flow {args.flow_id!r} in {spec.name}")
    for path in enumerate_paths(flow, max_paths=args.max_paths):
        print(",".join(path))
    return EXIT_OK


def _selection_json(spec, selection: Selection, obs: ObservabilityConfig) -> dict:
    capacities = queue_capacities(spec, obs)
    return {
        "events": [
            {
                "src": e.src,
                "dest": e.dest,
                "cmd": e.cmd,
                "link": spec.topology.event_link_map[e],
                "reason": selection.rationale.get(e, "ALL"),
            }
            for e in sorted(selection.events)
        ],
        "links": sorted(capacities),
        "undistinguishable": [
            {"flow": fid, "paths": [list(a), list(b)]}
            for fid, a, b in selection.undistinguishable
        ],
        "observability": {
            "queue_capacity": dict(sorted(capacities.items())),
            "port_bandwidth": obs.port_bandwidth,
        },
    }


def cmd_select(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise ValueError(f"--k must be positive, got {args.k}")
    spec = load_spec_source(args.spec)
    method = args.metric if args.metric != "fc" else f"fc:{args.k}"
    scope = parse_scope(args.scope)
    # Reject a capacity or bandwidth below 1 before the selector sees it.
    ObservabilityConfig(frozenset(), args.capacity, args.port_bandwidth)
    selection = build_selection(spec, scope, method, args.capacity)
    obs = ObservabilityConfig(selection.events, args.capacity, args.port_bandwidth)
    body = _selection_json(spec, selection, obs)
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out} ({len(selection.events)} events on {len(body['links'])} links)")
    else:
        print(text, end="")
    if selection.undistinguishable:
        print(
            f"warning: {len(selection.undistinguishable)} path pair(s) share "
            "identical label sequences and stay undistinguishable",
            file=sys.stderr,
        )
        return EXIT_FINDINGS
    return EXIT_OK


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"JSON object repeats key {max(keys, key=keys.count)!r}")
    return obj


def _read_json(path: str):
    """A JSON file's value, rejecting an object that repeats a key, of
    which ``json`` alone would keep the last value without a word."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None
    except ValueError as exc:  # not UTF-8, not JSON, a repeated key or too many digits
        raise ValueError(f"{path}: {exc}") from None


def _naming(where: str, build: Callable, *args, errors=ValueError):
    """``build(*args)``, with ``<where>: `` before the text of an error of
    type ``errors`` it raises, raised again as a ValueError."""
    try:
        return build(*args)
    except errors as exc:
        raise ValueError(f"{where}: {exc}") from None


def _events_from_selection_file(path: str, spec) -> frozenset[Event]:
    body = _read_json(path)
    if not isinstance(body, dict) or "events" not in body:
        raise ValueError(
            f"{path}: a selection must be a JSON object with an \"events\" key, got {body!r}"
        )
    items = body["events"]
    if not isinstance(items, list):
        raise ValueError(f"{path}: \"events\" must be a JSON array of events")
    fields = ("src", "dest", "cmd")
    for item in items:
        if not (isinstance(item, dict) and all(isinstance(item.get(f), str) for f in fields)):
            raise ValueError(f"{path}: selected event {item!r} needs string src, dest and cmd")
    # ``Event`` refuses an empty field, or a source that is its destination.
    events = _naming(path, lambda: frozenset(Event(*(item[f] for f in fields)) for item in items))
    if unknown := events - spec.all_events:
        raise ValueError(f"{path}: selected event {min(unknown)} is not part of any flow")
    return events


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = load_spec_source(args.spec)
    if args.selection:
        events = _events_from_selection_file(args.selection, spec)
    else:
        events = spec.all_events
    obs = ObservabilityConfig(events, args.capacity, args.port_bandwidth)
    workload = WorkloadConfig(instances_per_initiator=args.instances, seed=args.seed)
    truth = run_workload(spec, workload)
    result = replay_trace(truth, obs, drain=not args.no_drain)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "ground_truth.csv").write_text(
        records_csv(result.ground_truth, include_transition=True), encoding="utf-8"
    )
    (out_dir / "observed.csv").write_text(
        records_csv(result.observed), encoding="utf-8"
    )

    report = score_result(result, spec, truth.flow_instances)
    summary = summary_json(result)
    summary["total_drops"] = result.total_drops
    summary["total_residual"] = result.total_residual
    summary["coverage"] = report.to_json()
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(report.format_table())
    print(
        f"events: {len(result.ground_truth)} emitted, "
        f"{len(result.observed)} observed, {result.total_drops} dropped, "
        f"{result.total_residual} residual over {result.cycles} cycles"
    )
    print(f"wrote {out_dir}/ground_truth.csv observed.csv summary.json")
    return EXIT_OK


def cmd_grid(args: argparse.Namespace) -> int:
    """``run`` (the plan's selection method) and ``compare`` (all four)."""
    plan = _naming(args.plan, load_plan, _read_json(args.plan))
    spec = _naming(f"{args.plan}: plan key 'spec'", load_spec_source, plan.spec_source,
                   errors=OSError)
    _naming(args.plan, _refuse_certain_livelock, spec, plan.transition_latency[0])
    compare = args.command == "compare"
    methods = COMPARE_METHODS if compare else (plan.selection_method,)
    # Setting up the cells checks the plan's scope and selections against its spec.
    cells = _naming(args.plan, lambda: [
        _cell_config(spec, plan, method, capacity)
        for method in methods for capacity in plan.capacities
    ])
    out_dir = Path(plan.out_dir)
    table = "comparison.csv" if compare else "summary.csv"

    def write() -> tuple[list[Path], list[dict]]:
        # Every file the grid writes or reads is under ``out_dir``.
        paths = _run_grid(spec, plan, cells)
        rows = aggregate_cells(paths)
        (out_dir / table).write_text(rows_csv(rows), encoding="utf-8")
        return paths, rows

    paths, rows = _naming(f"{args.plan}: plan key 'out_dir'", write, errors=OSError)
    print(format_table(rows, methods))
    print(f"wrote {len(paths)} cell files and {table} to {out_dir}/")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    workload, obs = WorkloadConfig._field_defaults, ObservabilityConfig._field_defaults
    parser = argparse.ArgumentParser(
        prog="flowtrace",
        description="Flow observability modeling, simulation and selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse and validate a spec file")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("paths", help="print the execution paths of a flow")
    p.add_argument("spec")
    p.add_argument("flow_id")
    p.add_argument("--max-paths", type=int, default=DEFAULT_PATH_BOUND)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser("select", help="compute an event selection")
    p.add_argument("spec")
    p.add_argument("--metric", choices=("fic", "cec", "fc"), required=True)
    p.add_argument("--k", type=int, default=16, help="event count for --metric fc")
    p.add_argument("--scope", help="comma-separated initiator list")
    p.add_argument("--capacity", type=int, default=8, help="base queue capacity")
    p.add_argument("--port-bandwidth", type=int, default=obs["port_bandwidth"])
    p.add_argument("--out", help="write the selection JSON here")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="run one simulation")
    p.add_argument("spec")
    p.add_argument("--selection", help="selection JSON from 'select'")
    p.add_argument("--capacity", type=int, default=8)
    p.add_argument("--seed", type=int, default=workload["seed"])
    p.add_argument("--instances", type=int, default=workload["instances_per_initiator"])
    p.add_argument("--port-bandwidth", type=int, default=obs["port_bandwidth"])
    p.add_argument("--no-drain", action="store_true")
    p.add_argument("--out-dir", default="sim_out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("run", help="run an experiment plan")
    p.add_argument("plan")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("compare", help="compare selection methods")
    p.add_argument("plan")
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecSyntaxError, SpecSemanticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FINDINGS if getattr(exc, "findings", False) else EXIT_IO
    except (OSError, ConfigError, InconsistentTrace, Livelock, PathExplosion, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
