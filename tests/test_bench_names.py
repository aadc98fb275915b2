"""The flowtrace names that the benchmark harness in ``bench/`` calls.

The harness's own tests (``bench/tests``) run apart from this suite, so
these checks make a renamed or deleted function that the harness wraps
or calls fail here too, and so does a renamed parameter or result field
that it reads.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import sys
from pathlib import Path

from flowtrace import cli, coverage, experiment, flow_model, selection, spec_io
from flowtrace.coverage import reconstruct
from flowtrace.experiment import run_cell
from flowtrace.selection import SelectionProblem
from flowtrace.tracing_sim import SimulationResult

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def traced_targets() -> tuple[tuple[str, str, str], ...]:
    """``TARGETS`` of ``bench/tracer.py``, read without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", "") == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no annotated TARGETS")


def test_every_traced_function_exists_in_flowtrace():
    targets = traced_targets()
    assert targets
    for module_name, function, _layer in targets:
        module = importlib.import_module(module_name)
        assert module_name.startswith("flowtrace."), module_name
        assert inspect.isfunction(getattr(module, function, None)), (module_name, function)


def test_selection_problem_takes_three_positional_arguments():
    # bench/workloads.py builds the select-soc problem this way.
    inspect.signature(SelectionProblem).bind("flows", "event_link_map", "budget")


WORKLOADS = TRACER.with_name("workloads.py")


def harness_reads(path: Path) -> set[tuple[str, str]]:
    """``(module, name)`` for every ``ft.<module>.<name>`` in ``path``,
    counting a local alias such as ``fm, sel = ft.flow_model, ft.selection``."""

    def module_of(node) -> str | None:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "ft"
        ):
            return node.attr
        return None

    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = [(target, value)]
            if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
                pairs = list(zip(target.elts, value.elts))
            for name, source in pairs:
                if isinstance(name, ast.Name) and module_of(source):
                    aliases[name.id] = module_of(source)
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        module = module_of(node.value)
        if module is None and isinstance(node.value, ast.Name):
            module = aliases.get(node.value.id)
        if module is not None:
            reads.add((module, node.attr))
    return reads


def test_every_name_the_workloads_read_exists_in_flowtrace():
    reads = harness_reads(WORKLOADS)
    for module, name in [
        ("spec_io", "parse_system"),
        ("flow_model", "validate"),
        ("flow_model", "enumerate_paths"),
        ("flow_model", "start_events"),
        ("flow_model", "end_events"),
        ("selection", "guaranteed_events"),
        ("experiment", "load_plan"),
        ("experiment", "load_spec_source"),
        ("cli", "main"),
    ]:
        assert (module, name) in reads, (module, name)
    for module, name in reads:
        assert hasattr(importlib.import_module(f"flowtrace.{module}"), name), (module, name)


def test_the_workloads_calls_bind_and_return_what_they_read():
    # The arguments bench/workloads.py passes, by position.
    for function, args in [
        (spec_io.parse_system, ("text",)),
        (flow_model.validate, ("flow",)),
        (flow_model.enumerate_paths, ("flow",)),
        (flow_model.start_events, ("flow",)),
        (flow_model.end_events, ("flow",)),
        (selection.guaranteed_events, ("flow",)),
        (experiment.load_plan, ("data",)),
        (experiment.load_spec_source, ("source",)),
        (cli.main, (["run", "plan.json"],)),
    ]:
        inspect.signature(function).bind(*args)
    plan = experiment.load_plan({"seeds": [1]})
    spec = experiment.load_spec_source(plan.spec_source)
    report = flow_model.validate(spec.flows[0])
    assert report.ok is True and str(report) == f"flow {spec.flows[0].id}: ok"


def function_node(tree: ast.Module, name: str) -> ast.FunctionDef:
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return node
    raise AssertionError(f"{TRACER} defines no {name}")


def string_subscripts(node: ast.AST, of: str) -> set[str]:
    """Every ``<of>["key"]`` key under ``node``."""
    return {
        sub.slice.value
        for sub in ast.walk(node)
        if isinstance(sub, ast.Subscript)
        and isinstance(sub.value, ast.Name)
        and sub.value.id == of
        and isinstance(sub.slice, ast.Constant)
    }


def test_the_tracer_hooks_read_existing_parameters_and_fields():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    # run_cell's cell id is bound by parameter name.
    cell_keys = string_subscripts(function_node(tree, "_wrap"), "bound")
    assert cell_keys == {"method", "capacity", "seed"}
    assert cell_keys <= set(inspect.signature(run_cell).parameters)
    # reconstruct's records are its first argument or its keyword.
    (keyword,) = string_subscripts(function_node(tree, "_count_reconstruct"), "kwargs")
    assert keyword == "observed"
    assert next(iter(inspect.signature(reconstruct).parameters)) == keyword
    # run_simulation's result is read by attribute.
    read = {
        node.attr
        for node in ast.walk(function_node(tree, "_count_simulation"))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "result"
    }
    assert read == {
        "ground_truth", "cycles", "detected", "drops", "residual",
        "observed", "total_drops", "total_residual",
    }
    fields = {f.name for f in dataclasses.fields(SimulationResult)}
    for name in read:
        assert name in fields or isinstance(
            getattr(SimulationResult, name, None), property
        ), name


def test_every_scored_cell_goes_through_the_traced_score(tmp_path, monkeypatch):
    """The harness times scoring by replacing ``coverage.score`` in every
    flowtrace module that holds it: ``compare`` calls it once per cell and
    ``simulate`` once."""
    original = coverage.score
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "flowtrace" and getattr(module, "score", None) is original:
            monkeypatch.setattr(module, "score", counting)
    plan = tmp_path / "plan.json"
    body = {
        "seeds": [1],
        "capacities": [8, 32],
        "workload": {"instances_per_initiator": 5},
        "out_dir": str(tmp_path / "grid"),
    }
    plan.write_text(json.dumps(body), encoding="utf-8")
    assert cli.main(["compare", str(plan)]) == 0
    assert len(calls) == 2 * len(experiment.COMPARE_METHODS)
    calls.clear()
    out = tmp_path / "sim"
    assert cli.main(["simulate", "prototype", "--instances", "5", "--out-dir", str(out)]) == 0
    assert len(calls) == 1
