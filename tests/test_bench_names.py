"""The flowtrace names that the benchmark harness in ``bench/`` calls.

The harness's own tests (``bench/tests``) run apart from this suite, so
these checks make a renamed or deleted function that the harness wraps
or calls fail here too.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

from flowtrace.selection import SelectionProblem

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
