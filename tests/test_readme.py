"""The README's Python API examples, run as written."""

from __future__ import annotations

import json
import re
from pathlib import Path

import flowtrace
from flowtrace import run_simulation
from flowtrace.cli import build_parser
from flowtrace.experiment import _PLAN_KEYS, _WORKLOAD_KEYS, ExperimentPlan, load_plan
from flowtrace.spec_io import SpecSemanticError, parse_system

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_blocks_run_in_one_namespace(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"<README.md python block {i}>", "exec"), namespace)
    assert "ALL" in capsys.readouterr().out  # the coverage table was printed
    spec, obs = namespace["spec"], namespace["obs"]
    assert namespace["result"] == run_simulation(spec, namespace["WorkloadConfig"](seed=1), obs)


def test_top_level_exports_exactly_the_python_api_names():
    """The README's ``from flowtrace import`` list is the whole top level."""
    text = README.read_text(encoding="utf-8")
    (imported,) = re.findall(r"from flowtrace import \((.*?)\)", text, re.S)
    names = sorted({name.strip() for name in imported.split(",")} - {""})
    assert names == sorted(flowtrace.__all__)


def _subparsers(parser):
    (action,) = [a for a in parser._actions if a.choices and a.dest == "command"]
    return action.choices


def test_command_line_block_names_exactly_the_parser_flags():
    """Every ``--flag`` of the README's usage block, per subcommand, is a
    flag of ``build_parser``, and every parser flag is in the block."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```\n", 2)[1]
    documented: dict[str, set[str]] = {}
    for line in block.splitlines():
        if line.startswith("flowtrace "):
            command = line.split()[1]
        flags = re.findall(r"--[a-z][a-z-]*", line.split("#", 1)[0])
        documented.setdefault(command, set()).update(flags)
    parsed = {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")}
        - {"--help"}
        for name, sub in _subparsers(build_parser()).items()
    }
    assert documented == parsed


def test_plan_table_names_exactly_the_plan_keys_and_their_defaults():
    """Every key of the README's plan table is a key ``load_plan``
    accepts, every accepted key is in the table, and each documented
    default, loaded, gives the default ``ExperimentPlan``."""
    text = README.read_text(encoding="utf-8")
    section = text.split("### Experiment plans", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `([a-z_.]+)` \|.*\| `(.*)` \|$", section, re.M)
    accepted = [*_PLAN_KEYS, "workload", *(f"workload.{key}" for key in _WORKLOAD_KEYS)]
    assert sorted(key for key, _ in rows) == sorted(accepted)
    for key, default in rows:
        outer, _, inner = key.partition(".")
        value = json.loads(default)
        plan = load_plan({outer: {inner: value}} if inner else {key: value})
        assert plan == ExperimentPlan(), key


def test_spec_sketch_lines_parse():
    """Each line of the README's spec sketch but ``...`` is read without
    a syntax error inside a minimal document: after a ``system`` header,
    and in a flow block if it is indented."""
    text = README.read_text(encoding="utf-8")
    sketch = text.split("## Spec format", 1)[1].split("```", 2)[1]
    lines = [line for line in sketch.splitlines() if line.strip() not in ("", "...")]
    assert len(lines) == 10
    for line in lines:
        if line.startswith("system "):
            document = line
        elif line.startswith(" "):
            document = f"system readme\nflow f\n{line}\n"
        else:
            document = f"system readme\n{line}\n"
        try:
            parse_system(document)
        except SpecSemanticError:
            pass  # cross-references need the rest of the sketch
