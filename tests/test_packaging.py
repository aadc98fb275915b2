"""The built package carries the data files it reads at import, and each
module defines the names it exports."""

from __future__ import annotations

import ast
import importlib
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_build_ships_the_prototype_document(tmp_path):
    pytest.importorskip("setuptools")
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(
        ROOT / "src",
        tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    lib = tmp_path / "lib"
    subprocess.run(
        [
            sys.executable, "-c", "from setuptools import setup; setup()",
            "build_py", "--build-lib", str(lib),
        ],
        cwd=tmp_path,
        check=True,
        capture_output=True,
    )
    built = lib / "flowtrace" / "prototype.spec"
    assert built.read_bytes() == (ROOT / "src/flowtrace/prototype.spec").read_bytes()
    # The built package imports and loads its model without the source tree.
    loaded = subprocess.run(
        [
            sys.executable, "-c",
            "import flowtrace; print(len(flowtrace.load_prototype().flows))",
        ],
        cwd=tmp_path,
        env={"PYTHONPATH": str(lib)},
        capture_output=True,
        text=True,
    )
    assert (loaded.returncode, loaded.stdout) == (0, "16\n"), loaded.stderr


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in (ROOT / "src/flowtrace").glob("*.py"))
)
def test_every_exported_name_resolves(module):
    """A name dropped from a module cannot stay in its ``__all__``."""
    name = "flowtrace" if module == "__init__" else f"flowtrace.{module}"
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def test_cli_import_loads_no_dataclasses():
    """The record types are named tuples: a fresh ``flowtrace`` process
    does not import ``dataclasses`` (nor the ``inspect`` it pulls in)."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import flowtrace.cli; "
        "print('dataclasses' in sys.modules)"
    )
    probe = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True
    )
    assert (probe.returncode, probe.stdout) == (0, "False\n"), probe.stderr


def test_package_stays_under_its_line_ceiling():
    """Counted lines of ``src/flowtrace/*.py``, non-blank and not starting
    with ``#``: new analyses are paid for by deletions (ROADMAP item 10)."""
    counted = {
        path.stem: sum(
            1
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.strip().startswith("#")
        )
        for path in sorted((ROOT / "src/flowtrace").glob("*.py"))
    }
    total = sum(counted.values())
    per_module = ", ".join(f"{module} {lines}" for module, lines in counted.items())
    assert total <= 2661, f"{total} counted lines ({per_module})"


def test_every_package_definition_is_read_outside_itself():
    """Each function, class, method and property of ``src/flowtrace`` is
    read somewhere but its own body: in the package, in ``bench/*.py`` or
    in the README.  An oracle only tests use belongs in ``tests/``
    (ROADMAP aim 2).  Dunder methods are read by Python itself."""
    texts = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "bench").glob("*.py"))]
    texts.append((ROOT / "README.md").read_text(encoding="utf-8"))
    read_outside = set(re.findall(r"\w+", "\n".join(texts)))
    defined, reads = [], []
    for path in sorted((ROOT / "src/flowtrace").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.stem, node))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.append((path.stem, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                reads.append((path.stem, node.lineno, node.attr))
    unread = [
        f"{module}.{node.name} (line {node.lineno})"
        for module, node in defined
        if not re.fullmatch("__.*__", node.name)
        and node.name not in read_outside
        and not any(
            name == node.name
            and not (where == module and node.lineno <= line <= node.end_lineno)
            for where, line, name in reads
        )
    ]
    assert unread == []
