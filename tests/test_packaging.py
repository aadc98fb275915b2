"""The built package carries the data files it reads at import, and each
module defines the names it exports."""

from __future__ import annotations

import importlib
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
