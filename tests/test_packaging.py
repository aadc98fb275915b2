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


def test_no_module_reads_the_environment():
    """A run's inputs are its arguments, its plan and the files they name:
    no module of the package reads ``os.environ`` or ``os.getenv``."""
    names = {"environ", "environb", "getenv", "getenvb"}
    reads = [
        f"{path.stem} line {node.lineno}"
        for path in sorted((ROOT / "src/flowtrace").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in names
        or isinstance(node, ast.Name) and node.id in names
        or isinstance(node, ast.alias) and node.name in names
    ]
    assert reads == []


def test_no_module_calls_the_flow_event_wrappers():
    """The package reads ``Flow.start_events``, ``.end_events`` and
    ``.guaranteed_events`` directly: the same-named one-line wrapper
    functions are kept for ``bench/`` and the README alone."""
    names = {"start_events", "end_events", "guaranteed_events"}
    calls = [
        f"{path.stem} line {node.lineno}"
        for path in sorted((ROOT / "src/flowtrace").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
    ]
    assert calls == []


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


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    """Each defaulted parameter of a top-level function of ``src/flowtrace``
    is passed, by keyword or by position, by some call in ``src/``,
    ``bench/*.py`` or the README's Python blocks.  A call in a test does
    not count: an option that only tests set is a knob that no user turns
    (ROADMAP aim 2).  A bare-name call counts for the function its file
    defines or imports from ``flowtrace`` under that name; a call of an
    attribute ``x.f`` counts for ``f`` of each package module that its file
    names, since ``bench`` reaches the package through module objects."""
    trees = {
        p.stem: ast.parse(p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "src/flowtrace").glob("*.py"))
    }

    def imported(tree: ast.Module) -> dict[str, tuple[str, str]]:
        """Names bound by ``from flowtrace.module import``, to what they name."""
        return {
            alias.asname or alias.name: (node.module.rpartition(".")[2], alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and (node.level or node.module.startswith("flowtrace."))
            for alias in node.names
        }

    exported = imported(trees["__init__"])  # ``from flowtrace import f``
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    texts = [(None, t) for t in re.findall(r"```python\n(.*?)```", readme, re.S)]
    texts += [
        (p.stem, p.read_text(encoding="utf-8"))
        for p in sorted((ROOT / "src/flowtrace").glob("*.py"))
    ]
    texts += [(None, p.read_text(encoding="utf-8")) for p in sorted((ROOT / "bench").glob("*.py"))]
    positional: dict[tuple[str, str], float] = {}  # per function, the most arguments by position
    keywords: set[tuple[tuple[str, str], str | None]] = set()  # ``None``: a ``**`` splat
    for own, text in texts:
        tree = ast.parse(text)
        local = {n.name: (own, n.name) for n in tree.body if own and isinstance(n, ast.FunctionDef)}
        local.update(imported(tree))
        local.update(
            (alias.asname or alias.name, exported.get(alias.name, ("", alias.name)))
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "flowtrace"
            for alias in node.names
        )
        named = set(re.findall(r"\w+", text)) & set(trees)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name):
                targets = {local[node.func.id]} if node.func.id in local else set()
            else:
                targets = {(m, getattr(node.func, "attr", None)) for m in named}
            splat = any(isinstance(a, ast.Starred) for a in node.args)
            count = float("inf") if splat else len(node.args)
            for target in targets:
                positional[target] = max(positional.get(target, 0), count)
                keywords.update((target, k.arg) for k in node.keywords)
    unpassed = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args, function = node.args, (stem, node.name)
            params = args.posonlyargs + args.args
            first = len(params) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(params) if i >= first]
            defaulted += [
                (float("inf"), a.arg)
                for a, default in zip(args.kwonlyargs, args.kw_defaults)
                if default is not None
            ]
            unpassed += [
                f"{stem}.{node.name}({param})"
                for i, param in defaulted
                if not (
                    positional.get(function, 0) > i
                    or {(function, param), (function, None)} & keywords
                )
            ]
    assert unpassed == []
