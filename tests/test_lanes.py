"""The grid's seed lanes: forked children compute cell bodies, the parent
writes them in seed order, so cells, tables, stdout and errors are the
same in any number of lanes, and no child process or pipe is left over.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from flowtrace import experiment
from flowtrace.cli import main
from flowtrace.tracing_sim import Livelock

from test_golden_cells import COMPARE_PLAN, GOLDEN, cell_digests

ROOT = Path(__file__).resolve().parents[1]
LABELS = ("none", "fic", "cec", "fc16")
FIVE_SEEDS = {
    "scope": ["CPU0", "GFX", "CPU1"],
    "capacities": [8, 32],
    "seeds": [4, 9, 2, 7, 5],
    "workload": {"instances_per_initiator": 12},
    "drain": False,
}


def open_fds() -> set[str]:
    return set(os.listdir("/dev/fd"))


@pytest.fixture
def clean_exit():
    """The test leaves no unreaped child and no open descriptor behind."""
    before = open_fds()
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == before


def run_plan(tmp_path, capsys, command: str, body: dict, name: str = "results"):
    """Exit code, stdout with the output directory as ``<out>``, stderr,
    and the bytes of every file written."""
    out_dir = tmp_path / name
    plan = tmp_path / f"{name}.json"
    plan.write_text(json.dumps(dict(body, out_dir=str(out_dir))), encoding="utf-8")
    code = main([command, str(plan)])
    out, err = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))} if out_dir.exists() else {}
    return code, out.replace(str(out_dir), "<out>"), err, files


@pytest.mark.parametrize("lanes", [1, 2, 4])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_first_failing_seed_stops_the_grid_after_earlier_cells(
    tmp_path, capsys, monkeypatch, force_lanes, clean_exit, command, lanes
):
    """Seed 3 of 4 falls in the parent's lane at 2 lanes, in a child's at 4."""
    force_lanes(lanes)
    real = experiment.run_workload

    def run_workload(spec, workload):
        if workload.seed == 3:
            raise Livelock("seed 3 did not finish")
        return real(spec, workload)

    monkeypatch.setattr(experiment, "run_workload", run_workload)
    body = dict(COMPARE_PLAN, seeds=[1, 2, 3, 4], capacities=[8, 16], selection="fic")
    code, out, err, files = run_plan(tmp_path, capsys, command, body)
    labels = LABELS if command == "compare" else ("fic",)
    assert (code, out, err) == (2, "", "error: seed 3 did not finish\n")
    assert sorted(files) == sorted(
        f"{label}_{cap}_{seed}.json" for label in labels for cap in (8, 16) for seed in (1, 2)
    )


@pytest.mark.parametrize("lanes", [2, 3])
def test_seeds_of_a_child_that_dies_are_run_by_the_parent(
    tmp_path, capsys, monkeypatch, force_lanes, clean_exit, lanes
):
    force_lanes(lanes)
    parent = os.getpid()
    real = experiment._cell_body

    def cell_body(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real(*args)

    monkeypatch.setattr(experiment, "_cell_body", cell_body)
    assert cell_digests(tmp_path, "compare", COMPARE_PLAN) == GOLDEN["compare"]


def refuse_fork():
    pytest.fail("the grid forked")


def test_one_seed_runs_in_one_lane(tmp_path, capsys, monkeypatch, force_lanes, clean_exit):
    force_lanes(4)
    monkeypatch.setattr(os, "fork", refuse_fork)
    digests = cell_digests(tmp_path, "compare", dict(COMPARE_PLAN, seeds=[2]))
    assert digests == {name: d for name, d in GOLDEN["compare"].items() if name.endswith("_2.json")}


def test_a_missing_fork_runs_one_lane(tmp_path, capsys, monkeypatch, force_lanes, clean_exit):
    force_lanes(2)
    monkeypatch.delattr(os, "fork")
    assert cell_digests(tmp_path, "compare", COMPARE_PLAN) == GOLDEN["compare"]


def test_a_failed_fork_leaves_its_seeds_to_the_parent(
    tmp_path, capsys, monkeypatch, force_lanes, clean_exit
):
    force_lanes(2)

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", fork)
    assert cell_digests(tmp_path, "compare", COMPARE_PLAN) == GOLDEN["compare"]


def test_a_live_thread_runs_one_lane(tmp_path, capsys, monkeypatch, force_lanes, clean_exit):
    force_lanes(2)
    monkeypatch.setattr(os, "fork", refuse_fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        digests = cell_digests(tmp_path, "compare", COMPARE_PLAN)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive() and digests == GOLDEN["compare"]


def test_outputs_do_not_depend_on_the_lane_count(tmp_path, capsys, force_lanes, clean_exit):
    """Scoped, undrained, two capacities; 3 lanes split 5 seeds 2, 2, 1."""
    runs = []
    for lanes in (1, 2, 3):
        force_lanes(lanes)
        runs.append(run_plan(tmp_path, capsys, "compare", FIVE_SEEDS, f"lanes{lanes}"))
    code, _, err, files = runs[0]
    assert (code, err) == (0, "")
    assert len(files) == 4 * 2 * 5 + 1 and "comparison.csv" in files
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_lanes_are_clamped_to_the_seed_count(tmp_path, capsys, monkeypatch, force_lanes, clean_exit):
    force_lanes(8)
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    code, *_ = run_plan(tmp_path, capsys, "run", FIVE_SEEDS)
    assert code == 0 and len(forks) == len(FIVE_SEEDS["seeds"]) - 1


def test_cli_in_a_fresh_interpreter_warns_nothing(tmp_path, capsys, force_lanes):
    """``-X dev -W error`` turns an unclosed pipe or a fork warning into
    output on stderr; the cells equal an in-process run in one lane."""
    body = dict(COMPARE_PLAN, seeds=[1, 2, 3])
    plan = tmp_path / "fresh.json"
    plan.write_text(json.dumps(dict(body, out_dir=str(tmp_path / "fresh"))), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    fresh = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", "-m", "flowtrace.cli", "compare", str(plan)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert (fresh.returncode, fresh.stderr) == (0, "")
    force_lanes(1)
    code, _, _, files = run_plan(tmp_path, capsys, "compare", body, "serial")
    assert code == 0
    assert {p.name: p.read_bytes() for p in sorted((tmp_path / "fresh").glob("*"))} == files
