"""Every file and table the plan commands and ``simulate`` write, pinned
by sha256 on the golden-cell plans, and the selection JSON of ``select``.

The cell files themselves are pinned in ``test_golden_cells.py``; these
pins cover what is derived from them (the aggregate tables and CSVs),
the ``simulate`` exports and ``select``'s stdout for each method.  Output directory paths are replaced by
``<out>`` before hashing, so the pins do not depend on where the test
runs.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from flowtrace.cli import main

from test_golden_cells import COMPARE_PLAN, RUN_PLAN

PINS = {
    "run": {
        "stdout": "41b773051e5ff9c0e010c289f41f8e91c378e95670d7ff8f997b1e4c15fb66fb",
        "summary.csv": "9b5d34312e6ecae1b739c70d60404c598397572693440e301b5f15ba2460c423",
    },
    "compare": {
        "stdout": "de43af61f0746f55de69b82eac5231353ec0411be6df3a156a9448ccf5d7797b",
        "comparison.csv": "e76a980748ca687b30af88204c1205a8cd174e3cea106452675aa3b8e80fe0f4",
    },
    "simulate": {
        "summary.json": "f6521d21563cee61cb1b2f4d697cf011e2be7c624fa2dd93bc7f847f182f9a99",
        "ground_truth.csv": "ff70a06e817eb88b34623c327a675c323ca7c8343f9ff0d3b6a2792140dd04d6",
        "observed.csv": "35b7f528ee43c914f94d5559cc38d3aa5e72946c9fe54ef0f93ab29c5c8c9e88",
    },
    "select": {
        "fic": "70902fb00c127abd5aaf3a6d53b8cc8723c7f048e47833d72d56d2ca323fa78b",
        "cec": "9b1651e4784b6de3560cf6032a5f94d81b723ca0766346e0c63e18c96bbfdf05",
        "fc --k 16": "958c19d1ee0825236a4eeff3561b2b30f6ff3d9ef6802b839a79fde2d729334a",
    },
}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "command, body, table",
    [("run", RUN_PLAN, "summary.csv"), ("compare", COMPARE_PLAN, "comparison.csv")],
)
def test_plan_command_outputs_match_pins(tmp_path, capsys, command, body, table):
    out_dir = tmp_path / "results"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(dict(body, out_dir=str(out_dir))), encoding="utf-8")
    assert main([command, str(plan)]) == 0
    stdout = capsys.readouterr().out.replace(str(out_dir), "<out>")
    got = {
        "stdout": digest(stdout.encode("utf-8")),
        table: digest((out_dir / table).read_bytes()),
    }
    assert got == PINS[command]


def test_simulate_exports_match_pins(tmp_path):
    out_dir = tmp_path / "sim"
    args = ["--seed", "1", "--instances", "20", "--capacity", "8"]
    assert main(["simulate", "prototype", *args, "--out-dir", str(out_dir)]) == 0
    got = {name: digest((out_dir / name).read_bytes()) for name in PINS["simulate"]}
    assert got == PINS["simulate"]


@pytest.mark.parametrize("metric", sorted(PINS["select"]))
def test_select_stdout_matches_pins(capsys, metric):
    assert main(["select", "prototype", "--metric", *metric.split()]) == 0
    assert digest(capsys.readouterr().out.encode("utf-8")) == PINS["select"][metric]
