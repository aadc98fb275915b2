"""CLI behavior: exit codes, outputs, plans, and reproducible files."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import flowtrace
from flowtrace import cli, coverage, flow_model, selection
from flowtrace.cli import main
from flowtrace.experiment import (
    _PLAN_FIELDS,
    _PLAN_KEYS,
    _WORKLOAD_KEYS,
    DEFAULT_SEEDS,
    ExperimentPlan,
    _ratio_cell,
    aggregate_cells,
    load_plan,
    method_label,
    run_cell,
)
from flowtrace.spec_io import PROTOTYPE_SPEC, load_prototype
from flowtrace.tracing_sim import ConfigError, ObservabilityConfig, WorkloadConfig

from conftest import CPU_WRITE_SPEC


CYCLIC_SPEC = """\
system cyc
component A B
link ab A -> B
flow loop
  place s0 initial
  place s1 end
  place s2
  transition t0 pre {s0} post {s2} event A:B:m on ab
  transition t1 pre {s2} post {s0} event A:B:m on ab
initiator A flows {loop}
"""


# ``shared`` starts with a request from A or from B; B also runs ``b_only``.
SHARED_FLOW_SPEC = """\
system shared
component A B C
link ac A -> C
link bc B -> C
link ca C -> A
flow shared
  place s0 initial
  place s1
  place s2 end
  transition ta pre {s0} post {s1} event A:C:req on ac
  transition tb pre {s0} post {s1} event B:C:req on bc
  transition tr pre {s1} post {s2} event C:A:resp on ca
flow b_only
  place s0 initial
  place s1 end
  transition t0 pre {s0} post {s1} event B:C:ping on bc
initiator A flows {shared}
initiator B flows {shared, b_only}
"""

# Two start transitions with one label: paths ta,tr and tb,tr look alike.
TWIN_PATHS_SPEC = """\
system twins
component A B
link ab A -> B
link ba B -> A
flow twins
  place s0 initial
  place s1
  place s2 end
  transition ta pre {s0} post {s1} event A:B:req on ab
  transition tb pre {s0} post {s1} event A:B:req on ab
  transition tr pre {s1} post {s2} event B:A:resp on ba
initiator A flows {twins}
"""


@pytest.fixture
def proto_file(tmp_path):
    path = tmp_path / "proto.spec"
    path.write_text(PROTOTYPE_SPEC, encoding="utf-8")
    return path


class TestValidate:
    def test_valid_spec_exits_zero(self, proto_file, capsys):
        assert main(["validate", str(proto_file)]) == 0
        out = capsys.readouterr().out
        assert "16 flows" in out and "32 links" in out

    def test_cyclic_spec_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cyc.spec"
        path.write_text(CYCLIC_SPEC, encoding="utf-8")
        assert main(["validate", str(path)]) == 1
        assert "cyclic structure" in capsys.readouterr().err

    def test_channel_number_past_the_digit_limit_exits_two(self, tmp_path, capsys):
        path = tmp_path / "huge.spec"
        path.write_text(
            "system huge\ncomponent A B\nlink ab A -> B channel " + "9" * 5000 + "\n",
            encoding="utf-8",
        )
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: line 3, column 24: channel number too large\n"
        )

    @pytest.mark.parametrize(
        "text, code, message",
        [
            ("system x\nbogus line\n", 2, "line 2, column 1: unknown declaration 'bogus'"),
            ("system x\ncomponent A A\n", 2, "line 2: duplicate component 'A'"),
            (CYCLIC_SPEC, 1, "line 4: flow loop failed validation: "),
        ],
        ids=["syntax", "semantic", "findings"],
    )
    def test_spec_errors_name_the_file(self, tmp_path, capsys, text, code, message):
        path = tmp_path / "bad.spec"
        path.write_text(text, encoding="utf-8")
        assert main(["validate", str(path)]) == code
        assert capsys.readouterr().err.startswith(f"error: {path}: {message}")

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "absent.spec")]) == 2
        assert "error" in capsys.readouterr().err


class TestPaths:
    def test_cpu_write_paths(self, tmp_path, capsys):
        path = tmp_path / "write.spec"
        path.write_text(CPU_WRITE_SPEC, encoding="utf-8")
        assert main(["paths", str(path), "cpu_write"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "t1,t10",
            "t1,t2,t3,t9",
            "t1,t2,t3,t4,t5,t6,t7,t8",
        ]

    def test_unknown_flow(self, proto_file, capsys):
        assert main(["paths", str(proto_file), "nope"]) == 2
        assert capsys.readouterr().err == "error: no flow 'nope' in soc16\n"

    def test_path_bound_exceeded_exits_two(self, proto_file, capsys):
        assert main(["paths", str(proto_file), "coh_rd_0", "--max-paths", "1"]) == 2
        assert "error: flow 'coh_rd_0' has more than 1 execution paths" in (
            capsys.readouterr().err
        )

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_non_positive_bound_exits_two(self, proto_file, capsys, bound):
        assert main(["paths", str(proto_file), "coh_rd_0", "--max-paths", bound]) == 2
        assert "--max-paths" in capsys.readouterr().err

    def test_long_chain_validates_and_has_one_path(self, tmp_path, capsys):
        """Both walks of a flow use explicit stacks: a chain of more
        transitions than Python's recursion limit is an ordinary flow."""
        n = 1200
        spec = [
            "system chain",
            "component A B",
            "link ab A -> B",
            "flow chain",
            "  place p0 initial",
            "  place " + " ".join(f"p{i}" for i in range(1, n)),
            f"  place p{n} end",
            *(
                f"  transition t{i} pre {{p{i}}} post {{p{i + 1}}} event A:B:m{i} on ab"
                for i in range(n)
            ),
            "initiator A flows {chain}",
        ]
        path = tmp_path / "chain.spec"
        path.write_text("\n".join(spec) + "\n", encoding="utf-8")
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main(["paths", str(path), "chain"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert line.split(",") == [f"t{i}" for i in range(n)]

    def test_default_bound_is_the_library_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "DEFAULT_PATH_BOUND", 2)
        path = tmp_path / "write.spec"
        path.write_text(CPU_WRITE_SPEC, encoding="utf-8")
        assert main(["paths", str(path), "cpu_write"]) == 2  # it has three
        assert "more than 2 execution paths" in capsys.readouterr().err


class TestSelect:
    def test_fic_selection_json(self, capsys):
        assert main(["select", "prototype", "--metric", "fic"]) == 0
        body = json.loads(capsys.readouterr().out)
        assert len(body["links"]) == 5
        caps = body["observability"]["queue_capacity"]
        assert sum(caps.values()) == 8 * 32

    def test_fc_selection_writes_file(self, tmp_path):
        out = tmp_path / "sel.json"
        assert main(
            ["select", "prototype", "--metric", "fc", "--k", "16", "--out", str(out)]
        ) == 0
        body = json.loads(out.read_text())
        assert len(body["events"]) == 16
        assert all(item["reason"] == "FC_RANK" for item in body["events"])

    @pytest.mark.parametrize("k", ["0", "-2"])
    def test_non_positive_k_exits_two_naming_the_flag(self, capsys, k):
        assert main(["select", "prototype", "--metric", "fc", "--k", k]) == 2
        assert capsys.readouterr().err == f"error: --k must be positive, got {k}\n"

    def test_scope_restricts_problem(self, capsys):
        assert main(
            ["select", "prototype", "--metric", "cec", "--scope", "CPU0"]
        ) == 0
        body = json.loads(capsys.readouterr().out)
        reasons = {item["reason"] for item in body["events"]}
        assert reasons <= {"START", "END", "PATH_DISAMBIG"}

    def test_repeated_scope_initiator_exits_two_naming_it(self, capsys):
        args = ["select", "prototype", "--metric", "cec", "--scope", "CPU0,GFX,CPU0"]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "error: scope repeats initiator 'CPU0'\n"
        )

    @pytest.mark.parametrize("scope", [",", "CPU0,", ",GFX", "CPU0,,GFX"])
    def test_empty_scope_initiator_exits_two_quoting_the_scope(self, capsys, scope):
        args = ["select", "prototype", "--metric", "cec", "--scope", scope]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            f"error: scope {scope!r} names an empty initiator\n"
        )

    def test_unknown_scope_initiator_exits_two_naming_it(self, tmp_path, capsys):
        out = tmp_path / "sel.json"
        args = ["select", "prototype", "--metric", "cec", "--scope", "CPU0,NOPE"]
        assert main([*args, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown initiators in scope: ['NOPE']\n"
        )
        assert not out.exists()

    def test_undistinguishable_paths_exit_one_with_a_warning(self, tmp_path, capsys):
        """The selection is still printed, or written with ``--out``; the
        path pair that no selection can tell apart is listed in it."""
        spec = tmp_path / "twins.spec"
        spec.write_text(TWIN_PATHS_SPEC, encoding="utf-8")
        entry = [{"flow": "twins", "paths": [["ta", "tr"], ["tb", "tr"]]}]
        warning = (
            "warning: 1 path pair(s) share identical label sequences "
            "and stay undistinguishable\n"
        )
        args = ["select", str(spec), "--metric", "cec"]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out)["undistinguishable"] == entry
        assert captured.err == warning
        out = tmp_path / "sel.json"
        assert main([*args, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out.startswith(f"wrote {out} ")
        assert captured.err == warning
        assert json.loads(out.read_text())["undistinguishable"] == entry

    @pytest.mark.parametrize("scope", ["ALL", "all"])
    def test_scope_all_means_every_initiator(self, capsys, scope):
        assert main(["select", "prototype", "--metric", "fic"]) == 0
        unscoped = capsys.readouterr().out
        assert main(["select", "prototype", "--metric", "fic", "--scope", scope]) == 0
        assert capsys.readouterr().out == unscoped


# Deeper than the ``json`` decoder's recursion limit.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


class TestSimulate:
    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "prototype",
                "--capacity",
                "8",
                "--seed",
                "3",
                "--instances",
                "10",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        assert (out / "ground_truth.csv").exists()
        assert (out / "observed.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "coverage" in summary and "drops" in summary

    def test_negative_seed_exits_two_naming_it(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "prototype", "--seed", "-3", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -3\n"
        assert not out.exists()

    def test_zero_instances_exits_two_naming_the_value(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert main(["simulate", "prototype", "--instances", "0", "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: instances_per_initiator must be positive, got 0\n"
        )
        assert not out.exists()

    def test_simulate_with_selection_file(self, tmp_path):
        sel = tmp_path / "sel.json"
        main(["select", "prototype", "--metric", "fic", "--out", str(sel)])
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "prototype",
                "--selection",
                str(sel),
                "--capacity",
                "8",
                "--seed",
                "3",
                "--instances",
                "10",
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert len(summary["drops"]) == 5  # five enabled links

    def test_selection_that_is_not_json_exits_two(self, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        sel.write_text('{"events": [', encoding="utf-8")
        out = tmp_path / "out"
        code = main(["simulate", "prototype", "--selection", str(sel), "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {sel}: Expecting value")
        assert not out.exists()

    def test_selection_nested_too_deeply_exits_two_naming_it(self, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        sel.write_text(DEEP_JSON, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["simulate", "prototype", "--selection", str(sel), "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {sel}: JSON nested too deeply to read\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"events": [], "events": [{"src": "CPU0"}]}', "events"),
            ('{"events": [{"src": "CPU0", "src": "GFX", "dest": "L2", "cmd": "x"}]}', "src"),
        ],
        ids=["top-level", "nested"],
    )
    def test_selection_with_a_repeated_key_exits_two_naming_it(
        self, tmp_path, capsys, text, key
    ):
        sel = tmp_path / "sel.json"
        sel.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["simulate", "prototype", "--selection", str(sel), "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {sel}: JSON object repeats key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("events", ["{}", '""', "null", '{"src": "CPU0"}', "3"])
    def test_selection_whose_events_are_not_a_list_exits_two_naming_it(
        self, tmp_path, capsys, events
    ):
        """An object, string or null is not read as an empty selection."""
        sel = tmp_path / "sel.json"
        sel.write_text(f'{{"events": {events}}}', encoding="utf-8")
        out = tmp_path / "out"
        code = main(["simulate", "prototype", "--selection", str(sel), "--out-dir", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f'error: {sel}: "events" must be a JSON array of events\n'
        )
        assert not out.exists()

    def test_selection_with_no_events_observes_nothing(self, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        sel.write_text('{"events": []}', encoding="utf-8")
        out = tmp_path / "out"
        args = ["simulate", "prototype", "--selection", str(sel), "--instances", "5"]
        assert main([*args, "--out-dir", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["observed_events"] == 0

    def test_selection_event_without_dest_exits_two(self, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        sel.write_text(
            json.dumps({"events": [{"src": "CPU0", "cmd": "rd_req"}]}), encoding="utf-8"
        )
        code = main(
            ["simulate", "prototype", "--selection", str(sel), "--out-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "dest" in err

    def test_selection_event_with_a_non_string_field_exits_two_naming_it(
        self, tmp_path, capsys
    ):
        sel = tmp_path / "sel.json"
        item = {"src": 1, "dest": "B", "cmd": "x"}
        events = [item, {"src": "A", "dest": "B", "cmd": "x"}]
        sel.write_text(json.dumps({"events": events}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(
            ["simulate", "prototype", "--selection", str(sel), "--out-dir", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(item) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[]", 'a selection must be a JSON object with an "events" key, got []'),
            ("{}", 'a selection must be a JSON object with an "events" key, got {}'),
            ('"x"', "a selection must be a JSON object with an \"events\" key, got 'x'"),
            ('{"events": ["a:b:c"]}', "selected event 'a:b:c' needs string src, dest and cmd"),
            ('{"events": [null]}', "selected event None needs string src, dest and cmd"),
            (
                '{"events": [{"src": "CPU0", "dest": "L2"}]}',
                "selected event {'src': 'CPU0', 'dest': 'L2'} needs string src, dest and cmd",
            ),
        ],
        ids=["array", "no-events", "string", "event-string", "event-null", "no-cmd"],
    )
    def test_selection_of_the_wrong_shape_exits_two_naming_the_item(
        self, tmp_path, capsys, text, message
    ):
        """The shape is checked, not read from Python's exception text."""
        sel = tmp_path / "sel.json"
        sel.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        code = main(["simulate", "prototype", "--selection", str(sel), "--out-dir", str(out)])
        assert (code, capsys.readouterr().err) == (2, f"error: {sel}: {message}\n")
        assert not out.exists()

    def test_selection_event_in_no_flow_exits_two_naming_it(self, tmp_path, capsys):
        sel = tmp_path / "sel.json"
        sel.write_text(
            json.dumps({"events": [{"src": "X", "dest": "Y", "cmd": "z"}]}),
            encoding="utf-8",
        )
        code = main(
            ["simulate", "prototype", "--selection", str(sel), "--out-dir", str(tmp_path)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {sel}: selected event X:Y:z is not part of any flow\n"
        )

    @pytest.mark.parametrize(
        "event, message",
        [
            (
                {"src": "A", "dest": "A", "cmd": "x"},
                "event source and destination must differ: 'A'",
            ),
            ({"src": "A", "dest": "B", "cmd": ""}, "event fields must be non-empty"),
        ],
        ids=["loop", "empty-cmd"],
    )
    def test_selection_event_that_event_refuses_exits_two_naming_the_file(
        self, tmp_path, capsys, event, message
    ):
        sel = tmp_path / "sel.json"
        sel.write_text(json.dumps({"events": [event]}), encoding="utf-8")
        out = tmp_path / "out"
        code = main(["simulate", "prototype", "--selection", str(sel), "--out-dir", str(out)])
        assert (code, capsys.readouterr().err) == (2, f"error: {sel}: {message}\n")
        assert not out.exists()

    def test_no_drain_leaves_residual(self, tmp_path):
        out = tmp_path / "sim"
        main(
            [
                "simulate",
                "prototype",
                "--capacity",
                "4",
                "--seed",
                "3",
                "--no-drain",
                "--out-dir",
                str(out),
            ]
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["total_residual"] > 0


@pytest.mark.parametrize("command", ["select", "simulate", "run"])
def test_port_bandwidth_below_one_exits_two_before_any_output(
    tmp_path, capsys, command
):
    out = tmp_path / "out"
    plan = tmp_path / "plan.json"
    body = plan_body(tmp_path, port_bandwidth=0, out_dir=str(out))
    plan.write_text(json.dumps(body), encoding="utf-8")
    flags = ["--port-bandwidth", "0"]
    argv = {
        "select": ["select", "prototype", "--metric", "fic", *flags, "--out", str(out)],
        "simulate": ["simulate", "prototype", *flags, "--out-dir", str(out)],
        "run": ["run", str(plan)],
    }[command]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: port_bandwidth must be positive, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["select", "simulate"])
def test_capacity_below_one_exits_two_before_any_output(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "select": ["select", "prototype", "--metric", "cec", "--out", str(out)],
        "simulate": ["simulate", "prototype", "--out-dir", str(out)],
    }[command]
    assert main([*argv, "--capacity", "0"]) == 2
    assert capsys.readouterr().err == "error: base_capacity must be positive, got 0\n"
    assert not out.exists()


CAPACITIES_MUST_BE = "plan key 'capacities' must be a list of positive integers, got"


def plan_body(tmp_path, **overrides):
    body = {
        "spec": "prototype",
        "selection": "none",
        "capacities": [8],
        "seeds": [1, 2],
        "workload": {"instances_per_initiator": 10},
        "out_dir": str(tmp_path / "results"),
    }
    body.update(overrides)
    return body


NOT_UTF8 = "'utf-8' codec can't decode byte 0xff"
HUGE_INT = "9" * 5000
TOO_MANY_DIGITS = "Exceeds the limit (4300 digits) for integer string conversion"


@pytest.mark.parametrize(
    "command, data, message",
    [
        ("validate", b"system x\n\xff\n", NOT_UTF8),
        ("paths", b"\xff", NOT_UTF8),
        ("select", b"system \xff\n", NOT_UTF8),
        ("run", b'{"seeds": [1], "out_dir": "\xff"}', NOT_UTF8),
        ("simulate", b'{"events": []}\xff', NOT_UTF8),
        ("run", b'{"seeds": [1]\n', "Expecting ',' delimiter: line 2 column 1"),
        ("compare", b'{"seeds": [1', "Expecting ',' delimiter: line 1 column 13"),
        ("simulate", b'{"events": []\n', "Expecting ',' delimiter: line 2 column 1"),
        ("run", f'{{"seeds": [{HUGE_INT}]}}'.encode(), TOO_MANY_DIGITS),
        ("compare", f'{{"capacities": [{HUGE_INT}]}}'.encode(), TOO_MANY_DIGITS),
        ("simulate", f'{{"events": [], "links": {HUGE_INT}}}'.encode(), TOO_MANY_DIGITS),
    ],
    ids=[
        "validate-utf8", "paths-utf8", "select-utf8", "run-utf8", "simulate-utf8",
        "run-truncated", "compare-truncated", "simulate-truncated",
        "run-digits", "compare-digits", "simulate-digits",
    ],
)
def test_an_unreadable_input_file_exits_two_naming_it(tmp_path, capsys, command, data, message):
    """A spec, plan or selection file that is not UTF-8, not whole JSON or
    holds an integer too long to convert is refused under its own path."""
    path = tmp_path / "input"
    path.write_bytes(data)
    out = tmp_path / "out"
    argv = {
        "validate": ["validate", str(path)],
        "paths": ["paths", str(path), "f"],
        "select": ["select", str(path), "--metric", "fic"],
        "run": ["run", str(path)],
        "compare": ["compare", str(path)],
        "simulate": ["simulate", "prototype", "--selection", str(path), "--out-dir", str(out)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1, err
    assert not out.exists() and not (tmp_path / "results").exists()


@pytest.mark.parametrize(
    "command",
    [["select", "--metric", "cec"], ["select", "--metric", "fic"], ["compare"]],
    ids=["select-cec", "select-fic", "compare"],
)
def test_a_spec_with_no_flows_exits_two_naming_it(tmp_path, capsys, command):
    """Not with the message of an internal field (an empty queue budget)."""
    spec = tmp_path / "empty.spec"
    spec.write_text("system x\n", encoding="utf-8")
    source = str(spec)
    if command[0] == "compare":
        source = str(tmp_path / "plan.json")
        Path(source).write_text(json.dumps(plan_body(tmp_path, spec=str(spec))), encoding="utf-8")
    assert main([command[0], source, *command[1:]]) == 2
    assert capsys.readouterr() == ("", "error: spec 'x' has no flows to select events from\n")
    assert not (tmp_path / "results").exists()


def test_a_spec_with_no_flows_runs_with_no_selection(tmp_path, capsys):
    spec = tmp_path / "empty.spec"
    spec.write_text("system x\n", encoding="utf-8")
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_body(tmp_path, spec=str(spec), seeds=[1])), encoding="utf-8")
    assert main(["run", str(plan)]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == [
        "none        8     0            0/0 (0)            0/0 (0)",
        f"wrote 1 cell files and summary.csv to {tmp_path / 'results'}/",
    ]


@pytest.mark.parametrize("command", ["run", "compare", "simulate"])
def test_an_inconsistent_trace_exits_two_with_one_error_line(
    tmp_path, capsys, monkeypatch, command
):
    """Observations that match no path of their flow (only a simulator that
    disagrees with the spec makes them) are an error, not a traceback."""
    real = flow_model.PathAutomaton.candidates

    def candidates(self, state, exact=None):
        return () if self.flow_id == "up_rd_aud" else real(self, state, exact)

    monkeypatch.setattr(flow_model.PathAutomaton, "candidates", candidates)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_body(tmp_path, selection="cec", seeds=[1])), encoding="utf-8")
    argv = {
        "run": ["run", str(plan)],
        "compare": ["compare", str(plan)],
        "simulate": ["simulate", "prototype", "--out-dir", str(tmp_path / "sim")],
    }[command]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: instance up_rd_aud#") and err.count("\n") == 1, err
    assert "match no execution path of flow up_rd_aud" in err
    assert "Traceback" not in out + err


class TestRunAndCompare:
    def test_run_grid_shape(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(plan_body(tmp_path, capacities=[8, 16, 32])), encoding="utf-8"
        )
        assert main(["run", str(plan)]) == 0
        out = capsys.readouterr().out
        results = tmp_path / "results"
        cells = sorted(p.name for p in results.glob("none_*.json"))
        assert len(cells) == 6  # 3 capacities x 2 seeds
        assert (results / "summary.csv").exists()
        assert out.count("none") == 3  # one aggregate row per capacity

    def test_scoped_run_uses_scope_totals(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(plan_body(tmp_path, scope=["CPU0"], seeds=[1])),
            encoding="utf-8",
        )
        assert main(["run", str(plan)]) == 0
        cell = json.loads(
            (tmp_path / "results" / "none_8_1.json").read_text()
        )
        assert cell["coverage"]["total"] == 10
        assert set(cell["coverage"]["per_flow"]) == {
            "coh_wr_0",
            "coh_rd_0",
            "nc_wr_0",
            "nc_rd_0",
        }

    def test_scoped_flow_also_started_outside_the_scope(self, tmp_path, capsys):
        """Initiator B, outside the scope, also starts ``shared``, so the
        scope's instance total differs by seed; the table divides by the
        upper median of the totals, which keeps FIC and CEC at most 1."""
        spec = tmp_path / "shared.spec"
        spec.write_text(SHARED_FLOW_SPEC, encoding="utf-8")
        body = plan_body(
            tmp_path,
            spec=str(spec),
            scope=["A"],
            selection="cec",
            seeds=[1, 2],
            workload={"instances_per_initiator": 6},
        )
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(body), encoding="utf-8")
        assert main(["run", str(plan)]) == 0
        results = tmp_path / "results"
        cells = [json.loads(p.read_text()) for p in results.glob("cec_8_*.json")]
        assert sorted(c["coverage"]["total"] for c in cells) == [8, 11]
        assert "9.5/11 (0.864)" in capsys.readouterr().out
        (row,) = aggregate_cells(results.glob("cec_8_*.json"))
        assert (row["total"], row["observed_median"]) == (11, 9.5)
        assert row["fic"] <= 1 and row["cec"] <= 1

    def test_initiator_with_no_flows_is_rejected_before_any_cell(self, tmp_path, capsys):
        """An initiator that could start no flow is a spec error, reported
        with its line before the workload runs."""
        spec = tmp_path / "empty.spec"
        spec.write_text(
            SHARED_FLOW_SPEC.replace("initiator A flows {shared}", "initiator A flows {}"),
            encoding="utf-8",
        )
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(plan_body(tmp_path, spec=str(spec), seeds=[1])), encoding="utf-8"
        )
        for command in ("run", "compare"):
            assert main([command, str(plan)]) == 2
            assert "initiator A names no flows" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_empty_scope_is_usage_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_body(tmp_path, scope=[])), encoding="utf-8")
        assert main(["run", str(plan)]) == 2

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_repeated_scope_initiator_is_usage_error(self, tmp_path, capsys, command):
        plan = tmp_path / "plan.json"
        body = plan_body(tmp_path, scope=["CPU0", "CPU0"], seeds=[1])
        plan.write_text(json.dumps(body), encoding="utf-8")
        assert main([command, str(plan)]) == 2
        assert capsys.readouterr().err == (
            "error: scope repeats initiator 'CPU0'\n"
        )
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_empty_scope_initiator_is_usage_error(self, tmp_path, capsys, command):
        plan = tmp_path / "plan.json"
        body = plan_body(tmp_path, scope="CPU0,", seeds=[1])
        plan.write_text(json.dumps(body), encoding="utf-8")
        assert main([command, str(plan)]) == 2
        assert capsys.readouterr().err == (
            "error: scope 'CPU0,' names an empty initiator\n"
        )
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_unknown_scope_initiator_is_usage_error(self, tmp_path, capsys, command):
        plan = tmp_path / "plan.json"
        body = plan_body(tmp_path, scope=["CPU0", "NOPE"], seeds=[1])
        plan.write_text(json.dumps(body), encoding="utf-8")
        assert main([command, str(plan)]) == 2
        assert capsys.readouterr().err == (
            "error: unknown initiators in scope: ['NOPE']\n"
        )
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "key, message",
        [
            ("capacities", "plan needs at least one capacity"),
            ("seeds", "plan needs at least one seed"),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_empty_grid_axis_is_usage_error(
        self, tmp_path, capsys, command, key, message
    ):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_body(tmp_path, **{key: []})), encoding="utf-8")
        assert main([command, str(plan)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("key, value", [("capacities", [8, 16, 8]), ("seeds", [1, 1])])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_repeated_grid_value_exits_two_naming_the_key(
        self, tmp_path, capsys, command, key, value
    ):
        """A repeated seed or capacity would write one cell twice."""
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_body(tmp_path, **{key: value})), encoding="utf-8")
        assert main([command, str(plan)]) == 2
        assert capsys.readouterr().err == f"error: plan key {key!r} repeats a value: {value}\n"
        assert not (tmp_path / "results").exists()

    def test_compare_on_a_scope_with_too_few_events_names_the_method(
        self, tmp_path, capsys
    ):
        plan = tmp_path / "plan.json"
        body = plan_body(tmp_path, scope=["Audio"], seeds=[1])
        plan.write_text(json.dumps(body), encoding="utf-8")
        assert main(["compare", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "error: selection 'fc:16' needs 16 distinct events, but the scope has 9\n"
        )
        assert not (tmp_path / "results").exists()

    def test_compare_table_has_four_methods(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_body(tmp_path, seeds=[1])), encoding="utf-8")
        assert main(["compare", str(plan)]) == 0
        out = capsys.readouterr().out
        for label in ("none", "fic", "cec", "fc16"):
            assert label in out
        rows = aggregate_cells((tmp_path / "results").glob("*_8_1.json"))
        by_method = {r["method"]: r for r in rows}
        assert by_method["none"]["links"] == 32
        assert by_method["fic"]["links"] == 5
        assert by_method["fc16"]["links"] == 16

    def test_table_prints_large_median_counts_in_full(self):
        """Medians of a million or more keep every digit, and a half
        between two seeds' counts keeps its ``.5``."""
        assert _ratio_cell(1234567, 2000000) == "1234567/2000000 (0.617)"
        assert _ratio_cell(1000000.5, 2000001) == "1000000.5/2000001 (0.5)"
        assert _ratio_cell(419, 500) == "419/500 (0.838)"
        assert _ratio_cell(250.5, 500) == "250.5/500 (0.501)"
        assert _ratio_cell(0, 0) == "0/0 (0)"

    def test_compare_runs_every_plan_capacity(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        body = plan_body(tmp_path, capacities=[8, 16], seeds=[1])
        plan.write_text(json.dumps(body), encoding="utf-8")
        assert main(["compare", str(plan)]) == 0
        labels = ("none", "fic", "cec", "fc16")
        cells = {p.name for p in (tmp_path / "results").glob("*_*_*.json")}
        assert cells == {f"{m}_{c}_1.json" for m in labels for c in (8, 16)}
        rows = capsys.readouterr().out.splitlines()[2:-1]
        assert [row.split()[:2] for row in rows] == [
            [m, str(c)] for m in labels for c in (8, 16)
        ]

    def test_compare_enumerates_each_flows_paths_at_most_once(
        self, tmp_path, monkeypatch
    ):
        calls: Counter[str] = Counter()
        original = flow_model.enumerate_paths

        def counting(flow, *args, **kwargs):
            calls[flow.id] += 1
            return original(flow, *args, **kwargs)

        for module in (flow_model, coverage, selection, cli):
            if hasattr(module, "enumerate_paths"):
                monkeypatch.setattr(module, "enumerate_paths", counting)
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_body(tmp_path, seeds=[1, 2])), encoding="utf-8")
        assert main(["compare", str(plan)]) == 0
        assert calls and max(calls.values()) == 1

    @staticmethod
    def small_compare_plan(tmp_path) -> Path:
        plan = tmp_path / "plan.json"
        body = plan_body(
            tmp_path, seeds=[1, 2], workload={"instances_per_initiator": 20}
        )
        plan.write_text(json.dumps(body), encoding="utf-8")
        return plan

    @staticmethod
    def cells_of(results: Path) -> dict[str, bytes]:
        """Read and then delete the cell files of one run."""
        cells = {p.name: p.read_bytes() for p in results.glob("*_*_*.json")}
        for path in results.iterdir():
            path.unlink()
        assert len(cells) == 8
        return cells

    def compare_in_subprocess(self, plan: Path, *flags: str, **env: str):
        src = str(Path(flowtrace.__file__).parent.parent)
        subprocess.run(
            [sys.executable, *flags, "-m", "flowtrace.cli", "compare", str(plan)],
            check=True, capture_output=True, cwd=plan.parent, timeout=300,
            env=dict(os.environ, PYTHONPATH=src, **env),
        )
        return self.cells_of(plan.parent / "results")

    def test_cells_do_not_depend_on_asserts(self, tmp_path):
        """``python -O`` strips ``assert``; the cells must not change."""
        plan = self.small_compare_plan(tmp_path)
        assert main(["compare", str(plan)]) == 0
        normal = self.cells_of(tmp_path / "results")
        assert self.compare_in_subprocess(plan, "-O") == normal

    def test_cells_do_not_depend_on_the_hash_seed(self, tmp_path):
        """Set and dict orders follow the hash seed; the cells must not."""
        plan = self.small_compare_plan(tmp_path)
        seeded = self.compare_in_subprocess(plan, PYTHONHASHSEED="0")
        assert self.compare_in_subprocess(plan, PYTHONHASHSEED="1") == seeded

    def test_rerun_is_byte_identical(self, tmp_path):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(plan_body(tmp_path, seeds=[4])), encoding="utf-8")
        assert main(["run", str(plan_file)]) == 0
        cell = tmp_path / "results" / "none_8_4.json"
        first = cell.read_bytes()
        assert main(["run", str(plan_file)]) == 0
        assert cell.read_bytes() == first


class TestPlanParsing:
    def test_defaults(self):
        plan = load_plan({})
        assert plan.spec_source == "prototype"
        assert plan.selection_method == "none"
        assert plan.capacities == (8,)

    def test_defaults_are_the_record_defaults(self):
        """The CLI flags and the plan take their defaults from the
        workload and trace-port records, and a default plan built in
        Python is the loaded empty plan."""
        workload, obs = WorkloadConfig(), ObservabilityConfig(frozenset(), 1)
        parser = cli.build_parser()
        select = parser.parse_args(["select", "s.spec", "--metric", "fic"])
        simulate = parser.parse_args(["simulate", "s.spec"])
        assert select.port_bandwidth == simulate.port_bandwidth == obs.port_bandwidth
        assert simulate.seed == workload.seed
        assert simulate.instances == workload.instances_per_initiator
        plan = ExperimentPlan()
        assert plan == load_plan({}) and hash(plan) == hash(load_plan({}))
        assert plan.workload(workload.seed) == workload
        assert plan.port_bandwidth == obs.port_bandwidth

    def test_empty_plan_is_the_default_plan_whatever_the_environment(self, monkeypatch):
        monkeypatch.setenv("FLOWTRACE_SEEDS", "7, 8")
        assert load_plan({}) == ExperimentPlan()

    def test_seeds_come_from_the_plan_alone(self, tmp_path, monkeypatch):
        """A plan without seeds runs the default seeds, whatever the
        environment holds."""
        monkeypatch.setenv("FLOWTRACE_SEEDS", "7, 8")
        plan = tmp_path / "plan.json"
        body = plan_body(tmp_path, seeds=None, workload={"instances_per_initiator": 2})
        plan.write_text(json.dumps(body), encoding="utf-8")
        assert main(["run", str(plan)]) == 0
        cells = {p.name for p in (tmp_path / "results").glob("*.json")}
        assert cells == {f"none_8_{seed}.json" for seed in DEFAULT_SEEDS}

    @pytest.mark.parametrize("key", ["capacities", "seeds"])
    @pytest.mark.parametrize("value", ["16", 12, {"8": 1}, [8.5], ["8"], [True]])
    def test_non_integer_list_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            load_plan({key: value})

    def test_string_capacities_exit_two(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_body(tmp_path, capacities="16")), encoding="utf-8")
        assert main(["run", str(plan)]) == 2
        assert "capacities" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "body, key",
        [
            ({"workload": [1]}, "workload"),
            ({"workload": {"initiation_delay": ["1", "x"]}}, "initiation_delay"),
            ({"workload": {"transition_latency": [1, 2, 3]}}, "transition_latency"),
            ({"workload": {"instances_per_initiator": "20"}}, "instances_per_initiator"),
            ({"workload": {"instance_count": 5}}, "instance_count"),
            ({"scope": 5}, "scope"),
            ({"scope": ["CPU0", 1]}, "scope"),
            ({"capacity": [8]}, "capacity"),
            ({"drain": "false"}, "drain"),
            ({"port_bandwidth": 1.5}, "port_bandwidth"),
            ({"spec": 3}, "spec"),
            ({"seeds": [1, 2, 2]}, "seeds"),
            ({"capacities": [8, 16, 8]}, "capacities"),
            ({"capacities": [0]}, "capacities"),
        ],
    )
    def test_malformed_plan_exits_two_naming_the_key(self, tmp_path, capsys, body, key):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_body(tmp_path, **body)), encoding="utf-8")
        assert main(["run", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(key) in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize(
        "method",
        [
            "fc:x", "fc:", "fc:0", "fc", "best", "fc:\u0661\u0666", "fc: 16", "fc:16 ",
            "FC:X", "CEC", "Fc:16",  # the forms are lower case, quoted as written
        ],
    )
    def test_malformed_selection_exits_two_naming_it(self, tmp_path, capsys, method):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_body(tmp_path, selection=method)), encoding="utf-8")
        assert main(["run", str(plan)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: selection ") and repr(method) in err

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("k", [HUGE_INT, "1" + "0" * 18], ids=["5000-digits", "10**18"])
    def test_selection_k_of_too_many_digits_exits_two_naming_it(
        self, tmp_path, capsys, command, k
    ):
        """``int`` refuses a string of over 4300 digits, and no scope has
        10**18 events: the plan's usual rejection quotes the value shortened."""
        method = f"fc:{k}"
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_body(tmp_path, selection=method)), encoding="utf-8")
        assert main([command, str(plan)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: selection 'fc:1000") or err.startswith(
            "error: selection 'fc:9999"
        )
        assert " is not none, fic, cec or fc:<k> with an integer 1 <= k < 10**18\n" in err
        assert TOO_MANY_DIGITS not in err and len(err) < 120, err
        assert not (tmp_path / "results").exists()

    def test_selection_k_with_leading_zeros_is_read_as_its_value(self, tmp_path):
        """However many zeros lead it, ``fc:0…04`` is ``fc:4``."""
        plan = {"selection": f"fc:{'0' * 5000}4", "seeds": [1]}
        assert load_plan(plan).selection_method == plan["selection"]
        assert method_label(plan["selection"]) == "fc4"

    def test_negative_seed_exits_two_naming_it(self, tmp_path, capsys):
        """Seeds 1 and -1 would give the same workload, counted twice."""
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_body(tmp_path, seeds=[1, -1])), encoding="utf-8")
        assert main(["run", str(plan)]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, got -1\n"
        assert not (tmp_path / "results").exists()
        assert load_plan({"seeds": [0]}).seeds == (0,)

    @pytest.mark.parametrize(
        "workload, message",
        [
            (
                {"instances_per_initiator": 0},
                "instances_per_initiator must be positive, got 0",
            ),
            (
                {"initiation_delay": [5, 2]},
                "initiation_delay must satisfy 1 <= min <= max, got (5, 2)",
            ),
            (
                {"transition_latency": [0, 3]},
                "transition_latency must satisfy 1 <= min <= max, got (0, 3)",
            ),
        ],
    )
    def test_workload_out_of_range_exits_two_naming_the_value(
        self, tmp_path, capsys, workload, message
    ):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_body(tmp_path, workload=workload)), encoding="utf-8")
        assert main(["run", str(plan)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_instance_past_the_cycle_budget_exits_two(self, tmp_path, capsys, command):
        """A first firing due 2,000,000 cycles after its initiation outlives
        the 1,000,000-cycle budget: an error, not a traceback."""
        workload = {"instances_per_initiator": 1, "transition_latency": [2000000, 2000000]}
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(plan_body(tmp_path, seeds=[1], workload=workload)), encoding="utf-8"
        )
        assert main([command, str(plan)]) == 2
        assert capsys.readouterr().err == (
            "error: instance up_rd_aud#Audio.0 still running after 1000000 cycles\n"
        )
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_plan_that_is_not_json_exits_two(self, tmp_path, capsys, command):
        plan = tmp_path / "plan.json"
        plan.write_text('{"seeds": [1,', encoding="utf-8")
        assert main([command, str(plan)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {plan}: Expecting value")

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_plan_spec_with_a_syntax_error_exits_two_naming_the_spec(
        self, tmp_path, capsys, command
    ):
        spec = tmp_path / "bad.spec"
        spec.write_text("system x\nbogus line\n", encoding="utf-8")
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps(plan_body(tmp_path, spec=str(spec))), encoding="utf-8")
        assert main([command, str(plan)]) == 2
        assert capsys.readouterr().err == (
            f"error: {spec}: line 2, column 1: unknown declaration 'bogus'\n"
        )
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_plan_nested_too_deeply_exits_two_naming_it(self, tmp_path, capsys, command):
        plan = tmp_path / "plan.json"
        plan.write_text(DEEP_JSON, encoding="utf-8")
        assert main([command, str(plan)]) == 2
        assert capsys.readouterr().err == f"error: {plan}: JSON nested too deeply to read\n"

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize(
        "text, key",
        [
            (
                '{"seeds": [1], "workload": {"instances_per_initiator": 1}, '
                '"seeds": [2], "out_dir": "%s"}',
                "seeds",
            ),
            (
                '{"seeds": [1], "workload": {"instances_per_initiator": 1, '
                '"instances_per_initiator": 2}, "out_dir": "%s"}',
                "instances_per_initiator",
            ),
        ],
        ids=["top-level", "nested"],
    )
    def test_plan_with_a_repeated_key_exits_two_naming_it(
        self, tmp_path, capsys, command, text, key
    ):
        """``json`` alone would keep the last value and run the grid."""
        out = tmp_path / "results"
        plan = tmp_path / "plan.json"
        plan.write_text(text % out, encoding="utf-8")
        assert main([command, str(plan)]) == 2
        assert capsys.readouterr().err == f"error: {plan}: JSON object repeats key {key!r}\n"
        assert not out.exists()

    def test_plan_that_is_not_an_object_exits_two(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps([plan_body(tmp_path)]), encoding="utf-8")
        assert main(["run", str(plan)]) == 2
        assert "plan must be a JSON object" in capsys.readouterr().err

    def test_null_means_the_default(self):
        plan = load_plan({"scope": None, "workload": {"initiation_delay": None}})
        assert plan.scope is None and plan.initiation_delay == (1, 10)

    @pytest.mark.parametrize(
        "scope, message",
        [
            (("CPU0", "CPU0"), "scope repeats initiator 'CPU0'"),
            ((), "scope must name at least one initiator"),
        ],
    )
    def test_direct_construction_checks_the_scope(self, scope, message):
        """``ExperimentPlan`` built in Python rejects the scopes that
        ``load_plan`` rejects, with the same message."""
        for build in (
            lambda: ExperimentPlan(scope=scope, seeds=(1,)),
            lambda: load_plan({"scope": list(scope), "seeds": [1]}),
        ):
            with pytest.raises(ValueError) as exc_info:
                build()
            assert str(exc_info.value) == message

    @pytest.mark.parametrize("scope", ["CPU0,", ",", ("CPU0", ""), ("",)])
    def test_direct_construction_rejects_an_empty_initiator(self, scope):
        with pytest.raises(ValueError) as exc_info:
            ExperimentPlan(scope=scope, seeds=(1,))
        assert str(exc_info.value) == f"scope {scope!r} names an empty initiator"

    def test_direct_construction_keeps_a_valid_scope(self):
        assert ExperimentPlan(scope=("GFX", "CPU0"), seeds=(1,)).scope == ("GFX", "CPU0")
        assert ExperimentPlan(seeds=(1,)).scope is None

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"capacities": (0,), "selection_method": "fic"}, f"{CAPACITIES_MUST_BE} (0,)"),
            ({"capacities": (True,)}, f"{CAPACITIES_MUST_BE} (True,)"),
            ({"capacities": (8, 8.5)}, f"{CAPACITIES_MUST_BE} (8, 8.5)"),
            ({"seeds": (True,)}, "plan key 'seeds' must be a list of integers, got (True,)"),
            ({"port_bandwidth": 0}, "port_bandwidth must be positive, got 0"),
            ({"port_bandwidth": True}, "plan key 'port_bandwidth' must be an integer, got True"),
        ],
    )
    def test_direct_construction_checks_capacities_seeds_and_bandwidth(
        self, fields, message
    ):
        """Rejected when the plan is built, not when its cells are."""
        with pytest.raises(ValueError) as exc_info:
            ExperimentPlan(**{"seeds": (1,), **fields})
        assert str(exc_info.value) == message

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"capacities": [0]}, f"{CAPACITIES_MUST_BE} [0]"),
            ({"capacities": "16"}, f"{CAPACITIES_MUST_BE} '16'"),
            ({"capacities": [True]}, f"{CAPACITIES_MUST_BE} [True]"),
            ({"port_bandwidth": -1}, "port_bandwidth must be positive, got -1"),
        ],
    )
    def test_loaded_capacities_and_bandwidth_keep_their_messages(self, data, message):
        with pytest.raises(ValueError) as exc_info:
            load_plan({**data, "seeds": [1]})
        assert str(exc_info.value) == message

    def test_bad_method_rejected(self):
        with pytest.raises(ValueError):
            load_plan({"selection": "best"})

    @pytest.mark.parametrize(
        "config, values, key",
        [
            (ExperimentPlan, {"instances_per_initiator": True}, "instances_per_initiator"),
            (ExperimentPlan, {"drain": "no"}, "drain"),
            (ExperimentPlan, {"initiation_delay": (True, 3)}, "initiation_delay"),
            (ExperimentPlan, {"spec_source": 3}, "spec"),
            (ExperimentPlan, {"out_dir": 5}, "out_dir"),
            (ExperimentPlan, {"transition_latency": (1.0, 2.0)}, "transition_latency"),
            (ExperimentPlan, {"selection_method": 5}, "selection"),
            (ExperimentPlan, {"scope": 5}, "scope"),
            (WorkloadConfig, {"instances_per_initiator": 2.5}, "instances_per_initiator"),
            (WorkloadConfig, {"initiation_delay": (1.5, 3)}, "initiation_delay"),
            (WorkloadConfig, {"seed": 1.5}, "seed"),
            (ObservabilityConfig, {"port_bandwidth": 1.5}, "port_bandwidth"),
            (ObservabilityConfig, {"base_capacity": 2.5}, "base_capacity"),
            (ObservabilityConfig, {"base_capacity": True}, "base_capacity"),
        ],
    )
    def test_each_config_type_rejects_a_mistyped_value_when_built(self, config, values, key):
        """The type that holds a value checks it, before anything runs; a
        plan's message names the plan key (``spec`` for ``spec_source``)."""
        if config is ObservabilityConfig:
            values = {"selected_events": frozenset(), "base_capacity": 8, **values}
        error = ConfigError if config is ObservabilityConfig else ValueError
        with pytest.raises(error) as exc_info:
            config(**values)
        assert exc_info.type is error
        assert key in str(exc_info.value)

    def test_loaded_plan_equals_and_hashes_like_the_plan_built_in_python(self):
        data = {
            "scope": ["CPU0", "GFX"],
            "capacities": [8, 16],
            "seeds": [1, 2],
            "workload": {"initiation_delay": [2, 4], "transition_latency": [1, 3]},
        }
        built = ExperimentPlan(
            scope=["CPU0", "GFX"],
            capacities=[8, 16],
            seeds=[1, 2],
            initiation_delay=[2, 4],
            transition_latency=[1, 3],
        )
        loaded = load_plan(data)
        assert loaded == built and hash(loaded) == hash(built)
        assert (built.capacities, built.seeds) == ((8, 16), (1, 2))
        assert (built.initiation_delay, built.transition_latency) == ((2, 4), (1, 3))
        workload = WorkloadConfig(initiation_delay=[2, 4], transition_latency=[1, 3])
        assert workload == built.workload(1) and hash(workload) == hash(built.workload(1))

    def test_cell_error_names_offending_cell(self, tmp_path):
        spec = load_prototype()
        plan = ExperimentPlan(
            seeds=(1,), capacities=(8,), instances_per_initiator=5
        )
        with pytest.raises(ValueError):
            run_cell(spec, plan, "fc:99999", 8, 1)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=6,
)
plan_values = st.dictionaries(
    st.sampled_from(sorted({*_PLAN_KEYS, "workload"})) | st.text(max_size=8),
    json_values
    | st.dictionaries(
        st.sampled_from(sorted(_WORKLOAD_KEYS)) | st.text(max_size=8),
        json_values,
        max_size=3,
    ),
    max_size=6,
)


@given(plan_values | json_values)
@settings(max_examples=150, deadline=None)
def test_plan_loader_raises_only_value_error(data):
    try:
        load_plan(data)
    except ValueError:
        pass


@given(st.sampled_from(list(ExperimentPlan._fields)), json_values)
@settings(max_examples=150, deadline=None)
def test_plan_built_in_python_raises_only_value_error(field, value):
    try:
        ExperimentPlan(**{field: value})
    except ValueError:
        pass


def plan_or_message(build):
    try:
        return build()
    except ValueError as exc:
        return str(exc)


# A value each key accepts; drawn as often as arbitrary JSON, so that many
# generated plans are valid.
ACCEPTED = {
    "spec": "prototype",
    "scope": ["CPU0", "GFX"],
    "selection": "fc:4",
    "capacities": [8, 16],
    "seeds": [0, 3],
    "port_bandwidth": 2,
    "drain": False,
    "out_dir": "out",
    "instances_per_initiator": 5,
    "initiation_delay": [2, 4],
    "transition_latency": [1, 3],
}


def set_entries(keys):
    """Objects over ``keys`` with no null value (null means the default)."""
    values = json_values.filter(lambda value: value is not None)
    entry = st.sampled_from(sorted(keys)).flatmap(
        lambda key: st.tuples(st.just(key), st.just(ACCEPTED[key]) | values)
    )
    return st.lists(entry, max_size=len(keys)).map(dict)


@given(set_entries(_PLAN_KEYS), set_entries(_WORKLOAD_KEYS))
@settings(max_examples=150, deadline=None)
def test_load_plan_checks_nothing_the_plan_does_not(data, workload):
    """Loading adds no rule of its own: a plan loaded from JSON equals the
    plan built from the same values, or both fail with one message."""
    loaded = plan_or_message(lambda: load_plan({**data, "workload": workload}))
    renamed = {_PLAN_FIELDS.get(key, key): value for key, value in data.items()}
    built = plan_or_message(lambda: ExperimentPlan(**renamed, **workload))
    assert loaded == built
    if isinstance(built, ExperimentPlan):
        assert hash(loaded) == hash(built)
