"""Tests of the benchmark's own parts: the SoC generator, the output
checks, the tracer, the workload checks and the host-speed correction.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibration  # noqa: E402
import checks  # noqa: E402
import socgen  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer, layer_metrics  # noqa: E402

from flowtrace import experiment, flow_model, selection, spec_io  # noqa: E402

SMALL_INSTANCES = 20


@pytest.fixture(scope="module")
def ft():
    return types.SimpleNamespace(
        **{m: importlib.import_module(f"flowtrace.{m}") for m in LAYERS}
    )


# -- generator ---------------------------------------------------------------


@pytest.mark.parametrize("n_cpus,n_periph", [(2, 0), (3, 1), (8, 5)])
def test_soc_parses_and_every_flow_validates(n_cpus, n_periph):
    spec = spec_io.parse_system(socgen.soc(n_cpus, n_periph, seed=7))
    assert len(spec.flows) == 4 * n_cpus + 2 * n_periph
    assert all(flow_model.validate(f).ok for f in spec.flows)
    assert len(spec.initiators) == n_cpus + n_periph


def test_soc_at_benchmark_size_is_past_the_exact_cover_limit():
    spec = spec_io.parse_system(
        socgen.soc(workloads.SOC_CPUS, workloads.SOC_PERIPHERALS, seed=1)
    )
    problem = selection.SelectionProblem(
        spec.flows, spec.topology.event_link_map, len(spec.topology.links)
    )
    candidates = set().union(*problem.flow_link_candidates.values())
    assert len(candidates) > selection.EXACT_COVER_LIMIT


def test_soc_seed_changes_the_ring_not_the_size():
    a, b = socgen.soc(6, 2, seed=1), socgen.soc(6, 2, seed=2)
    assert a != b
    assert len(a.splitlines()) == len(b.splitlines())
    assert socgen.soc(6, 2, seed=1) == a
    ring = socgen.snoop_ring(6, seed=1)
    assert sorted(ring) == sorted(ring.values()) == list(range(6))
    assert all(cpu != peer for cpu, peer in ring.items())


def test_soc_rejects_a_single_cpu():
    with pytest.raises(ValueError):
        socgen.soc(1, 0)


# -- output checks -------------------------------------------------------------


@pytest.fixture(scope="module")
def prototype():
    return spec_io.load_prototype()


def small_cell(spec, method="none", delay=(1, 10), seed=3) -> dict:
    plan = experiment.ExperimentPlan(
        instances_per_initiator=SMALL_INSTANCES, initiation_delay=delay, seeds=(seed,)
    )
    return experiment.run_cell(spec, plan, method, 8, seed)


def test_conservation_accepts_a_real_cell_and_rejects_corruption(prototype):
    cell = small_cell(prototype)
    assert sum(cell["drops"].values()) > 0  # a lossy cell
    assert checks.conservation_problems(cell) == []
    link = sorted(cell["drops"])[0]
    over_dropped = json.loads(json.dumps(cell))
    over_dropped["drops"][link] = over_dropped["detected"][link] + 1
    assert checks.conservation_problems(over_dropped)
    miscounted = dict(cell, observed_events=cell["observed_events"] + 1)
    assert checks.conservation_problems(miscounted)


def test_result_conservation_rejects_a_lost_record():
    detected, drops, residual = {"a": 3, "b": 1}, {"a": 1, "b": 0}, {"a": 0, "b": 0}
    assert checks.result_conservation_problems(detected, drops, residual, ["a", "a", "b"]) == []
    assert checks.result_conservation_problems(detected, drops, residual, ["a", "b"])


def test_full_observability_accepts_lossless_and_rejects_a_lossy_cell(prototype):
    lossless = small_cell(prototype, delay=workloads.LIGHT_DELAY)
    assert checks.full_observability_problems(lossless) == []
    corrupted = json.loads(json.dumps(lossless))
    corrupted["coverage"]["cec"] = 0.95
    assert checks.full_observability_problems(corrupted)
    assert checks.full_observability_problems(small_cell(prototype))


def test_golden_digest_rejects_a_changed_output():
    data = b'{"x": 1}\n'
    golden = {"out.json": checks.sha256(data)}
    assert checks.golden_problems("out.json", checks.sha256(data), golden) == []
    assert checks.golden_problems("out.json", checks.sha256(data + b" "), golden)
    assert checks.golden_problems("other.json", checks.sha256(data), golden)
    assert checks.golden_problems("out.json", "anything", None) == []


def test_selection_checks_reject_corrupted_selections(prototype):
    problem = selection.SelectionProblem(
        prototype.flows, prototype.topology.event_link_map, 8 * len(prototype.topology.links)
    )
    guaranteed = {f.id: [str(e) for e in selection.guaranteed_events(f)] for f in prototype.flows}
    starts = {f.id: [str(e) for e in flow_model.start_events(f)] for f in prototype.flows}
    ends = {f.id: [str(e) for e in flow_model.end_events(f)] for f in prototype.flows}
    fic = sorted(str(e) for e in selection.select_fic(problem).events)
    cec = sorted(str(e) for e in selection.select_cec(problem).events)
    assert checks.fic_cover_problems(fic, guaranteed) == []
    assert checks.cec_endpoint_problems(cec, starts, ends) == []
    assert checks.fic_cover_problems(fic[1:], guaranteed)
    first_start = starts[prototype.flows[0].id][0]
    assert checks.cec_endpoint_problems([e for e in cec if e != first_start], starts, ends)


# -- workload checks -----------------------------------------------------------


def write_small_cells(wl, spec, delay):
    plan = experiment.ExperimentPlan(
        instances_per_initiator=SMALL_INSTANCES, initiation_delay=delay, seeds=tuple(wl.seeds)
    )
    methods = {"none": "none", "fic": "fic", "cec": "cec", "fc16": "fc:16"}
    for label in wl.labels:
        for seed in wl.seeds:
            experiment.write_cell(wl.out_dir, experiment.run_cell(spec, plan, methods[label], 8, seed))


def test_trace_light_check_counts_each_corrupted_cell(tmp_path, prototype):
    wl = workloads.TraceLight(5, tmp_path)
    write_small_cells(wl, prototype, workloads.LIGHT_DELAY)
    clean = wl.check(0, {}, None, {})
    assert (clean.attempted, clean.failed) == (workloads.LIGHT_SIM_SEEDS, 0)

    golden = dict(clean.digests)
    target = wl.out_dir / wl.expected_ops()[0]
    cell = json.loads(target.read_text())
    cell["coverage"]["path_resolved"] = 0.5
    target.write_text(json.dumps(cell, indent=2, sort_keys=True) + "\n")
    bad = wl.check(0, {}, golden, {})
    assert (bad.attempted, bad.failed) == (workloads.LIGHT_SIM_SEEDS, 1)
    assert any("path_resolved" in p for p in bad.problems)
    assert any("golden" in p for p in bad.problems)

    traced = {wl.expected_ops()[1]: ["conservation broken"]}
    assert wl.check(0, {}, None, traced).failed == 2


def test_cli_workload_check_fails_every_cell_on_a_bad_exit(tmp_path):
    wl = workloads.ComparePrototype(5, tmp_path)
    out = wl.check(2, {}, None, {})
    assert out.attempted == out.failed == len(workloads.COMPARE_LABELS) * workloads.COMPARE_SIM_SEEDS


def test_compare_check_rejects_a_missing_cell(tmp_path, prototype):
    wl = workloads.ComparePrototype(5, tmp_path)
    write_small_cells(wl, prototype, (1, 10))
    assert wl.check(0, {}, None, {}).failed == 0
    (wl.out_dir / wl.expected_ops()[-1]).unlink()
    assert wl.check(0, {}, None, {}).failed == 1


def test_select_soc_check_rejects_corrupted_selections(tmp_path, monkeypatch, ft):
    monkeypatch.setattr(workloads, "SOC_CPUS", 4)
    monkeypatch.setattr(workloads, "SOC_PERIPHERALS", 3)
    wl = workloads.SelectSoc(2, tmp_path)
    spec = wl.setup(ft)
    facts = wl.facts(ft, spec)
    raw = wl.run(ft, spec)
    clean = wl.check(raw, facts, None, {})
    assert (clean.attempted, clean.failed) == (3, 0)

    fic, cec = raw["fic"], raw["cec"]
    some_start = next(iter(flow_model.start_events(spec.flows[0])))
    corrupted = dict(
        raw,
        fic=dataclasses.replace(fic, events=frozenset(list(fic.events)[1:])),
        cec=dataclasses.replace(cec, events=cec.events - {some_start}),
    )
    bad = wl.check(corrupted, facts, dict(clean.digests), {})
    assert (bad.attempted, bad.failed) == (3, 2)
    assert wl.check(dict(raw, findings=["flow x: bad"]), facts, None, {}).failed == 3


# -- tracer ----------------------------------------------------------------------


def test_tracer_records_cells_and_restores_the_program(ft, tmp_path):
    originals = {
        (m, n): getattr(getattr(ft, m), n)
        for m, n in [("experiment", "run_cell"), ("coverage", "reconstruct"), ("tracing_sim", "run_simulation")]
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "capacities": [8], "seeds": [1], "out_dir": str(tmp_path / "out"),
        "workload": {"instances_per_initiator": SMALL_INSTANCES},
    }))
    tracer = Tracer()
    with tracer.patched():
        assert ft.experiment.run_cell is not originals[("experiment", "run_cell")]
        with tracer.phase("setup"):
            ft.experiment.load_spec_source("prototype")
        with tracer.phase("pipeline"):
            assert ft.cli.main(["compare", str(plan_path)]) == 0
    for (m, n), fn in originals.items():
        assert getattr(getattr(ft, m), n) is fn

    spans = tracer.spans
    cells = {s.cell for s in spans if s.name == "run_simulation"}
    assert cells == {("none", 8, 1), ("fic", 8, 1), ("cec", 8, 1), ("fc:16", 8, 1)}
    assert tracer.problems == {}
    m = layer_metrics(tracer)
    assert m["experiment.cells"] == m["tracing_sim.calls"] == 4
    assert m["selection.calls"] == 3
    assert m["spec_io.parse_s"] > 0
    accounted = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    assert accounted + m["unattributed_s"] == pytest.approx(m["traced_wall_s"])


def test_benchmark_json_names_every_metric_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer()
    with tracer.phase("setup"):
        pass
    with tracer.phase("pipeline"):
        pass
    per_layer = set(layer_metrics(tracer)) | {"trace_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "events_per_s", "peak_heap_mb"}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


# -- host-speed correction ---------------------------------------------------


def test_reference_loop_is_fixed_work():
    assert calibration.reference_loop(500) == calibration.reference_loop(500)
    assert calibration.pace() > 0


def test_correction_cancels_a_uniform_slowdown_but_not_a_slower_program():
    ref = calibration.REFERENCE_S
    assert calibration.corrected(1.0, ref) == pytest.approx(1.0)
    # The host at half speed: call and loop both take twice as long.
    assert calibration.corrected(2.0, 2 * ref) == pytest.approx(1.0)
    # The program twice as slow on the same host.
    assert calibration.corrected(2.0, ref) == pytest.approx(2.0)


def test_end_to_end_times_are_ratios_of_sums(tmp_path, monkeypatch):
    import run_bench

    monkeypatch.setattr(run_bench, "WORK", tmp_path)
    run = run_bench.Run("select-soc", 1, 0, None)
    ref = calibration.REFERENCE_S
    for seconds, pace, events in ((1.0, ref, 10), (3.0, 3 * ref, 10)):
        run.events.append(events)
        run.timed("wall_s", seconds, pace)
    run.sample("peak_heap_mb", 1.5)
    values = run.end_to_end()
    assert values["wall_s"] == pytest.approx(1.0)
    assert values["events_per_s"] == pytest.approx(10.0)
    assert run.samples["wall_s"] == pytest.approx([1.0, 1.0])
