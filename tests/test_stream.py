"""The streamed grid: each seed's records pass once through every cell's
trace module and tally, in chunks, with the cell bodies of a whole ground
truth replayed and scored per cell (``reference_grid``), in bounded
memory, and with its invariants checked also under ``python -O``."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import reference_grid
from conftest import bench_module
from flowtrace import experiment, tracing_sim
from flowtrace.coverage import InconsistentTrace, _Tally
from flowtrace.flow_model import PathAutomaton
from flowtrace.spec_io import parse_system
from flowtrace.tracing_sim import (
    EventRecord,
    ObservabilityConfig,
    WorkloadConfig,
    _stream_workload,
    replay_trace,
    run_workload,
)

ROOT = Path(__file__).resolve().parents[1]
SCOPE = ("CPU0", "GFX", "CPU1")


def grid_cells(spec, plan, capacities=(1, 8, 32)):
    return [
        experiment._cell_config(spec, plan, method, capacity)
        for method in experiment.COMPARE_METHODS
        for capacity in capacities
    ]


@pytest.mark.parametrize("chunk", [1, 2, 7, 1024])
@pytest.mark.parametrize("drain", [True, False])
@pytest.mark.parametrize("bandwidth", [1, 2])
@pytest.mark.parametrize("scope", [None, SCOPE])
def test_streamed_cells_equal_cells_of_a_whole_ground_truth(
    prototype, monkeypatch, chunk, drain, bandwidth, scope
):
    """Every compare method at capacities 1, 8 and 32, lossy and not;
    chunks of 1, 2 and 7 records end inside a cycle."""
    monkeypatch.setattr(tracing_sim, "_CHUNK", chunk)
    plan = experiment.ExperimentPlan(
        scope=scope,
        seeds=(3, 5, 11),
        instances_per_initiator=12,
        port_bandwidth=bandwidth,
        drain=drain,
    )
    cells = grid_cells(prototype, plan)
    for seed in plan.seeds:
        want = reference_grid._seed_bodies(prototype, plan, cells, seed)
        assert experiment._seed_bodies(prototype, plan, cells, seed) == want


@pytest.mark.parametrize("chunk", [1, 3, 1024])
def test_chunks_hold_the_ground_truth_and_each_finished_tag_once(prototype, monkeypatch, chunk):
    """The chunks are the ground truth in firing order, and each tag is
    reported finished once, with or after the chunk of its last record."""
    monkeypatch.setattr(tracing_sim, "_CHUNK", chunk)
    workload = WorkloadConfig(instances_per_initiator=10, seed=6)
    truth = reference_grid.run_workload(prototype, workload)
    last = {rec.tag: i for i, rec in enumerate(truth.records)}
    records, finished, ends = [], [], []
    for part, done, end in _stream_workload(prototype, workload):
        assert len(part) <= chunk
        records += part
        assert all(last[tag] < len(records) for tag in done if tag in last)
        finished += done
        ends.append(end)
    assert tuple(records) == truth.records
    assert ends[-1] == (truth.cycles, truth.flow_instances)
    assert ends[:-1] == [None] * (len(ends) - 1)
    assert len(finished) == len(set(finished)) == sum(truth.flow_instances.values())
    got = run_workload(prototype, workload)
    assert (got.records, got.cycles, got.flow_instances) == (
        truth.records, truth.cycles, truth.flow_instances
    )


def test_the_stream_carries_plain_tuples_and_records_leave_as_event_records(prototype):
    """Inside the package a record is the exact tuple laid out as an
    EventRecord; the ground truth and the observed trace hold EventRecords."""
    workload = WorkloadConfig(instances_per_initiator=5, seed=3)
    streamed = [rec for chunk, _, _ in _stream_workload(prototype, workload) for rec in chunk]
    assert streamed and all(type(rec) is tuple for rec in streamed)
    truth = run_workload(prototype, workload)
    result = replay_trace(truth, ObservabilityConfig(prototype.all_events, 1))
    assert 0 < len(result.observed) < len(truth.records) == len(streamed)
    for records in (truth.records, result.observed):
        assert all(type(rec) is EventRecord for rec in records)
    assert list(truth.records) == streamed
    rec = result.observed[-1]
    assert (rec.cycle, rec.event, rec.link, rec.tag, rec.transition) == tuple(rec)
    assert rec.tag.flow == rec.tag[0] and rec.event in prototype.all_events


@pytest.fixture(params=[True, False], ids=["collector on", "collector off"])
def collector(request):
    """The cyclic collector's state before the test, restored after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


@pytest.fixture
def collector_states(monkeypatch) -> list[bool]:
    """Whether the collector was enabled as each chunk of any stream came."""
    stream, states = tracing_sim._stream_workload, []

    def watched(*args):
        for part in stream(*args):
            states.append(gc.isenabled())
            yield part

    monkeypatch.setattr(experiment, "_stream_workload", watched)
    monkeypatch.setattr(tracing_sim, "_stream_workload", watched)
    return states


def test_the_collector_is_paused_while_a_seed_streams(prototype, collector, collector_states):
    plan = experiment.ExperimentPlan(seeds=(1,), instances_per_initiator=5)
    experiment._seed_bodies(prototype, plan, grid_cells(prototype, plan, (8,)), 1)
    assert gc.isenabled() == collector
    run_workload(prototype, plan.workload(1))
    assert gc.isenabled() == collector
    assert len(collector_states) >= 2 and not any(collector_states)
    with tracing_sim._collector_paused():
        with tracing_sim._collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled() == collector


def test_the_collector_is_restored_when_a_seed_raises(
    prototype, monkeypatch, collector, collector_states
):
    """A Livelock in the engine, an error in a cell's tally, and the error
    path of a tag that matches no path, whose whole-cell replay runs the
    workload again under a nested pause."""
    plan = experiment.ExperimentPlan(seeds=(1,), instances_per_initiator=5)
    cells = grid_cells(prototype, plan, (8,))
    with monkeypatch.context() as patch:
        patch.setattr(tracing_sim, "_CYCLE_BUDGET", 4)
        for run in (lambda: experiment._seed_bodies(prototype, plan, cells, 1),
                    lambda: run_workload(prototype, plan.workload(1))):
            with pytest.raises(tracing_sim.Livelock):
                run()
            assert gc.isenabled() == collector

    def read(self, records):
        raise RuntimeError("tally failed")

    with monkeypatch.context() as patch:
        patch.setattr(_Tally, "read", read)
        with pytest.raises(RuntimeError, match="tally failed"):
            experiment._seed_bodies(prototype, plan, cells, 1)
    assert gc.isenabled() == collector
    real = PathAutomaton.candidates

    def candidates(self, state, exact=None):
        return () if self.flow_id == "up_rd_aud" else real(self, state, exact)

    monkeypatch.setattr(PathAutomaton, "candidates", candidates)
    del collector_states[:]
    with pytest.raises(InconsistentTrace):
        experiment._seed_bodies(prototype, plan, cells, 1)
    assert gc.isenabled() == collector
    assert len(collector_states) >= 2 and not any(collector_states)


# ``A`` starts one flow and ``B`` two, and both answer over the memory's
# links; without its initiator lines nothing starts.
MIXED_FLOWS = """\
system mixed
component A B M
link am A -> M
link bm B -> M
link ma M -> A
link mb M -> B
flow a_rd
  place p0 initial
  place p1
  place p2 end
  transition t0 pre {p0} post {p1} event A:M:rd on am
  transition t1 pre {p1} post {p2} event M:A:data on ma
flow b_rd
  place p0 initial
  place p1
  place p2 end
  transition t0 pre {p0} post {p1} event B:M:rd on bm
  transition t1 pre {p1} post {p2} event M:B:data on mb
flow b_wr
  place p0 initial
  place p1 p2
  place p3 end
  transition t0 pre {p0} post {p1} event B:M:wr on bm
  transition t1 pre {p1} post {p3} event M:B:ack on mb
  transition t2 pre {p1} post {p2} event M:B:retry on mb
  transition t3 pre {p2} post {p3} event B:M:wr2 on bm
"""
MIXED_INITIATORS = "initiator A flows {a_rd}\ninitiator B flows {b_rd,b_wr}\n"


def reference_chunks(truth, chunk: int) -> list:
    """The chunks that streaming a whole ground truth gives: a tag finishes
    right after its last record, so in the next chunk when that record
    fills one; the last chunk, empty of records or not, ends the run."""
    records = truth.records
    parts = [list(records[k : k + chunk]) for k in range(0, len(records) + 1, chunk)]
    finished = [[] for _ in parts]
    last = {rec.tag: i for i, rec in enumerate(records)}
    for tag, i in sorted(last.items(), key=lambda item: item[1]):
        finished[(i + 1) // chunk].append(tag)
    ends = [None] * (len(parts) - 1) + [(truth.cycles, truth.flow_instances)]
    return list(zip(parts, finished, ends))


@pytest.fixture(scope="module")
def schedule_specs(prototype):
    """The prototype, two generated SoCs, a spec mixing a one-flow and a
    two-flow initiator, and specs with no initiators."""
    socgen = bench_module("socgen")
    return {
        "prototype": prototype,
        "soc(3, 2, 1)": parse_system(socgen.soc(3, 2, 1)),
        "soc(4, 4, 1)": parse_system(socgen.soc(4, 4, 1)),
        "mixed": parse_system(MIXED_FLOWS + MIXED_INITIATORS),
        "no initiators": parse_system(MIXED_FLOWS),
        "no flows": parse_system("system x\n"),
    }


@pytest.mark.parametrize("chunk", [1, 1024])
@pytest.mark.parametrize(
    "workload",
    [
        dict(instances_per_initiator=1),
        dict(instances_per_initiator=12),
        dict(instances_per_initiator=12, initiation_delay=(3, 3)),
        dict(instances_per_initiator=12, initiation_delay=(1, 1), transition_latency=(2, 2)),
        dict(instances_per_initiator=4, initiation_delay=(2**64, 2**64 + 7)),
    ],
    ids=["one instance", "default delays", "fixed delay", "back to back", "delays past 2**64"],
)
def test_the_lazy_schedule_streams_the_pre_drawn_schedules_run(
    schedule_specs, monkeypatch, chunk, workload
):
    """Merging per-initiator draws lazily initiates what the sorted,
    pre-drawn schedule did: the same records and finished tags per chunk,
    cycles and instances per flow (compared as a mapping)."""
    monkeypatch.setattr(tracing_sim, "_CHUNK", chunk)
    for label, spec in schedule_specs.items():
        for seed in (1, 2, 9):
            config = WorkloadConfig(seed=seed, **workload)
            want = reference_chunks(reference_grid.run_workload(spec, config), chunk)
            got = list(_stream_workload(spec, config))
            assert len(got) == len(want), (label, seed)
            for k, (part, want_part) in enumerate(zip(got, want)):
                assert part == want_part, (label, seed, k)


@pytest.mark.parametrize("drain", [True, False])
def test_the_grid_empties_each_chunk_before_the_engine_builds_the_next(
    prototype, monkeypatch, drain
):
    """Once every cell has read a chunk, nothing keeps its records: the
    grid empties it, and the cells still equal the reference's."""
    stream = tracing_sim._stream_workload
    sizes = []

    def watched(*args, **kwargs):
        for chunk, finished, end in stream(*args, **kwargs):
            sizes.append(len(chunk))
            yield chunk, finished, end
            assert chunk == [], "a chunk outlived its reading"

    monkeypatch.setattr(experiment, "_stream_workload", watched)
    monkeypatch.setattr(tracing_sim, "_CHUNK", 64)
    plan = experiment.ExperimentPlan(seeds=(4,), instances_per_initiator=12, drain=drain)
    cells = grid_cells(prototype, plan, (1, 8))
    want = reference_grid._seed_bodies(prototype, plan, cells, 4)
    assert experiment._seed_bodies(prototype, plan, cells, 4) == want
    assert len(sizes) > 2 and sum(sizes) == want[0]["ground_truth_events"]


def test_a_livelock_is_raised_after_the_chunks_before_it(prototype, monkeypatch):
    workload = WorkloadConfig(instances_per_initiator=5, transition_latency=(3, 3), seed=1)
    with pytest.raises(tracing_sim.Livelock) as want:
        reference_grid.run_workload(prototype, workload, cycle_budget=4)
    monkeypatch.setattr(tracing_sim, "_CYCLE_BUDGET", 4)
    with pytest.raises(tracing_sim.Livelock) as got:
        list(_stream_workload(prototype, workload))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("lanes", [1, 2])
def test_a_tag_that_matches_no_path_raises_the_whole_cell_error(
    prototype, monkeypatch, force_lanes, lanes
):
    """With one flow's automaton finding no path, the grid raises the
    message of that cell replayed and scored whole."""
    force_lanes(lanes)
    real = PathAutomaton.candidates

    def candidates(self, state, exact=None):
        return () if self.flow_id == "up_rd_aud" else real(self, state, exact)

    monkeypatch.setattr(PathAutomaton, "candidates", candidates)
    plan = experiment.ExperimentPlan(
        selection_method="cec", seeds=(2, 1), instances_per_initiator=8, out_dir="unused"
    )
    cells = grid_cells(prototype, plan, (8,))
    with pytest.raises(InconsistentTrace) as want:
        reference_grid._seed_bodies(prototype, plan, cells, 2)
    assert "up_rd_aud" in str(want.value)
    monkeypatch.setattr(experiment, "write_cell", lambda out_dir, body: body)
    with pytest.raises(InconsistentTrace) as got:
        experiment._run_grid(prototype, plan, cells)
    assert str(got.value) == str(want.value)


def peak_heap(spec, instances: int) -> tuple[int, int]:
    """Peak traced heap of one seed's four compare cells at capacity 8,
    drain on, and the seed's ground-truth records."""
    plan = experiment.ExperimentPlan(instances_per_initiator=instances, seeds=(1,))
    cells = grid_cells(spec, plan, (8,))
    experiment._seed_bodies(spec, plan, cells, 1)  # grows the automata's memo first
    tracemalloc.start()
    try:
        bodies = experiment._seed_bodies(spec, plan, cells, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, bodies[0]["ground_truth_events"]


def test_peak_heap_grows_by_at_most_8_bytes_per_record(prototype):
    """A whole ground truth costs about 150 bytes of heap per record; the
    stream holds one chunk, the live tags, the queues and each initiator's
    drawn delays and flow ids (small ints and shared strings), so about 4
    bytes per record grow."""
    small, small_records = peak_heap(prototype, 200)
    large, large_records = peak_heap(prototype, 2000)
    growth = (large - small) / (large_records - small_records)
    assert growth <= 8, f"{growth:.1f} bytes per record"


LOSSY_PLAN = {
    "selection": "cec",
    "scope": list(SCOPE),
    "capacities": [1, 2],
    "seeds": [1, 2],
    "workload": {"instances_per_initiator": 10},
    "drain": False,
}


def test_cells_are_the_same_under_python_O(tmp_path):
    """The replay's invariants are raises, not asserts: a drain-off, lossy
    ``run`` writes the same bytes with and without ``-O``."""
    outputs = []
    for flags in ((), ("-O",)):
        out_dir = tmp_path / f"out{len(outputs)}"
        plan = tmp_path / f"plan{len(outputs)}.json"
        plan.write_text(json.dumps(dict(LOSSY_PLAN, out_dir=str(out_dir))), encoding="utf-8")
        run = subprocess.run(
            [sys.executable, *flags, "-m", "flowtrace.cli", "run", str(plan)],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert (run.returncode, run.stderr) == (0, "")
        outputs.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
    cells = [name for name in outputs[0] if name.startswith("cec_")]
    assert len(cells) == 4 and outputs[1] == outputs[0]
    bodies = [json.loads(outputs[0][name]) for name in cells]
    assert all(body["drops"] or body["residual"] for body in bodies)
    assert any(sum(body["residual"].values()) for body in bodies)
