"""Reconstruction, coverage scoring, and interleaving extraction."""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from flowtrace import coverage
from flowtrace.cli import main
from flowtrace.coverage import (
    InconsistentTrace,
    Interleaving,
    InstanceReconstruction,
    interleavings,
    reconstruct,
    reconstruct_result,
    score,
    score_result,
)
from flowtrace.experiment import COMPARE_METHODS, build_selection, scoped_flows
from flowtrace.flow_model import Event
from flowtrace.spec_io import parse_system
from flowtrace.tracing_sim import (
    EventRecord,
    InstanceTag,
    ObservabilityConfig,
    WorkloadConfig,
    replay_trace,
    run_simulation,
    run_workload,
)

from conftest import CPU_WRITE_SPEC, acyclic_flows, tag_counts
from reference_coverage import reference_reconstruct, reference_score


WR_REQ = Event("CPU_X", "Cache_X", "wr_req")
WR_RESP = Event("Cache_X", "CPU_X", "wr_resp")
WRITE_SPEC = parse_system(CPU_WRITE_SPEC)


@pytest.fixture(scope="module")
def write_spec():
    return WRITE_SPEC


def copies_of_cpu_write(*flow_ids: str) -> SimpleNamespace:
    """A spec whose flows are cpu_write under each of ``flow_ids``."""
    flow = WRITE_SPEC.flows[0]
    return SimpleNamespace(
        flow_by_id={fid: dataclasses.replace(flow, id=fid) for fid in flow_ids}
    )


def rec(
    transition: str, cycle: int, seq: int = 0, flow: str = "cpu_write"
) -> EventRecord:
    """The record of cpu_write's ``transition`` firing at ``cycle``, tagged
    as an instance of ``flow``."""
    tag = InstanceTag(flow, "CPU_X", seq)
    event = WRITE_SPEC.flows[0].labeling[transition]
    return EventRecord(cycle, event, "any", tag, transition)


# Start and end only; ``t2``'s snoop request is observed but not selected.
OUTSIDE_SELECTED = frozenset({WR_REQ, WR_RESP})
OUTSIDE_MESSAGE = (
    "instance cpu_write#CPU_X.0: observed events ['CPU_X:Cache_X:wr_req', "
    "'Cache_X:Cache_Y:snp_wr_req', 'Cache_X:CPU_X:wr_resp'] "
    "match no execution path of flow cpu_write"
)


class TestReconstruct:
    def test_start_and_end_only_leaves_all_three_paths(self, write_spec):
        observed = [rec("t1", 1), rec("t10", 9)]
        (r,) = reconstruct(observed, write_spec)
        assert r.started and r.completed
        assert len(r.candidate_paths) == 3

    def test_empty_trace_gives_no_reconstructions(self, write_spec):
        assert reconstruct([], write_spec) == []

    def test_snoop_event_eliminates_shortcut_path(self, write_spec):
        observed = [rec("t1", 1), rec("t2", 4), rec("t9", 9)]
        (r,) = reconstruct(observed, write_spec)
        assert set(r.candidate_paths) == {
            ("t1", "t2", "t3", "t9"),
            ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"),
        }

    def test_order_restored_from_cycles(self, write_spec):
        # Off-load order inverted relative to emission; cycles fix it.
        observed = [rec("t10", 9), rec("t1", 1)]
        (r,) = reconstruct(observed, write_spec)
        assert [e.event for e in r.observed_events] == [WR_REQ, WR_RESP]
        assert len(r.candidate_paths) == 3

    def test_started_but_not_completed(self, write_spec):
        (r,) = reconstruct([rec("t1", 1)], write_spec)
        assert r.started and not r.completed

    def test_interior_only_is_neither(self, write_spec):
        (r,) = reconstruct([rec("t2", 2)], write_spec)
        assert not r.started and not r.completed
        assert len(r.candidate_paths) == 2

    def test_impossible_order_raises(self, write_spec):
        observed = [rec("t2", 1), rec("t1", 2)]
        with pytest.raises(InconsistentTrace):
            reconstruct(observed, write_spec)

    def test_lossless_mode_pins_exact_path(self, write_spec):
        flow = write_spec.flows[0]
        selected = frozenset(flow.events)
        observed = [rec("t1", 1), rec("t10", 9)]
        (r,) = reconstruct(observed, write_spec, exact=selected)
        assert list(r.candidate_paths) == [("t1", "t10")]

    def test_lossless_mode_respects_partial_selection(self, write_spec):
        selected = frozenset({WR_REQ, WR_RESP})
        observed = [rec("t1", 1), rec("t10", 9)]
        (r,) = reconstruct(observed, write_spec, exact=selected)
        assert len(r.candidate_paths) == 3  # projection is (start, end) for all

    def test_lossless_rejects_a_label_outside_the_selection(self, write_spec):
        """Loss-free matching requires every observed label to be selected,
        so an observed event that was not selected (the snoop request here)
        matches no path; lossy matching accepts it."""
        observed = [rec("t1", 1), rec("t2", 4), rec("t9", 9)]
        with pytest.raises(InconsistentTrace) as exc_info:
            reconstruct(observed, write_spec, exact=OUTSIDE_SELECTED)
        assert str(exc_info.value) == OUTSIDE_MESSAGE
        (r,) = reconstruct(observed, write_spec)
        assert r.started and r.completed and len(r.candidate_paths) == 2

    def test_an_empty_exact_selection_is_still_exact(self, write_spec):
        """``exact=frozenset()`` is a loss-free capture of nothing, so any
        observed record contradicts it; only ``None`` reads a lossy one."""
        with pytest.raises(InconsistentTrace):
            reconstruct([rec("t1", 1)], write_spec, exact=frozenset())
        (r,) = reconstruct([rec("t1", 1)], write_spec, exact=None)
        assert len(r.candidate_paths) == 3

    def test_first_records_sharing_a_cycle_keep_first_appearance_order(
        self, write_spec
    ):
        """Instances whose first records share a cycle come out in the
        order their tags first appear in the off-load stream: here 1's
        later record is off-loaded before either first record."""
        observed = [rec("t10", 9, seq=1), rec("t1", 5, seq=0), rec("t1", 5, seq=1)]
        got = reconstruct(observed, write_spec)
        assert got == reference_reconstruct(observed, write_spec)
        assert [r.tag.seq for r in got] == [1, 0]
        assert (got[0].start_seen, got[0].end_seen) == ((2, 5), (0, 9))
        assert (got[1].start_seen, got[1].end_seen) == ((1, 5), None)


class TestReconstructMatchesReference:
    def test_memoised_matching_returns_the_reference_list(self, prototype):
        """Lossy runs (capacity 8, one event per cycle off-loaded) and
        lossless ones (a port as wide as the link count)."""
        links = len(prototype.topology.links)
        lossy = lossless = 0
        for seed in (1, 2, 3):
            truth = run_workload(
                prototype, WorkloadConfig(instances_per_initiator=20, seed=seed)
            )
            for scope in (None, ("CPU0", "GFX")):
                for method in ("none", "fic", "cec", "fc:16"):
                    events = build_selection(prototype, scope, method, 8).events
                    for bandwidth in (1, links):
                        obs = ObservabilityConfig(events, 8, bandwidth)
                        result = replay_trace(truth, obs)
                        assert result.lossless or bandwidth == 1
                        lossy += not result.lossless
                        lossless += result.lossless
                        for lossless in {False, result.lossless}:
                            case = (seed, scope, method, bandwidth, lossless)
                            want = reference_reconstruct(
                                result.observed, prototype, events, lossless
                            )
                            got = reconstruct(
                                result.observed, prototype, exact_of(events, lossless)
                            )
                            assert got == want, case
        assert lossy and lossless  # both kinds of capture were exercised

    def test_a_generator_gives_what_the_tuple_gives(self, prototype):
        truth = run_workload(
            prototype, WorkloadConfig(instances_per_initiator=20, seed=1)
        )
        for bandwidth in (1, len(prototype.topology.links)):
            obs = ObservabilityConfig(prototype.all_events, 8, bandwidth)
            result = replay_trace(truth, obs)
            for lossless in {False, result.lossless}:
                args = (prototype, exact_of(result.selected_events, lossless))
                want = reconstruct(result.observed, *args)
                assert want and reconstruct(iter(result.observed), *args) == want
                assert reconstruct(list(result.observed), *args) == want

    @given(acyclic_flows(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_generated_flows_match_the_reference(self, flow, data):
        """Flows whose labels repeat, including an end label mid-path, and
        traces that match no path; ``reconstruct`` reads only
        ``spec.flow_by_id``."""
        spec, selected, observed, _ = draw_trace(flow, data)
        for lossless in (False, True):
            got, want = matched(observed, spec, selected, lossless)
            assert got == want

    @given(acyclic_flows(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_exact_selections_with_repeated_and_unselected_labels(self, flow, data):
        """Loss-free matching on flows relabelled from two events, so every
        path of three or more steps repeats a label, under selections that
        may be empty and traces that may also show unselected labels."""
        pool = [Event("A", "B", "m0"), Event("B", "A", "m1")]
        labeling = {tid: data.draw(st.sampled_from(pool)) for tid in flow.labeling}
        flow = dataclasses.replace(flow, labeling=labeling)
        selected = frozenset(data.draw(st.sets(st.sampled_from(pool))))
        spec, _, observed, instances = draw_trace(
            flow, data, selected, unselected=True
        )
        got, want = matched(observed, spec, selected, True)
        assert got == want
        result = SimpleNamespace(
            observed=tuple(observed), selected_events=selected, lossless=True
        )
        scored(result, spec, {flow.id: instances})


def exact_of(selected, lossless):
    """``reconstruct``'s ``exact`` for a capture under ``selected``."""
    return selected if lossless else None


def matched(observed, spec, selected, lossless) -> list:
    """``reconstruct`` and the reference on one capture, each as its
    reconstructions or its :class:`InconsistentTrace` message."""
    outcomes = []
    for match, args in (
        (reconstruct, (exact_of(selected, lossless),)),
        (reference_reconstruct, (selected, lossless)),
    ):
        try:
            outcomes.append(match(observed, spec, *args))
        except InconsistentTrace as exc:
            outcomes.append(str(exc))
    return outcomes


def draw_trace(flow, data, selected=None, unselected=False):
    """A spec of ``flow`` alone, a selection (drawn unless given), and a
    trace in off-load order in which each instance shows its path's
    projection onto the selection, whole or with records lost; also the
    number of instances.  With ``unselected``, an instance may also show
    labels outside the selection."""
    spec = SimpleNamespace(flow_by_id={flow.id: flow})
    events = sorted(flow.events, key=str)
    if selected is None:
        selected = frozenset(data.draw(st.sets(st.sampled_from(events), min_size=1)))
    emitted: list[EventRecord] = []
    cycle = 0
    instances = data.draw(st.integers(1, 6))
    for seq in range(instances):
        path = data.draw(st.sampled_from(flow.paths))
        tag = InstanceTag(flow.id, "A", seq)
        lose = data.draw(st.booleans())
        for tid in path:
            event = flow.labeling[tid]
            cycle += data.draw(st.integers(1, 2))
            if event in selected:
                shown = not (lose and data.draw(st.booleans()))
            else:
                shown = unselected and data.draw(st.booleans())
            if shown:
                emitted.append(EventRecord(cycle, event, "l", tag, tid))
    return spec, selected, data.draw(st.permutations(emitted)), instances


class TestScore:
    def make(self, n_observed, n_complete, flow="cpu_write"):
        """A trace of ``n_observed`` instances of ``flow``, each showing its
        start event; the first ``n_complete`` also show their end event."""
        records = []
        for i in range(n_observed):
            records.append(rec("t1", 3 * i + 1, i, flow))
            if i < n_complete:
                records.append(rec("t10", 3 * i + 2, i, flow))
        return records

    def test_table_fic_ratio(self, write_spec):
        report = score(self.make(470, 0), write_spec, {"cpu_write": 500})
        assert report.fic == pytest.approx(0.94)
        assert report.observed_instances == 470

    def test_table_cec_ratio(self, write_spec):
        report = score(self.make(470, 101), write_spec, {"cpu_write": 500})
        assert report.cec == pytest.approx(0.202)
        assert report.complete_instances == 101

    def test_empty_recons(self, write_spec):
        report = score([], write_spec, {"cpu_write": 500})
        assert report.fic == 0.0 and report.cec == 0.0

    def test_monotone_ordering_invariants(self, write_spec):
        report = score(self.make(10, 4), write_spec, {"cpu_write": 20})
        assert report.complete_instances <= report.observed_instances
        assert report.observed_instances <= report.total_instances

    def test_pure_fold_permutation_invariant(self, write_spec):
        """The off-load order of the records changes nothing: each
        instance's records are put back in cycle order."""
        records = self.make(25, 7)
        shuffled = records[:]
        random.Random(3).shuffle(shuffled)
        assert shuffled != records
        assert score(records, write_spec, {"cpu_write": 30}) == score(
            shuffled, write_spec, {"cpu_write": 30}
        )

    def test_error_messages(self):
        """The scored flows may not show more instances than they
        executed; instances of other flows are neither checked nor counted."""
        spec = copies_of_cpu_write("cpu_write", "other")
        records = self.make(3, 1) + self.make(2, 0, flow="other")
        with pytest.raises(
            ValueError, match="^more reconstructed tags than executed instances$"
        ):
            score(records, spec, {"cpu_write": 2})
        with pytest.raises(
            ValueError, match="^more reconstructed tags than executed instances$"
        ):
            score(records, spec, {"cpu_write": 2, "other": 1})
        # Instances of flows outside the totals are not counted.
        report = score(records, spec, {"cpu_write": 3})
        assert report.observed_instances == 3
        assert report.per_flow == {"cpu_write": (3, 1, 3)}

    def test_matches_the_multi_pass_fold(self):
        """Random traces of four flows, some missing from the totals, with
        lost records and instances that show no start or no end, read
        lossy and exactly; the totals may be below the observed count."""
        rng = random.Random(11)
        flows = ("f0", "f1", "f2", "f3")
        spec = copies_of_cpu_write(*flows)
        flow = WRITE_SPEC.flows[0]
        reports = 0
        errors = set()
        for _ in range(400):
            observed = []
            for seq in range(rng.randint(0, 12)):
                tag = InstanceTag(rng.choice(flows), "A", seq)
                for step, tid in enumerate(rng.choice(flow.paths)):
                    if rng.random() < 0.8:
                        cycle = 10 * seq + step
                        event = flow.labeling[tid]
                        observed.append(EventRecord(cycle, event, "l", tag, tid))
            rng.shuffle(observed)
            per_flow_n = {
                fid: rng.randint(0, 6) for fid in flows if rng.random() < 0.7
            }
            for selected, lossless in ((None, False), (flow.events, True)):
                result = SimpleNamespace(
                    observed=tuple(observed),
                    selected_events=selected,
                    lossless=lossless,
                )
                got = scored(result, spec, per_flow_n)
                if isinstance(got, tuple):
                    errors.add(got[0])
                else:
                    reports += 1
                    assert list(got.per_flow) == list(per_flow_n)
        assert reports and errors == {InconsistentTrace, ValueError}

    def test_per_flow_breakdown(self, write_spec):
        records = self.make(3, 1)
        report = score(records, write_spec, {"cpu_write": 10, "other": 5})
        assert report.per_flow["cpu_write"] == (3, 1, 10)
        assert report.per_flow["other"] == (0, 0, 5)
        assert report.total_instances == 15

    def test_json_and_table_render(self, write_spec):
        report = score(self.make(3, 1), write_spec, {"cpu_write": 10})
        data = report.to_json()
        assert data["observed"] == 3 and data["complete"] == 1
        table = report.format_table()
        assert "3/10" in table and "1/10" in table


def scored(result, spec, per_flow_n):
    """``score_result``, ``score`` with the result's exactness and the
    reference fold over the reference reconstruction, which must agree;
    returns their report or their exception's type and message."""
    exact = result.selected_events if result.lossless else None
    outcomes = []
    for fold in (
        lambda: score_result(result, spec, per_flow_n),
        lambda: score(result.observed, spec, per_flow_n, exact),
        lambda: reference_score(
            reference_reconstruct(
                result.observed, spec, result.selected_events, result.lossless
            ),
            per_flow_n,
        ),
    ):
        try:
            outcomes.append(fold())
        except (InconsistentTrace, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
    got, *others = outcomes
    assert others == [got, got]
    return got


class TestScoreResult:
    """``score_result`` and ``score`` give the reference fold's report of
    the reference reconstruction."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_prototype_replays_score_alike(self, prototype, seed):
        truth = run_workload(
            prototype, WorkloadConfig(instances_per_initiator=20, seed=seed)
        )
        executed = truth.instances_per_flow()
        scope = scoped_flows(prototype, ("CPU0", "GFX"))
        scoped = {f.id: executed.get(f.id, 0) for f in scope}
        with_idle = {**executed, "never_ran": 4}
        assert scoped and len(scoped) < len(executed)
        lossless = lossy = 0
        for method in COMPARE_METHODS:
            for capacity in (8, 32):
                events = build_selection(prototype, None, method, capacity).events
                obs = ObservabilityConfig(events, capacity)
                for drain in (True, False):
                    result = replay_trace(truth, obs, drain=drain)
                    lossless += result.lossless
                    lossy += not result.lossless
                    for per_flow_n in (executed, scoped, with_idle):
                        got = scored(result, prototype, per_flow_n)
                        assert isinstance(got, coverage.CoverageReport)
        assert lossless and lossy  # both kinds of capture were exercised

    @given(acyclic_flows(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_generated_traces_score_alike(self, flow, data):
        """Including traces that match no path and instance counts below
        the reconstructed tags."""
        spec, selected, observed, instances = draw_trace(flow, data)
        per_flow_n = {flow.id: data.draw(st.integers(0, instances)), "other": 2}
        for lossless in (False, True):
            result = SimpleNamespace(
                observed=tuple(observed), selected_events=selected, lossless=lossless
            )
            scored(result, spec, per_flow_n)

    def test_lossless_rejects_a_label_outside_the_selection(self, write_spec):
        def result(lossless: bool) -> SimpleNamespace:
            return SimpleNamespace(
                observed=(rec("t1", 1), rec("t2", 4), rec("t9", 9)),
                selected_events=OUTSIDE_SELECTED,
                lossless=lossless,
            )

        with pytest.raises(InconsistentTrace) as exc_info:
            score_result(result(True), write_spec, {"cpu_write": 1})
        assert str(exc_info.value) == OUTSIDE_MESSAGE
        report = score_result(result(False), write_spec, {"cpu_write": 1})
        assert (report.fic, report.cec) == (1.0, 1.0)

    def test_errors_are_raised_alike(self, prototype):
        truth = run_workload(
            prototype, WorkloadConfig(instances_per_initiator=20, seed=1)
        )
        result = replay_trace(truth, ObservabilityConfig(prototype.all_events, 8))
        executed = truth.instances_per_flow()
        observed = result.observed
        # Reversed emission order matches no path: the first tag in
        # off-load order with two distinct observed labels is named.
        reversed_cycles = tuple(r._replace(cycle=-r.cycle) for r in observed)
        unknown = tuple(
            r._replace(tag=r.tag._replace(flow="nope")) if i == 40 else r
            for i, r in enumerate(observed)
        )
        cases = [
            (reversed_cycles, executed, InconsistentTrace, "instance "),
            (unknown, executed, ValueError, "observed tag "),
            (observed, dict.fromkeys(executed, 1), ValueError, "more reconstructed"),
        ]
        for trace, per_flow_n, kind, message in cases:
            corrupted = dataclasses.replace(result, observed=trace)
            got = scored(corrupted, prototype, per_flow_n)
            assert got[0] is kind and got[1].startswith(message)

    def test_the_grid_builds_no_reconstructions(self, tmp_path, monkeypatch, capsys):
        """``compare`` writes the same cell bytes with ``reconstruct`` and
        ``InstanceReconstruction`` unusable."""
        plan = {
            "seeds": [1, 2],
            "capacities": [8, 32],
            "workload": {"instances_per_initiator": 10},
        }

        def run(out: Path) -> dict[str, bytes]:
            plan_file = tmp_path / f"{out.name}.json"
            plan_file.write_text(json.dumps({**plan, "out_dir": str(out)}))
            assert main(["compare", str(plan_file)]) == 0
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        want = run(tmp_path / "plain")

        def unusable(*args, **kwargs):
            raise AssertionError("the grid built a reconstruction")

        monkeypatch.setattr(coverage, "reconstruct", unusable)
        monkeypatch.setattr(coverage, "InstanceReconstruction", unusable)
        got = run(tmp_path / "patched")
        assert len(got) == 2 * 2 * len(COMPARE_METHODS) + 1
        assert got == want


def completed_recon(seq, start, end, flow="cpu_write"):
    tag = InstanceTag(flow, "CPU_X", seq)
    return InstanceReconstruction(
        tag=tag,
        observed_events=(rec("t1", start, seq), rec("t10", end, seq)),
        started=True,
        completed=True,
        candidate_paths=(),
        start_seen=(start, start),
        end_seen=(end, end),
    )


def brute_force_relation(a0, a1, b0, b1):
    """Independent interval classifier by explicit case analysis."""
    if a1 < b0:
        return "a_precedes_b"
    if b1 < a0:
        return "b_precedes_a"
    if a0 < b0 and b1 < a1:
        return "a_contains_b"
    if b0 < a0 and a1 < b1:
        return "b_contains_a"
    return "overlap"


class TestInterleavings:
    def test_contains(self):
        a = completed_recon(0, 0, 100)
        b = completed_recon(1, 10, 50)
        assert interleavings([a, b]) == [(a.tag, b.tag, Interleaving.CONTAINS)]

    def test_precedes(self):
        a = completed_recon(0, 0, 50)
        b = completed_recon(1, 60, 100)
        assert interleavings([a, b]) == [(a.tag, b.tag, Interleaving.PRECEDES)]

    def test_boundary_tie_is_overlap(self):
        a = completed_recon(0, 0, 50)
        b = completed_recon(1, 50, 100)
        assert interleavings([a, b]) == [(a.tag, b.tag, Interleaving.OVERLAPS)]

    def test_incomplete_instances_ignored(self):
        a = completed_recon(0, 0, 50)
        b = InstanceReconstruction(
            tag=InstanceTag("cpu_write", "CPU_X", 9),
            observed_events=(rec("t1", 1, 9),),
            started=True,
            completed=False,
            candidate_paths=(),
            start_seen=(1, 1),
        )
        assert interleavings([a, b]) == []

    def test_matches_brute_force_on_random_intervals(self):
        rng = random.Random(11)
        for _ in range(200):
            a0, a1 = sorted(rng.sample(range(100), 2))
            b0, b1 = sorted(rng.sample(range(100), 2))
            a = completed_recon(0, a0, a1)
            b = completed_recon(1, b0, b1)
            ((ta, tb, relation),) = interleavings([a, b])
            expected = brute_force_relation(a0, a1, b0, b1)
            if expected == "a_precedes_b":
                assert (ta, tb, relation) == (a.tag, b.tag, Interleaving.PRECEDES)
            elif expected == "b_precedes_a":
                assert (ta, tb, relation) == (b.tag, a.tag, Interleaving.PRECEDES)
            elif expected == "a_contains_b":
                assert (ta, tb, relation) == (a.tag, b.tag, Interleaving.CONTAINS)
            elif expected == "b_contains_a":
                assert (ta, tb, relation) == (b.tag, a.tag, Interleaving.CONTAINS)
            else:
                assert relation == Interleaving.OVERLAPS


class TestEndToEnd:
    def test_full_observability_identity(self, prototype):
        obs = ObservabilityConfig(prototype.all_events, 10_000)
        result = run_simulation(
            prototype, WorkloadConfig(instances_per_initiator=20, seed=5), obs
        )
        assert result.lossless
        report = score_result(result, prototype, tag_counts(result.ground_truth))
        assert report.fic == 1.0
        assert report.cec == 1.0
        assert report.path_resolved == 1.0

    def test_flows_outside_the_totals_are_not_counted(self, prototype):
        obs = ObservabilityConfig(prototype.all_events, 64)
        result = run_simulation(
            prototype, WorkloadConfig(instances_per_initiator=20, seed=1), obs
        )
        recons = reconstruct_result(result, prototype)
        coherent = {
            fid: n for fid, n in tag_counts(result.ground_truth).items()
            if fid.startswith("coh_")
        }
        assert len(coherent) == 4 and len(recons) > sum(coherent.values())
        report = score_result(result, prototype, coherent)
        assert set(report.per_flow) == set(coherent)
        assert report.total_instances == sum(coherent.values())
        in_scope = [r for r in recons if r.tag.flow in coherent]
        assert report.observed_instances == len(in_scope)
        assert report.complete_instances == sum(r.completed for r in in_scope)

    def test_ground_truth_path_always_candidate_under_loss(self, prototype):
        obs = ObservabilityConfig(prototype.all_events, 8)
        result = run_simulation(prototype, WorkloadConfig(seed=31), obs)
        true_paths = {}
        for record in result.ground_truth:
            true_paths.setdefault(record.tag, []).append(record.transition)
        recons = reconstruct_result(result, prototype)
        assert result.total_drops > 0
        for r in recons:
            assert tuple(true_paths[r.tag]) in r.candidate_paths

    def test_deleting_records_never_raises_coverage(self, prototype):
        obs = ObservabilityConfig(prototype.all_events, 16)
        workload = WorkloadConfig(instances_per_initiator=20, seed=8)
        result = run_simulation(prototype, workload, obs)
        per_flow = tag_counts(result.ground_truth)
        observed = list(result.observed)
        rng = random.Random(4)
        report = score(observed, prototype, per_flow)
        for _ in range(40):
            observed.pop(rng.randrange(len(observed)))
            next_report = score(observed, prototype, per_flow)
            assert next_report.fic <= report.fic
            assert next_report.cec <= report.cec
            report = next_report

    def test_interleavings_from_simulation(self, prototype):
        obs = ObservabilityConfig(prototype.all_events, 64)
        result = run_simulation(
            prototype, WorkloadConfig(instances_per_initiator=10, seed=2), obs
        )
        recons = reconstruct_result(result, prototype)
        complete = [r for r in recons if r.completed]
        relations = interleavings(recons)
        n = len(complete)
        assert len(relations) == n * (n - 1) // 2
        by_cycles = interleavings(recons, use_emission_cycles=True)
        assert len(by_cycles) == len(relations)
