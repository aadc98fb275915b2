"""Reconstruction, coverage scoring, and interleaving extraction."""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from flowtrace.coverage import (
    InconsistentTrace,
    Interleaving,
    InstanceReconstruction,
    interleavings,
    reconstruct,
    reconstruct_result,
    score,
)
from flowtrace.experiment import build_selection
from flowtrace.flow_model import Event, path_labels
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

from conftest import CPU_WRITE_SPEC, acyclic_flows
from reference_coverage import reference_reconstruct


WR_REQ = Event("CPU_X", "Cache_X", "wr_req")
WR_RESP = Event("Cache_X", "CPU_X", "wr_resp")
SNP_REQ = Event("Cache_X", "Cache_Y", "snp_wr_req")


@pytest.fixture(scope="module")
def write_spec():
    return parse_system(CPU_WRITE_SPEC)


def rec(event: Event, cycle: int, seq: int = 0) -> EventRecord:
    tag = InstanceTag("cpu_write", "CPU_X", seq)
    return EventRecord(cycle, event, "any", tag)


class TestReconstruct:
    def test_start_and_end_only_leaves_all_three_paths(self, write_spec):
        observed = [rec(WR_REQ, 1), rec(WR_RESP, 9)]
        (r,) = reconstruct(observed, write_spec)
        assert r.started and r.completed
        assert len(r.candidate_paths) == 3

    def test_empty_trace_gives_no_reconstructions(self, write_spec):
        assert reconstruct([], write_spec) == []

    def test_snoop_event_eliminates_shortcut_path(self, write_spec):
        observed = [rec(WR_REQ, 1), rec(SNP_REQ, 4), rec(WR_RESP, 9)]
        (r,) = reconstruct(observed, write_spec)
        assert {tuple(p.transitions) for p in r.candidate_paths} == {
            ("t1", "t2", "t3", "t9"),
            ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"),
        }

    def test_order_restored_from_cycles(self, write_spec):
        # Off-load order inverted relative to emission; cycles fix it.
        observed = [rec(WR_RESP, 9), rec(WR_REQ, 1)]
        (r,) = reconstruct(observed, write_spec)
        assert [e.event for e in r.observed_events] == [WR_REQ, WR_RESP]
        assert len(r.candidate_paths) == 3

    def test_started_but_not_completed(self, write_spec):
        (r,) = reconstruct([rec(WR_REQ, 1)], write_spec)
        assert r.started and not r.completed

    def test_interior_only_is_neither(self, write_spec):
        (r,) = reconstruct([rec(SNP_REQ, 2)], write_spec)
        assert not r.started and not r.completed
        assert len(r.candidate_paths) == 2

    def test_impossible_order_raises(self, write_spec):
        observed = [rec(SNP_REQ, 1), rec(WR_REQ, 2)]
        with pytest.raises(InconsistentTrace):
            reconstruct(observed, write_spec)

    def test_lossless_mode_pins_exact_path(self, write_spec):
        flow = write_spec.flows[0]
        selected = frozenset(flow.events)
        observed = [rec(WR_REQ, 1), rec(WR_RESP, 9)]
        (r,) = reconstruct(observed, write_spec, selected, lossless=True)
        assert [tuple(p.transitions) for p in r.candidate_paths] == [("t1", "t10")]

    def test_lossless_mode_respects_partial_selection(self, write_spec):
        selected = frozenset({WR_REQ, WR_RESP})
        observed = [rec(WR_REQ, 1), rec(WR_RESP, 9)]
        (r,) = reconstruct(observed, write_spec, selected, lossless=True)
        assert len(r.candidate_paths) == 3  # projection is (start, end) for all

    def test_lossless_requires_selection(self, write_spec):
        with pytest.raises(ValueError):
            reconstruct([rec(WR_REQ, 1)], write_spec, lossless=True)


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
                        for exact in {False, result.lossless}:
                            args = (result.observed, prototype, events, exact)
                            case = (seed, scope, method, bandwidth, exact)
                            want = reference_reconstruct(*args)
                            assert reconstruct(*args) == want, case
        assert lossy and lossless  # both matching branches were exercised

    @given(acyclic_flows(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_generated_flows_match_the_reference(self, flow, data):
        """Flows whose labels repeat, including an end label mid-path, and
        traces that match no path; ``reconstruct`` reads only
        ``spec.flow_by_id``.  Each instance shows its path's projection
        onto ``selected``, whole or with records lost."""
        spec = SimpleNamespace(flow_by_id={flow.id: flow})
        events = sorted(flow.events, key=str)
        selected = frozenset(data.draw(st.sets(st.sampled_from(events), min_size=1)))
        emitted: list[EventRecord] = []
        cycle = 0
        for seq in range(data.draw(st.integers(1, 6))):
            path = data.draw(st.sampled_from(flow.paths))
            tag = InstanceTag(flow.id, "A", seq)
            lose = data.draw(st.booleans())
            for event in path_labels(flow, path):
                cycle += data.draw(st.integers(1, 2))
                if event in selected and not (lose and data.draw(st.booleans())):
                    emitted.append(EventRecord(cycle, event, "l", tag))
        observed = data.draw(st.permutations(emitted))  # off-load order

        def outcome(match, lossless):
            try:
                return match(observed, spec, selected, lossless)
            except InconsistentTrace as exc:
                return str(exc)

        for lossless in (False, True):
            assert outcome(reconstruct, lossless) == outcome(
                reference_reconstruct, lossless
            )


class TestScore:
    def make(self, n_observed, n_complete, flow="cpu_write"):
        recons = []
        for i in range(n_observed):
            completed = i < n_complete
            recons.append(
                InstanceReconstruction(
                    tag=InstanceTag(flow, "CPU_X", i),
                    observed_events=(rec(WR_REQ, 1, i),),
                    started=True,
                    completed=completed,
                    candidate_paths=(),
                )
            )
        return recons

    def test_table_fic_ratio(self):
        report = score(self.make(470, 0), {"cpu_write": 500})
        assert report.fic == pytest.approx(0.94)
        assert report.observed_instances == 470

    def test_table_cec_ratio(self):
        report = score(self.make(470, 101), {"cpu_write": 500})
        assert report.cec == pytest.approx(0.202)
        assert report.complete_instances == 101

    def test_empty_recons(self):
        report = score([], {"cpu_write": 500})
        assert report.fic == 0.0 and report.cec == 0.0

    def test_monotone_ordering_invariants(self):
        report = score(self.make(10, 4), {"cpu_write": 20})
        assert report.complete_instances <= report.observed_instances
        assert report.observed_instances <= report.total_instances

    def test_pure_fold_permutation_invariant(self):
        recons = self.make(25, 7)
        rng = random.Random(3)
        shuffled = recons[:]
        rng.shuffle(shuffled)
        assert score(recons, {"cpu_write": 30}) == score(
            shuffled, {"cpu_write": 30}
        )

    def test_rejects_duplicate_tags(self):
        recons = self.make(2, 0)
        with pytest.raises(ValueError):
            score(recons + [recons[0]], {"cpu_write": 10})

    def test_per_flow_breakdown(self):
        recons = self.make(3, 1)
        report = score(recons, {"cpu_write": 10, "other": 5})
        assert report.per_flow["cpu_write"] == (3, 1, 10)
        assert report.per_flow["other"] == (0, 0, 5)
        assert report.total_instances == 15

    def test_json_and_table_render(self):
        report = score(self.make(3, 1), {"cpu_write": 10})
        data = report.to_json()
        assert data["observed"] == 3 and data["complete"] == 1
        table = report.format_table()
        assert "3/10" in table and "1/10" in table


def completed_recon(seq, start, end, flow="cpu_write"):
    tag = InstanceTag(flow, "CPU_X", seq)
    return InstanceReconstruction(
        tag=tag,
        observed_events=(rec(WR_REQ, start, seq), rec(WR_RESP, end, seq)),
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
            observed_events=(rec(WR_REQ, 1, 9),),
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
        recons = reconstruct_result(result, prototype)
        report = score(recons, result.instances_per_flow())
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
            fid: n for fid, n in result.instances_per_flow().items()
            if fid.startswith("coh_")
        }
        assert len(coherent) == 4 and len(recons) > sum(coherent.values())
        report = score(recons, coherent)
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
            assert tuple(true_paths[r.tag]) in {
                p.transitions for p in r.candidate_paths
            }

    def test_deleting_records_never_raises_coverage(self, prototype):
        obs = ObservabilityConfig(prototype.all_events, 16)
        workload = WorkloadConfig(instances_per_initiator=20, seed=8)
        result = run_simulation(prototype, workload, obs)
        per_flow = result.instances_per_flow()
        observed = list(result.observed)
        rng = random.Random(4)
        report = score(reconstruct(observed, prototype), per_flow)
        for _ in range(40):
            observed.pop(rng.randrange(len(observed)))
            next_report = score(reconstruct(observed, prototype), per_flow)
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
