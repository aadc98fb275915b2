"""Simulator behavior: determinism, FIFO order, conservation, loss model."""

from __future__ import annotations

import dataclasses
import random
import statistics

import pytest

from flowtrace.experiment import build_selection
from flowtrace.spec_io import parse_system
from flowtrace.tracing_sim import (
    ConfigError,
    ConservationError,
    Livelock,
    ObservabilityConfig,
    WorkloadConfig,
    check_conservation,
    queue_capacities,
    records_csv,
    replay_trace,
    run_simulation,
    run_workload,
    summary_json,
)

from conftest import brute_force_paths, fire, initial
from reference_sim import reference_run_simulation


def obs_all(spec, capacity=8, port_bandwidth=1):
    return ObservabilityConfig(spec.all_events, capacity, port_bandwidth)


def small_workload(seed=1, n=5):
    return WorkloadConfig(instances_per_initiator=n, seed=seed)


SINGLE_FLOW_SPEC = """\
system single
component A B C
link ab A -> B
link bc B -> C
link cb C -> B
link ba B -> A
flow fork
  place s0 initial
  place s1 s2 s3
  place s4 end
  transition t0 pre {s0} post {s1} event A:B:req on ab
  transition t1 pre {s1} post {s2} event B:C:fwd on bc
  transition t2 pre {s2} post {s3} event C:B:ret on cb
  transition t3 pre {s3} post {s4} event B:A:resp on ba
  transition t4 pre {s1} post {s4} event B:A:resp on ba
initiator A flows {fork}
"""


@pytest.fixture(scope="module")
def single_spec():
    return parse_system(SINGLE_FLOW_SPEC)


class TestGroundTruth:
    def test_prototype_default_run_has_500_distinct_tags(self, prototype):
        result = run_simulation(
            prototype, WorkloadConfig(seed=7), obs_all(prototype, 8)
        )
        tags = {rec.tag for rec in result.ground_truth}
        assert len(tags) == 500
        per_flow = result.instances_per_flow()
        assert sum(per_flow.values()) == 500

    def test_each_initiator_starts_exact_count(self, prototype):
        result = run_simulation(
            prototype, small_workload(n=20), obs_all(prototype, 8)
        )
        per_initiator: dict[str, set[int]] = {}
        for rec in result.ground_truth:
            per_initiator.setdefault(rec.tag.initiator, set()).add(rec.tag.seq)
        assert {k: len(v) for k, v in per_initiator.items()} == {
            "CPU0": 20,
            "CPU1": 20,
            "GFX": 20,
            "PMU": 20,
            "Audio": 20,
        }

    def test_ground_truth_replays_through_firing_semantics(self, prototype):
        result = run_simulation(
            prototype, small_workload(seed=3, n=10), obs_all(prototype, 8)
        )
        by_tag: dict = {}
        for rec in result.ground_truth:
            by_tag.setdefault(rec.tag, []).append(rec)
        for tag, recs in by_tag.items():
            flow = prototype.flow_by_id[tag.flow]
            marking = initial(flow)
            for rec in recs:
                assert flow.labeling[rec.transition] == rec.event
                marking = fire(flow, marking, rec.transition)
            assert marking.marked == flow.end_marking

    def test_one_link_one_event_per_cycle(self, prototype):
        result = run_simulation(
            prototype, WorkloadConfig(seed=11), obs_all(prototype, 8)
        )
        seen = set()
        for rec in result.ground_truth:
            key = (rec.cycle, rec.link)
            assert key not in seen
            seen.add(key)

    def test_single_instance_trace_matches_an_enumerated_path(self, single_spec):
        flow = single_spec.flows[0]
        result = run_simulation(
            single_spec,
            WorkloadConfig(instances_per_initiator=1, seed=5),
            obs_all(single_spec, capacity=16),
        )
        observed_transitions = tuple(
            rec.transition for rec in result.ground_truth
        )
        assert observed_transitions in brute_force_paths(flow)
        # Everything was selected and capacity exceeds the path length, so
        # the observed labels replay the same path.
        assert [r.event for r in result.observed] == [
            r.event for r in result.ground_truth
        ]


class TestDeterminism:
    def test_bit_identical_results(self, prototype):
        workload = WorkloadConfig(seed=99)
        a = run_simulation(prototype, workload, obs_all(prototype, 8))
        b = run_simulation(prototype, workload, obs_all(prototype, 8))
        assert a == b

    def test_ground_truth_independent_of_observability(self, prototype):
        workload = WorkloadConfig(seed=42)
        full = run_simulation(prototype, workload, obs_all(prototype, 8))
        none = run_simulation(
            prototype,
            workload,
            ObservabilityConfig(frozenset(), 8),
        )
        assert full.ground_truth == none.ground_truth

    def test_different_seeds_differ(self, prototype):
        a = run_simulation(prototype, WorkloadConfig(seed=1), obs_all(prototype, 8))
        b = run_simulation(prototype, WorkloadConfig(seed=2), obs_all(prototype, 8))
        assert a.ground_truth != b.ground_truth


class TestReplayMatchesReference:
    def test_replays_of_one_workload_match_the_fused_loop(self, prototype):
        drops = residual = 0
        for scope in (None, ("CPU0", "GFX")):
            for method in ("none", "fic", "cec", "fc:16"):
                events = build_selection(prototype, scope, method, 4).events
                for seed in (1, 2, 3):
                    workload = small_workload(seed=seed, n=20)
                    truth = run_workload(prototype, workload)
                    for drain in (True, False):
                        for bandwidth in (1, 2):
                            obs = ObservabilityConfig(events, 4, bandwidth)
                            got = replay_trace(truth, obs, drain=drain)
                            want = reference_run_simulation(
                                prototype, workload, obs, drain=drain
                            )
                            case = (scope, method, seed, drain, bandwidth)
                            assert got == want, case
                            assert got.ground_truth is truth.records, case
                            drops += got.total_drops
                            residual += got.total_residual
                    assert run_simulation(prototype, workload, obs) == (
                        reference_run_simulation(prototype, workload, obs)
                    )
        assert drops > 0 and residual > 0  # the loss paths were exercised

    def test_replay_reads_the_selected_events_records(self, prototype):
        """``records_of`` keeps the cycle order of the filtered ground
        truth; within a cycle, each record has its own link."""
        truth = run_workload(prototype, small_workload(seed=4, n=20))
        events = sorted(prototype.all_events, key=str)
        rng = random.Random(7)
        subsets = [set(), set(events)] + [
            set(rng.sample(events, rng.randint(1, len(events) - 1)))
            for _ in range(20)
        ]
        key = lambda r: (r.cycle, r.link)
        for subset in subsets:
            want = [r for r in truth.records if r.event in subset]
            got = truth.records_of(frozenset(subset))
            assert [r.cycle for r in got] == [r.cycle for r in want]
            assert sorted(got, key=key) == sorted(want, key=key)
        assert len({key(r) for r in truth.records}) == len(truth.records)
        assert truth.records_by_event is truth.records_by_event  # built once

    def test_cycle_budget_raises_livelock(self, prototype):
        workload = WorkloadConfig(seed=1)
        with pytest.raises(Livelock):
            reference_run_simulation(
                prototype, workload, obs_all(prototype), cycle_budget=2
            )
        with pytest.raises(Livelock):
            run_simulation(prototype, workload, obs_all(prototype), cycle_budget=2)


class TestMonitorAndPort:
    def test_empty_selection_observes_nothing(self, prototype):
        result = run_simulation(
            prototype,
            small_workload(),
            ObservabilityConfig(frozenset(), 8),
        )
        assert result.observed == ()
        assert result.total_drops == 0

    def test_per_link_fifo_order(self, prototype):
        result = run_simulation(
            prototype, WorkloadConfig(seed=13), obs_all(prototype, 8)
        )
        for link in result.enabled_links:
            cycles = [r.cycle for r in result.observed if r.link == link]
            assert cycles == sorted(cycles)

    def test_observed_is_loss_filtered_detection_order(self, prototype):
        result = run_simulation(
            prototype, WorkloadConfig(seed=13), obs_all(prototype, 8)
        )
        detected_per_link: dict[str, list] = {l: [] for l in result.enabled_links}
        for rec in result.ground_truth:
            if rec.link in result.enabled_links and rec.event in result.selected_events:
                detected_per_link[rec.link].append((rec.cycle, rec.event, rec.tag))
        for link in result.enabled_links:
            observed = [
                (r.cycle, r.event, r.tag) for r in result.observed if r.link == link
            ]
            it = iter(detected_per_link[link])
            assert all(x in it for x in observed), f"not a subsequence on {link}"

    def test_conservation_per_link(self, prototype):
        result = run_simulation(
            prototype, WorkloadConfig(seed=21), obs_all(prototype, 8)
        )
        observed_count: dict[str, int] = dict.fromkeys(result.enabled_links, 0)
        for rec in result.observed:
            observed_count[rec.link] += 1
        for link in result.enabled_links:
            assert (
                result.detected[link]
                == observed_count[link] + result.drops[link] + result.residual[link]
            )
        assert result.total_residual == 0  # drained

    def test_conservation_check_names_the_link(self, prototype):
        result = run_simulation(prototype, small_workload(), obs_all(prototype, 8))
        check_conservation(result)
        link = sorted(result.enabled_links)[0]
        tally = dict(result.drops, **{link: result.drops[link] + 1})
        with pytest.raises(ConservationError, match=link):
            check_conservation(dataclasses.replace(result, drops=tally))

    def test_no_drain_leaves_residual(self, prototype):
        result = run_simulation(
            prototype, WorkloadConfig(seed=21), obs_all(prototype, 8), drain=False
        )
        assert result.total_residual > 0
        observed_count: dict[str, int] = dict.fromkeys(result.enabled_links, 0)
        for rec in result.observed:
            observed_count[rec.link] += 1
        for link in result.enabled_links:
            assert (
                result.detected[link]
                == observed_count[link] + result.drops[link] + result.residual[link]
            )

    def test_wide_port_and_any_capacity_never_drops(self, prototype):
        obs = obs_all(prototype, capacity=1, port_bandwidth=32)
        result = run_simulation(prototype, small_workload(seed=17, n=30), obs)
        assert result.total_drops == 0

    def test_transition_absent_in_observed_records(self, prototype):
        result = run_simulation(prototype, small_workload(), obs_all(prototype, 8))
        assert all(r.transition is None for r in result.observed)
        assert all(r.transition is not None for r in result.ground_truth)

    def test_median_drops_monotone_in_capacity(self, prototype):
        capacities = (4, 8, 16)
        medians = []
        for cap in capacities:
            drops = [
                run_simulation(
                    prototype, WorkloadConfig(seed=s), obs_all(prototype, cap)
                ).total_drops
                for s in range(1, 11)
            ]
            medians.append(statistics.median(drops))
        assert medians[0] >= medians[1] >= medians[2]


class TestConfigErrors:
    def test_selected_event_outside_spec(self, prototype, single_spec):
        foreign = next(iter(single_spec.all_events))
        obs = ObservabilityConfig(frozenset({foreign}), 8)
        with pytest.raises(ConfigError):
            run_simulation(prototype, small_workload(), obs)

    @pytest.mark.parametrize("capacity, bandwidth", [(8, 0), (8, -1), (0, 1)])
    def test_bounds_below_one_rejected_when_built(self, capacity, bandwidth):
        with pytest.raises(ConfigError):
            ObservabilityConfig(frozenset(), capacity, bandwidth)

    def test_links_of_the_selected_events_share_every_links_queues(self, prototype):
        elmap = prototype.topology.event_link_map
        events = frozenset(sorted(prototype.all_events, key=str)[:7])
        obs = ObservabilityConfig(events, 8)
        caps = queue_capacities(prototype, obs)
        assert set(caps) == {elmap[e] for e in events}
        assert sum(caps.values()) == 8 * len(prototype.topology.links)
        assert queue_capacities(prototype, ObservabilityConfig(frozenset(), 8)) == {}
        result = run_simulation(prototype, small_workload(), obs)
        assert result.enabled_links == frozenset(caps)


class TestDiagnostics:
    def test_csv_round_shape(self, prototype):
        result = run_simulation(prototype, small_workload(n=2), obs_all(prototype, 8))
        text = records_csv(result.ground_truth, include_transition=True)
        lines = text.strip().splitlines()
        assert lines[0] == "cycle,link,src,dest,cmd,flow,initiator,seq,transition"
        assert len(lines) == len(result.ground_truth) + 1
        obs_text = records_csv(result.observed)
        assert obs_text.startswith("cycle,link,src,dest,cmd,flow,initiator,seq\n")

    def test_summary_json_fields(self, prototype):
        result = run_simulation(prototype, small_workload(), obs_all(prototype, 8))
        summary = summary_json(result)
        assert summary["ground_truth_events"] == len(result.ground_truth)
        assert summary["observed_events"] == len(result.observed)
        assert set(summary["drops"]) == set(result.enabled_links)
