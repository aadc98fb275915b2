"""Simulator behavior: determinism, FIFO order, conservation, loss model."""

from __future__ import annotations

import random
import statistics
from collections import deque

import pytest

from flowtrace import tracing_sim
from flowtrace.experiment import build_selection
from flowtrace.spec_io import parse_system
from flowtrace.tracing_sim import (
    ConfigError,
    ConservationError,
    InstanceTag,
    Livelock,
    ObservabilityConfig,
    WorkloadConfig,
    queue_capacities,
    records_csv,
    replay_trace,
    run_simulation,
    run_workload,
    summary_json,
)

from conftest import bench_module, brute_force_paths, fire, initial, tag_counts
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


def contended_text(branching_start=False):
    """Four initiators with two flows each.  Every flow crosses the one
    shared link ``bus_mem`` right after its start and may cross it again
    after the memory's answer, so instances queue for it.  (A start
    event leaves its initiator, so flows of different initiators cannot
    start on one link.)  With ``branching_start`` each flow's initial
    marking enables a second start transition, which also sends from
    the initiator, so every initiation draws its start."""
    lines = [
        "system contended",
        "component A B C D Bus Mem",
        "link bus_mem Bus -> Mem",
        "link mem_bus Mem -> Bus",
    ]
    for x in "ABCD":
        lines += [f"link {x.lower()}_bus {x} -> Bus", f"link bus_{x.lower()} Bus -> {x}"]
    for x in "ABCD":
        low = x.lower()
        for kind in ("rd", "wr"):
            lines += [
                f"flow {kind}_{low}",
                "  place p0 initial",
                "  place p1 p2 p3 p4",
                "  place p5 end",
                f"  transition t0 pre {{p0}} post {{p1}} event {x}:Bus:{kind}_req on {low}_bus",
                f"  transition t1 pre {{p1}} post {{p2}} event Bus:Mem:{kind}_{low} on bus_mem",
                f"  transition t2 pre {{p2}} post {{p3}} event Mem:Bus:{kind}_ack_{low} on mem_bus",
                f"  transition t3 pre {{p3}} post {{p4}} event Bus:Mem:{kind}_wb_{low} on bus_mem",
                f"  transition t4 pre {{p4}} post {{p5}} event Bus:{x}:{kind}_resp on bus_{low}",
                f"  transition t5 pre {{p3}} post {{p5}} event Bus:{x}:{kind}_resp on bus_{low}",
            ]
            if branching_start:
                lines.append(
                    f"  transition t6 pre {{p0}} post {{p1}} "
                    f"event {x}:Bus:{kind}_req_alt on {low}_bus"
                )
        lines.append(f"initiator {x} flows {{rd_{low},wr_{low}}}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def contended_spec():
    return parse_system(contended_text())


@pytest.fixture(scope="module")
def contended_specs(contended_spec):
    """The contended spec, its variant with two start transitions per
    flow and ``bench/socgen.py``'s ``soc(4, 4, 1)``, by label.  Other
    socgen seeds only rename the snoop ring, which no two
    CPUs share, so their workloads differ from this one in names only."""
    socgen = bench_module("socgen")
    return {
        "contended": contended_spec,
        "branching start": parse_system(contended_text(branching_start=True)),
        "soc(4, 4, 1)": parse_system(socgen.soc(4, 4, 1)),
    }


class TestGroundTruth:
    def test_prototype_default_run_has_500_distinct_tags(self, prototype):
        truth = run_workload(prototype, WorkloadConfig(seed=7))
        tags = {rec.tag for rec in truth.records}
        assert len(tags) == 500
        assert sum(truth.flow_instances.values()) == 500

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
        """Port bandwidths 1-4 make the arbiter wrap around within one
        cycle, and 16 is wider than any backlog; base capacities 1 and 2
        make the monitors drop; an initiation delay of (30, 60) leaves
        long idle gaps, which the port crosses in one run."""
        drops = dict.fromkeys((1, 2, 4, 8), 0)
        residual = 0
        workloads = [small_workload(seed=seed, n=20) for seed in (1, 2, 3)] + [
            WorkloadConfig(instances_per_initiator=20, initiation_delay=(30, 60), seed=seed)
            for seed in (1, 2)
        ]
        for workload in workloads:
            truth = run_workload(prototype, workload)
            for capacity in drops:
                for scope in (None, ("CPU0", "GFX")):
                    for method in ("none", "fic", "cec", "fc:16"):
                        events = build_selection(prototype, scope, method, capacity).events
                        for drain in (True, False):
                            for bandwidth in (1, 2, 3, 4, 16):
                                obs = ObservabilityConfig(events, capacity, bandwidth)
                                got = replay_trace(truth, obs, drain=drain)
                                want = reference_run_simulation(
                                    prototype, workload, obs, drain=drain
                                )
                                case = (workload, capacity, scope, method, drain, bandwidth)
                                assert got == want, case
                                assert got.ground_truth is truth.records, case
                                drops[capacity] += got.total_drops
                                residual += got.total_residual
            assert run_simulation(prototype, workload, obs) == (
                reference_run_simulation(prototype, workload, obs)
            )
        assert residual > 0 and drops[1] > 0 and drops[2] > 0  # loss paths exercised

    def test_engine_counts_the_instances_it_started(self, prototype):
        """The engine's per-flow count, taken from its initiation
        schedule, equals the number of distinct tags in its ground truth
        and in the fused reference loop's."""
        obs = obs_all(prototype, 8)
        for seed in range(1, 6):
            workload = WorkloadConfig(seed=seed)
            truth = run_workload(prototype, workload)
            want = tag_counts(truth.records)
            assert truth.flow_instances == want, seed
            reference = reference_run_simulation(prototype, workload, obs)
            assert tag_counts(reference.ground_truth) == want, seed

    @pytest.mark.parametrize("delay", [(1, 1), (1, 10)])
    def test_records_come_by_cycle_one_per_link_and_cycle(
        self, prototype, contended_specs, delay
    ):
        """What the replay relies on to walk ``truth.records`` as it is:
        cycles never decrease, and no link carries two records in one
        cycle, so the order within a cycle cannot change any queue."""
        specs = {"prototype": prototype, **contended_specs}
        for label, spec in specs.items():
            for seed in (1, 2, 3, 4):
                workload = WorkloadConfig(30, initiation_delay=delay, seed=seed)
                records = run_workload(spec, workload).records
                case = (label, seed)
                cycles = [r.cycle for r in records]
                assert cycles == sorted(cycles), case
                keys = {(r.cycle, r.link) for r in records}
                assert len(keys) == len(records), case

    def test_replays_of_random_selections_match_the_fused_loop(
        self, prototype, contended_specs
    ):
        """Random event subsets, most of which leave unselected events on
        enabled links: the replay skips those records and matches the
        reference loop exactly."""
        rng = random.Random(18)
        mixed = 0  # subsets with an unselected event on an enabled link
        lost = 0
        specs = {"prototype": prototype, **contended_specs}
        for label, spec in specs.items():
            events = sorted(spec.all_events, key=str)
            elmap = spec.topology.event_link_map
            workload = WorkloadConfig(20, initiation_delay=(1, 4), seed=rng.randint(1, 99))
            truth = run_workload(spec, workload)
            for _ in range(12):
                subset = frozenset(rng.sample(events, rng.randint(1, len(events))))
                enabled = {elmap[e] for e in subset}
                mixed += any(elmap[e] in enabled for e in set(events) - subset)
                obs = ObservabilityConfig(
                    subset, rng.choice((1, 2, 8)), rng.choice((1, 2))
                )
                drain = rng.random() < 0.5
                got = replay_trace(truth, obs, drain=drain)
                want = reference_run_simulation(spec, workload, obs, drain=drain)
                assert got == want, (label, sorted(map(str, subset)), obs, drain)
                lost += got.total_drops + got.total_residual
        assert mixed >= 20 and lost > 0, (mixed, lost)

    def test_cycle_budget_raises_livelock(self, prototype, contended_spec, monkeypatch):
        """Both loops name the same instance: the oldest one ready to
        fire in the first cycle where a ready instance has outlived the
        budget."""
        cases = {
            "prototype": (prototype, WorkloadConfig(seed=1)),
            "contended": (contended_spec, WorkloadConfig(30, (1, 1), seed=1)),
        }
        messages = {}
        for label, (spec, workload) in cases.items():
            for budget in (2, 5, 20):
                with pytest.raises(Livelock) as want:
                    reference_run_simulation(
                        spec, workload, obs_all(spec), cycle_budget=budget
                    )
                monkeypatch.setattr(tracing_sim, "_CYCLE_BUDGET", budget)
                with pytest.raises(Livelock) as got:
                    run_simulation(spec, workload, obs_all(spec))
                assert str(got.value) == str(want.value), (label, budget)
                messages[label, budget] = str(got.value)
        assert messages["prototype", 2] == (
            "instance up_rd_aud#Audio.0 still running after 2 cycles"
        )
        assert messages["contended", 20] == (
            "instance wr_d#D.2 still running after 20 cycles"
        )
        # A budget that every instance meets raises in neither loop.
        workload = WorkloadConfig(seed=1)
        monkeypatch.setattr(tracing_sim, "_CYCLE_BUDGET", 40)
        assert run_workload(prototype, workload).records == (
            reference_run_simulation(
                prototype, workload, obs_all(prototype), cycle_budget=40
            ).ground_truth
        )


class TestContendedWorkloadMatchesReference:
    """Instances that lose a busy link wait and retry; on specs where
    many of them queue for one link, the engine's ground truth still
    equals the fused reference loop's, record for record."""

    @pytest.mark.parametrize("delay", [(1, 1), (1, 10)])
    @pytest.mark.parametrize("latency", [(1, 1), (1, 5), (2, 2), (3, 7)])
    def test_ground_truth_matches(self, contended_specs, delay, latency):
        untraced = ObservabilityConfig(frozenset(), 1)  # cycles end with the workload
        for label, spec in contended_specs.items():
            for seed in (1, 2, 3):
                workload = WorkloadConfig(
                    30, initiation_delay=delay, transition_latency=latency, seed=seed
                )
                truth = run_workload(spec, workload)
                want = reference_run_simulation(spec, workload, untraced)
                case = (label, seed)
                assert truth.records == want.ground_truth, case
                assert truth.cycles == want.cycles, case
                assert truth.flow_instances == tag_counts(want.ground_truth), case
                # Some firing came later than its latency allows: it waited.
                last: dict = {}
                waited = 0
                starts = set()
                for rec in truth.records:
                    if rec.tag not in last:
                        starts.add(rec.transition)
                    elif rec.cycle - last[rec.tag] > latency[1]:
                        waited += 1
                    last[rec.tag] = rec.cycle
                assert waited > 0, case
                if label == "branching start":
                    # Initiations drew both start transitions.
                    assert starts == {"t0", "t6"}, case

    @pytest.mark.parametrize("delay", [(1, 1), (1, 10)])
    def test_wide_latency_range_matches(self, prototype, contended_spec, delay):
        """Firings lie up to 100,000 cycles apart, so a run spans 400,000
        to 580,000 cycles, and the records and cycles still equal the
        reference loop's.  No firing waits past the latency range here,
        so there is no ``waited`` check."""
        untraced = ObservabilityConfig(frozenset(), 1)
        for label, spec in {"prototype": prototype, "contended": contended_spec}.items():
            workload = WorkloadConfig(30, delay, (1, 100_000), seed=1)
            truth = run_workload(spec, workload)
            want = reference_run_simulation(spec, workload, untraced)
            assert truth.records == want.ground_truth, label
            assert truth.cycles == want.cycles > 100_000, label


class TestInstanceTag:
    def test_a_tag_is_its_field_tuple(self):
        tags = [
            InstanceTag("nc_wr_0", "CPU0", 10),
            InstanceTag("coh_rd_1", "GFX", 2),
            InstanceTag("nc_wr_0", "CPU0", 9),
            InstanceTag("nc_wr_0", "Audio", 11),
        ]
        for tag in tags:
            assert tuple(tag) == (tag.flow, tag.initiator, tag.seq)
            assert tag == tuple(tag) and hash(tag) == hash(tuple(tag))
        assert [tuple(t) for t in sorted(tags)] == sorted(tuple(t) for t in tags)
        assert str(InstanceTag("nc_wr_0", "CPU0", 10)) == "nc_wr_0#CPU0.10"


class TestEngineDraws:
    def test_direct_draws_are_randint_and_choice(self):
        """``randint`` and ``choice`` draw with ``Random._randbelow``, which
        the engine inlines; a Python whose ``random`` draws differently
        fails here by name, not only through the golden cells."""
        for seed in (1, 7, 12345):
            public, direct = random.Random(seed), random.Random(seed)
            for lo, hi in [(1, 1), (1, 5), (1, 10), (3, 17), (30, 60), (1, 1000)]:
                for _ in range(50):
                    assert lo + direct._randbelow(hi - lo + 1) == public.randint(lo, hi)
            for n in (1, 2, 3, 4, 5, 7, 16, 33):
                seq = list(range(n))
                for _ in range(50):
                    assert seq[direct._randbelow(len(seq))] == public.choice(seq)
            assert direct.getstate() == public.getstate()

    def test_inline_draws_are_randint_and_choice(self):
        """The engine inlines ``_randbelow`` as a ``getrandbits`` rejection
        loop, for the schedule's draws and the firings'; it must draw what
        ``randint`` and ``choice`` draw and leave the generator in the same
        state."""

        def below(getrandbits, n):
            k = n.bit_length()
            while (r := getrandbits(k)) >= n:
                pass
            return r

        for seed in (1, 7, 12345):
            public, inline = random.Random(seed), random.Random(seed)
            bits = inline.getrandbits
            for lo, hi in [(1, 1), (1, 5), (1, 10), (3, 17), (30, 60), (1, 1000)]:
                for _ in range(50):
                    assert lo + below(bits, hi - lo + 1) == public.randint(lo, hi)
            for n in (1, 2, 3, 4, 5, 7, 16, 33):
                seq = list(range(n))
                for _ in range(50):
                    assert seq[below(bits, len(seq))] == public.choice(seq)
            assert inline.getstate() == public.getstate()


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

    @pytest.mark.parametrize("fault", ["lose", "twice"])
    def test_a_faulty_queue_breaks_conservation_on_the_first_link(
        self, prototype, monkeypatch, fault
    ):
        """Each link's queue misbehaves on its first off-load with a record
        behind the head: it loses that record, or hands the head out twice.
        The replay names the first such link in sorted order, with its counts."""
        made = []

        class FaultyQueue(deque):
            def __init__(self, *args):
                super().__init__(*args)
                self.appended = self.handed = 0
                self.faulted = False
                made.append(self)

            def append(self, rec):
                self.appended += 1
                super().append(rec)

            def popleft(self):
                self.handed += 1
                if self.faulted or len(self) < 2:
                    return super().popleft()
                self.faulted = True
                if fault == "twice":
                    return self[0]
                head = super().popleft()
                super().popleft()  # lost
                return head

        monkeypatch.setattr(tracing_sim, "deque", FaultyQueue)
        obs = obs_all(prototype, 8)
        with pytest.raises(ConservationError) as got:
            run_simulation(prototype, small_workload(), obs)
        links = sorted(queue_capacities(prototype, obs))
        faulted = [(link, q) for link, q in zip(links, made) if q.faulted]
        assert len(faulted) > 1
        link, queue = faulted[0]
        truth = run_workload(prototype, small_workload())
        detected = sum(rec.link == link for rec in truth.records)
        dropped, residual = detected - queue.appended, len(queue)
        leak = 1 if fault == "lose" else -1
        assert detected == queue.handed + dropped + residual + leak
        assert str(got.value) == (
            f"conservation violated on {link}: detected {detected} != observed "
            f"{queue.handed} + dropped {dropped} + residual {residual}"
        )

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

    def test_only_a_loss_free_capture_is_exact(self, prototype):
        """``exact``, the selection scoring reads a trace with, is the
        selected events when nothing was dropped or left queued."""
        truth = run_workload(prototype, small_workload(seed=17, n=30))
        lossless = replay_trace(truth, obs_all(prototype, capacity=1, port_bandwidth=32))
        lossy = replay_trace(truth, obs_all(prototype, capacity=1))
        assert (lossless.lossless, lossy.lossless) == (True, False)
        assert lossless.exact == lossless.selected_events == prototype.all_events
        assert lossy.exact is None

    @pytest.mark.parametrize("drain", [True, False], ids=["drained", "undrained"])
    def test_observed_records_are_ground_truth_records(self, prototype, drain):
        truth = run_workload(prototype, WorkloadConfig(seed=21))
        result = replay_trace(truth, obs_all(prototype, 8), drain=drain)
        assert result.total_drops > 0
        assert (result.total_residual > 0) is not drain
        emitted = {id(r) for r in truth.records}
        assert result.observed
        assert all(id(r) in emitted for r in result.observed)

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

    def test_negative_seed_rejected(self):
        """``random.Random(-s)`` seeds like ``Random(s)``, so a negative
        seed would replay another seed's workload."""
        assert random.Random(-3).random() == random.Random(3).random()
        with pytest.raises(ValueError, match=r"^seed must be non-negative, got -3$"):
            WorkloadConfig(seed=-3)
        assert WorkloadConfig(seed=0).seed == 0

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
