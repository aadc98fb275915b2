"""Reconstruction, coverage scoring, and the interleaving oracle."""

from __future__ import annotations

import json
import random
from functools import reduce
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from flowtrace import coverage
from flowtrace.cli import main
from flowtrace.coverage import (
    CoverageReport,
    InconsistentTrace,
    InstanceReconstruction,
    reconstruct,
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

from conftest import CPU_WRITE_SPEC, acyclic_flows, rebuilt, tag_counts
from reference_coverage import (
    Interleaving,
    interleavings,
    intervals,
    reference_match,
    reference_reconstruct,
    reference_score,
)


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
        flow_by_id={fid: rebuilt(flow, id=fid) for fid in flow_ids}
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

    def test_a_reconstruction_is_five_fields(self, write_spec):
        """The start and end bits come from the final automaton state; the
        off-load coordinates of interleaving analysis are not kept."""
        assert InstanceReconstruction._fields == (
            "tag", "observed_events", "started", "completed", "candidate_paths"
        )
        observed = [rec("t10", 9), rec("t2", 4), rec("t1", 1)]
        (r,) = reconstruct(observed, write_spec)
        assert r == (observed[0].tag, tuple(observed[::-1]), True, True, r.candidate_paths)
        assert sorted(coverage.__all__) == [
            "CoverageReport", "InconsistentTrace", "InstanceReconstruction",
            "reconstruct", "score", "score_result",
        ]

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

    def test_records_of_one_cycle_keep_their_off_load_order(self, write_spec):
        """An instance's records that share a cycle are read in off-load
        order: the snoop request before the response matches a path, the
        response before it matches none."""
        observed = [rec("t1", 1), rec("t2", 4), rec("t10", 4)]
        (r,) = reconstruct(observed, write_spec)
        assert r.observed_events == tuple(observed)
        assert [r] == reference_reconstruct(observed, write_spec)
        with pytest.raises(InconsistentTrace):
            reconstruct([observed[0], observed[2], observed[1]], write_spec)

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
        flow = rebuilt(flow, labeling=labeling)
        selected = frozenset(data.draw(st.sets(st.sampled_from(pool))))
        spec, _, observed, instances = draw_trace(
            flow, data, selected, unselected=True
        )
        got, want = matched(observed, spec, selected, True)
        assert got == want
        result = capture(observed, selected, True)
        scored(result, spec, {flow.id: instances})


class TestPathAutomaton:
    """Each flow's automaton against the per-path reference rule."""

    @given(acyclic_flows(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference_matcher(self, flow, data):
        """Lossy and exact reads of a path's labels, whole, thinned, as
        its projection onto a selection with unselected labels mixed in,
        or any labels at all (those of no path, and one the flow never
        emits).  Half the flows are relabelled from two events, so every
        path of three or more steps repeats a label."""
        if data.draw(st.booleans()):
            pool = [Event("A", "B", "m0"), Event("B", "A", "m1")]
            labeling = {t: data.draw(st.sampled_from(pool)) for t in flow.labeling}
            flow = rebuilt(flow, labeling=labeling)
        events = sorted(flow.events | {Event("D", "C", "m9")}, key=str)
        selected = frozenset(data.draw(st.sets(st.sampled_from(events))))
        path = [flow.labeling[t] for t in data.draw(st.sampled_from(flow.paths))]
        shape = data.draw(st.sampled_from(["path", "thinned", "projection", "any"]))
        if shape == "any":
            labels = data.draw(st.lists(st.sampled_from(events), max_size=8))
        else:
            labels = [
                e
                for e in path
                if shape == "path"
                or (shape == "projection" and e in selected)
                or data.draw(st.booleans())
            ]
        automaton = flow.automaton
        state = reduce(automaton.step, labels, 0)
        spec = SimpleNamespace(flow_by_id={flow.id: flow})
        tag = InstanceTag(flow.id, "A", 0)
        trace = [EventRecord(k, e, "l", tag, "t") for k, e in enumerate(labels)]
        for exact in (None, selected):
            want, first_start, last_end = reference_match(flow, labels, exact)
            got = ()
            if exact is None or exact.issuperset(labels):
                got = automaton.candidates(state, exact)
            assert got == want
            _, n, started, ended = automaton.states[state]
            if any(k >= 0 for k in automaton.states[state][0]):
                assert n == len(labels)
                assert (started, ended) == (first_start is not None, last_end is not None)
            if not labels:
                continue
            try:
                (r,) = reconstruct(trace, spec, exact)
            except InconsistentTrace:
                assert not want
                continue
            assert r.candidate_paths == want
            assert r.started == (first_start is not None)
            assert r.completed == (r.started and last_end is not None)

    def test_a_second_scoring_adds_no_state(self, prototype):
        truth = run_workload(
            prototype, WorkloadConfig(instances_per_initiator=20, seed=4)
        )
        result = replay_trace(truth, ObservabilityConfig(prototype.all_events, 8))
        per_flow_n = truth.flow_instances

        def sizes():
            return [
                (len(f.automaton.states), sum(map(len, f.automaton.table)))
                for f in prototype.flows
            ]

        first = score_result(result, prototype, per_flow_n)
        before = sizes()
        assert score_result(result, prototype, per_flow_n) == first
        assert sizes() == before

    def test_a_trace_that_matches_no_path_adds_one_dead_state(self, write_spec):
        """The end label before the start label kills every path and adds
        the dead state; 50 more labels, of this flow and of no flow, add
        no state."""
        live = [rec("t10", 1)]
        labels = [WRITE_SPEC.flows[0].labeling[t] for t in ("t2", "t10", "t4")]
        padding = [
            EventRecord(3 + k, e, "any", live[0].tag, "t")
            for k, e in enumerate((labels + [Event("X", "Y", "z")]) * 13)
        ][:50]
        counts = []
        for trace in (live, live + [rec("t1", 2)], live + [rec("t1", 2)] + padding):
            spec = copies_of_cpu_write("cpu_write")
            try:
                score(trace, spec, {"cpu_write": 1})
            except InconsistentTrace:
                assert trace is not live
            automaton = spec.flow_by_id["cpu_write"].automaton
            counts.append(len(automaton.states))
        assert counts[1] == counts[2] == counts[0] + 1


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
                result = capture(observed, selected, lossless)
                got = scored(result, spec, per_flow_n)
                if isinstance(got, CoverageReport):
                    reports += 1
                    assert list(got.per_flow) == list(per_flow_n)
                else:
                    errors.add(got[0])
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


def capture(observed, selected, lossless: bool) -> SimpleNamespace:
    """The fields of a simulation result that scoring reads, with ``exact``
    derived as ``SimulationResult.exact`` derives it."""
    return SimpleNamespace(
        observed=tuple(observed), selected_events=selected, lossless=lossless,
        exact=selected if lossless else None,
    )


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
        executed = truth.flow_instances
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
            result = capture(observed, selected, lossless)
            scored(result, spec, per_flow_n)

    def test_lossless_rejects_a_label_outside_the_selection(self, write_spec):
        def result(lossless: bool) -> SimpleNamespace:
            return capture((rec("t1", 1), rec("t2", 4), rec("t9", 9)), OUTSIDE_SELECTED, lossless)

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
        executed = truth.flow_instances
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
            corrupted = rebuilt(result, observed=trace)
            got = scored(corrupted, prototype, per_flow_n)
            assert got[0] is kind and got[1].startswith(message)

        # One tag of an unknown flow and one whose records are reversed:
        # whichever is off-loaded first is named, although the other one's
        # records come first in cycle order.
        by_tag: dict = {}
        for r in observed:
            by_tag.setdefault(r.tag, []).append(r)
        unknown_tag, reversed_tag = [
            tag for tag, recs in by_tag.items() if len({r.event for r in recs}) > 2
        ][:2]
        renamed = unknown_tag._replace(flow="nope")
        unknown = [r._replace(tag=renamed) for r in by_tag[unknown_tag]]
        backwards = [r._replace(cycle=-r.cycle) for r in by_tag[reversed_tag]]
        late = [r._replace(cycle=r.cycle - 10**9) for r in unknown]
        for trace, kind, named in (
            (unknown + backwards, ValueError, renamed),
            (backwards + late, InconsistentTrace, reversed_tag),
        ):
            assert min(trace, key=lambda r: r.cycle).tag != named
            corrupted = rebuilt(result, observed=tuple(trace))
            got = scored(corrupted, prototype, executed)
            assert got[0] is kind and f" {named}" in got[1]

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


def completed(seq, start, end):
    """The start and end records of cpu_write instance ``seq``."""
    return [rec("t1", start, seq), rec("t10", end, seq)]


def by_cycles(trace):
    """The oracle's relations over ``trace``, read from its cycle stamps."""
    return interleavings(trace, WRITE_SPEC, use_emission_cycles=True)


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
    """The pairwise oracle of ``tests/reference_coverage.py``."""

    A = InstanceTag("cpu_write", "CPU_X", 0)
    B = InstanceTag("cpu_write", "CPU_X", 1)

    def test_contains(self):
        trace = completed(0, 0, 100) + completed(1, 10, 50)
        assert by_cycles(trace) == [(self.A, self.B, Interleaving.CONTAINS)]

    def test_precedes(self):
        trace = completed(0, 0, 50) + completed(1, 60, 100)
        assert by_cycles(trace) == [(self.A, self.B, Interleaving.PRECEDES)]

    def test_boundary_tie_is_overlap(self):
        trace = completed(0, 0, 50) + completed(1, 50, 100)
        assert by_cycles(trace) == [(self.A, self.B, Interleaving.OVERLAPS)]

    def test_incomplete_instances_ignored(self):
        trace = completed(0, 0, 50) + [rec("t1", 1, 9), rec("t2", 2, 10)]
        assert by_cycles(trace) == []

    def test_off_load_positions_by_default(self):
        """Instance 1 starts before 0 ends in off-load order, though its
        start was emitted after 0's end."""
        (a0, a1), (b0, b1) = completed(0, 0, 50), completed(1, 60, 100)
        trace = [a0, b0, a1, b1]
        assert interleavings(trace, WRITE_SPEC) == [(self.A, self.B, Interleaving.OVERLAPS)]
        assert by_cycles(trace) == [(self.A, self.B, Interleaving.PRECEDES)]

    def test_intervals_run_from_the_first_start_to_the_last_end(self, write_spec):
        """Endpoints are read in emission order, ties in off-load order,
        and an off-load interval that runs backwards is sorted."""
        observed = [rec("t10", 9, seq=1), rec("t1", 5, seq=0), rec("t1", 5, seq=1)]
        assert intervals(observed, write_spec) == [(0, 2, self.B)]
        assert intervals(observed, write_spec, use_emission_cycles=True) == [(5, 9, self.B)]
        observed = [rec("t1", 7), rec("t10", 9), rec("t1", 3), rec("t10", 8)]
        assert intervals(observed, write_spec) == [(1, 2, self.A)]
        assert intervals(observed, write_spec, use_emission_cycles=True) == [(3, 9, self.A)]

    def test_matches_brute_force_on_random_intervals(self):
        rng = random.Random(11)
        for _ in range(200):
            a0, a1 = sorted(rng.sample(range(100), 2))
            b0, b1 = sorted(rng.sample(range(100), 2))
            ((ta, tb, relation),) = by_cycles(completed(0, a0, a1) + completed(1, b0, b1))
            expected = brute_force_relation(a0, a1, b0, b1)
            if expected == "a_precedes_b":
                assert (ta, tb, relation) == (self.A, self.B, Interleaving.PRECEDES)
            elif expected == "b_precedes_a":
                assert (ta, tb, relation) == (self.B, self.A, Interleaving.PRECEDES)
            elif expected == "a_contains_b":
                assert (ta, tb, relation) == (self.A, self.B, Interleaving.CONTAINS)
            elif expected == "b_contains_a":
                assert (ta, tb, relation) == (self.B, self.A, Interleaving.CONTAINS)
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
        recons = reconstruct(result.observed, prototype, result.exact)
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
        recons = reconstruct(result.observed, prototype, result.exact)
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
        recons = reconstruct(result.observed, prototype, result.exact)
        complete = [r.tag for r in recons if r.completed]
        relations = interleavings(result.observed, prototype)
        n = len(complete)
        assert n > 1 and len(relations) == n * (n - 1) // 2
        emitted = interleavings(result.observed, prototype, use_emission_cycles=True)
        assert len(emitted) == len(relations)
        for pairs in (relations, emitted):
            assert {tag for a, b, _ in pairs for tag in (a, b)} == set(complete)
