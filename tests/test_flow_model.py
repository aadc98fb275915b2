"""Flow semantics: enabling, firing, start/end events, paths, validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from flowtrace import flow_model
from flowtrace.flow_model import (
    Event,
    Flow,
    PathExplosion,
    Transition,
    end_events,
    enumerate_paths,
    path_labels,
    start_events,
    validate,
)

from conftest import (
    Marking,
    NotEnabled,
    acyclic_flows,
    brute_force_paths,
    enabled_transitions,
    fire,
    initial,
    linear_flow,
)


class TestEvent:
    def test_identity_is_structural(self):
        assert Event("a", "b", "req") == Event("a", "b", "req")
        assert Event("a", "b", "req") != Event("a", "b", "resp")

    def test_src_must_differ_from_dest(self):
        with pytest.raises(ValueError):
            Event("a", "a", "req")

    def test_fields_must_be_nonempty(self):
        with pytest.raises(ValueError):
            Event("", "b", "req")


class TestEnabledTransitions:
    def test_initial_marking_enables_t1_only(self, cpu_write):
        assert enabled_transitions(cpu_write, Marking.of("p1")) == {"t1"}

    def test_choice_place_enables_both_branches(self, cpu_write):
        assert enabled_transitions(cpu_write, Marking.of("p2")) == {"t2", "t10"}

    def test_empty_marking_enables_nothing(self, cpu_write):
        assert enabled_transitions(cpu_write, Marking()) == frozenset()


class TestFire:
    def test_start_transition(self, cpu_write):
        assert fire(cpu_write, Marking.of("p1"), "t1") == Marking.of("p2")

    def test_shortcut_branch(self, cpu_write):
        assert fire(cpu_write, Marking.of("p2"), "t10") == Marking.of("p9")

    def test_not_enabled(self, cpu_write):
        with pytest.raises(NotEnabled):
            fire(cpu_write, Marking.of("p2"), "t3")

    def test_unknown_transition(self, cpu_write):
        with pytest.raises(NotEnabled):
            fire(cpu_write, Marking.of("p1"), "t99")

    def test_deterministic(self, cpu_write):
        a = fire(cpu_write, Marking.of("p4"), "t9")
        b = fire(cpu_write, Marking.of("p4"), "t9")
        assert a == b == Marking.of("p9")

    def test_token_conservation(self, cpu_write):
        for path in enumerate_paths(cpu_write):
            marking = initial(cpu_write)
            for tid in path:
                t = cpu_write.transition_by_id[tid]
                nxt = fire(cpu_write, marking, tid)
                assert len(nxt) == len(marking) - len(t.preset) + len(t.postset)
                assert nxt.marked == (marking.marked - t.preset) | t.postset
                marking = nxt


class TestStartEndEvents:
    def test_cpu_write_start(self, cpu_write):
        assert start_events(cpu_write) == {Event("CPU_X", "Cache_X", "wr_req")}

    def test_cpu_write_end_is_shared_label(self, cpu_write):
        assert end_events(cpu_write) == {Event("Cache_X", "CPU_X", "wr_resp")}

    def test_two_start_transitions_give_two_labels(self):
        a, b = Event("x", "y", "a"), Event("x", "y", "b")
        flow = Flow(
            id="two_start",
            places=("s0", "s1"),
            transitions=(
                Transition("ta", frozenset({"s0"}), frozenset({"s1"})),
                Transition("tb", frozenset({"s0"}), frozenset({"s1"})),
            ),
            labeling={"ta": a, "tb": b},
            initial_marking=frozenset({"s0"}),
            end_marking=frozenset({"s1"}),
        )
        assert start_events(flow) == {a, b}

    def test_single_transition_flow_start_equals_end(self):
        ev = Event("x", "y", "ping")
        flow = linear_flow("single", [ev])
        assert start_events(flow) == end_events(flow) == {ev}

    def test_prototype_cpu0_read_flows_have_single_request_start(self, prototype):
        coh = prototype.flow_by_id["coh_rd_0"]
        assert start_events(coh) == {Event("CPU0", "Cache0", "rd_req")}
        nc = prototype.flow_by_id["nc_rd_0"]
        assert start_events(nc) == {Event("CPU0", "Cache0", "nc_rd_req")}

    def test_prototype_pmu_wake_ends_with_final_ack(self, prototype):
        wake = prototype.flow_by_id["pm_wake"]
        assert end_events(wake) == {Event("CPU1", "PMU", "wake_ack")}


class TestEnumeratePaths:
    def test_cpu_write_has_exactly_three_paths(self, cpu_write):
        paths = [p.transitions for p in enumerate_paths(cpu_write)]
        assert paths == [
            ("t1", "t10"),
            ("t1", "t2", "t3", "t9"),
            ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"),
        ]

    def test_linear_flow_has_one_path(self):
        events = [Event("a", "b", f"c{i}") for i in range(5)]
        flow = linear_flow("lin", events)
        assert len(enumerate_paths(flow)) == 1

    def test_matches_brute_force_on_cpu_write(self, cpu_write):
        got = [p.transitions for p in enumerate_paths(cpu_write)]
        assert got == brute_force_paths(cpu_write)

    def test_matches_brute_force_on_prototype_flows(self, prototype):
        for flow in prototype.flows:
            got = [p.transitions for p in enumerate_paths(flow)]
            assert got == brute_force_paths(flow), flow.id

    def test_path_explosion_bound(self, cpu_write):
        with pytest.raises(PathExplosion):
            enumerate_paths(cpu_write, max_paths=2)

    def test_cyclic_flow_raises_instead_of_looping(self):
        # The unvalidated ``loop`` flow of test_cycle_is_flagged.
        ev = Event("a", "b", "x")
        flow = Flow(
            id="loop",
            places=("p0", "p1"),
            transitions=(
                Transition("t0", frozenset({"p0"}), frozenset({"p1"})),
                Transition("t1", frozenset({"p1"}), frozenset({"p0"})),
            ),
            labeling={"t0": ev, "t1": ev},
            initial_marking=frozenset({"p0"}),
            end_marking=frozenset({"p1"}),
        )
        with pytest.raises(PathExplosion, match="cyclic"):
            enumerate_paths(flow)

    def test_flow_caches_its_default_bound_paths(self, cpu_write):
        assert list(cpu_write.paths) == enumerate_paths(cpu_write)
        assert cpu_write.paths is cpu_write.paths

    def test_replay_starts_and_ends_correctly(self, prototype):
        for flow in prototype.flows:
            starts, ends = start_events(flow), end_events(flow)
            for path in enumerate_paths(flow):
                marking = initial(flow)
                for tid in path:
                    marking = fire(flow, marking, tid)
                assert marking.marked == flow.end_marking
                labels = path_labels(flow, path)
                assert labels[0] in starts
                assert labels[-1] in ends


class TestValidate:
    def test_cpu_write_is_clean(self, cpu_write):
        report = validate(cpu_write)
        assert report.ok, str(report)

    def test_dead_transition_is_flagged(self):
        ev = Event("a", "b", "x")
        flow = Flow(
            id="dead",
            places=("p0", "p1", "px", "py"),
            transitions=(
                Transition("t0", frozenset({"p0"}), frozenset({"p1"})),
                Transition("tdead", frozenset({"px"}), frozenset({"py"})),
            ),
            labeling={"t0": ev, "tdead": ev},
            initial_marking=frozenset({"p0"}),
            end_marking=frozenset({"p1"}),
        )
        report = validate(flow)
        codes = {f.code for f in report.findings}
        assert "dead transition" in codes
        assert "unreachable place" in codes

    def test_cycle_is_flagged(self):
        ev = Event("a", "b", "x")
        flow = Flow(
            id="loop",
            places=("p0", "p1"),
            transitions=(
                Transition("t0", frozenset({"p0"}), frozenset({"p1"})),
                Transition("t1", frozenset({"p1"}), frozenset({"p0"})),
            ),
            labeling={"t0": ev, "t1": ev},
            initial_marking=frozenset({"p0"}),
            end_marking=frozenset({"p1"}),
        )
        codes = {f.code for f in validate(flow).findings}
        assert "cyclic structure" in codes

    def test_token_collision_names_the_first_merge_explored(self):
        # Both orders of t1 and t2 merge tokens on c; the depth-first
        # exploration reaches the merge by t1 first.
        ev = Event("a", "b", "x")
        flow = Flow(
            id="merge",
            places=("p0", "a", "b", "c", "e"),
            transitions=(
                Transition("t0", frozenset({"p0"}), frozenset({"a", "b"})),
                Transition("t1", frozenset({"a"}), frozenset({"c"})),
                Transition("t2", frozenset({"b"}), frozenset({"c"})),
                Transition("t3", frozenset({"c"}), frozenset({"e"})),
            ),
            labeling={f"t{i}": ev for i in range(4)},
            initial_marking=frozenset({"p0"}),
            end_marking=frozenset({"e"}),
        )
        assert [str(f) for f in validate(flow).findings] == [
            "token collision: firing t1 merges tokens on ['c']"
        ]

    def test_state_explosion_reports_what_was_explored(self, cpu_write, monkeypatch):
        monkeypatch.setattr(flow_model, "_MARKING_EXPLORATION_LIMIT", 4)
        findings = [str(f) for f in validate(cpu_write).findings]
        assert findings == [
            "state explosion: too many reachable markings to validate",
            *(f"dead transition: t{i} can never fire" for i in range(4, 10)),
            *(f"unreachable place: p{i}" for i in range(5, 9)),
        ]

    def test_paths_of_a_truncated_state_graph_raise(self, cpu_write, monkeypatch):
        monkeypatch.setattr(flow_model, "_MARKING_EXPLORATION_LIMIT", 4)
        with pytest.raises(PathExplosion, match="reachable markings"):
            enumerate_paths(cpu_write)

    def test_termination_outside_end_marking_is_flagged(self):
        ev = Event("a", "b", "x")
        flow = Flow(
            id="stray",
            places=("p0", "p1", "p2"),
            transitions=(Transition("t0", frozenset({"p0"}), frozenset({"p1"})),),
            labeling={"t0": ev},
            initial_marking=frozenset({"p0"}),
            end_marking=frozenset({"p2"}),
        )
        report = validate(flow)
        codes = {f.code for f in report.findings}
        assert "bad termination" in codes or "dead transition" in codes
        assert not report.ok

    def test_unlabeled_and_overlapping(self):
        flow = Flow(
            id="bad",
            places=("p0", "p1"),
            transitions=(Transition("t0", frozenset({"p0"}), frozenset({"p1"})),),
            labeling={},
            initial_marking=frozenset({"p0", "p1"}),
            end_marking=frozenset({"p1"}),
        )
        codes = {f.code for f in validate(flow).findings}
        assert "unlabeled transition" in codes
        assert "overlapping markings" in codes

    def test_prototype_flows_all_validate(self, prototype):
        for flow in prototype.flows:
            assert validate(flow).ok, flow.id


# ---------------------------------------------------------------------------
# Property tests over generated acyclic flows.


@given(acyclic_flows())
@settings(max_examples=60, deadline=None)
def test_generated_flows_validate_and_match_brute_force(flow):
    assert validate(flow).ok
    got = [p.transitions for p in enumerate_paths(flow)]
    assert got == brute_force_paths(flow)
    assert got == sorted(got, key=lambda seq: (len(seq), seq))


@given(acyclic_flows())
@settings(max_examples=30, deadline=None)
def test_replaying_enumerated_paths_succeeds(flow):
    starts, ends = start_events(flow), end_events(flow)
    for path in enumerate_paths(flow):
        marking = initial(flow)
        for tid in path:
            assert tid in enabled_transitions(flow, marking)
            marking = fire(flow, marking, tid)
        assert marking.marked == flow.end_marking
        labels = path_labels(flow, path)
        assert labels[0] in starts and labels[-1] in ends


@given(acyclic_flows())
@settings(max_examples=60, deadline=None)
def test_state_graph_matches_the_firing_rule(flow):
    graph = flow.state_graph
    assert graph.markings[0] == flow.initial_marking
    assert not graph.truncated
    assert len(set(graph.markings)) == len(graph.markings)
    reached = {flow.initial_marking}
    for marked, successors in zip(graph.markings, graph.successors):
        marking = Marking(marked)
        expected = sorted(
            (tid, fire(flow, marking, tid).marked)
            for tid in enabled_transitions(flow, marking)
        )
        assert [(tid, graph.markings[s]) for tid, s in successors] == expected
        reached.update(m for _, m in expected)
    assert reached == set(graph.markings)
