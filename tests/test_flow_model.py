"""Flow semantics: enabling, firing, start/end events, paths, validation."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from flowtrace import flow_model
from flowtrace.flow_model import (
    Event,
    Flow,
    PathExplosion,
    Transition,
    end_events,
    enumerate_paths,
    start_events,
    validate,
)
from flowtrace.spec_io import SpecSemanticError, load_prototype, parse_system

from conftest import (
    Marking,
    NotEnabled,
    acyclic_flows,
    bench_module,
    brute_force_paths,
    brute_force_state_graph,
    enabled_transitions,
    fire,
    initial,
    linear_flow,
    path_labels,
    rebuilt,
)
import reference_flow_model


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

    def test_error_messages(self):
        with pytest.raises(ValueError, match=r"^event fields must be non-empty$"):
            Event("a", "b", "")
        with pytest.raises(
            ValueError, match=r"^event source and destination must differ: 'a'$"
        ):
            Event("a", "a", "req")

    def test_an_event_is_its_field_tuple(self):
        events = [Event("b", "a", "x"), Event("a", "c", "req"), Event("a", "b", "resp")]
        for e in events:
            assert tuple(e) == (e.src, e.dest, e.cmd)
            assert e == tuple(e) and hash(e) == hash(tuple(e))
        assert [tuple(e) for e in sorted(events)] == sorted(tuple(e) for e in events)
        assert str(Event("CPU0", "Bus", "wr_req")) == "CPU0:Bus:wr_req"


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
        by_id = {t.id: t for t in cpu_write.transitions}
        for path in enumerate_paths(cpu_write):
            marking = initial(cpu_write)
            for tid in path:
                t = by_id[tid]
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

    def test_found_once_per_flow(self, prototype):
        flow = prototype.flows[0]
        assert start_events(flow) is start_events(flow)
        assert end_events(flow) is end_events(flow)

    def test_cached_sets_equal_a_fresh_scan(self, prototype):
        """Also on a defective flow, with an unlabeled transition."""
        unlabeled = Flow(
            id="bad",
            places=("p0", "p1"),
            transitions=(
                Transition("t0", frozenset({"p0"}), frozenset({"p1"})),
                Transition("t1", frozenset({"p0"}), frozenset({"p1"})),
            ),
            labeling={"t1": Event("x", "y", "go")},
            initial_marking=frozenset({"p0"}),
            end_marking=frozenset({"p1"}),
        )
        for flow in (*prototype.flows, unlabeled):
            assert start_events(flow) == reference_flow_model.start_events(flow), flow.id
            assert end_events(flow) == reference_flow_model.end_events(flow), flow.id
        assert start_events(unlabeled) == end_events(unlabeled) == {Event("x", "y", "go")}

    @given(acyclic_flows())
    @settings(max_examples=100, deadline=None)
    def test_cached_sets_equal_a_fresh_scan_on_generated_flows(self, flow):
        assert start_events(flow) == reference_flow_model.start_events(flow)
        assert end_events(flow) == reference_flow_model.end_events(flow)


class TestEnumeratePaths:
    def test_cpu_write_has_exactly_three_paths(self, cpu_write):
        paths = enumerate_paths(cpu_write)
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
        got = enumerate_paths(cpu_write)
        assert got == brute_force_paths(cpu_write)

    def test_matches_brute_force_on_prototype_flows(self, prototype):
        for flow in prototype.flows:
            got = enumerate_paths(flow)
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


def choice_chain(n: int) -> Flow:
    """``n`` steps, each taken by one of two transitions: 2**n paths but
    only ``n + 1`` reachable markings."""
    ev = Event("a", "b", "x")
    transitions = [
        Transition(f"t{i}{side}", frozenset({f"p{i}"}), frozenset({f"p{i + 1}"}))
        for i in range(n)
        for side in "ab"
    ]
    return Flow(
        id="choices",
        places=tuple(f"p{i}" for i in range(n + 1)),
        transitions=tuple(transitions),
        labeling={t.id: ev for t in transitions},
        initial_marking=frozenset({"p0"}),
        end_marking=frozenset({f"p{n}"}),
    )


class TestStateGraphMatchesBruteForce:
    """The indexed explorer returns the brute-force explorer's graph:
    the same markings in the same order, each with its successors in
    transition id order."""

    def test_prototype_flows(self, prototype, cpu_write):
        for flow in (*prototype.flows, cpu_write):
            assert flow.state_graph == brute_force_state_graph(flow), flow.id

    @pytest.mark.parametrize("n", [1, 2, 1200])
    def test_long_chains(self, n):
        chain = linear_flow("chain", [Event("a", "b", f"m{i}") for i in range(n)])
        graph = chain.state_graph
        assert graph == brute_force_state_graph(chain)
        assert len(graph.markings) == n + 1
        choices = choice_chain(n)
        assert choices.state_graph == brute_force_state_graph(choices)

    def test_defective_flows(self):
        """A transition with an empty preset is enabled in every marking;
        a token merge and a dead transition leave the graph as it is."""
        ev = Event("a", "b", "x")
        flow = Flow(
            id="defects",
            places=("p0", "a", "b", "c", "e", "f"),
            transitions=(
                Transition("t0", frozenset({"p0"}), frozenset({"a", "b"})),
                Transition("t1", frozenset({"a"}), frozenset({"c"})),
                Transition("t2", frozenset({"b"}), frozenset({"c"})),
                Transition("t3", frozenset({"c"}), frozenset({"e"})),
                Transition("t4", frozenset(), frozenset({"f"})),
                Transition("t5", frozenset({"f", "x"}), frozenset({"e"})),
            ),
            labeling={f"t{i}": ev for i in range(6)},
            initial_marking=frozenset({"p0"}),
            end_marking=frozenset({"e"}),
        )
        graph = flow.state_graph
        assert graph == brute_force_state_graph(flow)
        assert all("t4" in dict(out) for out in graph.successors)

    def test_truncated_exploration(self, cpu_write, monkeypatch):
        monkeypatch.setattr(flow_model, "_MARKING_EXPLORATION_LIMIT", 4)
        graph = flow_model._explore(cpu_write.transitions, cpu_write.initial_marking, 4)
        assert graph.truncated
        assert graph == brute_force_state_graph(cpu_write)


def _one_step(**changes) -> Flow:
    """The one-transition flow ``p0 -t0-> p1``, with fields replaced."""
    flow = Flow(
        id="step",
        places=("p0", "p1"),
        transitions=(Transition("t0", frozenset({"p0"}), frozenset({"p1"})),),
        labeling={"t0": Event("a", "b", "x")},
        initial_marking=frozenset({"p0"}),
        end_marking=frozenset({"p1"}),
    )
    return rebuilt(flow, **changes)


def _t0(pre=("p0",), post=("p1",)) -> Transition:
    return Transition("t0", frozenset(pre), frozenset(post))


def _repeated_t1(t2: tuple[str, str], end: str) -> Flow:
    """``t1: p1 -> p2``, ``t1: p3 -> p4`` and ``t2`` from and to the given
    places: a net with one transition id used twice."""
    ev = Event("a", "b", "x")
    return Flow(
        id="dup",
        places=("p1", "p2", "p3", "p4"),
        transitions=(
            Transition("t1", {"p1"}, {"p2"}),
            Transition("t1", {"p3"}, {"p4"}),
            Transition("t2", {t2[0]}, {t2[1]}),
        ),
        labeling={"t1": ev, "t2": ev},
        initial_marking={"p1"},
        end_marking={end},
    )


# Each structural finding, on the one-step flow with one field replaced:
# (replaced fields, the report's text).
VALIDATE_FINDINGS = {
    "empty net": (
        {"places": (), "transitions": (), "labeling": {}},
        "flow step: 3 finding(s)\n"
        "  empty net: flow declares no places\n"
        "  unknown place: marking references p0\n"
        "  unknown place: marking references p1",
    ),
    "duplicate place": (
        {"places": ("p0", "p1", "p1")},
        "flow step: 1 finding(s)\n  duplicate place: p1",
    ),
    "duplicate transition": (
        {"transitions": (_t0(), _t0())},
        "flow step: 1 finding(s)\n  duplicate transition: t0",
    ),
    "empty preset": (
        {"transitions": (_t0(pre=()),)},
        "flow step: 1 finding(s)\n  empty preset: t0",
    ),
    "empty postset": (
        {"transitions": (_t0(post=()),)},
        "flow step: 1 finding(s)\n  empty postset: t0",
    ),
    "self-loop": (
        {"transitions": (_t0(post=("p0", "p1")),)},
        "flow step: 2 finding(s)\n"
        "  self-loop: t0 shares places ['p0']\n"
        "  cyclic structure: place/transition graph contains a cycle",
    ),
    "unknown place of a transition": (
        {"transitions": (_t0(post=("p2",)),)},
        "flow step: 1 finding(s)\n  unknown place: t0 references p2",
    ),
    "unknown place of a marking": (
        {"end_marking": frozenset({"p2"})},
        "flow step: 1 finding(s)\n  unknown place: marking references p2",
    ),
    "label for unknown transition": (
        {"labeling": {"t0": Event("a", "b", "x"), "t9": Event("a", "b", "y")}},
        "flow step: 1 finding(s)\n  label for unknown transition: t9",
    ),
    "empty initial marking": (
        {"initial_marking": frozenset()},
        "flow step: 1 finding(s)\n  empty initial marking: step",
    ),
    "empty end marking": (
        {"end_marking": frozenset()},
        "flow step: 1 finding(s)\n  empty end marking: step",
    ),
    "ok": ({}, "flow step: ok"),
}


@pytest.mark.parametrize("case", sorted(VALIDATE_FINDINGS))
def test_validate_finding_text(case):
    changes, text = VALIDATE_FINDINGS[case]
    report = validate(_one_step(**changes))
    assert report.ok is (case == "ok")
    assert str(report) == text


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

    def test_cycle_through_a_repeated_transition_id_is_flagged(self):
        # The second t1 is a node of its own: t1 -p2-> t2 -p1-> t1 is a
        # cycle even though another transition is also called t1.
        flow = _repeated_t1(t2=("p2", "p1"), end="p4")
        assert str(validate(flow)) == (
            "flow dup: 2 finding(s)\n"
            "  duplicate transition: t1\n"
            "  cyclic structure: place/transition graph contains a cycle"
        )
        assert not reference_flow_model.has_cycle(flow)  # keyed by id, it missed it

    def test_repeated_transition_ids_make_no_cycle_of_their_own(self):
        # p3 -t1-> p4 -t2-> p1 -t1-> p2 is a chain; merging both t1 into
        # one node, as the string-keyed check does, closes it into a loop.
        flow = _repeated_t1(t2=("p4", "p1"), end="p2")
        assert str(validate(flow)) == "flow dup: 1 finding(s)\n  duplicate transition: t1"
        assert reference_flow_model.has_cycle(flow)

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
    got = enumerate_paths(flow)
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
def test_generated_state_graphs_match_brute_force(flow):
    assert flow.state_graph == brute_force_state_graph(flow)


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


# ---------------------------------------------------------------------------
# The acyclicity check against the string-keyed reference DFS.


@st.composite
def small_nets(draw, repeated_ids: bool = False) -> Flow:
    """Random small nets, cyclic or not, with back edges, a place ``q``
    the net does not declare, empty presets and postsets and self-loops.
    Transition ids are distinct unless ``repeated_ids``."""
    places = [f"p{i}" for i in range(draw(st.integers(1, 5)))]
    arc_places = st.sets(st.sampled_from(places + ["q"]), max_size=3)
    n = draw(st.integers(1, 6))
    if repeated_ids:
        ids = [f"t{draw(st.integers(0, 2))}" for _ in range(n)]
    else:
        ids = [f"t{k}" for k in range(n)]
    transitions = [Transition(tid, draw(arc_places), draw(arc_places)) for tid in ids]
    return Flow("net", places, transitions, {}, places[:1], places[-1:])


def _has_cycle(flow: Flow) -> bool:
    return flow_model._has_cycle(flow.places, flow.transitions)


@given(acyclic_flows())
@settings(max_examples=40, deadline=None)
def test_acyclicity_check_clears_generated_flows_as_the_reference_does(flow):
    assert _has_cycle(flow) is reference_flow_model.has_cycle(flow) is False


@given(small_nets())
@settings(max_examples=300, deadline=None)
def test_acyclicity_check_matches_the_reference_on_distinct_ids(net):
    assert _has_cycle(net) == reference_flow_model.has_cycle(net)


@given(small_nets(repeated_ids=True))
@settings(max_examples=300, deadline=None)
def test_acyclicity_check_treats_each_repeated_id_as_its_own_transition(net):
    """With repeated ids the reference merges transitions, so it is asked
    about the same net with its ids renamed apart."""
    apart = rebuilt(net, transitions=[
        Transition(f"{t.id}.{k}", t.preset, t.postset) for k, t in enumerate(net.transitions)
    ])
    assert _has_cycle(net) == reference_flow_model.has_cycle(apart)


# ---------------------------------------------------------------------------
# The validator against the validator it replaced.


@st.composite
def labeled_nets(draw) -> Flow:
    """Random small labeled nets, defective or not.  Half are clean in
    structure: every arc runs from a lower place to a higher one, ids and
    labels are complete and distinct, and the end marking is the last
    place, so the token game is explored and shows token collisions,
    dead transitions, unreachable places and bad termination.  The other
    half may also draw arcs and markings anywhere, an undeclared place
    ``q`` included (self-loops, cycles, unknown places), repeat a place or
    a transition id, and lose a label or gain one for an unknown
    transition."""
    places = [f"p{i}" for i in range(draw(st.integers(2, 6)))]
    clean = draw(st.booleans())
    forward = clean or draw(st.booleans())
    anywhere = st.sets(st.sampled_from(places + ["q"]), max_size=3)
    transitions = []
    for k in range(draw(st.integers(1, 6))):
        if forward:
            cut = draw(st.integers(1, len(places) - 1))
            pre = draw(st.sets(st.sampled_from(places[:cut]), min_size=1, max_size=2))
            post = draw(st.sets(st.sampled_from(places[cut:]), min_size=1, max_size=2))
        else:
            pre, post = draw(anywhere), draw(anywhere)
        tid = f"t{k}" if clean or draw(st.booleans()) else f"t{draw(st.integers(0, 2))}"
        transitions.append(Transition(tid, pre, post))
    labeling = {t.id: Event("a", "b", t.id) for t in transitions}
    initial = draw(st.sets(st.sampled_from(places[:-1]), min_size=1, max_size=2))
    end = {places[-1]}
    if not clean:
        if draw(st.booleans()):
            labeling.pop(draw(st.sampled_from(sorted(labeling))))
        if draw(st.booleans()):
            labeling["t9"] = Event("a", "b", "x")
        if draw(st.booleans()):
            places.append(draw(st.sampled_from(places)))
        if draw(st.booleans()):
            initial, end = draw(anywhere), draw(anywhere)
    return Flow("net", places, transitions, labeling, initial, end)


_NETS = st.one_of(
    labeled_nets(), small_nets(), small_nets(repeated_ids=True), acyclic_flows()
)


# Two runs stop outside the end marking, explored in the reverse of the
# order in which they are reported.
_TWO_BAD_ENDS = Flow(
    "net", ["p0", "p1", "p2", "p3"], [_t0(post=("p1",)), Transition("t1", {"p0"}, {"p2"})],
    {"t0": Event("a", "b", "x"), "t1": Event("a", "b", "y")}, {"p0"}, {"p3"},
)


@given(_NETS, st.sampled_from([2, 3, flow_model._MARKING_EXPLORATION_LIMIT]))
@example(_TWO_BAD_ENDS, flow_model._MARKING_EXPLORATION_LIMIT)
@settings(max_examples=500, deadline=None)
def test_validate_matches_the_reference_validator(net, limit):
    """The same findings, in the same order and with the same text, also
    when exploration stops at ``limit`` markings."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(flow_model, "_MARKING_EXPLORATION_LIMIT", limit)
        report = validate(net)
    assert report == reference_flow_model.validate(net)
    assert str(report) == str(reference_flow_model.validate(net))


# ---------------------------------------------------------------------------
# Flows that repeat a net share its state graph, paths and findings.


def test_the_exploration_limit_keys_the_shared_state_graphs(monkeypatch):
    """A graph explored under one limit is not handed out under another."""
    prototype = load_prototype()
    monkeypatch.setattr(flow_model, "_MARKING_EXPLORATION_LIMIT", 4)
    with pytest.raises(SpecSemanticError, match="state explosion"):
        load_prototype()
    with pytest.raises(PathExplosion, match="reachable markings"):
        enumerate_paths(rebuilt(prototype.flows[0]))


_TWINS = """\
system twins
component A B
link ab A -> B
link ba B -> A
flow first
  place p1 initial
  place p2
  place p3 end
  place p4 end
  transition t1 pre {p1} post {p2, p3} event A:B:req on ab
  transition t2 pre {p2} post {p4} event B:A:resp on ba
flow second
  place p1 initial
  place p2
%s
  transition t1 pre {p1} post {p2, p3} event A:B:req on ab
  transition t2 pre {p2} post {p4} event B:A:resp on ba
initiator A flows {first, second}
"""


@pytest.mark.parametrize("places, finding", [
    (
        "  place p3\n  place p4 end",
        "bad termination: a maximal firing sequence stops in ['p3', 'p4'] "
        "instead of the end marking ['p4']",
    ),
    ("  place p3 end\n  place p4 end\n  place p5", "unreachable place: p5"),
])
def test_a_flow_that_repeats_only_part_of_a_net_is_validated_on_its_own(places, finding):
    """The second flow fires the first one's transitions from its initial
    marking, but ends elsewhere or declares one more place."""
    assert [f.id for f in parse_system(_TWINS % "  place p3 end\n  place p4 end").flows] == [
        "first", "second"
    ]
    with pytest.raises(SpecSemanticError) as caught:
        parse_system(_TWINS % places)
    assert str(caught.value) == f"line 12: flow second failed validation: {finding}"


def test_shared_paths_cannot_be_corrupted_through_a_caller(cpu_write):
    paths = enumerate_paths(cpu_write)
    expected = list(paths)
    paths.clear()
    assert enumerate_paths(cpu_write) == expected
    assert cpu_write.paths == tuple(expected)
    twin = rebuilt(cpu_write, id="twin")
    twin_paths = enumerate_paths(twin)
    twin_paths.append(("t1",))
    assert enumerate_paths(twin) == expected == list(twin.paths)


def test_flows_with_equal_nets_get_equal_analyses():
    spec = parse_system(bench_module("socgen").soc(4, 4, 1))
    first: dict[tuple, Flow] = {}
    for flow in spec.flows:
        twin = first.setdefault(
            (flow.places, flow.transitions, flow.initial_marking, flow.end_marking), flow
        )
        assert flow.state_graph == twin.state_graph == brute_force_state_graph(flow)
        assert flow.paths == twin.paths
        assert validate(flow) == reference_flow_model.validate(flow)
    assert len(first) < len(spec.flows)
