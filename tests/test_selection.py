"""Event selection: link-cover optimality, CEC mandates, FC baseline."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from flowtrace.flow_model import (
    Event,
    Flow,
    Transition,
    end_events,
    enumerate_paths,
    path_labels,
    start_events,
)
from flowtrace.selection import (
    REASON_END,
    REASON_FC_RANK,
    REASON_FLOW_COVER,
    REASON_PATH_DISAMBIG,
    REASON_START,
    Selection,
    SelectionProblem,
    guaranteed_events,
    select_cec,
    select_fc_baseline,
    select_fic,
)
from flowtrace.tracing_sim import reallocate_queues

import reference_selection
from conftest import (
    TooLarge,
    acyclic_flows,
    linear_flow,
    minimal_link_cover_oracle,
    random_selection_problem,
)


def problem_for(flows, event_link_map=None, budget=256) -> SelectionProblem:
    if event_link_map is None:
        event_link_map = {}
        for f in flows:
            for e in f.events:
                event_link_map.setdefault(e, f"{e.src}__{e.dest}")
    return SelectionProblem(tuple(flows), event_link_map, budget)


def prototype_problem(spec) -> SelectionProblem:
    return SelectionProblem(
        spec.flows, spec.topology.event_link_map, 8 * len(spec.topology.links)
    )


class TestGuaranteedEvents:
    def test_linear_flow_all_guaranteed(self):
        events = [Event("a", "b", f"m{i}") for i in range(3)]
        flow = linear_flow("lin", events)
        assert guaranteed_events(flow) == set(events)

    def test_cpu_write_only_start_and_end_guaranteed(self, cpu_write):
        assert guaranteed_events(cpu_write) == {
            Event("CPU_X", "Cache_X", "wr_req"),
            Event("Cache_X", "CPU_X", "wr_resp"),
        }


class TestSelectFic:
    def test_single_flow_single_link(self):
        flow = linear_flow("only", [Event("a", "b", "m0"), Event("a", "b", "m1")])
        sel = select_fic(problem_for([flow]))
        assert len(sel.links) == 1
        assert len(sel.events) == 1
        assert sel.events <= flow.events
        assert set(sel.rationale.values()) == {REASON_FLOW_COVER}

    def test_shared_event_dominates(self):
        shared = Event("a", "b", "shared")
        f1 = linear_flow("f1", [Event("x", "y", "m1"), shared], prefix="a")
        f2 = linear_flow("f2", [shared, Event("y", "z", "m2")], prefix="b")
        sel = select_fic(problem_for([f1, f2]))
        assert sel.events == {shared}
        assert len(sel.links) == 1

    def test_every_flow_covered_on_prototype(self, prototype):
        sel = select_fic(prototype_problem(prototype))
        for flow in prototype.flows:
            assert sel.events & flow.events, flow.id

    def test_prototype_uses_guaranteed_events_only(self, prototype):
        sel = select_fic(prototype_problem(prototype))
        for flow in prototype.flows:
            chosen = sel.events & flow.events
            assert chosen & guaranteed_events(flow), flow.id

    def test_deterministic(self, prototype):
        p = prototype_problem(prototype)
        assert select_fic(p) == select_fic(p)

    def test_two_flows_on_disjoint_links_need_two(self):
        f1 = linear_flow("f1", [Event("a", "b", "m")], prefix="a")
        f2 = linear_flow("f2", [Event("c", "d", "m")], prefix="b")
        sel = select_fic(problem_for([f1, f2]))
        assert len(sel.links) == 2


class TestOracle:
    def test_single_flow(self):
        flow = linear_flow("only", [Event("a", "b", "m")])
        assert minimal_link_cover_oracle(problem_for([flow])) == 1

    def test_disjoint_flows(self):
        f1 = linear_flow("f1", [Event("a", "b", "m")], prefix="a")
        f2 = linear_flow("f2", [Event("c", "d", "m")], prefix="b")
        assert minimal_link_cover_oracle(problem_for([f1, f2])) == 2

    def test_too_large_on_prototype(self, prototype):
        with pytest.raises(TooLarge):
            minimal_link_cover_oracle(prototype_problem(prototype))

    def test_scoped_subproblem_within_bound(self, prototype):
        flows = prototype.flows_of_initiators(["CPU0", "CPU1"])
        problem = SelectionProblem(
            flows, prototype.topology.event_link_map, 256
        )
        size = minimal_link_cover_oracle(problem)
        assert size == len(select_fic(problem).links)


class TestFicOptimality:
    def test_matches_oracle_on_fifty_random_problems(self):
        rng = random.Random(20260810)
        for trial in range(50):
            problem = random_selection_problem(rng)
            sel = select_fic(problem)
            assert len(sel.links) == minimal_link_cover_oracle(problem), (
                f"trial {trial}"
            )
            for flow in problem.flows:
                assert sel.events & flow.events, (trial, flow.id)


class TestSelectCec:
    def test_cpu_write_alone(self, cpu_write):
        sel = select_cec(problem_for([cpu_write]))
        start = Event("CPU_X", "Cache_X", "wr_req")
        end = Event("Cache_X", "CPU_X", "wr_resp")
        assert start in sel.events and end in sel.events
        assert sel.rationale[start] == REASON_START
        assert sel.rationale[end] == REASON_END
        snoop = {
            Event("Cache_X", "Cache_Y", "snp_wr_req"),
            Event("Cache_Y", "Cache_X", "snp_wr_resp"),
        }
        middle = {
            Event("Cache_X", "Bus", "wr_req"),
            Event("Bus", "Mem", "rd_req"),
            Event("Mem", "Bus", "rd_resp"),
            Event("Bus", "Cache_X", "wr_resp"),
        }
        assert sel.events & snoop, "needs one of the snoop events"
        assert sel.events & middle, "needs one event from the long branch"
        extras = sel.events - {start, end}
        assert all(sel.rationale[e] == REASON_PATH_DISAMBIG for e in extras)

    def test_paths_distinguishable_under_projection(self, cpu_write):
        sel = select_cec(problem_for([cpu_write]))
        paths = enumerate_paths(cpu_write)
        projections = [
            tuple(e for e in path_labels(cpu_write, p) if e in sel.events)
            for p in paths
        ]
        assert len(set(projections)) == len(paths)

    def test_linear_flow_needs_only_start_and_end(self):
        flow = linear_flow(
            "lin", [Event("a", "b", "m0"), Event("b", "c", "m1"), Event("c", "d", "m2")]
        )
        sel = select_cec(problem_for([flow]))
        assert sel.events == {Event("a", "b", "m0"), Event("c", "d", "m2")}

    def test_prototype_mandatory_set(self, prototype):
        sel = select_cec(prototype_problem(prototype))
        mandatory = set()
        for flow in prototype.flows:
            mandatory |= start_events(flow) | end_events(flow)
        assert len(mandatory) == 32
        assert mandatory <= sel.events

    def test_prototype_distinguishability_everywhere(self, prototype):
        sel = select_cec(prototype_problem(prototype))
        assert not sel.undistinguishable
        for flow in prototype.flows:
            paths = enumerate_paths(flow)
            projections = [
                tuple(e for e in path_labels(flow, p) if e in sel.events)
                for p in paths
            ]
            assert len(set(projections)) == len(paths), flow.id

    def test_identical_label_paths_reported(self):
        ev_a, ev_b = Event("a", "b", "go"), Event("b", "c", "done")
        flow = Flow(
            id="twin",
            places=("s0", "s1", "s2"),
            transitions=(
                Transition("t0", frozenset({"s0"}), frozenset({"s1"})),
                Transition("t1", frozenset({"s0"}), frozenset({"s1"})),
                Transition("t2", frozenset({"s1"}), frozenset({"s2"})),
            ),
            labeling={"t0": ev_a, "t1": ev_a, "t2": ev_b},
            initial_marking=frozenset({"s0"}),
            end_marking=frozenset({"s2"}),
        )
        sel = select_cec(problem_for([flow]))
        assert sel.undistinguishable == (("twin", ("t0", "t2"), ("t1", "t2")),)

    def test_forced_progress_when_no_single_event_splits(self):
        # A fork whose two branches interleave: the paths emit s a b e and
        # s b a e.  Adding a or b alone leaves both projections equal, so
        # the greedy forces progress with the smallest candidate, a, even
        # though b shares the already-used link of s, and then b splits.
        s, e = Event("X", "Y", "s"), Event("Y", "X", "e")
        a, b = Event("A", "B", "a"), Event("X", "Y", "b")
        flow = Flow(
            id="interleave",
            places=("p0", "p1", "p2", "p3", "p4", "p5"),
            transitions=(
                Transition("ts", frozenset({"p0"}), frozenset({"p1", "p2"})),
                Transition("ta", frozenset({"p1"}), frozenset({"p3"})),
                Transition("tb", frozenset({"p2"}), frozenset({"p4"})),
                Transition("te", frozenset({"p3", "p4"}), frozenset({"p5"})),
            ),
            labeling={"ts": s, "ta": a, "tb": b, "te": e},
            initial_marking=frozenset({"p0"}),
            end_marking=frozenset({"p5"}),
        )
        assert [path_labels(flow, p) for p in flow.paths] == [
            (s, a, b, e),
            (s, b, a, e),
        ]
        sel = select_cec(problem_for([flow]))
        assert list(sel.rationale.items()) == [
            (s, REASON_START),
            (e, REASON_END),
            (a, REASON_PATH_DISAMBIG),
            (b, REASON_PATH_DISAMBIG),
        ]


def assert_cec_matches_reference(problem: SelectionProblem) -> None:
    got = select_cec(problem)
    want = reference_selection.select_cec(problem)
    assert got.events == want.events
    assert got.links == want.links
    assert list(got.rationale.items()) == list(want.rationale.items())
    assert got.undistinguishable == want.undistinguishable


@st.composite
def shared_event_problems(draw) -> SelectionProblem:
    """Several generated flows over one small event vocabulary."""
    n_flows = draw(st.integers(1, 5))
    return problem_for([draw(acyclic_flows(f"f{i}")) for i in range(n_flows)])


class TestCecMatchesReference:
    """The incremental greedy makes the reference loop's choices."""

    def test_prototype(self, prototype):
        assert_cec_matches_reference(prototype_problem(prototype))

    def test_every_single_initiator_scope(self, prototype):
        for initiator, _ in prototype.initiators:
            problem = SelectionProblem(
                prototype.flows_of_initiators([initiator]),
                prototype.topology.event_link_map,
                256,
            )
            assert_cec_matches_reference(problem)

    def test_fifty_random_problems(self):
        rng = random.Random(20261018)
        for _ in range(50):
            assert_cec_matches_reference(random_selection_problem(rng))

    @given(shared_event_problems())
    @settings(max_examples=80, deadline=None)
    def test_generated_multi_flow_problems(self, problem):
        assert_cec_matches_reference(problem)


class TestFcBaseline:
    def test_prototype_top16_are_shared_interior_events(self, prototype):
        sel = select_fc_baseline(prototype_problem(prototype), 16)
        assert len(sel.events) == 16
        assert len(sel.links) == 16
        protected = set()
        for flow in prototype.flows:
            protected |= start_events(flow) | end_events(flow)
        assert not sel.events & protected
        assert set(sel.rationale.values()) == {REASON_FC_RANK}

    def test_k_equals_event_count_selects_everything(self, prototype):
        problem = prototype_problem(prototype)
        total = len({e for f in prototype.flows for e in f.events})
        sel = select_fc_baseline(problem, total)
        assert len(sel.events) == total

    def test_shared_event_ranks_first(self):
        shared = Event("a", "b", "shared")
        f1 = linear_flow("f1", [shared, Event("b", "c", "m1")], prefix="a")
        f2 = linear_flow("f2", [shared, Event("b", "d", "m2")], prefix="b")
        sel = select_fc_baseline(problem_for([f1, f2]), 1)
        assert sel.events == {shared}

    def test_k_out_of_range(self, prototype):
        with pytest.raises(ValueError):
            select_fc_baseline(prototype_problem(prototype), 10_000)


class TestReallocateQueues:
    def test_all_links_enabled_keeps_base(self):
        links = [f"l{i}" for i in range(32)]
        caps = reallocate_queues(8, links, links)
        assert all(c == 8 for c in caps.values())

    def test_half_enabled_doubles(self):
        links = [f"l{i:02d}" for i in range(32)]
        caps = reallocate_queues(8, links, links[:16])
        assert all(caps[l] == 16 for l in links[:16])

    def test_remainder_goes_to_first_links(self):
        links = [f"l{i:02d}" for i in range(32)]
        enabled = links[:12]
        caps = reallocate_queues(8, links, enabled)
        assert sum(caps.values()) == 256
        assert [caps[l] for l in sorted(enabled)] == [22] * 4 + [21] * 8

    def test_conservation_property(self):
        rng = random.Random(7)
        links = [f"l{i:02d}" for i in range(20)]
        for _ in range(25):
            n = rng.randint(1, 20)
            enabled = rng.sample(links, n)
            base = rng.randint(1, 32)
            caps = reallocate_queues(base, links, enabled)
            assert sum(caps.values()) == base * 20
            assert max(caps.values()) - min(caps.values()) <= 1

    def test_rejects_empty_enabled(self):
        with pytest.raises(ValueError):
            reallocate_queues(8, ["a"], [])

    @pytest.mark.parametrize(
        "base, enabled, message",
        [
            (8, ["a", "z"], "enabled links must be a subset of all links"),
            (0, ["a"], "base capacity must be positive"),
            (2.5, ["a"], "base capacity must be an integer, got 2.5"),
            (True, ["a"], "base capacity must be an integer, got True"),
        ],
    )
    def test_rejection_messages(self, base, enabled, message):
        with pytest.raises(ValueError) as exc_info:
            reallocate_queues(base, ["a", "b"], enabled)
        assert str(exc_info.value) == message


CHAIN = linear_flow("chain", [Event("A", "B", "req"), Event("B", "A", "resp")])


class TestSelectionProblemRejects:
    def test_a_budget_below_one(self):
        with pytest.raises(ValueError) as exc_info:
            problem_for([CHAIN], budget=0)
        assert str(exc_info.value) == "total_queue_budget must be positive"

    def test_a_flow_with_no_events(self):
        flow = dataclasses.replace(CHAIN, transitions=(), labeling={})
        with pytest.raises(ValueError) as exc_info:
            problem_for([flow])
        assert str(exc_info.value) == "flow chain has no events"

    def test_an_unmapped_event(self):
        mapped = {Event("A", "B", "req"): "ab"}
        with pytest.raises(ValueError) as exc_info:
            problem_for([CHAIN], event_link_map=mapped)
        assert str(exc_info.value) == "flow chain: event B:A:resp is unmapped"
