"""Event selection: link-cover optimality, CEC mandates, FC baseline."""

from __future__ import annotations

import json
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from flowtrace import selection
from flowtrace.experiment import scoped_flows
from flowtrace.flow_model import (
    Event,
    Flow,
    Transition,
    end_events,
    enumerate_paths,
    start_events,
)
from flowtrace.selection import (
    EXACT_COVER_LIMIT,
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
from flowtrace.spec_io import parse_system
from flowtrace.tracing_sim import reallocate_queues

import reference_selection
from conftest import (
    BENCH_DIR,
    TooLarge,
    acyclic_flows,
    bench_module,
    fork_join_flow,
    linear_flow,
    minimal_link_cover_oracle,
    path_labels,
    random_selection_problem,
    rebuilt,
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

    def test_found_once_per_flow(self, prototype):
        flow = prototype.flows[0]
        assert guaranteed_events(flow) is guaranteed_events(flow)
        first, second = prototype_problem(prototype), prototype_problem(prototype)
        assert first.flow_cover_events[flow.id] is second.flow_cover_events[flow.id]

    @given(acyclic_flows())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_reference(self, flow):
        assert guaranteed_events(flow) == reference_selection.guaranteed_events(flow)


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
        flows = scoped_flows(prototype, ("CPU0", "CPU1"))
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


@st.composite
def cover_masks(draw) -> tuple[list[str], dict[str, int], int]:
    """A sorted link list, each link's flow mask and the full mask.

    Masks come from a small pool that holds the empty mask, so links share
    masks and gains tie often.  In about three draws of four, each flow
    that no link covers is then added to one drawn link's mask; the rest
    may be uncoverable, which both covers must refuse alike.
    """
    n_flows = draw(st.integers(1, 12))
    full = (1 << n_flows) - 1
    pool = [0] + draw(st.lists(st.integers(0, full), min_size=1, max_size=6))
    links = [f"L{i:02d}" for i in range(draw(st.integers(1, 30)))]
    mask = {l: draw(st.sampled_from(pool)) for l in links}
    if draw(st.booleans()) or draw(st.booleans()):
        for i in range(n_flows):
            if not any(m >> i & 1 for m in mask.values()):
                mask[draw(st.sampled_from(links))] |= 1 << i
    return links, mask, full


def cover_or_error(cover, links, mask, full):
    try:
        return cover(links, mask, full)
    except AssertionError as error:
        return str(error)


class TestGreedyCoverMatchesReference:
    """The lazy greedy cover is the eager loop's, link for link."""

    @given(cover_masks())
    @settings(max_examples=400, deadline=None)
    def test_random_masks(self, case):
        assert cover_or_error(selection._greedy_cover, *case) == cover_or_error(
            reference_selection.greedy_cover, *case
        )

    def test_select_fic_past_the_exact_limit(self, monkeypatch):
        rng = random.Random(20261019)
        problems = [
            random_selection_problem(rng, n_links=(30, 60), n_flows=(20, 40))
            for _ in range(20)
        ]
        assert all(len(selection._cover_masks(p)[0]) > EXACT_COVER_LIMIT for p in problems)
        got = [select_fic(p) for p in problems]
        monkeypatch.setattr(selection, "_greedy_cover", reference_selection.greedy_cover)
        want = [select_fic(p) for p in problems]
        assert got == want
        assert [list(g.rationale.items()) for g in got] == [
            list(w.rationale.items()) for w in want
        ]


@st.composite
def tied_fic_problems(draw) -> SelectionProblem:
    """Four to fourteen linear flows of two or three events each, drawn
    from a pool of five to fourteen events on five to twenty links, each
    link carrying one or two events.

    Flows share pool events and links, so minimum covers often tie (two
    problems in three), and tied covers often select different numbers of
    events: a link carrying one event that two flows share against a link
    carrying one event of each.
    """
    event_link = {
        Event("A", "B", f"m{i}_{j}"): f"L{i:02d}"
        for i in range(draw(st.integers(5, EXACT_COVER_LIMIT)))
        for j in range(draw(st.integers(1, 2)))
    }
    pool = draw(
        st.lists(st.sampled_from(sorted(event_link)), min_size=5, max_size=14, unique=True)
    )
    flows = [
        linear_flow(
            f"flow{k}",
            draw(st.lists(st.sampled_from(pool), min_size=2, max_size=3, unique=True)),
            prefix=f"f{k}_",
        )
        for k in range(draw(st.integers(4, 14)))
    ]
    return SelectionProblem(flows, event_link, 64)


def assert_fic_matches_reference(problem: SelectionProblem) -> None:
    got, want = select_fic(problem), reference_selection.select_fic(problem)
    assert got == want
    assert list(got.rationale.items()) == list(want.rationale.items())


class TestFicMatchesReference:
    """The exact branch picks the cover that ranking every minimum cover by
    (selected events, sorted link ids) picks, event for event."""

    @given(
        st.one_of(
            tied_fic_problems(),
            st.integers(0, 2**32 - 1).map(lambda s: random_selection_problem(random.Random(s))),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_random_problems(self, problem):
        assert len(selection._cover_masks(problem)[0]) <= EXACT_COVER_LIMIT
        assert_fic_matches_reference(problem)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_prototype_scope_of_n_initiators(self, prototype, n):
        initiators = [c for c, _ in prototype.initiators]
        assert len(initiators) == 5
        for scope in combinations(initiators, n):
            flows = scoped_flows(prototype, scope)
            assert_fic_matches_reference(
                SelectionProblem(flows, prototype.topology.event_link_map, 256)
            )


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

    def test_pairs_count_paths_not_label_sequences(self):
        # Three of five paths emit s x t, so adding x splits 6 path pairs
        # and y or z only 4 each; counted per distinct label sequence, all
        # three would split 2 and the smaller y would be picked first.
        s, t = Event("S", "T", "s"), Event("T", "S", "t")
        x, y, z = Event("Q", "R", "x"), Event("A", "B", "y"), Event("C", "D", "z")
        middle = {"m1": x, "m2": x, "m3": x, "m4": y, "m5": z}
        flow = Flow(
            id="weighted",
            places=("p0", "p1", "p2", "p3"),
            transitions=(
                Transition("ts", {"p0"}, {"p1"}),
                *(Transition(tid, {"p1"}, {"p2"}) for tid in middle),
                Transition("tt", {"p2"}, {"p3"}),
            ),
            labeling={"ts": s, "tt": t, **middle},
            initial_marking={"p0"},
            end_marking={"p3"},
        )
        problem = problem_for([flow])
        sel = select_cec(problem)
        assert list(sel.rationale.items()) == [
            (s, REASON_START),
            (t, REASON_END),
            (x, REASON_PATH_DISAMBIG),
            (y, REASON_PATH_DISAMBIG),
        ]
        assert sel.undistinguishable == (
            ("weighted", ("ts", "m1", "tt"), ("ts", "m2", "tt")),
            ("weighted", ("ts", "m1", "tt"), ("ts", "m3", "tt")),
            ("weighted", ("ts", "m2", "tt"), ("ts", "m3", "tt")),
        )
        assert_cec_matches_reference(problem)

    def test_three_by_three_fork_join_needs_every_event(self):
        # 1680 interleavings of one run.  The reference loop takes minutes
        # here, so the selection it makes is pinned instead.
        flow = fork_join_flow(3, 3)
        assert len(flow.paths) == 1680
        sel = select_cec(problem_for([flow]))
        steps = [Event("Hub", f"Dev{i}", f"step{j}") for j in range(3) for i in range(3)]
        assert list(sel.rationale.items()) == [
            (Event("Hub", "Mem", "fork"), REASON_START),
            (Event("Mem", "Hub", "join"), REASON_END),
        ] + [(e, REASON_PATH_DISAMBIG) for e in steps]
        assert sel.events == flow.events
        assert sel.undistinguishable == ()


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


@st.composite
def twin_heavy_problems(draw) -> SelectionProblem:
    """Generated flows relabelled from three events, so that many paths
    share a label sequence and the greedy's counts weigh sequences by
    their paths."""
    events = [Event("A", "B", "m0"), Event("B", "C", "m1"), Event("C", "A", "m2")]
    flows = []
    for i in range(draw(st.integers(1, 3))):
        flow = draw(acyclic_flows(f"f{i}"))
        labeling = {t: draw(st.sampled_from(events)) for t in sorted(flow.labeling)}
        flows.append(rebuilt(flow, labeling=labeling))
    return problem_for(flows)


@st.composite
def relabelled_copy_problems(draw) -> SelectionProblem:
    """Two to four copies of one generated net, each relabelled one-to-one
    from the same twelve events, so the copies share their shape but
    overlap in events, and the memo is read under different chosen sets."""
    pool = [Event(a, b, c) for a in "ABC" for b in "ABC" if a != b for c in ("m0", "m1")]
    net = draw(acyclic_flows("net"))
    events = sorted(net.events)
    flows = []
    for i in range(draw(st.integers(2, 4))):
        new = dict(zip(events, draw(st.permutations(pool))))
        labeling = {t: new[e] for t, e in net.labeling.items()}
        flows.append(rebuilt(net, id=f"f{i}", labeling=labeling))
    return problem_for(flows)


class TestCecMatchesReference:
    """The class-counting greedy makes the reference loop's choices."""

    @given(relabelled_copy_problems())
    @settings(max_examples=150, deadline=None)
    def test_relabelled_copies_of_one_net(self, problem):
        assert_cec_matches_reference(problem)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_soc(self, seed):
        spec = parse_system(bench_module("socgen").soc(8, 8, seed))
        assert_cec_matches_reference(prototype_problem(spec))

    def test_benchmark_soc(self):
        """The benchmark's ``soc(24, 24, 1)``, whose 48 confusable flows
        share one shape."""
        spec = parse_system(bench_module("socgen").soc(24, 24, 1))
        assert_cec_matches_reference(prototype_problem(spec))

    def test_copies_of_one_net_share_each_count(self, monkeypatch):
        """Event-disjoint copies of a net pass through the same chosen
        local labels, so four copies call ``_count_splits`` as often as one."""
        flow = fork_join_flow(2, 3)

        def copy(i: int) -> Flow:
            labeling = {t: Event(f"{e.src}{i}", e.dest, e.cmd) for t, e in flow.labeling.items()}
            return rebuilt(flow, id=f"copy{i}", labeling=labeling)

        counted = []
        real = selection._count_splits
        monkeypatch.setattr(
            selection, "_count_splits", lambda *args: counted.append(args) or real(*args)
        )
        select_cec(problem_for([copy(0)]))
        alone = len(counted)
        counted.clear()
        problem = problem_for([copy(i) for i in range(4)])
        assert_cec_matches_reference(problem)
        assert len(counted) == alone > 1

    def test_prototype(self, prototype):
        assert_cec_matches_reference(prototype_problem(prototype))

    def test_every_single_initiator_scope(self, prototype):
        for initiator, _ in prototype.initiators:
            problem = SelectionProblem(
                scoped_flows(prototype, (initiator,)),
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

    @given(twin_heavy_problems())
    @settings(max_examples=150, deadline=None)
    def test_problems_with_repeated_label_sequences(self, problem):
        assert_cec_matches_reference(problem)

    @pytest.mark.parametrize("branches, depth", [(2, 3), (2, 4), (3, 2)])
    def test_fork_join_flows(self, branches, depth):
        assert_cec_matches_reference(problem_for([fork_join_flow(branches, depth)]))


class TestCountSplits:
    def test_a_split_can_appear_when_an_event_is_chosen(self):
        # a x c and x a c with only c chosen: x falls in the first gap of
        # both, so it splits nothing; once a is chosen, x lies before it in
        # one sequence and after it in the other, and splits the pair.
        a, x, c = 0, 1, 2
        cls = [((a, x, c), 1), ((x, a, c), 1)]
        counts = Counter()
        selection._count_splits(cls, {c}, counts)
        assert counts == Counter()
        selection._count_splits(cls, {a, c}, counts)
        assert counts == Counter({x: 1})


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

    @pytest.mark.parametrize("k", [True, 2.0, "3"])
    def test_k_that_is_not_an_int(self, prototype, k):
        with pytest.raises(ValueError) as exc_info:
            select_fc_baseline(prototype_problem(prototype), k)
        assert str(exc_info.value) == f"k must be an integer, got {k!r}"


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

    @pytest.mark.parametrize("budget", [True, 2.5, "8"])
    def test_a_budget_that_is_not_an_int(self, budget):
        with pytest.raises(ValueError) as exc_info:
            problem_for([CHAIN], budget=budget)
        assert str(exc_info.value) == f"total_queue_budget must be an integer, got {budget!r}"

    def test_a_flow_with_no_events(self):
        flow = rebuilt(CHAIN, transitions=(), labeling={})
        with pytest.raises(ValueError) as exc_info:
            problem_for([flow])
        assert str(exc_info.value) == "flow chain has no events"

    def test_an_unmapped_event(self):
        mapped = {Event("A", "B", "req"): "ab"}
        with pytest.raises(ValueError) as exc_info:
            problem_for([CHAIN], event_link_map=mapped)
        assert str(exc_info.value) == "flow chain: event B:A:resp is unmapped"


class TestSocSelectionsMatchTheBenchmark:
    """The three selectors on ``bench/socgen.py``'s ``soc(24, 24, seed)``
    give the selections whose digests ``bench/golden.json`` records for the
    benchmark's ``select-soc`` workload, with its settings: base capacity
    8 and ``fc`` at k = 16."""

    @pytest.fixture(scope="class")
    def bench(self):
        golden = json.loads((BENCH_DIR / "golden.json").read_text(encoding="utf-8"))
        digests = golden["select-soc"]
        return bench_module("socgen"), bench_module("checks"), digests

    @pytest.mark.parametrize("seed", range(1, 11))
    def test_golden_digests(self, bench, seed):
        socgen, checks, golden = bench
        spec = parse_system(socgen.soc(24, 24, seed))
        problem = SelectionProblem(
            spec.flows, spec.topology.event_link_map, 8 * len(spec.topology.links)
        )
        selections = {
            "fic": select_fic(problem),
            "cec": select_cec(problem),
            "fc": select_fc_baseline(problem, 16),
        }
        digests = {
            name: checks.sha256(checks.selection_bytes(map(str, sel.events), sel.links))
            for name, sel in selections.items()
        }
        assert digests == golden[str(seed)]
