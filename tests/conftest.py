"""Shared fixtures and independent oracles used across the test suite."""

from __future__ import annotations

import importlib.util
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from types import ModuleType

import pytest
from hypothesis import strategies as st

from flowtrace import experiment, flow_model
from flowtrace.flow_model import Event, Flow, StateGraph, Transition
from flowtrace.selection import SelectionProblem
from flowtrace.spec_io import load_prototype

CPU_WRITE_SPEC = """\
# A single coherent CPU write flow: the cache snoops its peer, may write
# back through the bus, or may answer directly on a hit.
system cpu_write_example

component CPU_X Cache_X Cache_Y Bus Mem

link cpu_cache CPU_X -> Cache_X
link snp_fwd   Cache_X -> Cache_Y
link snp_ret   Cache_Y -> Cache_X
link cache_bus Cache_X -> Bus
link bus_mem   Bus -> Mem
link mem_bus   Mem -> Bus
link bus_cache Bus -> Cache_X
link cache_cpu Cache_X -> CPU_X

flow cpu_write
  place p1 initial
  place p2 p3 p4 p5 p6 p7 p8
  place p9 end
  transition t1  pre {p1} post {p2} event CPU_X:Cache_X:wr_req      on cpu_cache
  transition t2  pre {p2} post {p3} event Cache_X:Cache_Y:snp_wr_req  on snp_fwd
  transition t3  pre {p3} post {p4} event Cache_Y:Cache_X:snp_wr_resp on snp_ret
  transition t4  pre {p4} post {p5} event Cache_X:Bus:wr_req         on cache_bus
  transition t5  pre {p5} post {p6} event Bus:Mem:rd_req             on bus_mem
  transition t6  pre {p6} post {p7} event Mem:Bus:rd_resp            on mem_bus
  transition t7  pre {p7} post {p8} event Bus:Cache_X:wr_resp        on bus_cache
  transition t8  pre {p8} post {p9} event Cache_X:CPU_X:wr_resp      on cache_cpu
  transition t9  pre {p4} post {p9} event Cache_X:CPU_X:wr_resp      on cache_cpu
  transition t10 pre {p2} post {p9} event Cache_X:CPU_X:wr_resp      on cache_cpu

initiator CPU_X flows {cpu_write}
"""


# The firing rule, written out on explicit markings: the oracle that
# Flow.state_graph and the workload engine are checked against.


class NotEnabled(Exception):
    """A transition was fired in a marking that does not enable it."""


@dataclass(frozen=True)
class Marking:
    """A state of a flow: the set of places currently holding a token."""

    marked: frozenset[str] = frozenset()

    @classmethod
    def of(cls, *places: str) -> "Marking":
        return cls(frozenset(places))

    def __len__(self) -> int:
        return len(self.marked)


def initial(flow: Flow) -> Marking:
    return Marking(flow.initial_marking)


def enabled_transitions(flow: Flow, marking: Marking) -> frozenset[str]:
    """Ids of transitions whose whole preset is marked."""
    return frozenset(t.id for t in flow.transitions if t.preset <= marking.marked)


def fire(flow: Flow, marking: Marking, transition_id: str) -> Marking:
    """The successor ``(marked - preset) | postset`` of firing one enabled
    transition."""
    transition = {t.id: t for t in flow.transitions}.get(transition_id)
    if transition is None:
        raise NotEnabled(f"flow {flow.id!r} has no transition {transition_id!r}")
    if not transition.preset <= marking.marked:
        raise NotEnabled(
            f"transition {transition_id!r} is not enabled in marking "
            f"{sorted(marking.marked)}"
        )
    return Marking((marking.marked - transition.preset) | transition.postset)


def path_labels(flow: Flow, path) -> tuple[Event, ...]:
    """The event-label sequence emitted by replaying ``path``."""
    return tuple(flow.labeling[t] for t in path)


BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str) -> ModuleType:
    """A module of ``bench/`` (``socgen``, ``checks``), loaded from its file
    without putting ``bench/`` on the import path."""
    path = BENCH_DIR / f"{name}.py"
    module_spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(module)
    return module


def rebuilt(record, **changes):
    """``record`` with ``changes``, built again through its constructor so
    that its checks and normalisation run (``_replace`` and ``_make``
    skip them)."""
    return type(record)(**{**record._asdict(), **changes})


def tag_counts(records) -> dict[str, int]:
    """Distinct instance tags per flow among ``records``: the oracle of
    the engine's own count, which it takes from its initiation schedule."""
    tags: dict[str, set] = {}
    for rec in records:
        tags.setdefault(rec.tag.flow, set()).add(rec.tag)
    return {flow: len(s) for flow, s in tags.items()}


def brute_force_paths(flow: Flow) -> list[tuple[str, ...]]:
    """Independent token-game path enumeration.

    Deliberately written as a naive recursive walk over explicit set
    markings so it shares no code with the production enumerator.
    """
    out: set[tuple[str, ...]] = set()

    def walk(marked: set[str], seq: list[str]) -> None:
        enabled = [t for t in flow.transitions if set(t.preset) <= marked]
        if not enabled:
            out.add(tuple(seq))
            return
        for t in enabled:
            walk((marked - set(t.preset)) | set(t.postset), seq + [t.id])

    walk(set(flow.initial_marking), [])
    return sorted(out, key=lambda seq: (len(seq), seq))


def brute_force_state_graph(flow: Flow) -> StateGraph:
    """The token game explored depth-first, testing every transition's
    preset against every reachable marking.

    This is the explorer ``flow_model`` used before it indexed the
    transitions by preset place; it reads the same exploration limit, so
    the differential tests can require an identical state graph, truncated
    or not.
    """
    frontier = [flow.initial_marking]
    seen = set(frontier)
    explored: list[frozenset[str]] = []
    firings: list[list[tuple[str, frozenset[str]]]] = []
    while frontier and len(seen) <= flow_model._MARKING_EXPLORATION_LIMIT:
        marked = frontier.pop()
        explored.append(marked)
        out = [
            (t.id, (marked - t.preset) | t.postset)
            for t in flow.transitions if t.preset <= marked
        ]
        for _, nxt in out:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
        firings.append(out)
    markings = tuple(explored + frontier)
    number = {marked: state for state, marked in enumerate(markings)}
    return StateGraph(
        markings,
        tuple(tuple((tid, number[nxt]) for tid, nxt in out) for out in firings),
    )


ORACLE_LINK_LIMIT = 24


class TooLarge(Exception):
    """The exhaustive oracle was asked for a problem beyond its bound."""


def minimal_link_cover_oracle(
    problem: SelectionProblem, max_links: int = ORACLE_LINK_LIMIT
) -> int:
    """Exact minimum link-cover size by subset enumeration.

    Uses the same per-flow candidate-link sets as ``select_fic`` and tries
    every link subset in increasing size, so it is a trustworthy but slow
    reference.  Raises :class:`TooLarge` beyond ``max_links`` candidate
    links.
    """
    candidates = problem.flow_link_candidates
    links = sorted(set().union(*candidates.values()))
    if len(links) > max_links:
        raise TooLarge(
            f"{len(links)} candidate links exceed the oracle bound {max_links}"
        )
    # Bit i of a link's mask is set when the link can cover flow i.
    mask = {l: 0 for l in links}
    for i, fid in enumerate(sorted(candidates)):
        for l in candidates[fid]:
            mask[l] |= 1 << i
    full = (1 << len(candidates)) - 1
    for size in range(1, len(links) + 1):
        for combo in combinations(links, size):
            m = 0
            for l in combo:
                m |= mask[l]
            if m == full:
                return size
    raise AssertionError("no cover found despite per-flow candidates")


def linear_flow(flow_id: str, events: list[Event], prefix: str = "n") -> Flow:
    """A straight-line flow firing the given events in order."""
    places = [f"{prefix}{i}" for i in range(len(events) + 1)]
    transitions = []
    labeling = {}
    for i, event in enumerate(events):
        tid = f"{prefix}t{i}"
        transitions.append(
            Transition(tid, frozenset({places[i]}), frozenset({places[i + 1]}))
        )
        labeling[tid] = event
    return Flow(
        id=flow_id,
        places=tuple(places),
        transitions=tuple(transitions),
        labeling=labeling,
        initial_marking=frozenset({places[0]}),
        end_marking=frozenset({places[-1]}),
    )


def fork_join_flow(branches: int, depth: int, flow_id: str = "fork_join") -> Flow:
    """A hub forks ``branches`` branches of ``depth`` steps each, every
    branch on its own link ``Hub -> Dev<i>``, and a join ends the flow.

    The flow has no choice: its (branches * depth)! / (depth!) ** branches
    paths are the interleavings of one run.
    """
    heads = [f"b{i}_0" for i in range(branches)]
    tails = [f"b{i}_{depth}" for i in range(branches)]
    transitions = [
        Transition("fork", frozenset({"start"}), frozenset(heads)),
        Transition("join", frozenset(tails), frozenset({"end"})),
    ]
    labeling = {"fork": Event("Hub", "Mem", "fork"), "join": Event("Mem", "Hub", "join")}
    for i in range(branches):
        for j in range(depth):
            tid = f"s{i}_{j}"
            transitions.append(
                Transition(tid, frozenset({f"b{i}_{j}"}), frozenset({f"b{i}_{j + 1}"}))
            )
            labeling[tid] = Event("Hub", f"Dev{i}", f"step{j}")
    places = ["start", "end"] + [f"b{i}_{j}" for i in range(branches) for j in range(depth + 1)]
    return Flow(
        id=flow_id,
        places=tuple(places),
        transitions=tuple(transitions),
        labeling=labeling,
        initial_marking=frozenset({"start"}),
        end_marking=frozenset({"end"}),
    )


def make_cpu_write_flow() -> Flow:
    """The coherent CPU write flow built directly from its net structure."""
    ev_start = Event("CPU_X", "Cache_X", "wr_req")
    ev_snp_req = Event("Cache_X", "Cache_Y", "snp_wr_req")
    ev_snp_resp = Event("Cache_Y", "Cache_X", "snp_wr_resp")
    ev_bus_wr = Event("Cache_X", "Bus", "wr_req")
    ev_mem_rd = Event("Bus", "Mem", "rd_req")
    ev_mem_resp = Event("Mem", "Bus", "rd_resp")
    ev_bus_resp = Event("Bus", "Cache_X", "wr_resp")
    ev_done = Event("Cache_X", "CPU_X", "wr_resp")

    arcs = {
        "t1": ("p1", "p2", ev_start),
        "t2": ("p2", "p3", ev_snp_req),
        "t3": ("p3", "p4", ev_snp_resp),
        "t4": ("p4", "p5", ev_bus_wr),
        "t5": ("p5", "p6", ev_mem_rd),
        "t6": ("p6", "p7", ev_mem_resp),
        "t7": ("p7", "p8", ev_bus_resp),
        "t8": ("p8", "p9", ev_done),
        "t9": ("p4", "p9", ev_done),
        "t10": ("p2", "p9", ev_done),
    }
    transitions = tuple(
        Transition(tid, frozenset({pre}), frozenset({post}))
        for tid, (pre, post, _) in arcs.items()
    )
    return Flow(
        id="cpu_write",
        places=tuple(f"p{i}" for i in range(1, 10)),
        transitions=transitions,
        labeling={tid: ev for tid, (_, _, ev) in arcs.items()},
        initial_marking=frozenset({"p1"}),
        end_marking=frozenset({"p9"}),
    )


def random_selection_problem(
    rng: random.Random, n_links: tuple[int, int] = (3, 18), n_flows: tuple[int, int] = (2, 8)
) -> SelectionProblem:
    """Random selection problems, by default bounded to the exact-solver
    regime; ``n_links`` and ``n_flows`` bound the two counts drawn."""
    components = [f"C{i}" for i in range(rng.randint(3, 6))]
    links = []
    link_events: dict[str, list[Event]] = {}
    for i in range(rng.randint(*n_links)):
        src = rng.choice(components)
        dest = rng.choice([c for c in components if c != src])
        lid = f"L{i:02d}"
        links.append(lid)
        link_events[lid] = [
            Event(src, dest, f"m{i}_{j}") for j in range(rng.randint(1, 3))
        ]
    event_link = {e: lid for lid, evs in link_events.items() for e in evs}
    all_events = list(event_link)

    flows = []
    for fi in range(rng.randint(*n_flows)):
        length = rng.randint(1, 5)
        body = [rng.choice(all_events) for _ in range(length)]
        flow = linear_flow(f"flow{fi}", body, prefix=f"f{fi}_")
        if rng.random() < 0.4 and length >= 2:
            # Replace one segment with a two-way choice so that not every
            # event of the flow is guaranteed.
            k = rng.randrange(length)
            alt = rng.choice(all_events)
            t_extra = Transition(
                f"f{fi}_alt",
                frozenset({f"f{fi}_{k}"}),
                frozenset({f"f{fi}_{k + 1}"}),
            )
            labeling = dict(flow.labeling)
            labeling[t_extra.id] = alt
            flow = Flow(
                id=flow.id,
                places=flow.places,
                transitions=flow.transitions + (t_extra,),
                labeling=labeling,
                initial_marking=flow.initial_marking,
                end_marking=flow.end_marking,
            )
        flows.append(flow)
    return SelectionProblem(tuple(flows), event_link, 64)


@st.composite
def acyclic_flows(draw, flow_id: str = "generated") -> Flow:
    """Random well-formed flows: chains of choice and fork/join segments.

    Events come from four components and three commands, so flows drawn
    together share events and links.
    """
    components = ["A", "B", "C", "D"]
    n_segments = draw(st.integers(1, 4))
    places = ["g0"]
    transitions: list[Transition] = []
    labeling: dict[str, Event] = {}
    counter = 0

    def new_event() -> Event:
        src = draw(st.sampled_from(components))
        dest = draw(st.sampled_from([c for c in components if c != src]))
        cmd = draw(st.sampled_from(["m0", "m1", "m2"]))
        return Event(src, dest, cmd)

    for seg in range(n_segments):
        head = places[-1]
        kind = draw(st.sampled_from(["single", "choice", "fork"]))
        if kind in ("single", "choice"):
            tail = f"g{len(places)}"
            places.append(tail)
            n_alt = 1 if kind == "single" else draw(st.integers(2, 3))
            for _ in range(n_alt):
                tid = f"t{counter}"
                counter += 1
                transitions.append(
                    Transition(tid, frozenset({head}), frozenset({tail}))
                )
                labeling[tid] = new_event()
        else:  # fork/join with two single-step branches
            mid_a = f"g{len(places)}"
            mid_b = f"g{len(places) + 1}"
            tail = f"g{len(places) + 2}"
            places += [mid_a, mid_b, tail]
            tid_fork = f"t{counter}"
            counter += 1
            transitions.append(
                Transition(tid_fork, frozenset({head}), frozenset({mid_a, mid_b}))
            )
            labeling[tid_fork] = new_event()
            tid_join = f"t{counter}"
            counter += 1
            transitions.append(
                Transition(tid_join, frozenset({mid_a, mid_b}), frozenset({tail}))
            )
            labeling[tid_join] = new_event()
    return Flow(
        id=flow_id,
        places=tuple(places),
        transitions=tuple(transitions),
        labeling=labeling,
        initial_marking=frozenset({"g0"}),
        end_marking=frozenset({places[-1]}),
    )


@pytest.fixture
def cpu_write() -> Flow:
    return make_cpu_write_flow()


@pytest.fixture(scope="session")
def prototype():
    return load_prototype()


@pytest.fixture
def force_lanes(monkeypatch):
    """``force_lanes(n)`` makes the grid see ``n`` usable CPUs, so it runs
    ``min(n, seeds)`` lanes whatever the host has."""

    def force(lanes: int) -> None:
        monkeypatch.setattr(experiment, "_usable_cpus", lambda: lanes)

    return force
