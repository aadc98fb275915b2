"""Labeled Petri-net models of system-level message flows.

A flow describes one communication protocol as a safe (one token per
place) Petri net.  Transitions carry communication events; executing the
token game from the initial marking to the end marking produces the
event sequence of one flow instance.  All types here are immutable and
all operations are pure functions, so values can be shared freely across
threads and simulation runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple

__all__ = [
    "DEFAULT_PATH_BOUND",
    "Event",
    "Finding",
    "Flow",
    "FlowPath",
    "PathExplosion",
    "StateGraph",
    "Transition",
    "ValidationReport",
    "end_events",
    "enumerate_paths",
    "path_labels",
    "start_events",
    "validate",
]

DEFAULT_PATH_BOUND = 4096


class PathExplosion(Exception):
    """Path enumeration exceeded its configured bound."""


class _EventFields(NamedTuple):
    src: str
    dest: str
    cmd: str


class Event(_EventFields):
    """A communication event: ``cmd`` sent from component ``src`` to ``dest``.

    The triple is the event's identity.  An event is a tuple: it equals,
    hashes and sorts like its plain field tuple ``(src, dest, cmd)``, so
    hashing and comparison run in C.
    """

    __slots__ = ()

    def __new__(cls, src: str, dest: str, cmd: str) -> Event:
        if not (src and dest and cmd):
            raise ValueError("event fields must be non-empty")
        if src == dest:
            raise ValueError(f"event source and destination must differ: {src!r}")
        return super().__new__(cls, src, dest, cmd)

    def __str__(self) -> str:
        return f"{self.src}:{self.dest}:{self.cmd}"


@dataclass(frozen=True)
class Transition:
    """A transition with its preset (consumed places) and postset (produced)."""

    id: str
    preset: frozenset[str]
    postset: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "preset", frozenset(self.preset))
        object.__setattr__(self, "postset", frozenset(self.postset))


# One complete execution of a flow: the ids of the transitions it fires,
# in firing order.
FlowPath = tuple[str, ...]


@dataclass(frozen=True)
class Flow:
    """A labeled Petri net describing one system flow.

    ``labeling`` maps every transition id to its event.  Labels may repeat
    across transitions of one flow, so an event alone does not identify a
    transition.  Structural well-formedness is checked by :func:`validate`,
    not at construction, so that defective flows can be built and reported.
    """

    id: str
    places: tuple[str, ...]
    transitions: tuple[Transition, ...]
    labeling: Mapping[str, Event]
    initial_marking: frozenset[str]
    end_marking: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "places", tuple(self.places))
        object.__setattr__(
            self, "transitions", tuple(sorted(self.transitions, key=lambda t: t.id))
        )
        object.__setattr__(self, "labeling", dict(self.labeling))
        object.__setattr__(self, "initial_marking", frozenset(self.initial_marking))
        object.__setattr__(self, "end_marking", frozenset(self.end_marking))

    @cached_property
    def transition_by_id(self) -> dict[str, Transition]:
        return {t.id: t for t in self.transitions}

    @cached_property
    def events(self) -> frozenset[Event]:
        return frozenset(self.labeling.values())

    @cached_property
    def state_graph(self) -> StateGraph:
        """The reachable-state graph, explored once per flow."""
        return _explore(self)

    @cached_property
    def paths(self) -> tuple[FlowPath, ...]:
        """:func:`enumerate_paths` under the default bound, enumerated once."""
        return tuple(enumerate_paths(self))


def start_events(flow: Flow) -> frozenset[Event]:
    """Labels of transitions enabled in the initial marking."""
    return frozenset(
        flow.labeling[t.id]
        for t in flow.transitions
        if t.preset <= flow.initial_marking and t.id in flow.labeling
    )


def end_events(flow: Flow) -> frozenset[Event]:
    """Labels of transitions that produce only end-marking places."""
    return frozenset(
        flow.labeling[t.id]
        for t in flow.transitions
        if t.postset <= flow.end_marking and t.id in flow.labeling
    )


def path_labels(flow: Flow, path: Iterable[str]) -> tuple[Event, ...]:
    """The event-label sequence emitted by replaying ``path``."""
    return tuple(flow.labeling[t] for t in path)


def enumerate_paths(flow: Flow, max_paths: int = DEFAULT_PATH_BOUND) -> list[FlowPath]:
    """All maximal firing sequences from the initial marking.

    For a validated (acyclic, terminating) flow every returned path ends
    in the end marking.  Paths are returned in shortlex order: shortest
    first, ties broken lexicographically on the transition-id sequence.
    Raises :class:`PathExplosion` when the number of paths exceeds
    ``max_paths``, when a firing sequence revisits a marking (a cyclic
    flow), or when the flow has too many reachable markings to explore.
    :attr:`Flow.paths` caches the result under the default bound.
    """
    graph = flow.state_graph
    if graph.truncated:
        raise PathExplosion(
            f"flow {flow.id!r} has more than {_MARKING_EXPLORATION_LIMIT} "
            "reachable markings"
        )
    paths: list[FlowPath] = []
    fired: list[str] = []  # the firing sequence that reaches ``state``
    # Successors still to visit, depth first in transition id order, each
    # with the length of the firing sequence before it.
    todo: list[tuple[int, str, int]] = []
    state = 0
    while True:
        if len(fired) >= len(graph.markings):
            raise PathExplosion(
                f"flow {flow.id!r} is cyclic: a firing sequence revisits a marking"
            )
        successors = graph.successors[state]
        if not successors:
            if len(paths) >= max_paths:
                raise PathExplosion(
                    f"flow {flow.id!r} has more than {max_paths} execution paths"
                )
            paths.append(tuple(fired))
        todo += [(len(fired), tid, nxt) for tid, nxt in reversed(successors)]
        if not todo:
            break
        depth, tid, state = todo.pop()
        del fired[depth:]
        fired.append(tid)
    paths.sort(key=lambda p: (len(p), p))
    return paths


@dataclass(frozen=True)
class Finding:
    """One validation finding: a short defect code plus detail."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    flow_id: str
    findings: tuple[Finding, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.findings

    def __str__(self) -> str:
        if self.ok:
            return f"flow {self.flow_id}: ok"
        lines = [f"flow {self.flow_id}: {len(self.findings)} finding(s)"]
        lines += [f"  {f}" for f in self.findings]
        return "\n".join(lines)


_MARKING_EXPLORATION_LIMIT = 1 << 16


@dataclass(frozen=True)
class StateGraph:
    """A flow's reachable markings, numbered in exploration order from the
    initial marking (state 0).  ``successors[s]`` pairs each transition
    enabled in state ``s``, by ascending id, with the state it leads to.
    States from ``len(successors)`` on were reached but left unexplored at
    :data:`_MARKING_EXPLORATION_LIMIT` markings."""

    markings: tuple[frozenset[str], ...]
    successors: tuple[tuple[tuple[str, int], ...], ...]

    @property
    def truncated(self) -> bool:
        return len(self.successors) < len(self.markings)


def _explore(flow: Flow) -> StateGraph:
    """Explore the token game depth-first from the initial marking.

    Each transition is indexed under one place of its preset, so a
    marking tests only the transitions that one of its places may enable;
    its successors stay in transition id order.
    """
    ts = flow.transitions
    unguarded: list[int] = []  # empty preset: enabled everywhere
    by_place: dict[str, list[int]] = {}
    for k, t in enumerate(ts):
        if t.preset:
            by_place.setdefault(min(t.preset), []).append(k)
        else:
            unguarded.append(k)
    frontier = [flow.initial_marking]
    seen = set(frontier)
    explored: list[frozenset[str]] = []
    firings: list[list[tuple[str, frozenset[str]]]] = []
    indexed = by_place.get
    while frontier and len(seen) <= _MARKING_EXPLORATION_LIMIT:
        marked = frontier.pop()
        explored.append(marked)
        ks = [k for p in marked for k in indexed(p, ())] + unguarded
        ks.sort()
        out: list[tuple[str, frozenset[str]]] = []
        for k in ks:
            t = ts[k]
            if t.preset <= marked:
                nxt = (marked - t.preset) | t.postset
                out.append((t.id, nxt))
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


def validate(flow: Flow) -> ValidationReport:
    """Check every structural and behavioral invariant of a flow.

    Structural checks cover identifier uniqueness, labeling totality,
    marking sanity, per-transition preset/postset rules and acyclicity of
    the place/transition graph.  If the structure permits it, the token
    game (:attr:`Flow.state_graph`) is then explored exhaustively: every
    place must be reachable, every transition fireable, token merges must
    not occur, and every maximal firing sequence must terminate exactly in
    the end marking.
    """
    findings: list[Finding] = []

    def flag(code: str, detail: str) -> None:
        findings.append(Finding(code, detail))

    place_set = set(flow.places)
    if not flow.places:
        flag("empty net", "flow declares no places")
    if len(place_set) != len(flow.places):
        dupes = sorted({p for p in flow.places if flow.places.count(p) > 1})
        flag("duplicate place", ", ".join(dupes))

    seen_t: set[str] = set()
    for t in flow.transitions:
        if t.id in seen_t:
            flag("duplicate transition", t.id)
        seen_t.add(t.id)
        if not t.preset:
            flag("empty preset", t.id)
        if not t.postset:
            flag("empty postset", t.id)
        if t.preset & t.postset:
            flag("self-loop", f"{t.id} shares places {sorted(t.preset & t.postset)}")
        unknown = (t.preset | t.postset) - place_set
        if unknown:
            for p in sorted(unknown):
                flag("unknown place", f"{t.id} references {p}")

    for tid in flow.labeling:
        if tid not in seen_t:
            flag("label for unknown transition", tid)
    unlabeled = sorted(seen_t - set(flow.labeling))
    if unlabeled:
        flag("unlabeled transition", ", ".join(unlabeled))

    if not flow.initial_marking:
        flag("empty initial marking", flow.id)
    if not flow.end_marking:
        flag("empty end marking", flow.id)
    if flow.initial_marking & flow.end_marking:
        flag(
            "overlapping markings",
            f"initial and end markings share {sorted(flow.initial_marking & flow.end_marking)}",
        )
    for p in sorted((flow.initial_marking | flow.end_marking) - place_set):
        flag("unknown place", f"marking references {p}")
    for t in flow.transitions:
        for p in sorted(t.preset & flow.end_marking):
            flag("end place consumed", f"{p} is in the preset of {t.id}")

    if _has_cycle(flow):
        flag("cyclic structure", "place/transition graph contains a cycle")

    if findings:
        return ValidationReport(flow.id, tuple(findings))

    # Behavioral checks, read off the explored state graph.
    graph = flow.state_graph
    explored = list(zip(graph.markings, graph.successors))
    fired: set[str] = set()
    collision = None
    for marked, successors in explored:
        for tid, _ in successors:
            fired.add(tid)
            t = flow.transition_by_id[tid]
            if collision is None and (marked - t.preset) & t.postset:
                collision = (
                    f"firing {tid} merges tokens on "
                    f"{sorted((marked - t.preset) & t.postset)}"
                )
    if collision:
        flag("token collision", collision)
    if graph.truncated:
        flag("state explosion", "too many reachable markings to validate")

    for tid in sorted(seen_t - fired):
        flag("dead transition", f"{tid} can never fire")
    for p in sorted(place_set.difference(*graph.markings)):
        flag("unreachable place", p)
    dead_ends = [marked for marked, successors in explored if not successors]
    for marked in sorted(dead_ends, key=sorted):
        if marked != flow.end_marking:
            flag(
                "bad termination",
                f"a maximal firing sequence stops in {sorted(marked)} "
                f"instead of the end marking {sorted(flow.end_marking)}",
            )

    return ValidationReport(flow.id, tuple(findings))


def _has_cycle(flow: Flow) -> bool:
    """Detect a cycle in the bipartite place/transition digraph."""
    graph: dict[str, list[str]] = {f"p:{p}": [] for p in flow.places}
    for t in flow.transitions:
        node = f"t:{t.id}"
        graph[node] = [f"p:{p}" for p in t.postset if f"p:{p}" in graph]
        for p in t.preset:
            if f"p:{p}" in graph:
                graph[f"p:{p}"].append(node)

    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    for root in graph:
        if color[root] != WHITE:
            continue
        color[root] = GREY
        # The grey path from ``root``, each node with its unvisited successors.
        stack = [(root, iter(graph[root]))]
        while stack:
            node, successors = stack[-1]
            for nxt in successors:
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(graph[nxt])))
                    break
            else:
                color[node] = BLACK
                stack.pop()
    return False
