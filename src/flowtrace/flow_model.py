"""Labeled Petri-net models of system-level message flows.

A flow describes one communication protocol as a safe (one token per
place) Petri net.  Transitions carry communication events; executing the
token game from the initial marking to the end marking produces the
event sequence of one flow instance.  All types here are immutable
tuples and all operations pure functions, so values can be shared across
threads and simulation runs, except a flow's :class:`PathAutomaton`.
What depends only on a flow's net is found once per distinct net, in
``functools.lru_cache`` memos of at most :data:`_MEMO_BOUND` nets each.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Mapping, NamedTuple

__all__ = [
    "DEFAULT_PATH_BOUND",
    "Event",
    "Finding",
    "Flow",
    "FlowPath",
    "PathAutomaton",
    "PathExplosion",
    "StateGraph",
    "Transition",
    "ValidationReport",
    "end_events",
    "enumerate_paths",
    "start_events",
    "validate",
]

DEFAULT_PATH_BOUND = 4096
_MEMO_BOUND = 1024


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


class PathExplosion(Exception):
    """Path enumeration exceeded its configured bound."""


# The package's record pattern: a private ``_…Fields`` named tuple plus a
# subclass whose ``__new__`` checks and normalises the fields.  The named
# tuple's own ``_replace`` and ``_make`` build the tuple directly and skip
# those checks; rebuild through the constructor to run them again.
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


class _TransitionFields(NamedTuple):
    id: str
    preset: frozenset[str]
    postset: frozenset[str]


class Transition(_TransitionFields):
    """A transition with its preset (consumed places) and postset (produced);
    it equals and hashes like its plain field tuple."""

    __slots__ = ()

    def __new__(cls, id: str, preset: Iterable[str], postset: Iterable[str]) -> Transition:
        return super().__new__(cls, id, frozenset(preset), frozenset(postset))


# One complete execution of a flow: the ids of the transitions it fires,
# in firing order.
FlowPath = tuple[str, ...]


class _FlowFields(NamedTuple):
    id: str
    places: tuple[str, ...]
    transitions: tuple[Transition, ...]
    labeling: Mapping[str, Event]
    initial_marking: frozenset[str]
    end_marking: frozenset[str]


class Flow(_FlowFields):
    """A labeled Petri net describing one system flow.

    ``labeling`` maps every transition id to its event.  Labels may repeat
    across transitions of one flow, so an event alone does not identify a
    transition.  Structural well-formedness is checked by :func:`validate`,
    not at construction, so that defective flows can be built and reported.
    A flow equals its plain field tuple.
    """

    # No __slots__: the cached properties live in the instance's __dict__.
    def __new__(
        cls, id: str, places: Iterable[str], transitions: Iterable[Transition],
        labeling: Mapping[str, Event], initial_marking: Iterable[str], end_marking: Iterable[str],
    ) -> Flow:
        transitions = tuple(sorted(transitions, key=lambda t: t.id))
        return super().__new__(
            cls, id, tuple(places), transitions, dict(labeling),
            frozenset(initial_marking), frozenset(end_marking),
        )

    @cached_property
    def events(self) -> frozenset[Event]:
        return frozenset(self.labeling.values())

    @cached_property
    def state_graph(self) -> StateGraph:
        """The reachable-state graph, explored once per distinct net."""
        return _explore(self.transitions, self.initial_marking, _MARKING_EXPLORATION_LIMIT)

    @cached_property
    def start_events(self) -> frozenset[Event]:
        return frozenset(
            self.labeling[t.id]
            for t in self.transitions
            if t.preset <= self.initial_marking and t.id in self.labeling
        )

    @cached_property
    def end_events(self) -> frozenset[Event]:
        return frozenset(
            self.labeling[t.id]
            for t in self.transitions
            if t.postset <= self.end_marking and t.id in self.labeling
        )

    @cached_property
    def paths(self) -> tuple[FlowPath, ...]:
        """:func:`enumerate_paths` under the default bound, enumerated once."""
        return tuple(enumerate_paths(self))

    @cached_property
    def guaranteed_events(self) -> frozenset[Event]:
        """The events emitted on every execution path, found once."""
        events = set(self.events)
        for path in self.paths:
            events.intersection_update(map(self.labeling.__getitem__, path))
            if not events:
                break
        return frozenset(events)

    @cached_property
    def automaton(self) -> PathAutomaton:
        """The matcher of observed labels, grown lazily by every trace."""
        return PathAutomaton(self)


class PathAutomaton:
    """Reads a flow instance's observed labels one at a time.

    A state holds, per path, the position after the greedy earliest
    embedding of the labels read (-1 once the path is dead), the number
    of labels read, and whether a start and an end label were read.
    ``states`` interns them as ints from 0, the empty read; the states
    whose paths are all dead are one, so a corrupt trace cannot grow the
    automaton without bound.  ``table[s]`` memoises the transitions out
    of ``s`` by event.  No state depends on a selection.  The memo grows,
    without a lock, as traces are read through it.
    """

    def __init__(self, flow: Flow) -> None:
        self.flow_id, self.paths = flow.id, flow.paths
        self.starts, self.ends = flow.start_events, flow.end_events
        self._seqs = [tuple(map(flow.labeling.__getitem__, p)) for p in self.paths]
        empty = (tuple(0 for _ in self.paths), 0, False, False)
        self.states, self.table, self._number = [empty], [{}], {empty: 0}

    def step(self, state: int, event: Event) -> int:
        """The state reached by reading ``event`` in ``state``."""
        nxt = self.table[state].get(event)
        if nxt is None:
            at, n, start, end = self.states[state]
            at = tuple(
                seq.index(event, p) + 1 if p >= 0 and event in seq[p:] else -1
                for p, seq in zip(at, self._seqs)
            )
            key = (at, n + 1, start or event in self.starts, end or event in self.ends)
            if max(at) < 0:
                key = (at, 0, False, False)  # the one dead state
            nxt = self.table[state][event] = self._number.setdefault(key, len(self.states))
            if nxt == len(self.states):
                self.states.append(key)
                self.table.append({})
        return nxt

    def candidates(
        self, state: int, exact: frozenset[Event] | None = None
    ) -> tuple[FlowPath, ...]:
        """The paths that embed the labels read; under ``exact``, a
        loss-free capture's selection holding every label read, only those
        that emit exactly as many selected labels, whose projection it is."""
        at, n, _, _ = self.states[state]
        emits = (n if exact is None else sum(e in exact for e in s) for s in self._seqs)
        return tuple(p for p, k, e in zip(self.paths, at, emits) if k >= 0 and e == n)


def start_events(flow: Flow) -> frozenset[Event]:
    """Labels of transitions enabled in the initial marking, found once."""
    return flow.start_events


def end_events(flow: Flow) -> frozenset[Event]:
    """Labels of transitions that produce only end-marking places, found once."""
    return flow.end_events


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
    try:
        return list(_walk(flow.state_graph, max_paths))
    except PathExplosion as e:
        raise PathExplosion(f"flow {flow.id!r} {e}") from None


@lru_cache(_MEMO_BOUND)
def _walk(graph: StateGraph, max_paths: int) -> tuple[FlowPath, ...]:
    """:func:`enumerate_paths` of every flow whose state graph is ``graph``."""
    if graph.truncated:
        raise PathExplosion(f"has more than {_MARKING_EXPLORATION_LIMIT} reachable markings")
    paths: list[FlowPath] = []
    fired: list[str] = []  # the firing sequence that reaches ``state``
    # Successors still to visit, depth first in transition id order, each
    # with the length of the firing sequence before it.
    todo: list[tuple[int, str, int]] = []
    state = 0
    while True:
        if len(fired) >= len(graph.markings):
            raise PathExplosion("is cyclic: a firing sequence revisits a marking")
        successors = graph.successors[state]
        if not successors:
            if len(paths) >= max_paths:
                raise PathExplosion(f"has more than {max_paths} execution paths")
            paths.append(tuple(fired))
        todo += [(len(fired), tid, nxt) for tid, nxt in reversed(successors)]
        if not todo:
            break
        depth, tid, state = todo.pop()
        del fired[depth:]
        fired.append(tid)
    paths.sort(key=lambda p: (len(p), p))
    return tuple(paths)


class Finding(NamedTuple):
    """One validation finding: a short defect code plus detail.  It equals
    and hashes like its plain field tuple."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class ValidationReport(NamedTuple):
    """One flow's findings; it equals and hashes like its plain field tuple."""

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


class StateGraph(NamedTuple):
    """A flow's reachable markings, numbered in exploration order from the
    initial marking (state 0).  ``successors[s]`` pairs each transition
    enabled in state ``s``, by ascending id, with the state it leads to.
    States from ``len(successors)`` on were reached but left unexplored at
    :data:`_MARKING_EXPLORATION_LIMIT` markings.  It equals and hashes
    like its plain field tuple."""

    markings: tuple[frozenset[str], ...]
    successors: tuple[tuple[tuple[str, int], ...], ...]

    @property
    def truncated(self) -> bool:
        return len(self.successors) < len(self.markings)


@lru_cache(_MEMO_BOUND)
def _explore(ts: tuple[Transition, ...], initial: frozenset[str], limit: int) -> StateGraph:
    """Explore the token game depth-first from ``initial`` until over ``limit`` markings.

    Each transition is indexed under its preset's least place (``None`` if
    empty): a marking tests only those its places may enable, in id order.
    """
    by_place: dict[str | None, list[int]] = {}
    for k, (_, pre, _) in enumerate(ts):
        by_place.setdefault(min(pre, default=None), []).append(k)
    frontier = [initial]
    seen = set(frontier)
    explored: list[frozenset[str]] = []
    firings: list[list[tuple[str, frozenset[str]]]] = []
    while frontier and len(seen) <= limit:
        marked = frontier.pop()
        explored.append(marked)
        out: list[tuple[str, frozenset[str]]] = []
        for k in sorted([k for p in (None, *marked) for k in by_place.get(p, ())]):
            tid, pre, post = ts[k]
            if pre <= marked:
                nxt = (marked - pre) | post
                out.append((tid, nxt))
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
    for tid, pre, post in flow.transitions:
        if tid in seen_t:
            flag("duplicate transition", tid)
        seen_t.add(tid)
        if not pre:
            flag("empty preset", tid)
        if not post:
            flag("empty postset", tid)
        if not pre.isdisjoint(post):
            flag("self-loop", f"{tid} shares places {sorted(pre & post)}")
        if not (place_set.issuperset(pre) and place_set.issuperset(post)):
            for p in sorted((pre | post) - place_set):
                flag("unknown place", f"{tid} references {p}")

    if flow.labeling.keys() != seen_t:
        for tid in flow.labeling:
            if tid not in seen_t:
                flag("label for unknown transition", tid)
        unlabeled = sorted(seen_t.difference(flow.labeling))
        if unlabeled:
            flag("unlabeled transition", ", ".join(unlabeled))

    initial, end = flow.initial_marking, flow.end_marking
    if not initial:
        flag("empty initial marking", flow.id)
    if not end:
        flag("empty end marking", flow.id)
    if not initial.isdisjoint(end):
        flag("overlapping markings", f"initial and end markings share {sorted(initial & end)}")
    if not (place_set.issuperset(initial) and place_set.issuperset(end)):
        for p in sorted((initial | end) - place_set):
            flag("unknown place", f"marking references {p}")
    for tid, pre, _ in flow.transitions:
        if not pre.isdisjoint(end):
            for p in sorted(pre & end):
                flag("end place consumed", f"{p} is in the preset of {tid}")

    if _has_cycle(flow.places, flow.transitions):
        flag("cyclic structure", "place/transition graph contains a cycle")

    if not findings:
        findings = _behaviour(flow.state_graph, flow.places, flow.transitions, end)
    return ValidationReport(flow.id, tuple(findings))


@lru_cache(_MEMO_BOUND)
def _behaviour(
    graph: StateGraph, places: tuple[str, ...], ts: tuple[Transition, ...], end: frozenset[str]
) -> tuple[Finding, ...]:
    """:func:`validate`'s behavioral findings on a structurally sound net."""
    # Read off the explored state graph.  No preset meets its postset
    # here, so a firing merges tokens exactly where its postset meets the
    # marking it fires in.
    by_id = {t.id: t for t in ts}
    fired: set[str] = set()
    collision = None
    dead_ends: list[frozenset[str]] = []
    for marked, successors in zip(graph.markings, graph.successors):
        if not successors:
            dead_ends.append(marked)
        for tid, _ in successors:
            fired.add(tid)
            if collision is None:
                _, pre, post = by_id[tid]
                if not post.isdisjoint(marked):
                    collision = f"firing {tid} merges tokens on {sorted((marked - pre) & post)}"
    findings = [Finding("token collision", collision)] if collision else []
    if graph.truncated:
        findings.append(Finding("state explosion", "too many reachable markings to validate"))
    dead, unreached = by_id.keys() - fired, set(places).difference(*graph.markings)
    findings += (Finding("dead transition", f"{t} can never fire") for t in sorted(dead))
    findings += (Finding("unreachable place", p) for p in sorted(unreached))
    for marked in sorted((m for m in dead_ends if m != end), key=sorted):
        findings.append(Finding(
            "bad termination",
            f"a maximal firing sequence stops in {sorted(marked)} "
            f"instead of the end marking {sorted(end)}",
        ))
    return tuple(findings)


@lru_cache(_MEMO_BOUND)
def _has_cycle(places: tuple[str, ...], ts: tuple[Transition, ...]) -> bool:
    """Kahn's peel over transition indices: ``k`` has an edge to ``j`` when a
    place in ``k``'s postset is a known place in ``j``'s preset, so a repeated
    id is a node of its own.  A cycle leaves some transition never peeled."""
    consumers: dict[str, list[int]] = {p: [] for p in places}
    for j, (_, pre, _) in enumerate(ts):
        for p in pre:
            if p in consumers:
                consumers[p].append(j)
    edges = [
        [j for p in post if p in consumers for j in consumers[p]]
        for _, _, post in ts
    ]
    indegree = [0] * len(ts)
    for j in chain.from_iterable(edges):
        indegree[j] += 1
    peeled = [k for k, d in enumerate(indegree) if not d]
    for k in peeled:  # grows as the loop runs
        for j in edges[k]:
            indegree[j] -= 1
            if not indegree[j]:
                peeled.append(j)
    return len(peeled) < len(ts)
