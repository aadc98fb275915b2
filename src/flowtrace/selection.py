"""Coverage-driven selection of flow events to observe.

Three selectors are provided:

* :func:`select_fic` maximizes flow-instance coverage.  Because an
  instance is observed as soon as any of its events is observed, the
  selector picks events that every execution of a flow is guaranteed to
  emit, and minimizes the number of links those events occupy (fewer
  observed links means bigger re-allocated queues and fewer drops).
* :func:`select_cec` maximizes complete-execution coverage: it always
  selects every flow's start and end events, then adds the cheapest
  events that make the execution paths of each flow distinguishable from
  the observed projection.
* :func:`select_fc_baseline` is the frequency-coverage baseline: rank
  events by how many flows share them and take the top k, with no link
  minimization and no start/end mandate.

"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Iterable, Mapping

from .flow_model import Event, Flow, end_events, path_labels, start_events

__all__ = [
    "EXACT_COVER_LIMIT",
    "REASON_END",
    "REASON_FC_RANK",
    "REASON_FLOW_COVER",
    "REASON_PATH_DISAMBIG",
    "REASON_START",
    "Selection",
    "SelectionProblem",
    "guaranteed_events",
    "select_cec",
    "select_fc_baseline",
    "select_fic",
]

REASON_FLOW_COVER = "FLOW_COVER"
REASON_START = "START"
REASON_END = "END"
REASON_PATH_DISAMBIG = "PATH_DISAMBIG"
REASON_FC_RANK = "FC_RANK"

# Exact branch-and-bound is used up to this many candidate links; greedy
# cover beyond it.
EXACT_COVER_LIMIT = 20


def _event_key(e: Event) -> tuple[str, str, str]:
    return (e.src, e.dest, e.cmd)


@dataclass(frozen=True, eq=False)
class SelectionProblem:
    """The flows in observation scope plus the link resource model.

    No selector reads ``total_queue_budget`` yet; it is kept for a
    budget-aware selector and for callers that pass it positionally.
    """

    flows: tuple[Flow, ...]
    event_link_map: Mapping[Event, str]
    total_queue_budget: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "flows", tuple(self.flows))
        object.__setattr__(self, "event_link_map", dict(self.event_link_map))
        if self.total_queue_budget < 1:
            raise ValueError("total_queue_budget must be positive")
        for flow in self.flows:
            if not flow.events:
                raise ValueError(f"flow {flow.id} has no events")
            for e in flow.events:
                if e not in self.event_link_map:
                    raise ValueError(f"flow {flow.id}: event {e} is unmapped")

    @cached_property
    def flow_cover_events(self) -> dict[str, frozenset[Event]]:
        """The events that cover each flow.

        These are the events the flow is guaranteed to emit on every
        execution path; observing one observes every instance of the
        flow.  Flows with no guaranteed event (label-disjoint alternative
        paths) fall back to all of their events, so a cover always exists.
        """
        return {f.id: guaranteed_events(f) or f.events for f in self.flows}

    @cached_property
    def flow_link_candidates(self) -> dict[str, frozenset[str]]:
        """Links that cover each flow: those carrying its cover events."""
        return {
            fid: frozenset(self.event_link_map[e] for e in events)
            for fid, events in self.flow_cover_events.items()
        }


@dataclass(frozen=True)
class Selection:
    """A chosen event set, the links it occupies, and per-event rationale."""

    events: frozenset[Event]
    links: frozenset[str]
    rationale: Mapping[Event, str] = field(default_factory=dict)
    undistinguishable: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", frozenset(self.events))
        object.__setattr__(self, "links", frozenset(self.links))
        object.__setattr__(self, "rationale", dict(self.rationale))


def guaranteed_events(flow: Flow) -> frozenset[Event]:
    """Events emitted on every execution path of the flow."""
    events = set(flow.events)
    for path in flow.paths:
        events &= set(path_labels(flow, path))
        if not events:
            break
    return frozenset(events)


def _cover_masks(problem: SelectionProblem) -> tuple[list[str], dict[str, int], int]:
    flows = sorted(problem.flow_link_candidates)
    links = sorted(set().union(*problem.flow_link_candidates.values()))
    mask: dict[str, int] = {l: 0 for l in links}
    for i, fid in enumerate(flows):
        for l in problem.flow_link_candidates[fid]:
            mask[l] |= 1 << i
    return links, mask, (1 << len(flows)) - 1


def _greedy_cover(links: list[str], mask: dict[str, int], full: int) -> list[str]:
    chosen: list[str] = []
    covered = 0
    while covered != full:
        # Most newly covered flows wins; ties go to the smallest link id.
        def gain(link: str) -> int:
            return (mask[link] | covered).bit_count() - covered.bit_count()

        best_gain = max(gain(l) for l in links)
        if best_gain == 0:
            raise AssertionError("uncoverable flow despite per-flow candidates")
        best = min(l for l in links if gain(l) == best_gain)
        chosen.append(best)
        covered |= mask[best]
    return chosen


def _all_minimum_covers(
    links: list[str], mask: dict[str, int], full: int, upper: int
) -> list[frozenset[str]]:
    """All link covers of minimum size, found by branch-and-bound.

    Branches on the first uncovered flow, trying each covering link; the
    bound is the size of the best cover found so far (ties kept).
    """
    flow_links: dict[int, list[str]] = {}
    n_flows = full.bit_count()
    for i in range(n_flows):
        flow_links[i] = [l for l in links if mask[l] >> i & 1]

    best_size = upper
    best: set[frozenset[str]] = set()

    def dfs(covered: int, chosen: tuple[str, ...]) -> None:
        nonlocal best_size, best
        if covered == full:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best = {frozenset(chosen)}
            elif len(chosen) == best_size:
                best.add(frozenset(chosen))
            return
        if len(chosen) + 1 > best_size:
            return
        first = next(i for i in range(n_flows) if not covered >> i & 1)
        for link in flow_links[first]:
            dfs(covered | mask[link], chosen + (link,))

    dfs(0, ())
    return sorted(best, key=lambda c: tuple(sorted(c)))


def _events_for_cover(
    problem: SelectionProblem, cover: Iterable[str]
) -> dict[Event, str]:
    """One guaranteed event per flow on the chosen links, deduplicated."""
    chosen = set(cover)
    selected: dict[Event, str] = {}
    for flow in sorted(problem.flows, key=lambda f: f.id):
        events = problem.flow_cover_events[flow.id]
        on_links = [e for e in events if problem.event_link_map[e] in chosen]
        pick = min(on_links, key=_event_key)
        selected.setdefault(pick, REASON_FLOW_COVER)
    return selected


def select_fic(problem: SelectionProblem) -> Selection:
    """Cover every flow with guaranteed events on as few links as possible.

    Exact (branch-and-bound over all minimum covers) for problems with at
    most :data:`EXACT_COVER_LIMIT` candidate links, greedy beyond that.
    Ties between minimum covers are broken by fewer selected events, then
    by the sorted link-id tuple.
    """
    links, mask, full = _cover_masks(problem)
    if len(links) <= EXACT_COVER_LIMIT:
        upper = len(_greedy_cover(links, mask, full))
        covers = _all_minimum_covers(links, mask, full, upper)
        ranked = sorted(
            covers,
            key=lambda c: (
                len(_events_for_cover(problem, c)),
                tuple(sorted(c)),
            ),
        )
        cover = ranked[0]
    else:
        cover = frozenset(_greedy_cover(links, mask, full))
    rationale = _events_for_cover(problem, cover)
    used = frozenset(problem.event_link_map[e] for e in rationale)
    return Selection(frozenset(rationale), used, rationale)


def select_cec(problem: SelectionProblem) -> Selection:
    """Select start/end events of every flow plus path-disambiguating events.

    After the mandatory start and end events, events are added greedily:
    each step picks the event that splits the most still-confusable path
    pairs, preferring events on already-occupied links, then the smallest
    event.  Path pairs whose complete label sequences are identical can
    never be distinguished; they are reported in ``undistinguishable``
    and otherwise ignored.

    An event can only split pairs of the flows that contain it, so each
    flow keeps its confusable pairs with a split count per event, and a
    step re-counts only the flows that contain the chosen event.
    """
    rationale: dict[Event, str] = {}
    for flow in sorted(problem.flows, key=lambda f: f.id):
        for e in sorted(start_events(flow), key=_event_key):
            rationale.setdefault(e, REASON_START)
        for e in sorted(end_events(flow), key=_event_key):
            rationale.setdefault(e, REASON_END)

    # Events are numbered in _event_key order: the smallest number is the
    # smallest event.
    order = sorted({e for f in problem.flows for e in f.events}, key=_event_key)
    number = {e: n for n, e in enumerate(order)}
    flows_with: dict[int, list[str]] = {n: [] for n in range(len(order))}
    undistinguishable: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = []
    confused: dict[str, list[tuple[tuple[int, ...], tuple[int, ...]]]] = {}
    for flow in sorted(problem.flows, key=lambda f: f.id):
        for e in flow.events:
            flows_with[number[e]].append(flow.id)
        seqs = [tuple(number[e] for e in path_labels(flow, p)) for p in flow.paths]
        confused[flow.id] = []
        for (a, path_a), (b, path_b) in combinations(zip(seqs, flow.paths), 2):
            if a == b:
                undistinguishable.append(
                    (flow.id, path_a.transitions, path_b.transitions)
                )
            else:
                confused[flow.id].append((a, b))

    chosen = {number[e] for e in rationale}
    used_links = {problem.event_link_map[e] for e in rationale}
    splits: dict[str, Counter[int]] = {fid: Counter() for fid in confused}
    total: Counter[int] = Counter()  # splits summed over the flows

    def projection(seq: tuple[int, ...], extra: int = -1) -> tuple[int, ...]:
        return tuple(n for n in seq if n in chosen or n == extra)

    def recount(fid: str) -> None:
        total.subtract(splits[fid])
        confused[fid] = [
            (a, b) for a, b in confused[fid] if projection(a) == projection(b)
        ]
        splits[fid] = Counter(
            e
            for a, b in confused[fid]
            for e in set(a + b) - chosen
            if projection(a, e) != projection(b, e)
        )
        total.update(splits[fid])

    for fid in confused:
        recount(fid)
    while any(confused.values()):
        best = min(
            (e for e, split in total.items() if split),
            key=lambda e: (
                -total[e],
                problem.event_link_map[order[e]] not in used_links,
                e,
            ),
            default=None,
        )
        if best is None:
            # No single event helps (labels differ only jointly): force
            # progress with the smallest candidate and re-evaluate.
            best = min(
                e
                for e, fids in flows_with.items()
                if e not in chosen and any(confused[fid] for fid in fids)
            )
        chosen.add(best)
        used_links.add(problem.event_link_map[order[best]])
        rationale.setdefault(order[best], REASON_PATH_DISAMBIG)
        for fid in flows_with[best]:
            recount(fid)

    links = frozenset(problem.event_link_map[e] for e in rationale)
    return Selection(
        frozenset(rationale), links, rationale, tuple(undistinguishable)
    )


def select_fc_baseline(problem: SelectionProblem, k: int) -> Selection:
    """Frequency-coverage baseline: top-k events by flow-sharing count.

    FC(e) is the number of in-scope flows containing e.  Ranking is FC
    descending with lexicographic tie-break.  Deliberately applies no
    link minimization and no start/end mandate.
    """
    counts: dict[Event, int] = {}
    for flow in problem.flows:
        for e in flow.events:
            counts[e] = counts.get(e, 0) + 1
    if k < 1 or k > len(counts):
        raise ValueError(f"k must be in 1..{len(counts)}, got {k}")
    ranked = sorted(counts, key=lambda e: (-counts[e], _event_key(e)))
    chosen = ranked[:k]
    links = frozenset(problem.event_link_map[e] for e in chosen)
    return Selection(
        frozenset(chosen), links, {e: REASON_FC_RANK for e in chosen}
    )
