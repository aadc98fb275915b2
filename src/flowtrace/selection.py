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
from functools import cached_property
from heapq import heapify, heapreplace
from typing import Iterable, Mapping, NamedTuple

from .flow_model import Event, Flow, _is_int

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

# Exact branch-and-bound is used up to this many candidate links; lazy
# greedy cover beyond it.
EXACT_COVER_LIMIT = 20


class _ProblemFields(NamedTuple):
    flows: tuple[Flow, ...]
    event_link_map: Mapping[Event, str]
    total_queue_budget: int


class SelectionProblem(_ProblemFields):
    """The flows in observation scope plus the link resource model.

    No selector reads ``total_queue_budget`` yet; it is kept for a
    budget-aware selector and for callers that pass it positionally.
    A problem equals and hashes by identity.
    """

    # No __slots__: the cached properties live in the instance's __dict__.
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(
        cls, flows: Iterable[Flow], event_link_map: Mapping[Event, str], total_queue_budget: int
    ) -> SelectionProblem:
        self = super().__new__(cls, tuple(flows), dict(event_link_map), total_queue_budget)
        if not _is_int(total_queue_budget):
            raise ValueError(f"total_queue_budget must be an integer, got {total_queue_budget!r}")
        if self.total_queue_budget < 1:
            raise ValueError("total_queue_budget must be positive")
        for flow in self.flows:
            if not flow.events:
                raise ValueError(f"flow {flow.id} has no events")
            for e in flow.events:
                if e not in self.event_link_map:
                    raise ValueError(f"flow {flow.id}: event {e} is unmapped")
        return self

    @cached_property
    def flow_cover_events(self) -> dict[str, frozenset[Event]]:
        """The events that cover each flow.

        These are the events the flow is guaranteed to emit on every
        execution path; observing one observes every instance of the
        flow.  Flows with no guaranteed event (label-disjoint alternative
        paths) fall back to all of their events, so a cover always exists.
        """
        return {f.id: f.guaranteed_events or f.events for f in self.flows}

    @cached_property
    def flow_link_candidates(self) -> dict[str, frozenset[str]]:
        """Links that cover each flow: those carrying its cover events."""
        return {
            fid: frozenset(self.event_link_map[e] for e in events)
            for fid, events in self.flow_cover_events.items()
        }


class _SelectionFields(NamedTuple):
    events: frozenset[Event]
    links: frozenset[str]
    rationale: Mapping[Event, str] = {}  # copied by Selection
    undistinguishable: tuple[tuple[str, tuple[str, ...], tuple[str, ...]], ...] = ()


class Selection(_SelectionFields):
    """A chosen event set, the links it occupies, and per-event rationale;
    it equals its plain field tuple."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Selection:
        self = super().__new__(cls, *args, **kwargs)
        return self._replace(events=frozenset(self.events), links=frozenset(self.links),
                             rationale=dict(self.rationale))

    # ``dataclasses.replace(selection, ...)`` still rebuilds a selection
    # through ``__new__``, as it did when ``Selection`` was a dataclass; code
    # written against that (the benchmark's own tests) keeps working.  The
    # module is imported on first use, so start-up does not load it.
    @property
    def __dataclass_fields__(self) -> dict:
        import dataclasses
        return dataclasses.make_dataclass("Selection", self._fields).__dataclass_fields__


def guaranteed_events(flow: Flow) -> frozenset[Event]:
    """Events emitted on every execution path of the flow, cached as
    ``Flow.guaranteed_events``."""
    return flow.guaranteed_events


def _cover_masks(problem: SelectionProblem) -> tuple[list[str], dict[str, int], int]:
    flows = sorted(problem.flow_link_candidates)
    links = sorted(set().union(*problem.flow_link_candidates.values()))
    mask: dict[str, int] = {l: 0 for l in links}
    for i, fid in enumerate(flows):
        for l in problem.flow_link_candidates[fid]:
            mask[l] |= 1 << i
    return links, mask, (1 << len(flows)) - 1


def _greedy_cover(links: list[str], mask: dict[str, int], full: int) -> list[str]:
    # Most newly covered flows wins; ties go to the smallest link id.  Lazy
    # greedy (Minoux): a link's gain only falls as flows get covered, so only
    # the heap's top is re-counted, and it is taken once its fresh gain equals
    # its stale one; the cover is the eager loop's.  ``links`` is sorted, so
    # the smallest entry ``(flows - gain) * len(links) + i`` is the best link.
    n, flows = len(links), full.bit_count()
    heap = [(flows - mask[l].bit_count()) * n + i for i, l in enumerate(links)]
    heapify(heap)
    chosen: list[str] = []
    covered = 0
    while covered != full:
        i = heap[0] % n
        entry = (flows - (mask[links[i]] & ~covered).bit_count()) * n + i
        if entry == heap[0]:
            if entry >= flows * n:
                raise AssertionError("uncoverable flow despite per-flow candidates")
            chosen.append(links[i])
            covered |= mask[links[i]]
            entry = flows * n + i  # it covers nothing new from now on
        heapreplace(heap, entry)
    return chosen


def _events_for_cover(
    problem: SelectionProblem, cover: Iterable[str]
) -> dict[Event, str]:
    """One guaranteed event per flow on the chosen links, deduplicated."""
    chosen = set(cover)
    selected: dict[Event, str] = {}
    for flow in sorted(problem.flows, key=lambda f: f.id):
        events = problem.flow_cover_events[flow.id]
        on_links = [e for e in events if problem.event_link_map[e] in chosen]
        pick = min(on_links)
        selected.setdefault(pick, REASON_FLOW_COVER)
    return selected


def _best_cover(
    problem: SelectionProblem, links: list[str], mask: dict[str, int], full: int
) -> tuple[str, ...]:
    """The minimum link cover with the fewest selected events, then the
    smallest sorted link-id tuple, found by branch-and-bound.

    Branches on the first uncovered flow, trying each covering link; the
    bound is the greedy cover's size until a cover is found, then the best
    cover's size (ties are explored and ranked as they are reached).
    """
    n_flows = full.bit_count()
    flow_links = [[l for l in links if mask[l] >> i & 1] for i in range(n_flows)]
    # (size, events, sorted links): any cover of the greedy's size beats it.
    best: tuple = (len(_greedy_cover(links, mask, full)), float("inf"), ())

    def dfs(covered: int, chosen: tuple[str, ...]) -> None:
        nonlocal best
        if covered == full:
            events = len(_events_for_cover(problem, chosen))
            best = min(best, (len(chosen), events, tuple(sorted(chosen))))
        elif len(chosen) < best[0]:
            first = next(i for i in range(n_flows) if not covered >> i & 1)
            for link in flow_links[first]:
                dfs(covered | mask[link], chosen + (link,))

    dfs(0, ())
    return best[2]


def select_fic(problem: SelectionProblem) -> Selection:
    """Cover every flow with guaranteed events on as few links as possible.

    Exact (branch-and-bound, :func:`_best_cover`) for problems with at
    most :data:`EXACT_COVER_LIMIT` candidate links, lazy greedy beyond that,
    which picks the eager greedy's cover with the same tie-break.
    Ties between minimum covers are broken by fewer selected events, then
    by the sorted link-id tuple.
    """
    links, mask, full = _cover_masks(problem)
    if len(links) <= EXACT_COVER_LIMIT:
        cover = _best_cover(problem, links, mask, full)
    else:
        cover = _greedy_cover(links, mask, full)
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

    Pairs are counted per class, not one by one: a class is a set of a
    flow's distinct label sequences with the same projection onto the
    chosen events, each weighted by its paths (see :func:`_count_splits`).
    A step re-counts only the flows that contain the chosen event and
    still have a class of two or more sequences.  A flow's *shape* is its
    distinct sequences in local labels (numbered by first occurrence in
    its labeling), each with its path count.  A re-count looks its shape
    and chosen local labels up in a memo local to the call, so flows that
    share a net and a label pattern are counted once.
    """
    rationale: dict[Event, str] = {}
    for flow in sorted(problem.flows, key=lambda f: f.id):
        for e in sorted(flow.start_events):
            rationale.setdefault(e, REASON_START)
        for e in sorted(flow.end_events):
            rationale.setdefault(e, REASON_END)

    undistinguishable: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = []
    memos: dict[tuple, dict[int, tuple | None]] = {}
    # flow id -> [memo of its shape, shape, its events by local label,
    # chosen local labels as a bit mask, (local label, splits) pairs of its
    # last count]
    confusable: dict[str, list] = {}
    for flow in sorted(problem.flows, key=lambda f: f.id):
        if len(flow.paths) < 2:
            continue
        local: dict[Event, int] = {}
        labels = {t: local.setdefault(e, len(local)) for t, e in flow.labeling.items()}
        seqs = [tuple(map(labels.__getitem__, p)) for p in flow.paths]
        twins: dict[tuple[int, ...], list[tuple[str, ...]]] = {}
        for seq, path in zip(seqs, flow.paths):
            twins.setdefault(seq, []).append(path)
        if len(twins) > 1:
            shape = tuple((seq, len(paths)) for seq, paths in twins.items())
            mask = sum(1 << x for e, x in local.items() if e in rationale)
            confusable[flow.id] = [memos.setdefault(shape, {}), shape, list(local), mask, ()]
        if len(twins) < len(seqs):  # report twins in ``combinations`` order
            for seq, path in zip(seqs, flow.paths):
                later = twins[seq]
                del later[0]
                undistinguishable += [(flow.id, path, other) for other in later]

    used_links = {problem.event_link_map[e] for e in rationale}
    flows_with: dict[Event, list[tuple[str, int]]] = {}
    for fid, state in confusable.items():
        for x, e in enumerate(state[2]):
            flows_with.setdefault(e, []).append((fid, 1 << x))
    total: dict[Event, int] = {}  # splits summed over the flows, all positive

    def recount(fid: str) -> None:
        state = confusable[fid]
        memo, shape, labels, mask, splits = state
        for x, n in splits:
            total[labels[x]] -= n
            if not total[labels[x]]:
                del total[labels[x]]
        if mask not in memo:
            # Split the shape's sequences by their projection onto the
            # chosen labels (as ``mask`` only grows, this refines the last
            # count's classes) and count the classes of two or more.
            local_chosen = {x for x in range(mask.bit_length()) if mask >> x & 1}
            parts: dict[tuple[int, ...], list[tuple[tuple[int, ...], int]]] = {}
            for seq, n in shape:
                parts.setdefault(tuple([x for x in seq if x in local_chosen]), []).append((seq, n))
            kept, counts = [part for part in parts.values() if len(part) > 1], Counter()
            for part in kept:
                _count_splits(part, local_chosen, counts)
            memo[mask] = tuple(counts.items()) if kept else None
        state[4] = splits = memo[mask]
        if splits is None:
            del confusable[fid]
        for x, n in splits or ():
            total[labels[x]] = total.get(labels[x], 0) + n

    for fid in list(confusable):
        recount(fid)
    while confusable:
        if total:
            top = max(total.values())
            tied = [e for e, split in total.items() if split == top]
            best = min([e for e in tied if problem.event_link_map[e] in used_links] or tied)
        else:
            # No single event helps (labels differ only jointly): force
            # progress with the smallest candidate and re-evaluate.
            best = min(
                e
                for e, flows in flows_with.items()
                if e not in rationale and any(fid in confusable for fid, _ in flows)
            )
        used_links.add(problem.event_link_map[best])
        rationale.setdefault(best, REASON_PATH_DISAMBIG)
        for fid, bit in flows_with[best]:
            if fid in confusable:
                confusable[fid][3] |= bit
                recount(fid)

    return Selection(frozenset(rationale), used_links, rationale, tuple(undistinguishable))


def _count_splits(
    cls: list[tuple[tuple[int, ...], int]], chosen: set[int], counts: Counter[int]
) -> None:
    """Add to ``counts`` the path pairs of one class that each unchosen
    event splits.

    Two sequences of a class stay equal under an added event ``e``
    exactly when ``e`` occurs in the same gaps between chosen events, so
    ``e`` splits C(N, 2) - sum_g C(N_g, 2) of the class's N paths' pairs,
    where g groups the sequences by the gap list of ``e`` (the empty list
    for those without it).  One pass over each sequence finds every gap list.
    """
    n_paths = sum(n for _, n in cls)
    by_gaps: dict[int, dict[tuple[int, ...], int]] = {}
    for seq, n in cls:
        gaps: dict[int, tuple[int, ...]] = {}
        gap = 0
        for x in seq:
            if x in chosen:
                gap += 1
            else:
                gaps[x] = gaps.get(x, ()) + (gap,)
        for x, key in gaps.items():
            group = by_gaps.setdefault(x, {})
            group[key] = group.get(key, 0) + n
    pairs = n_paths * (n_paths - 1) // 2
    for x, group in by_gaps.items():
        rest = n_paths - sum(group.values())  # the paths without ``x``
        kept = rest * (rest - 1) // 2 + sum(m * (m - 1) // 2 for m in group.values())
        if kept < pairs:
            counts[x] += pairs - kept


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
    if not _is_int(k):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < 1 or k > len(counts):
        raise ValueError(f"k must be in 1..{len(counts)}, got {k}")
    # A stable sort keeps equal counts in event order, so ties go to the
    # smallest event.
    ranked = sorted(sorted(counts), key=counts.__getitem__, reverse=True)
    chosen = ranked[:k]
    links = frozenset(problem.event_link_map[e] for e in chosen)
    return Selection(
        frozenset(chosen), links, {e: REASON_FC_RANK for e in chosen}
    )
