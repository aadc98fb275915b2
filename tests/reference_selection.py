"""Reference selectors: the loops that re-score every candidate.

``select_cec`` re-projects every remaining confusable path pair each
round, then again for every candidate event, so its cost grows with the
square of a flow's paths.  ``selection.select_cec`` counts each
candidate's splits per projection class (a flow's distinct label
sequences with one projection onto the chosen events) in one pass over
their sequences, and re-counts only the flows that contain the chosen
event.  Flows of one shape (their distinct sequences in local label
numbers, with path counts) share each count through a memo keyed by the
shape and the chosen local labels, local to one call.  This copy is kept
verbatim so the differential tests can require identical ``events``,
``links``, ``rationale`` order and ``undistinguishable``, also on
relabelled copies of one net, where the memo is read most.

``greedy_cover`` is the eager link cover, which re-counts every link's
gain each round.  ``selection._greedy_cover`` evaluates gains lazily;
the differential tests require the same cover, in the same order.

``guaranteed_events`` intersects one set of labels per path, on every
call; ``Flow.guaranteed_events`` is computed once per flow.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from flowtrace.flow_model import Event, Flow, end_events, start_events
from flowtrace.selection import (
    REASON_END,
    REASON_PATH_DISAMBIG,
    REASON_START,
    Selection,
    SelectionProblem,
)

from conftest import path_labels


def _event_key(e: Event) -> tuple[str, str, str]:
    return (e.src, e.dest, e.cmd)


def _projection(labels: Sequence[Event], selected: frozenset[Event]) -> tuple[Event, ...]:
    return tuple(e for e in labels if e in selected)


def select_cec(problem: SelectionProblem) -> Selection:
    """Select start/end events of every flow plus path-disambiguating events.

    After the mandatory start and end events, events are added greedily:
    each step picks the event that splits the most still-confusable path
    pairs, preferring events on already-occupied links, then the smallest
    event.  Path pairs whose complete label sequences are identical can
    never be distinguished; they are reported in ``undistinguishable``
    and otherwise ignored.
    """
    rationale: dict[Event, str] = {}
    for flow in sorted(problem.flows, key=lambda f: f.id):
        for e in sorted(start_events(flow), key=_event_key):
            rationale.setdefault(e, REASON_START)
        for e in sorted(end_events(flow), key=_event_key):
            rationale.setdefault(e, REASON_END)

    label_seqs: dict[str, list[tuple[Event, ...]]] = {
        f.id: [path_labels(f, p) for p in f.paths]
        for f in problem.flows
    }
    undistinguishable: list[tuple[str, tuple[str, ...], tuple[str, ...]]] = []
    pairs: list[tuple[str, int, int]] = []
    for flow in sorted(problem.flows, key=lambda f: f.id):
        seqs = label_seqs[flow.id]
        paths = flow.paths
        for i, j in combinations(range(len(seqs)), 2):
            if seqs[i] == seqs[j]:
                undistinguishable.append(
                    (flow.id, paths[i], paths[j])
                )
            else:
                pairs.append((flow.id, i, j))

    def confusable(selected: frozenset[Event]) -> list[tuple[str, int, int]]:
        out = []
        for fid, i, j in pairs:
            if _projection(label_seqs[fid][i], selected) == _projection(
                label_seqs[fid][j], selected
            ):
                out.append((fid, i, j))
        return out

    flow_events: dict[str, frozenset[Event]] = {
        f.id: f.events for f in problem.flows
    }
    while True:
        selected = frozenset(rationale)
        remaining = confusable(selected)
        if not remaining:
            break
        used_links = {problem.event_link_map[e] for e in rationale}
        candidates = sorted(
            {
                e
                for fid, _, _ in remaining
                for e in flow_events[fid]
                if e not in rationale
            },
            key=_event_key,
        )
        best_event = None
        best_score: tuple[int, int, tuple[str, str, str]] | None = None
        for e in candidates:
            trial = selected | {e}
            split = sum(
                1
                for fid, i, j in remaining
                if _projection(label_seqs[fid][i], trial)
                != _projection(label_seqs[fid][j], trial)
            )
            score = (
                -split,
                0 if problem.event_link_map[e] in used_links else 1,
                _event_key(e),
            )
            if best_score is None or score < best_score:
                best_score = score
                best_event = e
        if best_event is None:
            break
        if best_score is not None and best_score[0] == 0:
            # No single event helps (labels differ only jointly): force
            # progress with the smallest candidate and re-evaluate.
            best_event = candidates[0]
        rationale.setdefault(best_event, REASON_PATH_DISAMBIG)

    links = frozenset(problem.event_link_map[e] for e in rationale)
    return Selection(
        frozenset(rationale), links, rationale, tuple(undistinguishable)
    )


def greedy_cover(links: list[str], mask: dict[str, int], full: int) -> list[str]:
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


def guaranteed_events(flow: Flow) -> frozenset[Event]:
    """Events emitted on every execution path of the flow."""
    events = set(flow.events)
    for path in flow.paths:
        events &= set(path_labels(flow, path))
        if not events:
            break
    return frozenset(events)
