"""Reference matching, reconstruction and scoring.

``reference_match`` is the per-path rule that each flow's
``PathAutomaton`` replaced: a path is a candidate when the observed
labels are an order-preserving subsequence of its labels and, under
``exact``, every observed label is selected and the path emits exactly
that many selected labels.  It returns the candidates with the index of
the first start label and of the last end label.  The automaton reads
the same labels one at a time, with one memoised step per label, and
the differential tests require the same three answers.

``reference_reconstruct`` is the loop that matches every instance anew:
for each observed instance it projects (lossless) or subsequence-matches
(lossy) every path of the flow again.  ``coverage.reconstruct`` reads
each instance through its flow's automaton instead; this copy is kept
verbatim so the differential tests can require an identical list.

``reference_score`` is the multi-pass fold over reconstructions that
``coverage.score`` replaced with one walk of the trace in cycle order,
folded from each distinct final automaton state; the differential tests
require an equal report and the same errors.

``interleavings`` is the pairwise oracle for interleaving recovery: it
classifies every pair of instances that show a start and an end label,
each read as an interval from the trace itself.  It lists all pairs, so
it is quadratic; an O(n log n) count is to be checked against it.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping, Sequence

from flowtrace.coverage import CoverageReport, InconsistentTrace, InstanceReconstruction
from flowtrace.flow_model import (
    Event,
    Flow,
    FlowPath,
    end_events,
    start_events,
)
from flowtrace.spec_io import SystemSpec
from flowtrace.tracing_sim import EventRecord, InstanceTag

from conftest import path_labels


def _is_subsequence(needle: Sequence[Event], haystack: Sequence[Event]) -> bool:
    it = iter(haystack)
    return all(x in it for x in needle)


def reference_match(
    flow: Flow, labels: Sequence[Event], exact: frozenset[Event] | None = None
) -> tuple[tuple[FlowPath, ...], int | None, int | None]:
    """The candidate paths of ``flow`` for one instance's observed
    ``labels``, in emission order, and the index of its first start label
    and of its last end label (``None`` when it shows none)."""
    candidates = ()
    if exact is None or exact.issuperset(labels):
        for path in flow.paths:
            seq = path_labels(flow, path)
            emits = None if exact is None else sum(e in exact for e in seq)
            if emits in (None, len(labels)) and _is_subsequence(labels, seq):
                candidates += (path,)
    starts, ends = start_events(flow), end_events(flow)
    indices = range(len(labels))
    return (
        candidates,
        next((k for k in indices if labels[k] in starts), None),
        next((k for k in reversed(indices) if labels[k] in ends), None),
    )


def reference_reconstruct(
    observed: Iterable[EventRecord],
    spec: SystemSpec,
    selected_events: frozenset[Event] | None = None,
    lossless: bool = False,
) -> list[InstanceReconstruction]:
    """One reconstruction per distinct tag seen in the observed trace.

    ``selected_events`` is the observability the trace was captured
    under; it is required for ``lossless`` (exact-projection) matching.
    Raises :class:`InconsistentTrace` when some tag matches no path,
    which signals a corrupted trace or a spec/simulator mismatch.
    """
    if lossless and selected_events is None:
        raise ValueError("lossless matching requires the selected event set")

    groups: dict[InstanceTag, list[tuple[int, EventRecord]]] = {}
    for index, rec in enumerate(observed):
        groups.setdefault(rec.tag, []).append((index, rec))

    # Per observed flow: its paths with their label sequences, starts and ends.
    flow_facts: dict[str, tuple[list, frozenset[Event], frozenset[Event]]] = {}

    out: list[InstanceReconstruction] = []
    for tag, indexed in groups.items():
        flow = spec.flow_by_id.get(tag.flow)
        if flow is None:
            raise ValueError(f"observed tag {tag} references unknown flow")
        if tag.flow not in flow_facts:
            flow_facts[tag.flow] = (
                [(p, path_labels(flow, p)) for p in flow.paths],
                start_events(flow),
                end_events(flow),
            )
        labeled_paths, starts, ends = flow_facts[tag.flow]

        ordered = sorted(indexed, key=lambda pair: pair[1].cycle)
        records = tuple(rec for _, rec in ordered)
        labels = tuple(rec.event for rec in records)

        if lossless:
            candidates = tuple(
                path
                for path, seq in labeled_paths
                if tuple(e for e in seq if e in selected_events) == labels
            )
        else:
            candidates = tuple(
                path for path, seq in labeled_paths if _is_subsequence(labels, seq)
            )
        if not candidates:
            raise InconsistentTrace(
                f"instance {tag}: observed events {[str(e) for e in labels]} "
                f"match no execution path of flow {tag.flow}"
            )

        started = any(e in starts for e in labels)
        completed = started and any(e in ends for e in labels)
        out.append(
            InstanceReconstruction(
                tag=tag,
                observed_events=records,
                started=started,
                completed=completed,
                candidate_paths=candidates,
            )
        )
    out.sort(key=lambda r: r.observed_events[0].cycle if r.observed_events else 0)
    return out


def reference_score(
    recons: Iterable[InstanceReconstruction], per_flow_n: Mapping[str, int]
) -> CoverageReport:
    """Fold reconstructions into FIC, CEC, and path-resolution ratios."""
    recons = list(recons)
    if len({r.tag for r in recons}) != len(recons):
        raise ValueError("duplicate reconstruction tags")
    recons = [r for r in recons if r.tag.flow in per_flow_n]
    total = sum(per_flow_n.values())
    if total < len(recons):
        raise ValueError("more reconstructed tags than executed instances")

    observed = sum(1 for r in recons if r.observed_events)
    complete = sum(1 for r in recons if r.completed)
    resolved = sum(
        1 for r in recons if r.completed and len(r.candidate_paths) == 1
    )
    per_flow: dict[str, tuple[int, int, int]] = {
        fid: (0, 0, n) for fid, n in per_flow_n.items()
    }
    for r in recons:
        i, c, n = per_flow[r.tag.flow]
        per_flow[r.tag.flow] = (
            i + (1 if r.observed_events else 0),
            c + (1 if r.completed else 0),
            n,
        )
    return CoverageReport(
        fic=observed / total if total else 0.0,
        cec=complete / total if total else 0.0,
        observed_instances=observed,
        complete_instances=complete,
        total_instances=total,
        path_resolved=resolved / complete if complete else 1.0,
        per_flow=per_flow,
    )


class Interleaving(Enum):
    """How two completed flow instances relate in time."""

    CONTAINS = "contains"
    OVERLAPS = "overlaps"
    PRECEDES = "precedes"


def intervals(
    observed: Sequence[EventRecord], spec: SystemSpec, use_emission_cycles: bool = False
) -> list[tuple[int, int, InstanceTag]]:
    """``(low, high, tag)`` of each instance that shows a start and an end
    label, sorted.  An instance's records are put in emission order (by
    cycle stamp, ties in off-load order); its interval runs from its first
    start label to its last end label.  By default both are measured in
    off-load positions, which is all an observer of the trace port sees;
    with ``use_emission_cycles`` the monitors' cycle stamps are used
    instead.  Off-load order can invert an instance's endpoints, so each
    pair is sorted."""
    coord = 1 if use_emission_cycles else 0
    groups: dict[InstanceTag, list[tuple[int, int, Event]]] = {}
    for index, rec in enumerate(observed):
        groups.setdefault(rec.tag, []).append((index, rec.cycle, rec.event))
    out = []
    for tag, seen in groups.items():
        flow = spec.flow_by_id[tag.flow]
        first, last = start_events(flow), end_events(flow)
        seen.sort(key=lambda at: at[1])
        starts = [at for at in seen if at[2] in first]
        ends = [at for at in seen if at[2] in last]
        if starts and ends:
            out.append((*sorted((starts[0][coord], ends[-1][coord])), tag))
    return sorted(out)


def interleavings(
    observed: Sequence[EventRecord], spec: SystemSpec, use_emission_cycles: bool = False
) -> list[tuple[InstanceTag, InstanceTag, Interleaving]]:
    """Pairwise interleaving relations between the :func:`intervals` of
    the completed instances of an observed trace.

    For each unordered pair exactly one relation is reported, oriented so
    it reads left to right: ``(a, b, PRECEDES)`` means ``a`` ended before
    ``b`` started, ``(a, b, CONTAINS)`` means ``a``'s interval strictly
    contains ``b``'s.  Boundary ties classify as ``OVERLAPS``: strict
    inequality is required for both PRECEDES and CONTAINS.
    """
    spans = intervals(observed, spec, use_emission_cycles)
    out: list[tuple[InstanceTag, InstanceTag, Interleaving]] = []
    for i, (a0, a1, tag_a) in enumerate(spans):
        for b0, b1, tag_b in spans[i + 1 :]:
            if a1 < b0:
                relation = Interleaving.PRECEDES
            elif a0 < b0 and a1 > b1:
                relation = Interleaving.CONTAINS
            else:
                relation = Interleaving.OVERLAPS
            out.append((tag_a, tag_b, relation))
    return out
