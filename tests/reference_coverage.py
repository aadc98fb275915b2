"""Reference reconstruction: the loop that matches every instance anew.

For each observed instance it projects (lossless) or subsequence-matches
(lossy) every path of the flow again.  ``coverage.reconstruct`` matches
each distinct (flow, observed labels) pair once instead; this copy is
kept verbatim so the differential tests can require an identical list.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from flowtrace.coverage import InconsistentTrace, InstanceReconstruction
from flowtrace.flow_model import Event, end_events, path_labels, start_events
from flowtrace.spec_io import SystemSpec
from flowtrace.tracing_sim import EventRecord, InstanceTag


def _is_subsequence(needle: Sequence[Event], haystack: Sequence[Event]) -> bool:
    it = iter(haystack)
    return all(x in it for x in needle)


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
        start_seen = next(
            ((i, r.cycle) for i, r in ordered if r.event in starts), None
        )
        end_seen = next(
            ((i, r.cycle) for i, r in reversed(ordered) if r.event in ends), None
        )
        out.append(
            InstanceReconstruction(
                tag=tag,
                observed_events=records,
                started=started,
                completed=completed,
                candidate_paths=candidates,
                start_seen=start_seen,
                end_seen=end_seen,
            )
        )
    out.sort(key=lambda r: r.observed_events[0].cycle if r.observed_events else 0)
    return out
