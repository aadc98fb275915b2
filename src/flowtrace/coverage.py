"""Reconstruction of flow executions from observed traces, and scoring.

Reconstruction groups observed records by instance tag, restores each
instance's emission order from the per-record cycle stamps (queuing skews
cross-link off-load order, but timestamps are trustworthy), and computes
which execution paths of the flow are consistent with what was seen:

* In the general lossy case a path is a candidate when the instance's
  observed label sequence embeds into the path's label sequence as an
  order-preserving subsequence; losing records can only widen the set.
* When the run is known to be loss-free (the trace hardware reports zero
  drops and nothing left in the queues) the observed sequence must equal
  the path's projection onto the selected event set exactly, which is
  what makes a fully observed instance resolve to a unique path.

Scoring turns reconstructions into the two coverage ratios: FIC (share
of executed instances with at least one observed event) and CEC (share
whose start and end events were both observed), plus the fraction of
complete instances whose path is uniquely determined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .flow_model import Event, FlowPath, end_events, path_labels, start_events
from .spec_io import SystemSpec
from .tracing_sim import EventRecord, InstanceTag, SimulationResult

__all__ = [
    "CoverageReport",
    "InconsistentTrace",
    "InstanceReconstruction",
    "Interleaving",
    "interleavings",
    "reconstruct",
    "reconstruct_result",
    "score",
]


class InconsistentTrace(Exception):
    """An instance's observations match no execution path of its flow."""


@dataclass(frozen=True)
class InstanceReconstruction:
    """What one flow instance's observed events reveal about its execution.

    ``observed_events`` is in emission order (sorted by cycle stamp).
    ``start_seen``/``end_seen`` carry ``(offload_index, cycle)`` of the
    first observed start event and the last observed end event, the
    coordinates used for interleaving extraction.
    """

    tag: InstanceTag
    observed_events: tuple[EventRecord, ...]
    started: bool
    completed: bool
    candidate_paths: tuple[FlowPath, ...]
    start_seen: tuple[int, int] | None = None
    end_seen: tuple[int, int] | None = None


def _is_subsequence(needle: Sequence[Event], haystack: Sequence[Event]) -> bool:
    it = iter(haystack)
    return all(x in it for x in needle)


def reconstruct(
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
    # Per (flow id, observed labels): candidate paths, and the positions
    # of the first start and the last end event (None when absent).
    matches: dict[
        tuple[str, tuple[Event, ...]],
        tuple[tuple[FlowPath, ...], int | None, int | None],
    ] = {}

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

        # Instances of a flow mostly repeat a label sequence already seen
        # (85% of them in a `compare` of the prototype, 98% in a lossless
        # all-links run): match each sequence once, and find the positions
        # of its first start and last end event once too.
        key = (tag.flow, labels)
        match = matches.get(key)
        if match is None:
            if lossless:
                candidates = tuple(
                    path
                    for path, seq in labeled_paths
                    if tuple(e for e in seq if e in selected_events) == labels
                )
            else:
                candidates = tuple(
                    path
                    for path, seq in labeled_paths
                    if _is_subsequence(labels, seq)
                )
            positions = range(len(labels))
            first_start = next((k for k in positions if labels[k] in starts), None)
            last_end = next(
                (k for k in reversed(positions) if labels[k] in ends), None
            )
            match = matches[key] = (candidates, first_start, last_end)
        candidates, first_start, last_end = match
        if not candidates:
            raise InconsistentTrace(
                f"instance {tag}: observed events {[str(e) for e in labels]} "
                f"match no execution path of flow {tag.flow}"
            )

        started = first_start is not None
        start_seen = end_seen = None
        if started:
            index, rec = ordered[first_start]
            start_seen = (index, rec.cycle)
        if last_end is not None:
            index, rec = ordered[last_end]
            end_seen = (index, rec.cycle)
        out.append(
            InstanceReconstruction(
                tag=tag,
                observed_events=records,
                started=started,
                completed=started and last_end is not None,
                candidate_paths=candidates,
                start_seen=start_seen,
                end_seen=end_seen,
            )
        )
    out.sort(key=lambda r: r.observed_events[0].cycle if r.observed_events else 0)
    return out


def reconstruct_result(
    result: SimulationResult, spec: SystemSpec
) -> list[InstanceReconstruction]:
    """Reconstruct from a simulation result, using exact matching when the
    run is known loss-free."""
    return reconstruct(
        result.observed,
        spec,
        selected_events=result.selected_events,
        lossless=result.lossless,
    )


@dataclass(frozen=True)
class CoverageReport:
    """Coverage ratios over one observed trace."""

    fic: float
    cec: float
    observed_instances: int
    complete_instances: int
    total_instances: int
    path_resolved: float
    per_flow: Mapping[str, tuple[int, int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_flow", dict(self.per_flow))

    def to_json(self) -> dict:
        return {
            "fic": self.fic,
            "cec": self.cec,
            "observed": self.observed_instances,
            "complete": self.complete_instances,
            "total": self.total_instances,
            "path_resolved": self.path_resolved,
            "per_flow": {
                fid: {"observed": i, "complete": c, "total": n}
                for fid, (i, c, n) in sorted(self.per_flow.items())
            },
        }

    def format_table(self) -> str:
        """Human-readable per-flow table in the ``A/B (r)`` cell style."""

        def cell(a: int, b: int) -> str:
            ratio = a / b if b else 0.0
            return f"{a}/{b} ({ratio:g})"

        width = max([len("flow")] + [len(fid) for fid in self.per_flow])
        lines = [
            f"{'flow':<{width}}  {'FIC':>18}  {'CEC':>18}",
            f"{'ALL':<{width}}  "
            f"{cell(self.observed_instances, self.total_instances):>18}  "
            f"{cell(self.complete_instances, self.total_instances):>18}",
        ]
        for fid, (i, c, n) in sorted(self.per_flow.items()):
            lines.append(f"{fid:<{width}}  {cell(i, n):>18}  {cell(c, n):>18}")
        return "\n".join(lines)


def score(
    recons: Iterable[InstanceReconstruction], per_flow_n: Mapping[str, int]
) -> CoverageReport:
    """Fold reconstructions into FIC, CEC, and path-resolution ratios.

    ``per_flow_n`` is the number of instances each scored flow actually
    executed, taken from the simulator's ground truth (on silicon it would
    come from elsewhere or be fixed across compared observabilities); the
    ratios are over its sum.  Reconstructions of flows not in
    ``per_flow_n`` are not counted.  Pure fold: permuting the input
    changes nothing.
    """
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


def interleavings(
    recons: Iterable[InstanceReconstruction],
    use_emission_cycles: bool = False,
) -> list[tuple[InstanceTag, InstanceTag, Interleaving]]:
    """Pairwise interleaving relations between completed instances.

    By default an instance's interval is measured in off-load positions,
    which is all an observer of the trace port sees; with
    ``use_emission_cycles`` the monitors' cycle stamps are used instead.
    For each unordered pair exactly one relation is reported, oriented so
    it reads left to right: ``(a, b, PRECEDES)`` means ``a`` ended before
    ``b`` started, ``(a, b, CONTAINS)`` means ``a``'s interval strictly
    contains ``b``'s.  Boundary ties classify as ``OVERLAPS``: strict
    inequality is required for both PRECEDES and CONTAINS.
    """
    coord = 1 if use_emission_cycles else 0
    intervals: list[tuple[int, int, InstanceTag]] = []
    for r in recons:
        if not (r.completed and r.start_seen and r.end_seen):
            continue
        a, b = r.start_seen[coord], r.end_seen[coord]
        if a > b:  # off-load order can invert the endpoints; normalize
            a, b = b, a
        intervals.append((a, b, r.tag))
    intervals.sort(key=lambda iv: (iv[0], iv[1], iv[2]))

    out: list[tuple[InstanceTag, InstanceTag, Interleaving]] = []
    for i in range(len(intervals)):
        a0, a1, tag_a = intervals[i]
        for j in range(i + 1, len(intervals)):
            b0, b1, tag_b = intervals[j]
            if a1 < b0:
                relation = Interleaving.PRECEDES
            elif a0 < b0 and a1 > b1:
                relation = Interleaving.CONTAINS
            else:
                relation = Interleaving.OVERLAPS
            out.append((tag_a, tag_b, relation))
    return out
