"""Reconstruction of flow executions from observed traces, and scoring.

Reconstruction groups observed records by instance tag, restores each
instance's emission order from the per-record cycle stamps (queuing skews
cross-link off-load order, but timestamps are trustworthy), and computes
which execution paths of the flow are consistent with what was seen.
One rule decides: a path is a candidate when the instance's observed
label sequence embeds into the path's as an order-preserving
subsequence, so losing records can only widen the set.  A loss-free
capture (the trace hardware reports zero drops and nothing left in the
queues) passes its selected event set as ``exact``: every observed label
must then be selected and the path must emit exactly that many selected
labels, so the observed sequence is the path's whole projection onto
the selection and a fully observed instance resolves to a unique path.

Scoring turns reconstructions into the two coverage ratios: FIC (share
of executed instances with at least one observed event) and CEC (share
whose start and end events were both observed), plus the fraction of
complete instances whose path is uniquely determined.  Experiment cells
and ``simulate`` are scored with :func:`score_result`, which gives the
report of :func:`score` over :func:`reconstruct_result` but folds it
from the matching step, once per distinct (flow, labels), without
building any reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    "score_result",
]


class InconsistentTrace(Exception):
    """An instance's observations match no execution path of its flow."""


class InstanceReconstruction(NamedTuple):
    """What one flow instance's observed events reveal about its execution.

    ``observed_events`` is in emission order (sorted by cycle stamp).
    ``start_seen``/``end_seen`` carry ``(offload_index, cycle)`` of the
    first observed start event and the last observed end event, the
    coordinates used for interleaving extraction.  A reconstruction is a
    tuple of these fields, in this order.
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


def _match_groups(
    observed: Sequence[EventRecord],
    spec: SystemSpec,
    exact: frozenset[Event] | None,
) -> tuple[dict[InstanceTag, list[int]], list[list], dict[tuple, list]]:
    """Group ``observed`` by tag, sort each group's positions by cycle
    (stable: ties keep off-load order) and match each distinct (flow,
    labels) key once.  Returns the groups (tag -> positions in
    ``observed``, in order of first off-load), each group's match in that
    order, and each key's match: ``[candidate paths, index of the first
    start label, of the last end label (None when absent), instances]``.
    """
    by_cycle = list(map(itemgetter(0), observed)).__getitem__
    label_at = list(map(itemgetter(1), observed)).__getitem__
    groups: dict[InstanceTag, list[int]] = {}
    for pos, tag in enumerate(map(itemgetter(3), observed)):
        groups.setdefault(tag, []).append(pos)

    # Per observed flow: its paths with their label sequences and counts of
    # selected labels (None for a lossy capture), its starts and ends.
    flow_facts: dict[str, tuple[list, frozenset[Event], frozenset[Event]]] = {}
    found: list[list] = []
    matches: dict[tuple, list] = {}
    for tag, positions in groups.items():
        positions.sort(key=by_cycle)
        labels = tuple(map(label_at, positions))
        key = (tag.flow, labels)
        # Instances of a flow mostly repeat a label sequence already seen
        # (85% of them in a `compare` of the prototype, 98% in a lossless
        # all-links run): match each sequence once.
        match = matches.get(key)
        if match is None:
            if tag.flow not in flow_facts:
                flow = spec.flow_by_id.get(tag.flow)
                if flow is None:
                    raise ValueError(f"observed tag {tag} references unknown flow")
                seqs = [path_labels(flow, p) for p in flow.paths]
                counts = [None] * len(seqs)
                if exact is not None:
                    counts = [sum(e in exact for e in seq) for seq in seqs]
                flow_facts[tag.flow] = (
                    list(zip(flow.paths, seqs, counts)),
                    start_events(flow),
                    end_events(flow),
                )
            labeled_paths, starts, ends = flow_facts[tag.flow]
            candidates = ()
            if exact is None or exact.issuperset(labels):
                candidates = tuple(
                    path
                    for path, seq, emits in labeled_paths
                    if emits in (None, len(labels)) and _is_subsequence(labels, seq)
                )
            if not candidates:
                raise InconsistentTrace(
                    f"instance {tag}: observed events {[str(e) for e in labels]} "
                    f"match no execution path of flow {tag.flow}"
                )
            indices = range(len(labels))
            match = matches[key] = [
                candidates,
                next((k for k in indices if labels[k] in starts), None),
                next((k for k in reversed(indices) if labels[k] in ends), None),
                0,
            ]
        match[3] += 1
        found.append(match)
    return groups, found, matches


def reconstruct(
    observed: Iterable[EventRecord],
    spec: SystemSpec,
    exact: frozenset[Event] | None = None,
) -> list[InstanceReconstruction]:
    """One reconstruction per distinct tag seen in the observed trace.

    ``exact`` is the selected event set of a loss-free capture, whose
    instances show their paths' whole projections onto it; ``None`` reads
    a lossy one.  Raises :class:`InconsistentTrace` when some tag matches
    no path, which signals a corrupted trace or a spec/simulator mismatch.

    The reconstructions are ordered by their first observed cycle; those
    whose first records share a cycle keep the order in which their tags
    were first off-loaded.
    """
    observed = tuple(observed)  # free for a tuple; a generator is read once
    groups, found, _ = _match_groups(observed, spec, exact)
    out: list[InstanceReconstruction] = []
    for (tag, positions), (candidates, first_start, last_end, _) in zip(
        groups.items(), found
    ):
        start_seen = end_seen = None
        if first_start is not None:
            pos = positions[first_start]
            start_seen = (pos, observed[pos].cycle)
        if last_end is not None:
            pos = positions[last_end]
            end_seen = (pos, observed[pos].cycle)
        out.append(
            InstanceReconstruction(
                tag,
                tuple(map(observed.__getitem__, positions)),
                first_start is not None,
                first_start is not None and last_end is not None,
                candidates,
                start_seen,
                end_seen,
            )
        )
        positions.clear()  # release its position ints now, not after the loop
    out.sort(key=lambda r: r.observed_events[0].cycle)
    return out


def reconstruct_result(
    result: SimulationResult, spec: SystemSpec
) -> list[InstanceReconstruction]:
    """Reconstruct from a simulation result, exactly if it is loss-free."""
    exact = result.selected_events if result.lossless else None
    return reconstruct(result.observed, spec, exact)


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
    if len(set(map(itemgetter(0), recons))) != len(recons):
        raise ValueError("duplicate reconstruction tags")
    return _fold(
        (
            (tag.flow, 1, bool(events), completed, completed and len(paths) == 1)
            for tag, events, _, completed, paths, _, _ in recons
        ),
        per_flow_n,
    )


def score_result(
    result: SimulationResult, spec: SystemSpec, per_flow_n: Mapping[str, int]
) -> CoverageReport:
    """``score(reconstruct_result(result, spec), per_flow_n)``, folded
    straight from the matches without building reconstructions: one row
    per distinct (flow, labels), weighted by the instances that share it."""
    exact = result.selected_events if result.lossless else None
    *_, matches = _match_groups(result.observed, spec, exact)
    rows = []
    for (flow, _), (candidates, first_start, last_end, n) in matches.items():
        complete = n if first_start is not None and last_end is not None else 0
        rows.append((flow, n, n, complete, complete if len(candidates) == 1 else 0))
    return _fold(rows, per_flow_n)


def _fold(rows: Iterable[tuple], per_flow_n: Mapping[str, int]) -> CoverageReport:
    """Sum ``(flow id, instances, observed, complete, resolved)`` rows of
    the flows in ``per_flow_n`` into a report."""
    counts = {fid: [0, 0, 0, 0] for fid in per_flow_n}
    for flow, n, observed, complete, resolved in rows:
        c = counts.get(flow)
        if c is not None:
            c[0] += n
            c[1] += observed
            c[2] += complete
            c[3] += resolved
    counted, observed, complete, resolved = (
        sum(column) for column in zip((0, 0, 0, 0), *counts.values())
    )
    total = sum(per_flow_n.values())
    if total < counted:
        raise ValueError("more reconstructed tags than executed instances")
    per_flow = {fid: (c[1], c[2], per_flow_n[fid]) for fid, c in counts.items()}

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
