"""Reconstruction of flow executions from observed traces, and scoring.

An instance's records are read in emission order, by their cycle stamps
(queuing skews cross-link off-load order; timestamps are trustworthy),
by its flow's :class:`~flowtrace.flow_model.PathAutomaton`, built once
per flow and shared by every cell, one memoised step per record.  The
final state gives the candidate paths: those whose labels embed the
observed ones in order, so losing records can only widen the set.  A
loss-free capture (no drops, nothing left queued) passes its selected
event set as ``exact``: every observed label must then be selected and a
path must emit exactly that many selected labels, so a fully observed
instance resolves to a unique path.

A score counts each tag's final state once the tag reads no more, and
from each distinct one folds FIC (share of executed instances with an
observed event), CEC (share whose start and end events were observed)
and the share of complete instances whose path is unique.  :func:`score`
reads a whole trace in cycle order; a grid's tally reads each record as
it is queued and holds no trace.  Reconstructions serve the path
analysis only.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

from .flow_model import Event, FlowPath
from .spec_io import SystemSpec
from .tracing_sim import EventRecord, InstanceTag, SimulationResult

__all__ = [
    "CoverageReport",
    "InconsistentTrace",
    "InstanceReconstruction",
    "reconstruct",
    "score",
    "score_result",
]


class InconsistentTrace(Exception):
    """An instance's observations match no execution path of its flow."""


class InstanceReconstruction(NamedTuple):
    """What one flow instance's observed events reveal about its execution:
    its records in emission order (by cycle stamp), the start and end bits
    of its final automaton state, and the paths it may have taken."""

    tag: InstanceTag
    observed_events: tuple[EventRecord, ...]
    started: bool
    completed: bool
    candidate_paths: tuple[FlowPath, ...]


def reconstruct(
    observed: Iterable[EventRecord],
    spec: SystemSpec,
    exact: frozenset[Event] | None = None,
) -> list[InstanceReconstruction]:
    """One reconstruction per distinct tag seen in the observed trace.

    ``exact`` is the selected event set of a loss-free capture, whose
    instances show their paths' whole projections onto it; ``None`` reads
    a lossy one; a simulation result's is ``result.exact``.  Of the tags
    in order of first off-load, the first whose flow is unknown raises
    :class:`ValueError`, and the first that matches no path (a corrupted
    trace or a spec/simulator mismatch) raises :class:`InconsistentTrace`.

    The reconstructions are ordered by their first observed cycle; those
    whose first records share a cycle keep the order in which their tags
    were first off-loaded.
    """
    observed = tuple(observed)  # free for a tuple; a generator is read once
    groups: dict[InstanceTag, list[EventRecord]] = {tag: [] for *_, tag, _ in observed}
    # Stable: records of one cycle keep their off-load order.
    for record in sorted(observed, key=itemgetter(0)):
        groups[record.tag].append(record)
    out: list[InstanceReconstruction] = []
    for tag, records in groups.items():
        if (flow := spec.flow_by_id.get(tag.flow)) is None:
            raise ValueError(f"observed tag {tag} references unknown flow")
        labels = [record.event for record in records]
        automaton, candidates = flow.automaton, ()
        state = reduce(automaton.step, labels, 0)
        if exact is None or exact.issuperset(labels):
            candidates = automaton.candidates(state, exact)
        if not candidates:
            raise InconsistentTrace(
                f"instance {tag}: observed events {[str(e) for e in labels]} "
                f"match no execution path of flow {tag.flow}"
            )
        start, end = automaton.states[state][2:]  # a start and an end label read
        out.append(InstanceReconstruction(tag, tuple(records), start, start and end, candidates))
    out.sort(key=lambda r: r.observed_events[0].cycle)
    return out


class _ReportFields(NamedTuple):
    fic: float
    cec: float
    observed_instances: int
    complete_instances: int
    total_instances: int
    path_resolved: float
    per_flow: Mapping[str, tuple[int, int, int]] = {}  # copied by CoverageReport


class CoverageReport(_ReportFields):
    """Coverage ratios over one observed trace; it equals its plain field
    tuple."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> CoverageReport:
        self = super().__new__(cls, *args, **kwargs)
        return self._replace(per_flow=dict(self.per_flow))

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
    observed: Iterable[EventRecord], spec: SystemSpec, per_flow_n: Mapping[str, int],
    exact: frozenset[Event] | None = None,
) -> CoverageReport:
    """FIC, CEC and path-resolution ratios of an observed trace, read with
    ``exact`` as by :func:`reconstruct`, which raises the error of a trace
    that fails.  ``per_flow_n`` holds the instances each scored flow
    executed (from the ground truth; on silicon, from elsewhere); the ratios
    are over its sum, and instances of other flows are not counted."""
    observed = tuple(observed)
    failed = exact is not None and not exact.issuperset(map(itemgetter(1), observed))
    if not (failed or {tag.flow for *_, tag, _ in observed} - spec.flow_by_id.keys()):
        tally = _Tally(spec).read(sorted(observed, key=itemgetter(0)))
        if (report := tally.report(per_flow_n, exact)) is not None:
            return report
    reconstruct(observed, spec, exact)  # raises the first failure
    raise AssertionError("a trace that failed to score reconstructs")


class _Tally:
    """:func:`score` read incrementally, each tag's records in emission order;
    a tag that reads no more can be folded (its final state counted) and freed."""

    def __init__(self, spec: SystemSpec) -> None:
        # Per live tag its [automaton, state]; per folded final state, its tags.
        self.flows, self.walkers, self.finals = spec.flow_by_id, {}, Counter()

    def read(self, records: Iterable[EventRecord]) -> _Tally:
        walkers = self.walkers
        for _, event, _, tag, _ in records:
            walker = walkers.get(tag)
            if walker is None:
                walker = walkers[tag] = [self.flows[tag.flow].automaton, 0]
            automaton, state = walker
            # No transition returns to state 0, which has read nothing.
            walker[1] = automaton.table[state].get(event) or automaton.step(state, event)
        return self

    def fold(self, tags: Iterable[InstanceTag]) -> None:
        walkers = self.walkers
        self.finals.update(tuple(walkers.pop(tag)) for tag in tags if tag in walkers)

    def report(self, per_flow_n: Mapping[str, int], exact: frozenset[Event] | None):
        """:func:`score`'s report of every tag read; ``None`` if one matches no path."""
        self.fold(list(self.walkers))
        counts = {fid: [0, 0, 0] for fid in per_flow_n}
        for (automaton, state), n in self.finals.items():
            candidates = automaton.candidates(state, exact)
            if not candidates:
                return None
            if (c := counts.get(automaton.flow_id)) is not None:
                c[0] += n
                if automaton.states[state][2:] == (True, True):  # start and end seen
                    c[1] += n
                    c[2] += n if len(candidates) == 1 else 0
        seen, complete, resolved = (sum(col) for col in zip((0, 0, 0), *counts.values()))
        total = sum(per_flow_n.values())
        if total < seen:
            raise ValueError("more reconstructed tags than executed instances")
        return CoverageReport(
            fic=seen / total if total else 0.0,
            cec=complete / total if total else 0.0,
            observed_instances=seen,
            complete_instances=complete,
            total_instances=total,
            path_resolved=resolved / complete if complete else 1.0,
            per_flow={fid: (c[0], c[1], per_flow_n[fid]) for fid, c in counts.items()},
        )


def score_result(
    result: SimulationResult, spec: SystemSpec, per_flow_n: Mapping[str, int]
) -> CoverageReport:
    """Score a simulation result's trace, read with ``result.exact``; ``per_flow_n``
    is any mapping, such as a ground truth's ``flow_instances``."""
    return score(result.observed, spec, per_flow_n, result.exact)
