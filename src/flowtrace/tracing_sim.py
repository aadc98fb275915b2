"""Workload execution and the lossy communication-tracing model.

A simulation has two stages.  The workload engine (:func:`run_workload`)
drives a seeded multi-initiator workload over a system spec and records
the ground truth: every instance fires its transitions, and each firing
emits the labeled event on its link (a link carries at most one event
per cycle; colliding emissions are pushed to the next cycle).  The trace
module (:func:`replay_trace`) then pushes that ground truth through a
model of the on-chip tracing hardware: a monitor per enabled link feeding
a bounded FIFO queue, and one shared trace port that off-loads queued
events in a time-multiplexed, round-robin fashion.  When a queue is full
the newest detected event is dropped, which is the only loss mechanism.
The monitors never influence which transitions fire, so one workload run
can be replayed under any number of observability configurations.

Per cycle the trace module

1. lets each enabled link's monitor enqueue the cycle's event if it is
   selected for observation, dropping it when the queue is full,
2. has the output controller dequeue up to ``port_bandwidth`` events,
   scanning the queues round-robin and resuming after the last serviced
   link.

Randomness comes exclusively from ``WorkloadConfig.seed``, driving a
single Mersenne-Twister generator (``random.Random``) whose draw order
is fixed: per-initiator initiation delays and flow choices first, then
transition choices and latencies in firing order.  Identical inputs
therefore produce bit-identical results.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Mapping

from .flow_model import Event, Flow
from .spec_io import SystemSpec

__all__ = [
    "ConfigError",
    "ConservationError",
    "EventRecord",
    "GroundTruth",
    "InstanceTag",
    "Livelock",
    "ObservabilityConfig",
    "SimulationResult",
    "WorkloadConfig",
    "check_conservation",
    "check_selected_events",
    "event_generation_trace",
    "records_csv",
    "replay_trace",
    "run_simulation",
    "run_workload",
    "summary_json",
]

DEFAULT_CYCLE_BUDGET = 1_000_000


class ConfigError(Exception):
    """Observability configuration inconsistent with the system spec."""


class Livelock(Exception):
    """An instance failed to finish within the configured cycle budget."""


class ConservationError(Exception):
    """The trace module lost count of an event: a bug, not a finding."""


@dataclass(frozen=True, order=True)
class InstanceTag:
    """Unique identity of one flow instance within a run."""

    flow: str
    initiator: str
    seq: int

    def __str__(self) -> str:
        return f"{self.flow}#{self.initiator}.{self.seq}"


@dataclass(frozen=True)
class EventRecord:
    """One timestamped, instance-tagged event observation.

    ``transition`` is only present on ground-truth records; monitors see
    events, not the transitions that produced them.
    """

    cycle: int
    event: Event
    link: str
    tag: InstanceTag
    transition: str | None = None


@dataclass(frozen=True)
class WorkloadConfig:
    """Seeded random workload: who initiates how many instances, how fast."""

    instances_per_initiator: int = 100
    initiation_delay: tuple[int, int] = (1, 10)
    transition_latency: tuple[int, int] = (1, 5)
    seed: int = 1

    def __post_init__(self) -> None:
        if self.instances_per_initiator < 1:
            raise ValueError("instances_per_initiator must be positive")
        for name in ("initiation_delay", "transition_latency"):
            lo, hi = getattr(self, name)
            if lo < 1 or lo > hi:
                raise ValueError(f"{name} must satisfy 1 <= min <= max")


@dataclass(frozen=True)
class ObservabilityConfig:
    """Which events are observed and with what queue resources."""

    selected_events: frozenset[Event]
    enabled_links: frozenset[str]
    queue_capacity: Mapping[str, int]
    port_bandwidth: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected_events", frozenset(self.selected_events))
        object.__setattr__(self, "enabled_links", frozenset(self.enabled_links))
        object.__setattr__(self, "queue_capacity", dict(self.queue_capacity))

    @classmethod
    def uniform(
        cls,
        events: Iterable[Event],
        event_link_map: Mapping[Event, str],
        capacity: int,
        port_bandwidth: int = 1,
    ) -> "ObservabilityConfig":
        """Enable exactly the links carrying ``events``, same capacity each."""
        selected = frozenset(events)
        links = frozenset(event_link_map[e] for e in selected)
        return cls(selected, links, {l: capacity for l in links}, port_bandwidth)


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """One workload run: every emitted event in firing order, and the cycle
    after the last firing or initiation."""

    spec: SystemSpec
    records: tuple[EventRecord, ...]
    cycles: int

    def instances_per_flow(self) -> dict[str, int]:
        return _instances_per_flow(self.records)

    @cached_property
    def records_by_event(self) -> dict[Event, list[EventRecord]]:
        """Each emitted event's records in firing order; built on first
        use and shared by every replay of this ground truth."""
        index: dict[Event, list[EventRecord]] = {}
        for rec in self.records:
            index.setdefault(rec.event, []).append(rec)
        return index

    def records_of(self, events: Iterable[Event]) -> list[EventRecord]:
        """The records of ``events`` by cycle.  Records of one cycle may
        come in any order; each is on its own link."""
        index = self.records_by_event
        out: list[EventRecord] = []
        for event in events:
            out += index.get(event, ())
        out.sort(key=attrgetter("cycle"))
        return out


@dataclass(frozen=True)
class SimulationResult:
    """Ground truth, the lossy observed trace, and per-link accounting."""

    ground_truth: tuple[EventRecord, ...]
    observed: tuple[EventRecord, ...]
    drops: Mapping[str, int]
    max_occupancy: Mapping[str, int]
    detected: Mapping[str, int]
    residual: Mapping[str, int]
    cycles: int
    selected_events: frozenset[Event]
    enabled_links: frozenset[str]

    @property
    def total_drops(self) -> int:
        return sum(self.drops.values())

    @property
    def total_residual(self) -> int:
        return sum(self.residual.values())

    @property
    def lossless(self) -> bool:
        """True when every detected event made it into the observed trace."""
        return self.total_drops == 0 and self.total_residual == 0

    def instances_per_flow(self) -> dict[str, int]:
        return _instances_per_flow(self.ground_truth)


def _instances_per_flow(records: Iterable[EventRecord]) -> dict[str, int]:
    tags: dict[str, set[InstanceTag]] = {}
    for rec in records:
        tags.setdefault(rec.tag.flow, set()).add(rec.tag)
    return {flow: len(s) for flow, s in tags.items()}


class _Instance:
    """Mutable per-instance execution state; internal to the engine."""

    __slots__ = ("tag", "flow", "state", "birth", "order", "next_firing")

    def __init__(self, tag: InstanceTag, flow: Flow, birth: int, order: int):
        self.tag = tag
        self.flow = flow
        self.state = 0  # the initial marking in flow.state_graph
        self.birth = birth
        self.order = order
        self.next_firing: tuple[str, int] | None = None  # (transition, state)


def check_selected_events(spec: SystemSpec, events: frozenset[Event]) -> None:
    """Raise :class:`ConfigError` naming an event that no flow emits."""
    unknown = events - spec.all_events
    if unknown:
        sample = min(unknown, key=lambda e: (e.src, e.dest, e.cmd))
        raise ConfigError(f"selected event {sample} is not part of any flow")


def _check_config(spec: SystemSpec, obs: ObservabilityConfig) -> None:
    check_selected_events(spec, obs.selected_events)
    elmap = spec.topology.event_link_map
    expected = frozenset(elmap[e] for e in obs.selected_events)
    if expected != obs.enabled_links:
        raise ConfigError(
            "enabled_links must be exactly the links of the selected events"
        )
    for link in obs.enabled_links:
        cap = obs.queue_capacity.get(link, 0)
        if cap < 1:
            raise ConfigError(f"enabled link {link} needs a positive queue capacity")
    if obs.port_bandwidth < 1:
        raise ConfigError("port_bandwidth must be positive")


def run_workload(
    spec: SystemSpec,
    workload: WorkloadConfig,
    *,
    cycle_budget: int = DEFAULT_CYCLE_BUDGET,
) -> GroundTruth:
    """Execute the workload alone; the ground truth it returns is the same
    whatever the trace hardware observes later.

    Every initiator starts exactly ``instances_per_initiator`` instances,
    each of which runs to its end marking.  Raises :class:`Livelock` when
    an instance is still running ``cycle_budget`` cycles after its start.
    """
    elmap = spec.topology.event_link_map
    rng = random.Random(workload.seed)

    # Pre-drawn initiation schedule: delays accumulate per initiator and
    # each initiation picks one of the initiator's flows uniformly.
    schedule: list[tuple[int, str, int, str]] = []
    for initiator, flow_ids in spec.initiators:
        at = 0
        choices = sorted(flow_ids)
        for seq in range(workload.instances_per_initiator):
            at += rng.randint(*workload.initiation_delay)
            schedule.append((at, initiator, seq, rng.choice(choices)))
    schedule.sort(key=lambda item: (item[0], item[1], item[2]))

    ground: list[EventRecord] = []
    pending: list[tuple[int, int, _Instance]] = []  # (due, order, instance)
    sched_pos = 0
    order_counter = 0
    cycle = 0
    lat_lo, lat_hi = workload.transition_latency

    def schedule_next(inst: _Instance, now: int) -> None:
        # Sorted by transition id, which fixes what each draw picks.
        out = inst.flow.state_graph.successors[inst.state]
        if not out:
            return  # reached the end marking
        inst.next_firing = out[0] if len(out) == 1 else rng.choice(out)
        heapq.heappush(pending, (now + rng.randint(lat_lo, lat_hi), inst.order, inst))

    while pending or sched_pos < len(schedule):
        # Idle-cycle skip: jump to the next due firing or initiation.
        horizon = []
        if pending:
            horizon.append(pending[0][0])
        if sched_pos < len(schedule):
            horizon.append(schedule[sched_pos][0])
        cycle = max(cycle, min(horizon))

        # Fire due transitions, serializing one event per link per cycle.
        link_used: set[str] = set()
        due: list[_Instance] = []
        while pending and pending[0][0] <= cycle:
            due.append(heapq.heappop(pending)[2])
        for inst in due:
            if cycle - inst.birth > cycle_budget:
                raise Livelock(
                    f"instance {inst.tag} still running after {cycle_budget} cycles"
                )
            tid, state = inst.next_firing
            event = inst.flow.labeling[tid]
            link = elmap[event]
            if link in link_used:
                heapq.heappush(pending, (cycle + 1, inst.order, inst))
                continue
            link_used.add(link)
            ground.append(EventRecord(cycle, event, link, inst.tag, tid))
            inst.state = state
            schedule_next(inst, cycle)

        # New instances initiate after all firings of the cycle.
        while sched_pos < len(schedule) and schedule[sched_pos][0] <= cycle:
            at, initiator, seq, flow_id = schedule[sched_pos]
            sched_pos += 1
            inst = _Instance(
                InstanceTag(flow_id, initiator, seq),
                spec.flow_by_id[flow_id],
                cycle,
                order_counter,
            )
            order_counter += 1
            schedule_next(inst, cycle)

        cycle += 1

    return GroundTruth(spec, tuple(ground), cycle)


def replay_trace(
    truth: GroundTruth, obs: ObservabilityConfig, *, drain: bool = True
) -> SimulationResult:
    """Push a workload's ground truth through the tracing hardware.

    Per cycle, each selected event of the cycle is enqueued on its link's
    queue in firing order (dropped when the queue is full), then the port
    off-loads.  With ``drain`` enabled (the default) the controller keeps
    off-loading after the workload's last cycle until all queues are
    empty, so detected events split exactly into observed and dropped;
    with ``drain=False`` events still queued at the workload's end are
    reported as residual instead.  Only the selected events' records are
    read (:meth:`GroundTruth.records_of`); the result shares
    ``truth.records``.
    """
    _check_config(truth.spec, obs)
    capacity = obs.queue_capacity
    queues: dict[str, deque[EventRecord]] = {l: deque() for l in obs.enabled_links}
    rr_order = [queues[l] for l in sorted(obs.enabled_links)]
    rr_pos = len(rr_order) - 1  # controller starts its scan at rr_order[0]
    drops = dict.fromkeys(obs.enabled_links, 0)
    detected = dict.fromkeys(obs.enabled_links, 0)
    max_occupancy = dict.fromkeys(obs.enabled_links, 0)
    observed: list[EventRecord] = []

    # Order within a cycle is free: each link has its own queue.
    records = truth.records_of(obs.selected_events)
    end = truth.cycles
    i = 0
    queued = 0  # events in all queues
    cycle = 0
    while True:
        if not queued:
            if i == len(records):
                cycle = max(cycle, end)
                break
            # Idle-cycle skip: nothing to off-load until the next event.
            cycle = max(cycle, records[i].cycle)
        elif cycle >= end and not drain:
            break  # the workload is over; queued events stay residual

        # Monitors: enqueue selected events, drop-newest when full.
        while i < len(records) and records[i].cycle == cycle:
            rec = records[i]
            i += 1
            link = rec.link  # enabled, as _check_config ensures
            detected[link] += 1
            q = queues[link]
            if len(q) < capacity[link]:
                q.append(EventRecord(rec.cycle, rec.event, link, rec.tag))
                queued += 1
                if len(q) > max_occupancy[link]:
                    max_occupancy[link] = len(q)
            else:
                drops[link] += 1

        # Output controller: round-robin off-load, resuming after the
        # last serviced link.
        budget = obs.port_bandwidth
        while budget and queued:
            idx = rr_pos
            while True:
                idx = (idx + 1) % len(rr_order)
                if rr_order[idx]:
                    break
            observed.append(rr_order[idx].popleft())
            rr_pos = idx
            queued -= 1
            budget -= 1

        cycle += 1

    result = SimulationResult(
        ground_truth=truth.records,
        observed=tuple(observed),
        drops=drops,
        max_occupancy=max_occupancy,
        detected=detected,
        residual={l: len(q) for l, q in queues.items()},
        cycles=cycle,
        selected_events=obs.selected_events,
        enabled_links=obs.enabled_links,
    )
    check_conservation(result)
    return result


def run_simulation(
    spec: SystemSpec,
    workload: WorkloadConfig,
    obs: ObservabilityConfig,
    *,
    drain: bool = True,
    cycle_budget: int = DEFAULT_CYCLE_BUDGET,
) -> SimulationResult:
    """Execute the workload and the tracing model; fully deterministic.

    The composition of :func:`run_workload` and :func:`replay_trace`;
    callers that observe one workload under several configurations run
    the workload once and replay it per configuration instead.
    """
    return replay_trace(
        run_workload(spec, workload, cycle_budget=cycle_budget), obs, drain=drain
    )


def check_conservation(result: SimulationResult) -> None:
    """Raise :class:`ConservationError` unless, on every enabled link,
    detected = observed + dropped + residual."""
    observed = dict.fromkeys(result.enabled_links, 0)
    for record in result.observed:
        observed[record.link] += 1
    for link in sorted(result.enabled_links):
        accounted = observed[link] + result.drops[link] + result.residual[link]
        if result.detected[link] != accounted:
            raise ConservationError(
                f"conservation violated on {link}: detected "
                f"{result.detected[link]} != observed {observed[link]} + dropped "
                f"{result.drops[link]} + residual {result.residual[link]}"
            )


def event_generation_trace(
    result: SimulationResult,
) -> dict[int, list[tuple[str, Event]]]:
    """Per-cycle histogram of detected events (link, event) pairs.

    The summed sizes equal the total detected count; spikes above the
    port bandwidth explain where queue pressure and drops come from.
    """
    out: dict[int, list[tuple[str, Event]]] = {}
    for rec in result.ground_truth:
        if rec.link in result.enabled_links and rec.event in result.selected_events:
            out.setdefault(rec.cycle, []).append((rec.link, rec.event))
    return out


def records_csv(records: Iterable[EventRecord], include_transition: bool = False) -> str:
    """Render records in the line-per-event export format."""
    header = "cycle,link,src,dest,cmd,flow,initiator,seq"
    if include_transition:
        header += ",transition"
    lines = [header]
    for r in records:
        line = (
            f"{r.cycle},{r.link},{r.event.src},{r.event.dest},{r.event.cmd},"
            f"{r.tag.flow},{r.tag.initiator},{r.tag.seq}"
        )
        if include_transition:
            line += f",{r.transition or ''}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def summary_json(result: SimulationResult) -> dict:
    """JSON-ready accounting summary of one run."""
    return {
        "cycles": result.cycles,
        "ground_truth_events": len(result.ground_truth),
        "observed_events": len(result.observed),
        "detected": dict(sorted(result.detected.items())),
        "drops": dict(sorted(result.drops.items())),
        "residual": dict(sorted(result.residual.items())),
        "max_occupancy": dict(sorted(result.max_occupancy.items())),
        "total_drops": result.total_drops,
        "total_residual": result.total_residual,
    }
