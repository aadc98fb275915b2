"""Workload execution and the lossy communication-tracing model.

A simulation has two stages.  The workload engine (:func:`run_workload`)
drives a seeded multi-initiator workload over a system spec and records
the ground truth: every instance fires its transitions, and each firing
emits the labeled event on its link.  A link carries at most one event
per cycle: of the instances ready to fire on it, the one that initiated
first fires, and the others wait in that order and retry each cycle.
The trace module (:func:`replay_trace`) then pushes that ground truth
through a model of the on-chip tracing hardware: a monitor per enabled
link feeding a bounded FIFO queue, and one shared trace port that
off-loads queued events in a time-multiplexed, round-robin fashion.
When a queue is full the newest detected event is dropped, which is the
only loss mechanism.  The monitors queue the ground truth's own records,
so the observed trace is a lossy subsequence of what the workload did.
They never influence which transitions fire, so one workload run can be
replayed under any number of observability configurations.

An :class:`ObservabilityConfig` names the selected events, a base queue
capacity and the port bandwidth.  :func:`queue_capacities` derives the
rest: the links that carry a selected event are enabled, and they share
the queue slots of all the spec's links, ``base_capacity`` each.

Per cycle the trace module

1. lets each enabled link's monitor enqueue the cycle's event if it is
   selected for observation, dropping it when the queue is full,
2. has the output controller dequeue up to ``port_bandwidth`` events,
   scanning the queues round-robin and resuming after the last serviced
   link.

Randomness comes only from ``WorkloadConfig.seed``, through one
``random.Random`` in a fixed order.  First, per initiator in name order and
per instance, ``randint`` of the delay, then ``choice`` of the flow (sorted
ids), even for a fixed delay or one flow.  Then, each cycle, each firing that
wins its link (in initiation order), then each initiation (schedule order),
draws unless it is at its end marking: ``choice`` of the next transition (id
order) only among two or more, then ``randint`` of the latency, even a fixed
one.  Identical inputs therefore produce bit-identical results.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter, deque
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple

from .flow_model import Event
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
    "queue_capacities",
    "reallocate_queues",
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


class InstanceTag(NamedTuple):
    """Unique identity of one flow instance within a run.

    A tag is a tuple: it equals, hashes and sorts like its plain field
    tuple ``(flow, initiator, seq)``.
    """

    flow: str
    initiator: str
    seq: int

    def __str__(self) -> str:
        return f"{self.flow}#{self.initiator}.{self.seq}"


class EventRecord(NamedTuple):
    """One firing: its cycle, emitted event, link, instance and transition.

    The trace module queues and off-loads the engine's own records, so an
    observed trace is a subsequence of the ground truth.
    """

    cycle: int
    event: Event
    link: str
    tag: InstanceTag
    transition: str


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_list(value, item_ok) -> bool:
    return isinstance(value, (list, tuple)) and all(item_ok(v) for v in value)


@dataclass(frozen=True)
class WorkloadConfig:
    """Seeded random workload: who initiates how many instances, how fast.

    Raises :class:`ValueError` naming the field for a count or seed that
    is not an integer (a bool is not one), a range that is not two
    integers, a count below 1, a negative seed, or a range outside
    ``1 <= min <= max``.  A range is stored as a tuple."""

    instances_per_initiator: int = 100
    initiation_delay: tuple[int, int] = (1, 10)
    transition_latency: tuple[int, int] = (1, 5)
    seed: int = 1

    def __post_init__(self) -> None:
        # No negative seed: ``random.Random(-s)`` seeds exactly like ``Random(s)``.
        for name, least in (("instances_per_initiator", 1), ("seed", 0)):
            if not _is_int(value := getattr(self, name)):
                raise ValueError(f"workload key {name!r} must be an integer, got {value!r}")
            if value < least:
                sign = "positive" if least else "non-negative"
                raise ValueError(f"{name} must be {sign}, got {value}")
        for name in ("initiation_delay", "transition_latency"):
            if not (_is_list(pair := getattr(self, name), _is_int) and len(pair) == 2):
                raise ValueError(
                    f"workload key {name!r} must be a list of two integers, got {pair!r}"
                )
            lo, hi = pair
            if lo < 1 or lo > hi:
                raise ValueError(f"{name} must satisfy 1 <= min <= max, got ({lo}, {hi})")
            object.__setattr__(self, name, (lo, hi))


@dataclass(frozen=True)
class ObservabilityConfig:
    """Which events are observed, the queue capacity each of the spec's
    links would get with every monitor enabled, and the port's off-load
    rate in events per cycle.  The enabled links and their queue sizes
    follow from these (:func:`queue_capacities`).  Raises
    :class:`ConfigError` for a base capacity or port bandwidth that is not
    an integer (a bool is not one) or is below 1."""

    selected_events: frozenset[Event]
    base_capacity: int
    port_bandwidth: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "selected_events", frozenset(self.selected_events))
        for name in ("base_capacity", "port_bandwidth"):
            if not _is_int(value := getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """One workload run: every emitted event in firing order, the cycle
    after the last firing or initiation, and the number of instances each
    flow started (each fires at least its start transition).  Firing order
    never decreases in cycle, and a link carries at most one record per
    cycle."""

    spec: SystemSpec
    records: tuple[EventRecord, ...]
    cycles: int
    _instances: Mapping[str, int]

    def instances_per_flow(self) -> dict[str, int]:
        return dict(self._instances)


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


# One successor of a flow state: (transition id, next state, event, link).
_Step = tuple[str, int, Event, str]
# A new instance's first step: it emits nothing and leads to state 0, the
# initial marking, whose successors are the flow's start transitions.
_BIRTH = (None, 0, None, None)


class _Instance:
    """Mutable per-instance execution state; internal to the engine."""

    __slots__ = ("tag", "steps", "birth", "next_firing", "waiting")

    def __init__(self, tag: InstanceTag, steps: list[tuple[_Step, ...]], birth: int):
        self.tag = tag
        self.steps = steps  # per state of the flow's state graph
        self.birth = birth
        self.next_firing = _BIRTH
        self.waiting = False  # in its link's wait line


def reallocate_queues(
    base_capacity: int, all_links: Iterable[str], enabled: Iterable[str]
) -> dict[str, int]:
    """Redistribute disabled monitors' queue capacity to enabled links.

    The total capacity ``base_capacity * len(all_links)`` is conserved:
    each enabled link gets the floor share and the remainder goes to the
    lexicographically first enabled links, one extra slot each.
    """
    all_set = frozenset(all_links)
    enabled_sorted = sorted(set(enabled))
    if not enabled_sorted:
        raise ValueError("no enabled links to allocate to")
    if not set(enabled_sorted) <= all_set:
        raise ValueError("enabled links must be a subset of all links")
    if not _is_int(base_capacity):
        raise ValueError(f"base capacity must be an integer, got {base_capacity!r}")
    if base_capacity < 1:
        raise ValueError("base capacity must be positive")
    total = base_capacity * len(all_set)
    share, extra = divmod(total, len(enabled_sorted))
    return {
        link: share + (1 if i < extra else 0)
        for i, link in enumerate(enabled_sorted)
    }


def queue_capacities(spec: SystemSpec, obs: ObservabilityConfig) -> dict[str, int]:
    """The enabled links, those that carry a selected event, each with its
    re-allocated queue capacity; empty when no event is selected.  Raises
    :class:`ConfigError` for a selected event that no flow emits."""
    unknown = obs.selected_events - spec.all_events
    if unknown:
        raise ConfigError(f"selected event {min(unknown)} is not part of any flow")
    elmap = spec.topology.event_link_map
    enabled = {elmap[e] for e in obs.selected_events}
    if not enabled:
        return {}
    return reallocate_queues(obs.base_capacity, [l.id for l in spec.topology.links], enabled)


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
    # ``randint(lo, hi)`` is ``lo + _randbelow(hi - lo + 1)`` and
    # ``choice(seq)`` is ``seq[_randbelow(len(seq))]``: drawing directly
    # keeps the stream and skips their argument checks.  ``_randbelow(n)``
    # draws ``getrandbits(n.bit_length())`` until the result is below
    # ``n``; the firing loop inlines that.
    below = rng._randbelow
    getrandbits = rng.getrandbits

    # Pre-drawn initiation schedule: delays accumulate per initiator and
    # each initiation picks one of the initiator's flows uniformly.
    delay_lo, delay_hi = workload.initiation_delay
    schedule: list[tuple[int, str, int, str]] = []
    for initiator, flow_ids in spec.initiators:
        at = 0
        choices = sorted(flow_ids)
        for seq in range(workload.instances_per_initiator):
            at += delay_lo + below(delay_hi - delay_lo + 1)
            schedule.append((at, initiator, seq, choices[below(len(choices))]))
    schedule.sort()  # (at, initiator, seq) is unique
    instances = dict(Counter(item[3] for item in schedule))

    # Per flow and state, its successors as (tid, state, event, link), in
    # the state graph's transition id order, which fixes what a draw picks.
    steps: dict[str, list[tuple[_Step, ...]]] = {}
    for fid in instances:
        flow = spec.flow_by_id[fid]
        steps[fid] = [
            tuple(
                (tid, nxt, flow.labeling[tid], elmap[flow.labeling[tid]])
                for tid, nxt in out
            )
            for out in flow.state_graph.successors
        ]

    lat_lo, lat_hi = workload.transition_latency
    lat_span = lat_hi - lat_lo + 1
    lat_bits = lat_span.bit_length()
    ground: list[EventRecord] = []
    record = tuple.__new__  # skips EventRecord's Python-level ``__new__``
    heappush, heappop = heapq.heappush, heapq.heappop
    # A firing is an (order, instance) entry; an instance's order is its
    # schedule position, so orders are unique and birth never decreases
    # with order.
    # ``buckets`` holds the entries by due cycle and ``due_cycles`` is the
    # heap of cycles that have a bucket.  ``lines`` holds, per busy link,
    # the entries that lost it, as a heap by order.
    buckets: dict[int, list[tuple[int, _Instance]]] = {}
    due_cycles: list[int] = []
    lines: dict[str, list[tuple[int, _Instance]]] = {}
    n_sched = len(schedule)
    sched_pos = 0
    cycle = 0

    while due_cycles or lines or sched_pos < n_sched:
        if not lines:
            # Idle-cycle skip: jump to the next due firing or initiation.
            nxt = due_cycles[0] if due_cycles else schedule[sched_pos][0]
            if sched_pos < n_sched and schedule[sched_pos][0] < nxt:
                nxt = schedule[sched_pos][0]
            if nxt > cycle:
                cycle = nxt

        # The cycle's candidates are its newly due firings and the head of
        # each wait line; a line's later entries cannot win their link.
        due = buckets.pop(cycle, None)
        if due is None:
            due = []
        else:
            heappop(due_cycles)
        if lines:
            due += [line[0] for line in lines.values()]
        due.sort()
        # The lowest-order instance is the oldest, so it is the first to
        # outlive the budget.
        if due and cycle - due[0][1].birth > cycle_budget:
            raise Livelock(
                f"instance {due[0][1].tag} still running after {cycle_budget} cycles"
            )
        # New instances initiate after all firings of the cycle, in schedule
        # order; ``due`` stays sorted, as every other entry is of an
        # earlier initiation.
        while sched_pos < n_sched and schedule[sched_pos][0] <= cycle:
            _, initiator, seq, flow_id = schedule[sched_pos]
            tag = InstanceTag(flow_id, initiator, seq)
            due.append((sched_pos, _Instance(tag, steps[flow_id], cycle)))
            sched_pos += 1

        # Each link's lowest-order candidate wins it; winners fire and draw
        # in order.  A loser joins its link's line once and stays until it
        # wins, so the heads marked ``waiting`` are never pushed again.  A
        # birth uses no link and only draws the start transition.
        link_used: set[str] = set()
        for entry in due:
            inst = entry[1]
            tid, state, event, link = inst.next_firing
            if link is not None:
                if link in link_used:
                    if not inst.waiting:
                        inst.waiting = True
                        heappush(lines.setdefault(link, []), entry)
                    continue
                link_used.add(link)
                if inst.waiting:
                    # Its line's head: no loser on this link came before it.
                    inst.waiting = False
                    line = lines[link]
                    heappop(line)
                    if not line:
                        del lines[link]
                ground.append(record(EventRecord, (cycle, event, link, inst.tag, tid)))
            out = inst.steps[state]
            if not out:
                continue  # reached the end marking
            n = len(out)
            if n == 1:
                inst.next_firing = out[0]
            else:
                k = n.bit_length()
                r = getrandbits(k)
                while r >= n:
                    r = getrandbits(k)
                inst.next_firing = out[r]
            r = getrandbits(lat_bits)
            while r >= lat_span:
                r = getrandbits(lat_bits)
            at = cycle + lat_lo + r
            bucket = buckets.get(at)
            if bucket is None:
                buckets[at] = [entry]
                heappush(due_cycles, at)
            else:
                bucket.append(entry)

        cycle += 1

    return GroundTruth(spec, tuple(ground), cycle, instances)


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
    reported as residual instead.  The replay walks ``truth.records`` once
    in firing order, skips the records of unselected events, and builds no
    records: ``observed`` holds elements of ``truth.records``, which the
    result shares as ``ground_truth``.
    """
    capacity = queue_capacities(truth.spec, obs)
    # Queues and counters are indexed by the link's place in sorted order,
    # which is the port's round-robin order.
    links = sorted(capacity)
    slot = {link: k for k, link in enumerate(links)}
    elmap = truth.spec.topology.event_link_map
    slot_of = {event: slot[elmap[event]] for event in obs.selected_events}
    limit = [capacity[link] for link in links]
    queues: list[deque[EventRecord]] = [deque() for _ in links]
    length = [0] * len(links)
    detected = [0] * len(links)
    drops = [0] * len(links)
    max_occupancy = [0] * len(links)
    nonempty = 0  # bit k set while queues[k] holds an event
    rr_pos = len(links) - 1  # controller starts its scan at links[0]
    bandwidth = obs.port_bandwidth
    observed: list[EventRecord] = []

    def offload(budget: int) -> int:
        """Run the port for up to ``budget`` events, round-robin, resuming
        after the last serviced link; return how many it off-loaded."""
        nonlocal nonempty, rr_pos
        for served in range(budget):
            if not nonempty:
                return served
            later = nonempty >> (rr_pos + 1)
            if later:
                k = rr_pos + (later & -later).bit_length()
            else:
                k = (nonempty & -nonempty).bit_length() - 1
            observed.append(queues[k].popleft())
            length[k] -= 1
            if not length[k]:
                nonempty ^= 1 << k
            rr_pos = k
        return budget

    # ``cycle`` is the next cycle whose port step has not run.  A cycle's
    # events are all enqueued before its port step, and the port is idle
    # while the queues are empty.  ``truth.records`` come by cycle, at most
    # one per link and cycle, so no queue depends on the order of records
    # within a cycle.  Nothing is enqueued between two selected
    # records' cycles, so the port steps of that gap are one round-robin
    # run of up to ``bandwidth`` events per cycle.
    cycle = 0
    slot_get = slot_of.get
    for rec in truth.records:
        k = slot_get(rec.event)
        if k is None:
            continue  # not selected
        if nonempty and cycle < rec.cycle:
            offload(bandwidth * (rec.cycle - cycle))
        cycle = rec.cycle
        # Monitor: enqueue the selected event, drop-newest when full.
        detected[k] += 1
        if length[k] < limit[k]:
            queues[k].append(rec)
            length[k] += 1
            nonempty |= 1 << k
            if length[k] > max_occupancy[k]:
                max_occupancy[k] = length[k]
        else:
            drops[k] += 1
    # Without ``drain`` the port stops at the workload's end and events
    # still queued stay residual.  A step that off-loads anything takes a
    # cycle.
    budget = sum(length) if drain else bandwidth * max(0, truth.cycles - cycle)
    cycle += -(-offload(budget) // bandwidth)
    cycle = max(cycle, truth.cycles)

    result = SimulationResult(
        ground_truth=truth.records,
        observed=tuple(observed),
        drops=dict(zip(links, drops)),
        max_occupancy=dict(zip(links, max_occupancy)),
        detected=dict(zip(links, detected)),
        residual=dict(zip(links, length)),
        cycles=cycle,
        selected_events=obs.selected_events,
        enabled_links=frozenset(capacity),
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
    observed = Counter(map(attrgetter("link"), result.observed))
    for link in sorted(result.enabled_links):
        accounted = observed[link] + result.drops[link] + result.residual[link]
        if result.detected[link] != accounted:
            raise ConservationError(
                f"conservation violated on {link}: detected "
                f"{result.detected[link]} != observed {observed[link]} + dropped "
                f"{result.drops[link]} + residual {result.residual[link]}"
            )


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
            line += f",{r.transition}"
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
    }
