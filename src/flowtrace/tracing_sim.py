"""Workload execution and the lossy communication-tracing model.

A simulation has two stages.  The workload engine (:func:`run_workload`)
drives a seeded multi-initiator workload over a system spec and records
the ground truth: every instance fires its transitions, and each firing
emits the labeled event on its link.  A link carries at most one event
per cycle: of the instances ready to fire on it, the one that initiated
first fires, and the others wait in that order and retry each cycle.
The trace module (:func:`replay_trace`) then pushes that ground truth
through a model of the on-chip tracing hardware.  Per cycle, each
enabled link's monitor enqueues the cycle's event on its bounded FIFO
queue if the event is selected, dropping it when the queue is full (the
only loss mechanism); then one shared trace port off-loads up to
``port_bandwidth`` events, scanning the queues round-robin and resuming
after the last serviced link.  The monitors queue the ground truth's own
records, so the observed trace is a lossy subsequence of what the
workload did.  They never influence which transitions fire, so one
workload run can be replayed under any number of observability
configurations.

An :class:`ObservabilityConfig` names the selected events, a base queue
capacity and the port bandwidth.  :func:`queue_capacities` derives the
rest: the links that carry a selected event are enabled, and they share
the queue slots of all the spec's links, ``base_capacity`` each.

Both stages cost time per event, not per cycle, and both stream.  The
engine jumps along a heap of the cycles that have a firing due, so a wide
latency range costs no more than a narrow one.  :func:`_stream_workload`
holds the live instances and each initiator's delays and flow ids, and
yields its records in chunks as they fire.  The replay, :func:`_trace_module`,
runs the port over the gap before each selected record as one round-robin
step, and keeps its queues, port pointer and counters between chunks.

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

import gc
import heapq
import random
from collections import Counter, deque
from contextlib import contextmanager
from itertools import accumulate, chain, count, repeat
from math import inf
from typing import Generator, Iterable, Iterator, Mapping, NamedTuple

from .flow_model import Event, _is_int
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
    "queue_capacities",
    "reallocate_queues",
    "records_csv",
    "replay_trace",
    "run_simulation",
    "run_workload",
    "summary_json",
]

_CYCLE_BUDGET = 1_000_000  # cycles an instance may run before it is a livelock
_CHUNK = 1024  # records per chunk of a streamed workload


class ConfigError(Exception):
    """Observability configuration inconsistent with the system spec."""


class Livelock(Exception):
    """An instance failed to finish within the cycle budget."""


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


def _is_list(value, item_ok) -> bool:
    return isinstance(value, (list, tuple)) and all(item_ok(v) for v in value)


class _WorkloadFields(NamedTuple):
    instances_per_initiator: int = 100
    initiation_delay: tuple[int, int] = (1, 10)
    transition_latency: tuple[int, int] = (1, 5)
    seed: int = 1


class WorkloadConfig(_WorkloadFields):
    """Seeded random workload: who initiates how many instances, how fast.

    Raises :class:`ValueError` naming the field for a count or seed that
    is not an integer (a bool is not one), a range that is not two
    integers, a count below 1, a negative seed, a range outside
    ``1 <= min <= max``, or a latency minimum above ``_CYCLE_BUDGET``
    (every instance would outlive it at its first firing).  A range is
    stored as a tuple, so a config equals and hashes like its plain field tuple."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> WorkloadConfig:
        self = super().__new__(cls, *args, **kwargs)
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
            self = self._replace(**{name: (lo, hi)})
        if (lo := self.transition_latency[0]) > _CYCLE_BUDGET:
            raise ValueError(
                f"transition_latency minimum {lo} is above the cycle budget {_CYCLE_BUDGET}"
            )
        return self


class _ObservabilityFields(NamedTuple):
    selected_events: frozenset[Event]
    base_capacity: int
    port_bandwidth: int = 1


class ObservabilityConfig(_ObservabilityFields):
    """Which events are observed, the queue capacity each of the spec's
    links would get with every monitor enabled, and the port's off-load
    rate in events per cycle.  The enabled links and their queue sizes
    follow from these (:func:`queue_capacities`).  Raises
    :class:`ConfigError` for a base capacity or port bandwidth that is not
    an integer (a bool is not one) or is below 1.  A config equals and
    hashes like its plain field tuple."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> ObservabilityConfig:
        self = super().__new__(cls, *args, **kwargs)
        self = self._replace(selected_events=frozenset(self.selected_events))
        for name in ("base_capacity", "port_bandwidth"):
            if not _is_int(value := getattr(self, name)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ConfigError(f"{name} must be positive, got {value}")
        return self


class GroundTruth(NamedTuple):
    """One workload run: every emitted event in firing order, the cycle
    after the last firing or initiation, and the number of instances each
    flow started (each fires at least its start transition), keyed in the
    order the initiators, by name, first drew each flow.  Firing order
    never decreases in cycle, and a link carries at most one record per
    cycle.  A run equals and hashes by identity."""

    spec: SystemSpec
    records: tuple[EventRecord, ...]
    cycles: int
    flow_instances: Mapping[str, int]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class SimulationResult(NamedTuple):
    """Ground truth, the lossy observed trace, and per-link accounting; it
    equals its plain field tuple."""

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

    @property
    def exact(self) -> frozenset[Event] | None:
        """The selection to score a loss-free capture by, else ``None``."""
        return self.selected_events if self.lossless else None


# One successor of a flow state: (transition id, the steps out of the state
# it leads to, event, link).  A flow's birth step emits nothing and leads to
# the initial marking, whose steps are the flow's start transitions.
_Step = tuple[str, list, Event, str]


class _Instance:
    """Mutable per-instance execution state; internal to the engine."""

    __slots__ = ("tag", "birth", "next_firing", "waiting")

    def __init__(self, tag: InstanceTag, birth_step: _Step, birth: int):
        self.tag = tag
        self.birth = birth
        self.next_firing = birth_step
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


def _refuse_certain_livelock(spec: SystemSpec, latency_min: int) -> None:
    """Raise :class:`ValueError` if an initiator's first instance must outlive
    the cycle budget: each firing comes at least ``latency_min`` cycles after
    the one before, and every flow the initiator starts needs more firings,
    on its shortest firing sequence, than the budget fits."""
    for initiator, flow_ids in spec.initiators:
        n = min(_fewest_firings(spec.flow_by_id[fid].state_graph) for fid in flow_ids)
        if n * latency_min > _CYCLE_BUDGET:
            raise ValueError(
                f"workload key 'transition_latency' minimum {latency_min} livelocks initiator "
                f"{initiator!r}: each of its flows fires at least {n} transitions, and "
                f"{n} x {latency_min} cycles is above the cycle budget {_CYCLE_BUDGET}"
            )


def _fewest_firings(graph) -> int:
    """Transitions on a shortest firing sequence from the initial marking to
    one that enables none, by breadth-first search of an acyclic graph."""
    depth, states = 0, {0}
    while all(graph.successors[s] for s in states):
        states = {nxt for s in states for _, nxt in graph.successors[s]}
        depth += 1
    return depth


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, and restore its prior state on
    any exit.  A streamed seed makes no reference cycle, yet its records
    and live instances would set off collections that each traverse every
    live object, at a cost that grows with the run."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_collector_paused()
def run_workload(spec: SystemSpec, workload: WorkloadConfig) -> GroundTruth:
    """Execute the workload alone; the ground truth it returns is the same
    whatever the trace hardware observes later.

    Every initiator starts exactly ``instances_per_initiator`` instances,
    each of which runs to its end marking.  Raises :class:`Livelock` when
    an instance still runs ``_CYCLE_BUDGET`` (10**6) cycles after its start.
    """
    chunks = list(_stream_workload(spec, workload))
    # ``tuple.__new__`` skips EventRecord's Python-level ``__new__``.
    records = map(tuple.__new__, repeat(EventRecord), chain.from_iterable(c[0] for c in chunks))
    return GroundTruth(spec, tuple(records), *chunks[-1][2])


# A streamed record: the exact tuple ``(cycle, event, link, tag, transition)``
# in EventRecord's field order.  CPython specialises indexing and unpacking
# only for exact tuples, so the stream's readers go faster on these.
_Record = tuple[int, Event, str, InstanceTag, str]


def _stream_workload(
    spec: SystemSpec, workload: WorkloadConfig
) -> Iterator[tuple[list[_Record], list[InstanceTag], tuple | None]]:
    """:func:`run_workload`'s records as they fire, in ``(records, finished,
    end)`` chunks: up to ``_CHUNK`` records, each a plain tuple laid out as
    an :class:`EventRecord`; each tag once, after its last record; and, in
    the last chunk only, ``(cycles, flow_instances)``."""
    elmap = spec.topology.event_link_map
    cycle_budget = _CYCLE_BUDGET  # read once: a local is faster in the loop
    rng = random.Random(workload.seed)
    # ``randint(lo, hi)`` is ``lo + _randbelow(hi - lo + 1)`` and
    # ``choice(seq)`` is ``seq[_randbelow(len(seq))]``: drawing directly
    # keeps the stream and skips their argument checks.  ``_randbelow(n)``
    # draws ``getrandbits(n.bit_length())`` until the result is below
    # ``n``; every draw here inlines that.
    getrandbits = rng.getrandbits

    # The initiation schedule holds, per initiator in instance order, each
    # initiation's delay since the one before and its flow, picked
    # uniformly: small ints and shared flow ids.  Initiations are merged
    # lazily in (cycle, initiator) order, which is unique because every
    # delay is positive, with a last one that never comes.
    delay_lo, delay_hi = workload.initiation_delay
    span = delay_hi - delay_lo + 1
    bits = span.bit_length()
    runs, instances = [], Counter()
    for initiator, flow_ids in spec.initiators:
        choices = sorted(flow_ids)
        n, k = len(choices), len(choices).bit_length()
        delays, flows = [], []
        for _ in range(workload.instances_per_initiator):
            while (r := getrandbits(bits)) >= span:
                pass
            delays.append(delay_lo + r)
            while (r := getrandbits(k)) >= n:
                pass
            flows.append(choices[r])
        instances.update(flows)
        # ``tuple.__new__`` skips InstanceTag's Python-level ``__new__``.
        tags = map(tuple.__new__, repeat(InstanceTag), zip(flows, repeat(initiator), count()))
        runs.append(zip(accumulate(delays), repeat(initiator), tags))
    schedule = heapq.merge(*runs, [(inf, None, None)])

    # Per flow, its birth step.  Each state's steps are in the state graph's
    # transition id order, which fixes what a draw picks, and each step
    # holds the list of steps out of the state it leads to.
    births: dict[str, _Step] = {}
    for fid in instances:
        flow = spec.flow_by_id[fid]
        outs: list[list[_Step]] = [[] for _ in flow.state_graph.successors]
        for out, succ in zip(outs, flow.state_graph.successors):
            out.extend(
                (tid, outs[nxt], flow.labeling[tid], elmap[flow.labeling[tid]])
                for tid, nxt in succ
            )
        births[fid] = (None, outs[0], None, None)

    lat_lo, lat_hi = workload.transition_latency
    lat_span = lat_hi - lat_lo + 1
    lat_bits = lat_span.bit_length()
    ground, finished = [], []  # this chunk's records and finished tags
    heappush, heappop = heapq.heappush, heapq.heappop
    # A firing is an (order, instance) entry; an instance's order is its
    # schedule position, so orders are unique and birth never decreases
    # with order.
    # ``buckets`` holds the entries by due cycle and ``due_cycles`` is the
    # heap of cycles that have a bucket.  ``lines`` holds, per busy link,
    # the entries that lost it, as a heap by order.  ``won`` holds, per
    # link, the last cycle it carried a firing.
    buckets: dict[int, list[tuple[int, _Instance]]] = {}
    due_cycles: list[int] = []
    lines: dict[str, list[tuple[int, _Instance]]] = {}
    won = dict.fromkeys(elmap.values(), -1)
    sched_pos = 0
    next_at, _, tag = next(schedule)  # the next initiation's cycle and tag
    cycle = 0

    while due_cycles or lines or next_at < inf:
        if not lines:
            # Idle-cycle skip: jump to the next due firing or initiation.
            nxt = due_cycles[0] if due_cycles and due_cycles[0] < next_at else next_at
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
        if len(due) > 1:
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
        while next_at <= cycle:
            due.append((sched_pos, _Instance(tag, births[tag[0]], cycle)))
            sched_pos += 1
            next_at, _, tag = next(schedule)

        # Each link's lowest-order candidate wins it; winners fire and draw
        # in order.  A loser joins its link's line once and stays until it
        # wins, so the heads marked ``waiting`` are never pushed again.  A
        # birth uses no link and only draws the start transition.
        for entry in due:
            inst = entry[1]
            tid, out, event, link = inst.next_firing
            if link is not None:
                if won[link] == cycle:
                    if not inst.waiting:
                        inst.waiting = True
                        heappush(lines.setdefault(link, []), entry)
                    continue
                won[link] = cycle
                if inst.waiting:
                    # Its line's head: no loser on this link came before it.
                    inst.waiting = False
                    line = lines[link]
                    heappop(line)
                    if not line:
                        del lines[link]
                ground.append((cycle, event, link, inst.tag, tid))
                if len(ground) == _CHUNK:
                    yield ground, finished, None
                    ground, finished = [], []
            if not out:
                finished.append(inst.tag)  # reached the end marking
                continue
            n = len(out)
            if n == 1:
                inst.next_firing = out[0]
            else:
                k = n.bit_length()
                while (r := getrandbits(k)) >= n:
                    pass
                inst.next_firing = out[r]
            while (r := getrandbits(lat_bits)) >= lat_span:
                pass
            at = cycle + lat_lo + r
            bucket = buckets.get(at)
            if bucket is None:
                buckets[at] = [entry]
                heappush(due_cycles, at)
            else:
                bucket.append(entry)

        cycle += 1

    yield ground, finished, (cycle, dict(instances))


def replay_trace(
    truth: GroundTruth, obs: ObservabilityConfig, *, drain: bool = True
) -> SimulationResult:
    """Push a workload's ground truth through the tracing hardware in one pass
    of :func:`_trace_module`.  With ``drain`` (the default) the port off-loads
    after the last cycle until every queue is empty, so detected events split
    into observed and dropped; without, events still queued at the end are
    residual.  ``observed`` and ``ground_truth`` share ``truth.records``."""
    observed: list[EventRecord] = []
    replay = _trace_module(truth.spec, obs, drain, observed)
    next(replay)
    replay.send(truth.records)
    result, _ = replay.send(truth.cycles)
    return result._replace(ground_truth=truth.records, observed=tuple(observed))


def _trace_module(spec: SystemSpec, obs: ObservabilityConfig, drain: bool, observed) -> Generator:
    """:func:`replay_trace`'s loop as a coroutine, primed by ``next``: send
    it records in firing order, any number at a time, then the end cycle.
    It answers each with the records it queued that are now sure to be
    observed, in firing order, and the end also with the accounting (a
    result with no records); each record off-loaded goes to ``observed``."""
    capacity = queue_capacities(spec, obs)
    # Queues and counters are indexed by the link's place in sorted order,
    # which is the port's round-robin order.
    links = sorted(capacity)
    slot = {link: k for k, link in enumerate(links)}
    elmap = spec.topology.event_link_map
    slot_of = {event: slot[elmap[event]] for event in obs.selected_events}
    slot_of[None] = -1  # the end mark's
    limit = [capacity[link] for link in links]
    queues: list[deque[EventRecord]] = [deque() for _ in links]
    detected, sent, drops, max_occupancy = ([0] * len(links) for _ in range(4))
    nonempty = 0  # bit k set while queues[k] holds an event
    rr_pos = len(links) - 1  # controller starts its scan at links[0]
    bandwidth = obs.port_bandwidth
    # Without ``drain`` a queued record waits in ``held`` until no queue's
    # head is older: a queue holds its link's records from its head on.
    held: deque[EventRecord] = deque()

    # ``cycle`` is the next cycle whose port step has not run.  A cycle's
    # events are all enqueued before its port step, and the port is idle
    # while the queues are empty.  Records come by cycle, at most one per
    # link and cycle, so no queue depends on the order of records within a
    # cycle.  Nothing is enqueued between two selected records' cycles, so
    # the port steps of that gap are one round-robin run of up to
    # ``bandwidth`` events per cycle, resuming after the last serviced
    # link.  A step that off-loads anything takes a cycle.  Records are
    # read by position: 0 is the cycle and 1 the event.
    cycle = 0
    slot_get = slot_of.get
    append = observed.append
    end = settled = None
    while end is None:
        records = yield settled
        settled = []
        settle = settled.append if drain else held.append
        if type(records) is int:
            # The end mark, whose port step is the final one.  Without
            # ``drain`` the port stops at the workload's end and events
            # still queued stay residual; with it, the final step's budget
            # of at least one event per detected record empties every queue.
            end = records
            records = ((end + (sum(detected) if drain else 0), None),)
        for rec in records:
            k = slot_get(rec[1])
            if k is None:
                continue  # not selected
            at = rec[0]
            if nonempty and cycle < at:  # the port steps of the cycles before ``at``
                budget = left = bandwidth * (at - cycle)
                while nonempty and left:
                    later = nonempty >> (rr_pos + 1)
                    if later:
                        rr_pos += (later & -later).bit_length()
                    else:
                        rr_pos = (nonempty & -nonempty).bit_length() - 1
                    queue = queues[rr_pos]
                    append(queue.popleft())
                    sent[rr_pos] += 1
                    if not queue:
                        nonempty ^= 1 << rr_pos
                    left -= 1
                cycle += (budget - left + bandwidth - 1) // bandwidth
            if k < 0:
                break  # the end
            cycle = at
            # Monitor: enqueue the selected event, drop-newest when full.
            detected[k] += 1
            queue = queues[k]
            if len(queue) < limit[k]:
                queue.append(rec)
                settle(rec)
                nonempty |= 1 << k
                if len(queue) > max_occupancy[k]:
                    max_occupancy[k] = len(queue)
            else:
                drops[k] += 1
        oldest = min([queue[0][0] for queue in queues if queue], default=inf)
        while held and held[0][0] < oldest:
            settled.append(held.popleft())

    # Raises, also under ``python -O``: the counts must add up on each link,
    # in port order, and ``drain`` leaves nothing queued.
    for k, link in enumerate(links):
        if detected[k] != sent[k] + drops[k] + len(queues[k]):
            raise ConservationError(
                f"conservation violated on {link}: detected {detected[k]} != observed "
                f"{sent[k]} + dropped {drops[k]} + residual {len(queues[k])}"
            )
    residual = set(chain(*queues))
    if drain and residual:
        raise ConservationError(f"{len(residual)} events left queued under drain")
    settled += [rec for rec in held if rec not in residual]
    result = SimulationResult(
        (), (), dict(zip(links, drops)), dict(zip(links, max_occupancy)),
        dict(zip(links, detected)), dict(zip(links, map(len, queues))), max(cycle, end),
        obs.selected_events, frozenset(capacity),
    )
    yield result, settled


def run_simulation(
    spec: SystemSpec, workload: WorkloadConfig, obs: ObservabilityConfig, *, drain: bool = True
) -> SimulationResult:
    """Execute the workload and the tracing model; fully deterministic.

    The composition of :func:`run_workload` and :func:`replay_trace`;
    callers that observe one workload under several configurations run
    the workload once and replay it per configuration instead.
    """
    return replay_trace(run_workload(spec, workload), obs, drain=drain)


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
        "observed_events": sum(result.detected.values()) - result.total_drops
        - result.total_residual,
        "detected": dict(sorted(result.detected.items())),
        "drops": dict(sorted(result.drops.items())),
        "residual": dict(sorted(result.residual.items())),
        "max_occupancy": dict(sorted(result.max_occupancy.items())),
    }
