"""Reference simulator: the workload engine and the trace module fused
into one per-cycle loop.

This is the loop the package ran before the workload engine
(``run_workload``) and the trace-module replay (``replay_trace``) were
split apart; it is kept verbatim so the differential tests can require
``run_simulation`` to return an identical ``SimulationResult``.
"""

from __future__ import annotations

import heapq
import random
from collections import deque

from flowtrace.flow_model import Flow
from flowtrace.spec_io import SystemSpec
from flowtrace.tracing_sim import (
    _CYCLE_BUDGET,
    EventRecord,
    InstanceTag,
    Livelock,
    ObservabilityConfig,
    SimulationResult,
    WorkloadConfig,
    queue_capacities,
)

from conftest import enabled_transitions, fire, initial


class _Instance:
    """Mutable per-instance execution state; internal to the engine."""

    __slots__ = ("tag", "flow", "marking", "birth", "order", "next_transition")

    def __init__(self, tag: InstanceTag, flow: Flow, birth: int, order: int):
        self.tag = tag
        self.flow = flow
        self.marking = initial(flow)
        self.birth = birth
        self.order = order
        self.next_transition: str | None = None


def reference_run_simulation(
    spec: SystemSpec,
    workload: WorkloadConfig,
    obs: ObservabilityConfig,
    *,
    drain: bool = True,
    cycle_budget: int = _CYCLE_BUDGET,
) -> SimulationResult:
    """Execute the workload and the tracing model; fully deterministic.

    Every initiator starts exactly ``instances_per_initiator`` instances,
    each of which runs to its end marking in the ground truth.  With
    ``drain`` enabled (the default) the controller keeps off-loading
    after the last instance completes until all queues are empty, so
    detected events split exactly into observed and dropped; with
    ``drain=False`` events still queued at the end are reported as
    residual instead.
    """
    queue_capacity = queue_capacities(spec, obs)  # checks the selected events
    enabled_links = frozenset(queue_capacity)
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

    queues: dict[str, deque[EventRecord]] = {l: deque() for l in enabled_links}
    rr_order = sorted(enabled_links)
    rr_pos = len(rr_order) - 1  # controller starts its scan at rr_order[0]
    drops = dict.fromkeys(enabled_links, 0)
    detected = dict.fromkeys(enabled_links, 0)
    max_occupancy = dict.fromkeys(enabled_links, 0)
    ground: list[EventRecord] = []
    observed: list[EventRecord] = []

    pending: list[tuple[int, int, _Instance]] = []  # (due, order, instance)
    sched_pos = 0
    order_counter = 0
    cycle = 0
    lat_lo, lat_hi = workload.transition_latency

    def schedule_next(inst: _Instance, now: int) -> None:
        enabled = sorted(enabled_transitions(inst.flow, inst.marking))
        if not enabled:
            return  # reached the end marking
        pick = enabled[0] if len(enabled) == 1 else rng.choice(enabled)
        inst.next_transition = pick
        heapq.heappush(pending, (now + rng.randint(lat_lo, lat_hi), inst.order, inst))

    while True:
        have_work = bool(pending) or sched_pos < len(schedule)
        queued = any(queues.values())
        if not have_work and not (drain and queued):
            break

        # Idle-cycle skip: nothing due and nothing queued to off-load.
        if not queued:
            horizon = []
            if pending:
                horizon.append(pending[0][0])
            if sched_pos < len(schedule):
                horizon.append(schedule[sched_pos][0])
            nxt = min(horizon)
            if nxt > cycle:
                cycle = nxt

        # (1) Fire due transitions, serializing one event per link per cycle.
        link_used: set[str] = set()
        due: list[_Instance] = []
        while pending and pending[0][0] <= cycle:
            due.append(heapq.heappop(pending)[2])
        for inst in due:
            if cycle - inst.birth > cycle_budget:
                raise Livelock(
                    f"instance {inst.tag} still running after {cycle_budget} cycles"
                )
            tid = inst.next_transition
            assert tid is not None
            event = inst.flow.labeling[tid]
            link = elmap[event]
            if link in link_used:
                heapq.heappush(pending, (cycle + 1, inst.order, inst))
                continue
            link_used.add(link)
            record = EventRecord(cycle, event, link, inst.tag, tid)
            ground.append(record)
            # (2) Monitor: enqueue selected events, drop-newest when full.
            if link in queues and event in obs.selected_events:
                detected[link] += 1
                q = queues[link]
                if len(q) < queue_capacity[link]:
                    q.append(record)
                    if len(q) > max_occupancy[link]:
                        max_occupancy[link] = len(q)
                else:
                    drops[link] += 1
            inst.marking = fire(inst.flow, inst.marking, tid)
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

        # (3) Output controller: round-robin off-load.
        budget = obs.port_bandwidth
        while budget > 0 and rr_order:
            for step in range(1, len(rr_order) + 1):
                idx = (rr_pos + step) % len(rr_order)
                q = queues[rr_order[idx]]
                if q:
                    observed.append(q.popleft())
                    rr_pos = idx
                    budget -= 1
                    break
            else:
                break

        cycle += 1

    residual = {l: len(q) for l, q in queues.items()}
    return SimulationResult(
        ground_truth=tuple(ground),
        observed=tuple(observed),
        drops=drops,
        max_occupancy=max_occupancy,
        detected=detected,
        residual=residual,
        cycles=cycle,
        selected_events=obs.selected_events,
        enabled_links=enabled_links,
    )
