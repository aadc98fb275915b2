"""Reference grid: one seed's cell bodies from a whole ground truth.

Before the grid streamed, ``experiment._seed_bodies`` ran the seed's
workload to a complete ``GroundTruth``, replayed it per cell into a whole
observed trace, and scored that trace after sorting it by cycle.  The
engine, the replay with its conservation check, the cell summary, the
score and the two grid functions are kept here verbatim, so that the
differential tests can require the streamed grid to return identical
cell bodies.
"""

from __future__ import annotations

import heapq
import random
from collections import Counter, deque
from itertools import chain
from math import inf
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, Sequence

from flowtrace.coverage import CoverageReport, reconstruct
from flowtrace.experiment import ExperimentPlan, _CellConfig, method_label, scoped_flows
from flowtrace.flow_model import Event
from flowtrace.spec_io import SystemSpec
from flowtrace.tracing_sim import (
    _CYCLE_BUDGET,
    ConservationError,
    EventRecord,
    GroundTruth,
    InstanceTag,
    Livelock,
    ObservabilityConfig,
    SimulationResult,
    WorkloadConfig,
    _Instance,
    _Step,
    queue_capacities,
)


def run_workload(
    spec: SystemSpec,
    workload: WorkloadConfig,
    *,
    cycle_budget: int = _CYCLE_BUDGET,
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
    schedule.append((inf,))  # an initiation that never comes

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
    ground: list[EventRecord] = []
    record = tuple.__new__  # skips EventRecord's Python-level ``__new__``
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
    next_at = schedule[0][0]  # the next initiation's cycle
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
            _, initiator, seq, flow_id = schedule[sched_pos]
            tag = InstanceTag(flow_id, initiator, seq)
            due.append((sched_pos, _Instance(tag, births[flow_id], cycle)))
            sched_pos += 1
            next_at = schedule[sched_pos][0]

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
                ground.append(record(EventRecord, (cycle, event, link, inst.tag, tid)))
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
    detected = [0] * len(links)
    drops = [0] * len(links)
    max_occupancy = [0] * len(links)
    nonempty = 0  # bit k set while queues[k] holds an event
    rr_pos = len(links) - 1  # controller starts its scan at links[0]
    bandwidth = obs.port_bandwidth
    observed: list[EventRecord] = []
    # The walk ends on an end mark, whose event has slot -1 and whose port
    # step is the final one.  Without ``drain`` the port stops at the
    # workload's end and events still queued stay residual; with it, the
    # final step's budget of at least one event per record empties every
    # queue.
    end = (truth.cycles + (len(truth.records) if drain else 0), None)
    slot_of[None] = -1

    # ``cycle`` is the next cycle whose port step has not run.  A cycle's
    # events are all enqueued before its port step, and the port is idle
    # while the queues are empty.  ``truth.records`` come by cycle, at most
    # one per link and cycle, so no queue depends on the order of records
    # within a cycle.  Nothing is enqueued between two selected
    # records' cycles, so the port steps of that gap are one round-robin
    # run of up to ``bandwidth`` events per cycle, resuming after the last
    # serviced link.  A step that off-loads anything takes a cycle.
    # Records are read by position: 0 is the cycle and 1 the event.
    cycle = 0
    slot_get = slot_of.get
    append = observed.append
    for rec in chain(truth.records, (end,)):
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
            nonempty |= 1 << k
            if len(queue) > max_occupancy[k]:
                max_occupancy[k] = len(queue)
        else:
            drops[k] += 1
    cycle = max(cycle, truth.cycles)

    result = SimulationResult(
        ground_truth=truth.records,
        observed=tuple(observed),
        drops=dict(zip(links, drops)),
        max_occupancy=dict(zip(links, max_occupancy)),
        detected=dict(zip(links, detected)),
        residual=dict(zip(links, map(len, queues))),
        cycles=cycle,
        selected_events=obs.selected_events,
        enabled_links=frozenset(capacity),
    )
    check_conservation(result)
    return result



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


def score(
    observed: Iterable[EventRecord],
    spec: SystemSpec,
    per_flow_n: Mapping[str, int],
    exact: frozenset[Event] | None = None,
) -> CoverageReport:
    """FIC, CEC and path-resolution ratios of an observed trace.

    ``observed`` and ``exact`` are read as by :func:`reconstruct`, which
    also raises the error of a trace that fails, but nothing is built
    per instance.  ``per_flow_n`` is the number of instances each scored
    flow actually executed, taken from the simulator's ground truth (on
    silicon it would come from elsewhere or be fixed across compared
    observabilities); the ratios are over its sum.  Instances of flows
    not in ``per_flow_n`` are not counted.
    """
    observed = tuple(observed)
    walkers: dict[InstanceTag, list] = {}
    for _, event, _, tag, _ in sorted(observed, key=itemgetter(0)):
        walker = walkers.get(tag)
        if walker is None:
            if tag.flow not in spec.flow_by_id:
                reconstruct(observed, spec, exact)  # raises the first failure
            walker = walkers[tag] = [spec.flow_by_id[tag.flow].automaton, 0]
        automaton, state = walker
        # No transition returns to state 0, which has read nothing.
        walker[1] = automaton.table[state].get(event) or automaton.step(state, event)
    finals = Counter(map(tuple, walkers.values()))
    # Only a flow not wholly selected can show a label outside ``exact``.
    failed = exact is not None and not all(
        spec.flow_by_id[a.flow_id].events <= exact for a, _ in finals
    )
    failed = failed and not exact.issuperset(map(itemgetter(1), observed))
    counts = {fid: [0, 0, 0] for fid in per_flow_n}
    for (automaton, state), n in finals.items():
        candidates = automaton.candidates(state, exact)
        failed = failed or not candidates
        if (c := counts.get(automaton.flow_id)) is not None:
            c[0] += n
            if automaton.states[state][2:] == (True, True):  # start and end seen
                c[1] += n
                c[2] += n if len(candidates) == 1 else 0
    if failed:
        reconstruct(observed, spec, exact)  # raises the first failure
        raise AssertionError("a trace that failed to score reconstructs")
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
    """Score a simulation result's trace, exactly if it is loss-free."""
    exact = result.selected_events if result.lossless else None
    return score(result.observed, spec, per_flow_n, exact)


def _cell_body(
    spec: SystemSpec,
    plan: ExperimentPlan,
    cell: _CellConfig,
    truth: GroundTruth,
    totals: dict[str, int],
    seed: int,
) -> dict:
    """Replay one seed's ground truth through one cell's trace hardware;
    ``totals`` holds the executed instances of each in-scope flow."""
    method, capacity, selection, obs = cell
    result = replay_trace(truth, obs, drain=plan.drain)
    report = score_result(result, spec, totals)
    return {
        "method": method_label(method),
        "capacity": capacity,
        "seed": seed,
        "scope": sorted(plan.scope) if plan.scope else "ALL",
        "links": sorted(result.enabled_links),
        "link_count": len(result.enabled_links),
        "selected_events": sorted(str(e) for e in result.selected_events),
        "rationale": {str(e): r for e, r in sorted(selection.rationale.items())},
        "coverage": report.to_json(),
        "lossless": result.lossless,
        **summary_json(result),
    }


def _seed_bodies(
    spec: SystemSpec, plan: ExperimentPlan, cells: Sequence[_CellConfig], seed: int
) -> list[dict]:
    """Every cell's body for one seed, running its workload once; the
    ground truth is released on return."""
    truth = run_workload(spec, plan.workload(seed))
    executed = dict(truth.flow_instances)  # a flow not run counts zero
    totals = {f.id: executed.get(f.id, 0) for f in scoped_flows(spec, plan.scope)}
    return [_cell_body(spec, plan, cell, truth, totals, seed) for cell in cells]


