"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  The criteria pin the coverage identities, trend
behavior across queue capacities and observation scopes, the mechanics
of the three selection methods, bookkeeping conservation, byte-level
reproducibility, and loss monotonicity.
"""

from __future__ import annotations

import json
import random
import statistics
import time

import pytest

from flowtrace.coverage import score, score_result
from flowtrace.experiment import ExperimentPlan, run_cell
from flowtrace.flow_model import end_events, enumerate_paths, path_labels, start_events
from flowtrace.selection import (
    SelectionProblem,
    select_cec,
    select_fc_baseline,
    select_fic,
)
from flowtrace.spec_io import parse_system
from flowtrace.tracing_sim import (
    ObservabilityConfig,
    SimulationResult,
    WorkloadConfig,
    run_simulation,
)

from conftest import (
    CPU_WRITE_SPEC,
    brute_force_paths,
    minimal_link_cover_oracle,
    random_selection_problem,
    tag_counts,
)

SEEDS = tuple(range(1, 11))

# Minimum link-cover size of the shipped prototype, computed once offline
# by exhaustive subset enumeration over its 30 candidate links.
PROTOTYPE_MIN_COVER_LINKS = 5

# Simulations executed by this suite, checked globally by criterion 9.
_RESULTS: list[SimulationResult] = []


def announce(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"[{status}] criterion {num:2d}: {name}{suffix}")
    assert ok, f"criterion {num} failed: {name} {detail}"


def run_and_score(
    spec,
    events,
    base_capacity,
    seed,
    scope_ids=None,
    drain=True,
    port_bandwidth=1,
):
    obs = ObservabilityConfig(events, base_capacity, port_bandwidth)
    result = run_simulation(spec, WorkloadConfig(seed=seed), obs, drain=drain)
    _RESULTS.append(result)
    per_flow_n = tag_counts(result.ground_truth)
    if scope_ids is not None:
        per_flow_n = {f: n for f, n in per_flow_n.items() if f in scope_ids}
    return result, score_result(result, spec, per_flow_n)


@pytest.fixture(scope="module")
def proto(prototype):
    return prototype


@pytest.fixture(scope="module")
def proto_problem(prototype):
    return SelectionProblem(
        prototype.flows,
        prototype.topology.event_link_map,
        8 * len(prototype.topology.links),
    )


@pytest.fixture(scope="module")
def baseline_cap8(proto):
    """No selection, capacity 8: the reference observability."""
    return {
        seed: run_and_score(proto, proto.all_events, 8, seed) for seed in SEEDS
    }


def test_c01_full_observability_identity(proto):
    started = time.perf_counter()
    worst = None
    for seed in SEEDS:
        _, report = run_and_score(proto, proto.all_events, 10_000, seed)
        worst = (report.fic, report.cec, report.path_resolved)
        assert report.fic == 1.0 and report.cec == 1.0 and report.path_resolved == 1.0, (
            f"seed {seed}: {worst}"
        )
    elapsed = time.perf_counter() - started
    announce(
        1,
        "full observability gives FIC=CEC=path_resolved=1.000 on 10 seeds",
        elapsed < 30.0,
        f"{elapsed:.1f}s",
    )


def test_c02_path_enumeration_matches_reference(proto):
    spec = parse_system(CPU_WRITE_SPEC)
    flow = spec.flows[0]
    got = enumerate_paths(flow)
    expected = [
        ("t1", "t10"),
        ("t1", "t2", "t3", "t9"),
        ("t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8"),
    ]
    ok = got == expected and got == brute_force_paths(flow)
    announce(2, "CPU-write flow has exactly the three reference paths", ok)


def test_c03_capacity_trend(proto, baseline_cap8):
    started = time.perf_counter()
    medians = {}
    for capacity in (8, 16, 32):
        if capacity == 8:
            reports = [baseline_cap8[s][1] for s in SEEDS]
        else:
            reports = [
                run_and_score(proto, proto.all_events, capacity, s)[1] for s in SEEDS
            ]
        medians[capacity] = (
            statistics.median(r.fic for r in reports),
            statistics.median(r.cec for r in reports),
        )
    elapsed = time.perf_counter() - started
    fic8, cec8 = medians[8]
    fic16, cec16 = medians[16]
    fic32, cec32 = medians[32]
    ok = (
        fic8 < fic16 < fic32
        and cec8 < cec16 < cec32
        and cec32 / cec8 >= 1.5
        and elapsed < 120.0
    )
    announce(
        3,
        "FIC and CEC strictly increase with capacity; CEC gain >= 1.5x",
        ok,
        f"FIC {fic8:.3f}<{fic16:.3f}<{fic32:.3f}, "
        f"CEC {cec8:.3f}<{cec16:.3f}<{cec32:.3f}, "
        f"gain {cec32 / cec8:.2f}x, {elapsed:.1f}s",
    )


def test_c04_scope_trend(proto, baseline_cap8):
    def scoped(initiators):
        flows = proto.flows_of_initiators(initiators)
        ids = {f.id for f in flows}
        events = frozenset(e for f in flows for e in f.events)
        reports = [
            run_and_score(proto, events, 8, s, scope_ids=ids)[1] for s in SEEDS
        ]
        return (
            statistics.median(r.fic for r in reports),
            statistics.median(r.cec for r in reports),
        )

    fic_all = statistics.median(baseline_cap8[s][1].fic for s in SEEDS)
    cec_all = statistics.median(baseline_cap8[s][1].cec for s in SEEDS)
    fic_cpu, cec_cpu = scoped(["CPU0", "CPU1"])
    fic_cpu0, cec_cpu0 = scoped(["CPU0"])
    ok = (
        fic_all <= fic_cpu <= fic_cpu0
        and cec_all <= cec_cpu <= cec_cpu0
        and fic_cpu0 >= 0.99
        and cec_cpu0 >= 0.99
    )
    announce(
        4,
        "narrowing scope never hurts; CPU0 scope reaches 0.99 coverage",
        ok,
        f"FIC {fic_all:.3f}<={fic_cpu:.3f}<={fic_cpu0:.3f}, "
        f"CEC {cec_all:.3f}<={cec_cpu:.3f}<={cec_cpu0:.3f}",
    )


def test_c05_selection_optimality(proto_problem):
    rng = random.Random(987654321)
    mismatches = []
    for trial in range(50):
        problem = random_selection_problem(rng)
        sel = select_fic(problem)
        oracle = minimal_link_cover_oracle(problem)
        if len(sel.links) != oracle:
            mismatches.append((trial, len(sel.links), oracle))
    proto_links = len(select_fic(proto_problem).links)
    ok = not mismatches and proto_links == PROTOTYPE_MIN_COVER_LINKS
    announce(
        5,
        "FIC selection is link-optimal on 50 random problems and the prototype",
        ok,
        f"prototype links {proto_links} (oracle {PROTOTYPE_MIN_COVER_LINKS}), "
        f"mismatches {mismatches}",
    )


def test_c06_sel1_mechanism(proto, proto_problem):
    sel = select_fic(proto_problem)
    has_complete_pair = any(
        start_events(f) <= sel.events and end_events(f) <= sel.events
        for f in proto.flows
    )
    fics, cecs = [], []
    for seed in SEEDS:
        _, report = run_and_score(proto, sel.events, 8, seed)
        fics.append(report.fic)
        cecs.append(report.cec)
    median_fic = statistics.median(fics)
    ok = median_fic >= 0.99 and not has_complete_pair and all(c == 0.0 for c in cecs)
    announce(
        6,
        "FIC selection reaches near-total FIC; without start+end pairs CEC is 0",
        ok,
        f"median FIC {median_fic:.4f}, links {len(sel.links)}, "
        f"complete pair selected: {has_complete_pair}",
    )


def test_c07_sel3_mechanism(proto, proto_problem):
    fc_sel = select_fc_baseline(proto_problem, 16)
    protected = set()
    for f in proto.flows:
        protected |= start_events(f) | end_events(f)
    no_boundary_events = not (fc_sel.events & protected)

    fic_sel = select_fic(proto_problem)
    fc_fics, fc_cecs, fic_fics = [], [], []
    for seed in SEEDS:
        _, fc_report = run_and_score(proto, fc_sel.events, 8, seed)
        _, fic_report = run_and_score(proto, fic_sel.events, 8, seed)
        fc_fics.append(fc_report.fic)
        fc_cecs.append(fc_report.cec)
        fic_fics.append(fic_report.fic)
    dominated = all(a <= b for a, b in zip(fc_fics, fic_fics))
    ok = no_boundary_events and all(c == 0.0 for c in fc_cecs) and dominated
    announce(
        7,
        "FC baseline picks no start/end events, yielding CEC=0 and weaker FIC",
        ok,
        f"median FC FIC {statistics.median(fc_fics):.4f} vs "
        f"FIC-selection {statistics.median(fic_fics):.4f}",
    )


def test_c08_sel2_mechanism(proto, proto_problem, baseline_cap8):
    sel = select_cec(proto_problem)
    mandatory = set()
    for f in proto.flows:
        mandatory |= start_events(f) | end_events(f)
    assert len(mandatory) == 32
    contains_mandatory = mandatory <= sel.events

    distinguishable = not sel.undistinguishable
    for flow in proto.flows:
        projections = [
            tuple(e for e in path_labels(flow, p) if e in sel.events)
            for p in enumerate_paths(flow)
        ]
        if len(set(projections)) != len(projections):
            distinguishable = False

    cecs = [run_and_score(proto, sel.events, 8, s)[1].cec for s in SEEDS]
    cec_sel2 = statistics.median(cecs)
    cec_none = statistics.median(baseline_cap8[s][1].cec for s in SEEDS)
    gain = cec_sel2 / cec_none if cec_none else float("inf")
    ok = contains_mandatory and distinguishable and gain >= 1.8
    announce(
        8,
        "CEC selection keeps all 32 start/end events, separates paths, "
        "and lifts CEC by >= 1.8x",
        ok,
        f"links {len(sel.links)}, CEC {cec_sel2:.3f} vs {cec_none:.3f} "
        f"({gain:.2f}x)",
    )


def test_c09_conservation_and_determinism(proto):
    assert _RESULTS, "earlier criteria must have run simulations"
    conserved = True
    for result in _RESULTS:
        observed_per_link = dict.fromkeys(result.enabled_links, 0)
        for rec in result.observed:
            observed_per_link[rec.link] += 1
        for link in result.enabled_links:
            expected = (
                observed_per_link[link] + result.drops[link] + result.residual[link]
            )
            if result.detected[link] != expected or result.residual[link] != 0:
                conserved = False

    plan = ExperimentPlan(seeds=(1,), capacities=(8,))
    body_a = run_cell(proto, plan, "fic", 8, 1)
    body_b = run_cell(proto, plan, "fic", 8, 1)
    bytes_a = json.dumps(body_a, indent=2, sort_keys=True).encode()
    bytes_b = json.dumps(body_b, indent=2, sort_keys=True).encode()
    identical = bytes_a == bytes_b
    ok = conserved and identical
    announce(
        9,
        "per-link detected = observed + dropped (no residual); cells re-run "
        "byte-identically",
        ok,
        f"{len(_RESULTS)} simulations checked",
    )


def test_c10_loss_monotonicity(proto):
    deletions_total = 0
    ok = True
    for seed in SEEDS[:5]:
        result, _ = run_and_score(proto, proto.all_events, 16, seed)
        per_flow_n = tag_counts(result.ground_truth)
        observed = list(result.observed)
        rng = random.Random(seed * 1_000 + 7)
        report = score(observed, proto, per_flow_n)
        for _ in range(40):
            observed.pop(rng.randrange(len(observed)))
            deletions_total += 1
            nxt = score(observed, proto, per_flow_n)
            if nxt.fic > report.fic or nxt.cec > report.cec:
                ok = False
            report = nxt
    announce(
        10,
        "deleting observed records never increases FIC or CEC",
        ok,
        f"{deletions_total} random deletions across 5 seeds",
    )
