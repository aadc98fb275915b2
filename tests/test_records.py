"""The contract of the package's record types.

Each record is immutable, binds its fields by position in a fixed order,
normalises its inputs and checks them whether it is built by keyword or
by position, and compares by value, except ``GroundTruth`` and
``SelectionProblem``, which compare by identity.
"""

from __future__ import annotations

import dataclasses
import inspect
import re
from types import MappingProxyType, SimpleNamespace

import pytest

from flowtrace.coverage import CoverageReport
from flowtrace.experiment import DEFAULT_SEEDS, ExperimentPlan
from flowtrace.flow_model import (
    Event,
    Finding,
    Flow,
    StateGraph,
    Transition,
    ValidationReport,
)
from flowtrace.selection import Selection, SelectionProblem
from flowtrace.spec_io import Link, SystemSpec, Topology
from flowtrace.tracing_sim import (
    ConfigError,
    GroundTruth,
    ObservabilityConfig,
    SimulationResult,
    WorkloadConfig,
)

REQ, RESP = Event("A", "B", "req"), Event("B", "A", "resp")
T1 = Transition("t1", frozenset({"p0"}), frozenset({"p1"}))
T2 = Transition("t2", frozenset({"p1"}), frozenset({"p2"}))
LINKS = (Link("l1", "A", "B"), Link("l2", "B", "A"))
ELMAP = {REQ: "l1", RESP: "l2"}


def flow(fid: str) -> Flow:
    return Flow(fid, ("p0", "p1", "p2"), (T1, T2), {"t1": REQ, "t2": RESP},
                frozenset({"p0"}), frozenset({"p2"}))


TOPOLOGY = Topology(frozenset({"A", "B"}), LINKS, ELMAP)
SPEC = SystemSpec("s", TOPOLOGY, (flow("f1"), flow("f2")), (("A", frozenset({"f1", "f2"})),))
# GroundTruth's fourth field, the per-flow instance counts, is private to
# the engine and may be renamed; its position is the contract.
INSTANCE_COUNTS = list(inspect.signature(GroundTruth).parameters)[3]


def case(cls, raw, normalised=(), defaults=(), bad=None, equality="value"):
    """``raw``: a valid value per field in today's order; ``normalised``:
    what a field holds when ``raw`` is not its stored form; ``defaults``:
    the fields that may be left out; ``bad``: (field changes, error,
    message); ``equality``: "value", "unhashable" or "identity"."""
    return SimpleNamespace(cls=cls, raw=raw, normalised=dict(normalised),
                           defaults=dict(defaults), bad=bad, equality=equality)


CASES = [
    case(Link, {"id": "l3", "src": "A", "dest": "B", "channel": 2}, defaults={"channel": 0}),
    case(Topology,
         {"components": ["B", "A"], "links": [LINKS[1], LINKS[0]],
          "event_link_map": MappingProxyType(ELMAP)},
         {"components": frozenset({"A", "B"}), "links": LINKS, "event_link_map": ELMAP},
         bad=({"components": ["A", "B", "1x"]}, ValueError,
              "component '1x' is not an ASCII identifier"),
         equality="unhashable"),
    case(SystemSpec,
         {"name": "s", "topology": TOPOLOGY, "flows": [flow("f2"), flow("f1")],
          "initiators": [("A", ["f2", "f1"])]},
         {"flows": (flow("f1"), flow("f2")), "initiators": (("A", frozenset({"f1", "f2"})),)},
         bad=({"name": "bad name"}, ValueError,
              "system name 'bad name' is not an ASCII identifier"),
         equality="unhashable"),
    case(Transition, {"id": "t9", "preset": ["p0"], "postset": ("p1", "p2")},
         {"preset": frozenset({"p0"}), "postset": frozenset({"p1", "p2"})}),
    case(Flow,
         {"id": "f", "places": ["p0", "p1", "p2"], "transitions": [T2, T1],
          "labeling": MappingProxyType({"t1": REQ, "t2": RESP}),
          "initial_marking": ["p0"], "end_marking": ("p2",)},
         {"places": ("p0", "p1", "p2"), "transitions": (T1, T2),
          "labeling": {"t1": REQ, "t2": RESP},
          "initial_marking": frozenset({"p0"}), "end_marking": frozenset({"p2"})},
         equality="unhashable"),
    case(Finding, {"code": "empty net", "detail": "flow declares no places"}),
    case(ValidationReport, {"flow_id": "f", "findings": (Finding("c", "d"),)},
         defaults={"findings": ()}),
    case(StateGraph, {"markings": (frozenset({"p0"}), frozenset({"p1"})),
                      "successors": ((("t1", 1),), ())}),
    case(SelectionProblem,
         {"flows": [flow("f1")], "event_link_map": MappingProxyType(ELMAP),
          "total_queue_budget": 16},
         {"flows": (flow("f1"),), "event_link_map": ELMAP},
         bad=({"total_queue_budget": 0}, ValueError, "total_queue_budget must be positive"),
         equality="identity"),
    case(Selection,
         {"events": [REQ], "links": ["l1"], "rationale": MappingProxyType({REQ: "START"}),
          "undistinguishable": (("f", ("t1",), ("t2",)),)},
         {"events": frozenset({REQ}), "links": frozenset({"l1"}), "rationale": {REQ: "START"}},
         defaults={"rationale": {}, "undistinguishable": ()},
         equality="unhashable"),
    case(WorkloadConfig,
         {"instances_per_initiator": 7, "initiation_delay": [2, 3],
          "transition_latency": [4, 6], "seed": 9},
         {"initiation_delay": (2, 3), "transition_latency": (4, 6)},
         defaults={"instances_per_initiator": 100, "initiation_delay": (1, 10),
                   "transition_latency": (1, 5), "seed": 1},
         bad=({"seed": -1}, ValueError, "seed must be non-negative, got -1")),
    case(ObservabilityConfig,
         {"selected_events": [REQ], "base_capacity": 4, "port_bandwidth": 2},
         {"selected_events": frozenset({REQ})},
         defaults={"port_bandwidth": 1},
         bad=({"base_capacity": 0}, ConfigError, "base_capacity must be positive, got 0")),
    case(GroundTruth,
         {"spec": SPEC, "records": (), "cycles": 3, INSTANCE_COUNTS: {"f1": 2}},
         equality="identity"),
    case(SimulationResult,
         {"ground_truth": (), "observed": (), "drops": {"l1": 1}, "max_occupancy": {"l1": 2},
          "detected": {"l1": 3}, "residual": {"l1": 0}, "cycles": 5,
          "selected_events": frozenset({REQ}), "enabled_links": frozenset({"l1"})},
         equality="unhashable"),
    case(CoverageReport,
         {"fic": 0.5, "cec": 0.25, "observed_instances": 2, "complete_instances": 1,
          "total_instances": 4, "path_resolved": 1.0,
          "per_flow": MappingProxyType({"f1": (2, 1, 4)})},
         {"per_flow": {"f1": (2, 1, 4)}},
         defaults={"per_flow": {}},
         equality="unhashable"),
    case(ExperimentPlan,
         {"spec_source": "s.spec", "scope": "A,B", "selection_method": "cec",
          "capacities": [4, 8], "seeds": [3, 1], "instances_per_initiator": 5,
          "initiation_delay": [2, 2], "transition_latency": [1, 3], "port_bandwidth": 2,
          "drain": False, "out_dir": "out"},
         {"scope": ("A", "B"), "capacities": (4, 8), "seeds": (3, 1),
          "initiation_delay": (2, 2), "transition_latency": (1, 3)},
         defaults={"spec_source": "prototype", "scope": None, "selection_method": "none",
                   "capacities": (8,), "seeds": DEFAULT_SEEDS, "instances_per_initiator": 100,
                   "initiation_delay": (1, 10), "transition_latency": (1, 5),
                   "port_bandwidth": 1, "drain": True, "out_dir": "results"},
         bad=({"capacities": []}, ValueError, "plan needs at least one capacity")),
]


def build(c, positional=False, **changes):
    """The record of ``c.raw`` with ``changes``, by keyword or by position."""
    values = {**c.raw, **changes}
    return c.cls(*values.values()) if positional else c.cls(**values)


@pytest.mark.parametrize("c", CASES, ids=lambda c: c.cls.__name__)
def test_record_contract(c):
    first, second = build(c), build(c, positional=True)
    for record in (first, second):
        for name, value in c.raw.items():
            want = c.normalised.get(name, value)
            assert getattr(record, name) == want, name
            assert type(getattr(record, name)) is type(want), name
            with pytest.raises(AttributeError):
                setattr(record, name, want)
    required = {k: v for k, v in c.raw.items() if k not in c.defaults}
    defaulted = c.cls(**required)
    assert {k: getattr(defaulted, k) for k in c.defaults} == c.defaults
    if c.bad:
        changes, error, message = c.bad
        for positional in (False, True):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                build(c, positional, **changes)
    if c.equality == "identity":
        assert first == first and first != second and not first == second
        assert hash(first) == hash(first) and len({first, second}) == 2
    else:
        assert first == second and not first != second
        if c.equality == "value":
            assert hash(first) == hash(second)
        else:
            with pytest.raises(TypeError):
                hash(first)


def test_dataclasses_replace_rebuilds_a_selection_through_its_constructor():
    """Code written when ``Selection`` was a dataclass keeps working, and
    the rebuilt selection is normalised like any other."""
    sel = Selection(frozenset({REQ, RESP}), frozenset({"l1", "l2"}), {REQ: "r"})
    got = dataclasses.replace(sel, events=[REQ], links=("l1",))
    assert type(got) is Selection
    assert got == (frozenset({REQ}), frozenset({"l1"}), {REQ: "r"}, ())
    assert type(got.events) is type(got.links) is frozenset
