"""Spec document parsing, serialization round-trips, and the built-in model."""

from __future__ import annotations

import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from flowtrace import spec_io
from flowtrace.flow_model import Event, Flow, Transition, validate
from flowtrace.spec_io import (
    PROTOTYPE_SPEC,
    Link,
    SpecSemanticError,
    SpecSyntaxError,
    SystemSpec,
    Topology,
    load_prototype,
    parse_system,
)

from conftest import CPU_WRITE_SPEC, make_cpu_write_flow, rebuilt
from reference_spec_io import reference_parse_system


# The canonical serializer: the oracle of the round-trip properties below.


def serialize_system(spec: SystemSpec) -> str:
    """Render a spec back to its canonical document form.

    The output round-trips: ``parse_system(serialize_system(s)) == s``.
    Declarations are emitted in sorted order and set literals are sorted.
    """
    out: list[str] = [f"system {spec.name}", ""]
    out.append("component " + " ".join(sorted(spec.topology.components)))
    out.append("")
    for link in spec.topology.links:
        out.append(f"link {link.id} {link.src} -> {link.dest} channel {link.channel}")
    for flow in spec.flows:
        out.append("")
        out.append(f"flow {flow.id}")
        for p in flow.places:
            marker = ""
            if p in flow.initial_marking:
                marker = " initial"
            elif p in flow.end_marking:
                marker = " end"
            out.append(f"  place {p}{marker}")
        for t in flow.transitions:
            event = flow.labeling[t.id]
            pre = ",".join(sorted(t.preset))
            post = ",".join(sorted(t.postset))
            link_id = spec.topology.event_link_map[event]
            out.append(
                f"  transition {t.id} pre {{{pre}}} post {{{post}}} "
                f"event {event} on {link_id}"
            )
    out.append("")
    for component, fids in spec.initiators:
        out.append(f"initiator {component} flows {{{','.join(sorted(fids))}}}")
    return "\n".join(out) + "\n"


MINIMAL = """\
system tiny
component A B
link ab A -> B
flow ping
  place s0 initial
  place s1 end
  transition t0 pre {s0} post {s1} event A:B:ping on ab
initiator A flows {ping}
"""


class TestParseErrors:
    def test_empty_document(self):
        with pytest.raises(SpecSyntaxError, match="expected 'system' header"):
            parse_system("")

    def test_comment_only_document(self):
        with pytest.raises(SpecSyntaxError, match="expected 'system' header"):
            parse_system("# nothing here\n\n")

    def test_first_line_must_be_system(self):
        err = None
        with pytest.raises(SpecSyntaxError) as exc_info:
            parse_system("component A B\n")
        err = exc_info.value
        assert err.line == 1
        assert "system" in err.message

    def test_unknown_component_is_named(self):
        text = MINIMAL.replace("link ab A -> B", "link ab A -> DSP")
        with pytest.raises(SpecSemanticError, match="DSP"):
            parse_system(text)

    def test_unknown_link(self):
        text = MINIMAL.replace("on ab", "on nowhere")
        with pytest.raises(SpecSemanticError, match="nowhere"):
            parse_system(text)

    def test_event_endpoints_must_match_link(self):
        text = MINIMAL.replace("event A:B:ping", "event B:A:ping")
        with pytest.raises(SpecSemanticError, match="cannot travel"):
            parse_system(text)

    def test_event_cannot_map_to_two_links(self):
        text = """\
system bad
component A B
link ab1 A -> B channel 0
link ab2 A -> B channel 1
flow f
  place s0 initial
  place s1 s2 end
  transition t0 pre {s0} post {s1} event A:B:m on ab1
  transition t1 pre {s1} post {s2} event A:B:m on ab2
"""
        with pytest.raises(SpecSemanticError, match="already mapped"):
            parse_system(text)

    def test_place_outside_flow(self):
        with pytest.raises(SpecSyntaxError, match="outside a flow"):
            parse_system("system x\ncomponent A B\nplace p0 initial\n")

    def test_positioned_error_column(self):
        with pytest.raises(SpecSyntaxError) as exc_info:
            parse_system("system tiny\nlink ab A > B\n")
        assert exc_info.value.line == 2

    def test_cyclic_flow_fails_validation(self):
        text = """\
system cyc
component A B
link ab A -> B
flow loop
  place s0 initial
  place s1 end
  place s2
  transition t0 pre {s0} post {s2} event A:B:m on ab
  transition t1 pre {s2} post {s0} event A:B:m on ab
"""
        with pytest.raises(SpecSemanticError, match="cyclic structure"):
            parse_system(text)

    def test_initiator_must_source_start_event(self):
        text = MINIMAL.replace("initiator A flows {ping}", "initiator B flows {ping}")
        with pytest.raises(SpecSemanticError, match="no start event"):
            parse_system(text)

    def test_non_ascii_component_rejected(self):
        with pytest.raises(SpecSyntaxError):
            parse_system("system x\ncomponent Ω B\n")


def _inserted(line: int, text: str) -> str:
    """``MINIMAL`` with ``text`` inserted as its line number ``line``."""
    lines = MINIMAL.splitlines(keepends=True)
    lines.insert(line - 1, text + "\n")
    return "".join(lines)


# Every semantic error of MINIMAL's entities: (document, line, names in the message).
POSITIONED_ERRORS = {
    "duplicate component": (MINIMAL.replace("component A B", "component A B A"), 2, ["'A'"]),
    "duplicate link id": (_inserted(4, "link ab B -> A"), 4, ["ab"]),
    "link to unknown component": (MINIMAL.replace("A -> B", "A -> DSP"), 3, ["DSP"]),
    "duplicate link channel": (_inserted(4, "link ab2 A -> B"), 4, ["A->B channel 0"]),
    "duplicate flow": (_inserted(8, "flow ping"), 8, ["ping"]),
    "duplicate place": (MINIMAL.replace("place s1 end", "place s0 s1 end"), 6, ["s0"]),
    "duplicate transition": (
        _inserted(8, "  transition t0 pre {s0} post {s1} event A:B:ping on ab"), 8, ["t0"]
    ),
    "undeclared place": (MINIMAL.replace("post {s1}", "post {s9}"), 7, ["s9"]),
    "event with unknown component": (MINIMAL.replace("A:B:ping", "A:DSP:ping"), 7, ["DSP"]),
    "event source is its destination": (MINIMAL.replace("A:B:ping", "A:A:ping"), 7, ["'A'"]),
    "unknown link": (MINIMAL.replace("on ab", "on nowhere"), 7, ["nowhere"]),
    "wrong link endpoints": (MINIMAL.replace("A:B:ping", "B:A:ping"), 7, ["B:A:ping", "ab"]),
    "event mapped to two links": (
        MINIMAL.replace("A -> B\n", "A -> B\nlink ab2 A -> B channel 1\n").replace(
            "on ab\n", "on ab\n  transition t1 pre {s0} post {s1} event A:B:ping on ab2\n"
        ),
        9,
        ["A:B:ping", "ab (line 8)"],
    ),
    "unknown initiator component": (
        MINIMAL.replace("initiator A", "initiator DSP"), 8, ["DSP"]
    ),
    "unknown flow of an initiator": (MINIMAL.replace("{ping}", "{pong}"), 8, ["pong"]),
    "no start event at the initiator": (
        MINIMAL.replace("initiator A", "initiator B"), 8, ["B", "ping"]
    ),
    "duplicate initiator": (_inserted(9, "initiator A flows {ping}"), 9, ["'A'"]),
    "initiator with no flows": (MINIMAL.replace("{ping}", "{}"), 8, ["A", "no flows"]),
}


@pytest.mark.parametrize("case", sorted(POSITIONED_ERRORS))
def test_semantic_error_names_its_line_and_entity(case):
    text, line, names = POSITIONED_ERRORS[case]
    with pytest.raises(SpecSemanticError) as exc_info:
        parse_system(text)
    assert exc_info.value.line == line
    for name in names:
        assert name in exc_info.value.message


def _edit(old: str, new: str) -> str:
    """``MINIMAL`` with its one occurrence of ``old`` replaced by ``new``."""
    assert MINIMAL.count(old) == 1, old
    return MINIMAL.replace(old, new)


# Every raise site of SpecSyntaxError: (document, line, column, message).
# An error at the end of a line has the column after its last character,
# comments and trailing blanks included; a bad character fails its line
# before any grammar error does.
SYNTAX_ERRORS = {
    "unexpected character": (
        _edit("component A B", "component A $B"), 2, 13, "unexpected character '$'"
    ),
    "unexpected non-ASCII character": (
        _edit("component A B", "component A Ω"), 2, 13, "unexpected character 'Ω'"
    ),
    "unexpected character before a grammar error": (
        _edit("A -> B", "A B ="), 3, 13, "unexpected character '='"
    ),
    "declaration keyword": (_inserted(2, "  {A}"), 2, 3, "expected a declaration keyword"),
    "system name": ("system\n", 1, 7, "expected system name"),
    "component id": (_edit("component A B", "component A ->"), 2, 13, "expected component id"),
    "link id": (_edit("link ab", "link 7"), 3, 6, "expected link id"),
    "source component": (_edit("link ab A", "link ab :"), 3, 9, "expected source component"),
    "arrow": (_edit("A -> B", "A B"), 3, 11, "expected '->'"),
    "destination component": (
        _edit("A -> B", "A ->   # none"), 3, 22, "expected destination component"
    ),
    "channel keyword": (_edit("A -> B", "A -> B chan 1"), 3, 16, "expected 'channel'"),
    "channel number": (_edit("A -> B", "A -> B channel x"), 3, 24, "expected channel number"),
    "flow id": (_edit("flow ping", "flow {ping}"), 4, 6, "expected flow id"),
    "place id": (_edit("place s1 end", "place s1 end 3"), 6, 16, "expected place id"),
    "at least one place id": (
        _edit("place s1 end", "place"), 6, 8, "expected at least one place id"
    ),
    "transition id": (_edit("transition t0", "transition :"), 7, 14, "expected transition id"),
    "pre keyword": (_edit(" pre ", " post "), 7, 17, "expected 'pre'"),
    "opening brace": (_edit("pre {s0}", "pre s0"), 7, 21, "expected '{' opening preset"),
    "comma or closing brace": (
        _edit("pre {s0}", "pre {s0 s1}"), 7, 25, "expected ',' or '}' in preset"
    ),
    "identifier in set": (_edit("pre {s0}", "pre {s0,}"), 7, 25, "expected identifier in preset"),
    "post keyword": (_edit(" post ", " pre "), 7, 26, "expected 'post'"),
    "event keyword": (_edit(" event ", " on "), 7, 36, "expected 'event'"),
    "event source": (_edit("event A:", "event :"), 7, 42, "expected event source"),
    "colon": (_edit("A:B:ping", "A:B ping"), 7, 46, "expected ':'"),
    "event destination": (_edit("A:B:", "A::"), 7, 44, "expected event destination"),
    "event command": (_edit("B:ping", "B:,"), 7, 46, "expected event command"),
    "on keyword": (_edit(" on ab", " at ab"), 7, 51, "expected 'on'"),
    "event link id": (_edit(" on ab", " on"), 7, 53, "expected link id"),
    "initiator component": (
        _edit("initiator A", "initiator {A}"), 8, 11, "expected initiator component"
    ),
    "flows keyword": (_edit(" flows ", " flow "), 8, 13, "expected 'flows'"),
    "flow set": (_edit("{ping}", "ping"), 8, 19, "expected '{' opening flow set"),
    "unterminated set": (_edit("{ping}", "{ping  "), 8, 26, "unterminated flow set"),
    "unterminated empty set": (_edit("{ping}", "{  # none"), 8, 28, "unterminated flow set"),
    "trailing input": (_edit("flow ping", "flow ping pong"), 4, 11, "unexpected trailing input"),
    "trailing input after a transition": (
        _edit("on ab", "on ab,"), 7, 56, "unexpected trailing input"
    ),
    "marker without a place id": (
        _edit("place s1 end", "place end s1"), 6, 13, "marker without a preceding place id"
    ),
    "place outside a flow": (_inserted(4, "place p0"), 4, 1, "'place' outside a flow block"),
    "transition outside a flow": (
        _inserted(4, MINIMAL.splitlines()[6]), 4, 3, "'transition' outside a flow block"
    ),
    "empty document": ("", 1, 1, "expected 'system' header"),
    "comment-only document": ("# nothing\n   \n", 1, 1, "expected 'system' header"),
    "missing system header": ("\n  component A B\n", 2, 3, "expected 'system' header"),
    "duplicate system header": (_inserted(3, " system tiny"), 3, 2, "duplicate 'system' header"),
    "unknown declaration": (_inserted(3, "\tchannel ab 1"), 3, 2, "unknown declaration 'channel'"),
}


@pytest.mark.parametrize("case", sorted(SYNTAX_ERRORS))
def test_syntax_error_position_and_message(case):
    text, line, column, message = SYNTAX_ERRORS[case]
    with pytest.raises(SpecSyntaxError) as exc_info:
        parse_system(text)
    err = exc_info.value
    assert type(err) is SpecSyntaxError
    assert (err.line, err.column, err.message) == (line, column, message)
    assert str(err) == f"line {line}, column {column}: {message}"



# Characters at which ``str.splitlines`` ends a line but a spec does not.
NOT_LINE_ENDS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}")
def test_only_line_feeds_and_returns_end_a_line(char):
    """A comment holding one of these characters stays one line, the
    character is whitespace between words, and a later error names its
    true line."""
    text = _inserted(3, f"# comment{char}with separator")
    assert parse_system(text) == parse_system(MINIMAL)
    assert parse_system(text.replace("A B", f"A{char}B", 1)) == parse_system(MINIMAL)
    with pytest.raises(SpecSyntaxError) as exc_info:
        parse_system(text + "bogus\n")
    assert str(exc_info.value) == "line 10, column 1: unknown declaration 'bogus'"


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_carriage_returns_end_a_line(end):
    text = _inserted(3, "# comment") + "bogus\n"
    with pytest.raises(SpecSyntaxError) as exc_info:
        parse_system(text.replace("\n", end))
    assert str(exc_info.value) == "line 10, column 1: unknown declaration 'bogus'"
    assert parse_system(MINIMAL.replace("\n", end)) == parse_system(MINIMAL)

def _flow(flow_id: str = "ping") -> Flow:
    return Flow(
        id=flow_id,
        places=("s0", "s1"),
        transitions=(Transition("t0", frozenset({"s0"}), frozenset({"s1"})),),
        labeling={"t0": Event("A", "B", "ping")},
        initial_marking=frozenset({"s0"}),
        end_marking=frozenset({"s1"}),
    )


def _topology(links=(Link("ab", "A", "B"),), event_link_map=None) -> Topology:
    if event_link_map is None:
        event_link_map = {Event("A", "B", "ping"): "ab"}
    return Topology(frozenset({"A", "B", "C"}), links, event_link_map)


def _spec(flows=None, initiators=(("A", frozenset({"ping"})),)) -> SystemSpec:
    return SystemSpec("tiny", _topology(), flows or (_flow(),), initiators)


# Each rule the parser shares with the constructors: (build, names in the message).
CONSTRUCTION_ERRORS = {
    "link to unknown component": (
        lambda: _topology(links=(Link("ab", "A", "DSP"),)), ["DSP"]
    ),
    "duplicate link id": (
        lambda: _topology(links=(Link("ab", "A", "B"), Link("ab", "B", "A"))), ["ab"]
    ),
    "duplicate link channel": (
        lambda: _topology(links=(Link("ab", "A", "B"), Link("ab2", "A", "B"))),
        ["A->B channel 0"],
    ),
    "event on unknown link": (
        lambda: _topology(event_link_map={Event("A", "B", "m"): "nowhere"}),
        ["A:B:m", "nowhere"],
    ),
    "event on a link with other endpoints": (
        lambda: _topology(event_link_map={Event("A", "C", "m"): "ab"}),
        ["A:C:m", "ab"],
    ),
    "event source is its destination": (lambda: Event("A", "A", "m"), ["'A'"]),
    "duplicate flow": (lambda: _spec(flows=(_flow(), _flow())), ["ping"]),
    "unknown initiator component": (
        lambda: _spec(initiators=(("DSP", frozenset({"ping"})),)), ["DSP"]
    ),
    "unknown flow of an initiator": (
        lambda: _spec(initiators=(("A", frozenset({"pong"})),)), ["pong"]
    ),
    "no start event at the initiator": (
        lambda: _spec(initiators=(("B", frozenset({"ping"})),)), ["B", "ping"]
    ),
    "duplicate initiator": (
        lambda: _spec(initiators=(("A", frozenset({"ping"})), ("A", frozenset()))),
        ["'A'"],
    ),
    "initiator with no flows": (
        lambda: _spec(initiators=(("A", frozenset()),)), ["A", "no flows"]
    ),
    "event with no link mapping": (
        lambda: SystemSpec(
            "tiny", _topology(event_link_map={}), (_flow(),), (("A", frozenset({"ping"})),)
        ),
        ["flow ping: event A:B:ping has no link mapping"],
    ),
}


class TestConstruction:
    @pytest.mark.parametrize("case", sorted(CONSTRUCTION_ERRORS))
    def test_shared_rule_names_its_entity(self, case):
        build, names = CONSTRUCTION_ERRORS[case]
        with pytest.raises(ValueError) as exc_info:
            build()
        for name in names:
            assert name in str(exc_info.value)

    @pytest.mark.parametrize(
        "build, field, value",
        [
            (_flow, "id", "pong"),
            (_flow, "places", ("s0", "s1", "s2")),
            (_flow, "transitions", ()),
            (_flow, "labeling", {}),
            (_flow, "initial_marking", frozenset({"s1"})),
            (_flow, "end_marking", frozenset({"s0"})),
            (_topology, "components", frozenset({"A", "B"})),
            (_topology, "links", (Link("ab", "A", "B"), Link("ba", "B", "A"))),
            (_topology, "event_link_map", {}),
            (_spec, "name", "other"),
            (_spec, "topology", _topology(links=(Link("ab", "A", "B"), Link("ba", "B", "A")))),
            (_spec, "flows", (_flow(), _flow("pong"))),
            (_spec, "initiators", ()),
        ],
    )
    def test_values_differing_in_one_field_are_unequal(self, build, field, value):
        original = build()
        assert rebuilt(original, **{field: value}) != original
        assert original == build()

    def test_unicode_component_rejected_at_construction(self):
        with pytest.raises(ValueError, match="identifier"):
            Topology(
                components=frozenset({"Ωmega", "B"}),
                links=(Link("ab", "Ωmega", "B"),),
                event_link_map={},
            )

    def test_duplicate_channel_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Topology(
                components=frozenset({"A", "B"}),
                links=(Link("x", "A", "B", 0), Link("y", "A", "B", 0)),
                event_link_map={},
            )

    def test_event_map_endpoints_checked(self):
        with pytest.raises(ValueError, match="mapped to link"):
            Topology(
                components=frozenset({"A", "B", "C"}),
                links=(Link("ab", "A", "B"),),
                event_link_map={Event("A", "C", "m"): "ab"},
            )


# Checks that name one offender among several in a set: (the program,
# printing the message or findings).  A set's iteration order follows the
# hash seed, so each check must pick its offender in sorted order.
HASH_SEED_CASES = {
    "component identifiers": """
from flowtrace.spec_io import Topology
try:
    Topology(frozenset({"a-1", "b-2", "c-3", "d-4", "e-5"}), (), {})
except ValueError as exc:
    print(exc)
""",
    "unmapped events": """
from flowtrace.flow_model import Event, Flow, Transition
from flowtrace.spec_io import Link, SystemSpec, Topology
flow = Flow(
    id="f",
    places=tuple(f"p{i}" for i in range(6)),
    transitions=tuple(Transition(f"t{i}", {f"p{i}"}, {f"p{i + 1}"}) for i in range(5)),
    labeling={f"t{i}": Event("A", "B", cmd) for i, cmd in enumerate("vwxyz")},
    initial_marking=frozenset({"p0"}),
    end_marking=frozenset({"p5"}),
)
try:
    SystemSpec("s", Topology(frozenset({"A", "B"}), (Link("ab", "A", "B"),), {}), (flow,), ())
except ValueError as exc:
    print(exc)
""",
    "unknown places": """
from flowtrace.flow_model import Event, Flow, Transition, validate
flow = Flow(
    id="f",
    places=("p0", "p1"),
    transitions=(Transition("t0", {"p0", "u", "v", "w"}, {"p1", "x", "y", "z"}),),
    labeling={"t0": Event("A", "B", "go")},
    initial_marking=frozenset({"p0"}),
    end_marking=frozenset({"p1"}),
)
for finding in validate(flow).findings:
    print(finding)
""",
}


@pytest.mark.parametrize("case", sorted(HASH_SEED_CASES))
def test_error_messages_do_not_depend_on_the_hash_seed(case):
    src = str(Path(spec_io.__file__).parent.parent)

    def output(hash_seed: str) -> str:
        return subprocess.run(
            [sys.executable, "-c", HASH_SEED_CASES[case]],
            check=True, capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed),
        ).stdout

    first = output("1")
    assert first
    assert output("2") == first


class TestRoundTrip:
    def test_minimal_round_trip(self):
        spec = parse_system(MINIMAL)
        text = serialize_system(spec)
        assert parse_system(text) == spec

    def test_serialized_form_is_canonical(self):
        spec = parse_system(MINIMAL)
        text = serialize_system(spec)
        assert text == serialize_system(parse_system(text))
        assert text.startswith("system tiny\n")
        assert "link ab A -> B channel 0" in text

    def test_prototype_round_trip(self, prototype):
        assert parse_system(serialize_system(prototype)) == prototype

    def test_cpu_write_round_trip(self):
        spec = parse_system(CPU_WRITE_SPEC)
        assert parse_system(serialize_system(spec)) == spec


class TestCpuWriteDocument:
    def test_shape(self):
        spec = parse_system(CPU_WRITE_SPEC)
        assert len(spec.flows) == 1
        flow = spec.flows[0]
        assert len(flow.places) == 9
        assert len(flow.transitions) == 10

    def test_matches_reference_construction(self):
        flow = parse_system(CPU_WRITE_SPEC).flows[0]
        reference = make_cpu_write_flow()
        assert flow.places == reference.places
        assert flow.transitions == reference.transitions
        assert flow.labeling == reference.labeling
        assert flow.initial_marking == reference.initial_marking
        assert flow.end_marking == reference.end_marking


def _renamed(flow: Flow, mapping: dict[str, str], flow_id: str) -> Flow:
    def rename_event(e: Event) -> Event:
        return Event(
            mapping.get(e.src, e.src), mapping.get(e.dest, e.dest), e.cmd
        )

    return Flow(
        id=flow_id,
        places=flow.places,
        transitions=flow.transitions,
        labeling={tid: rename_event(e) for tid, e in flow.labeling.items()},
        initial_marking=flow.initial_marking,
        end_marking=flow.end_marking,
    )


class TestPrototype:
    def test_sixteen_flows(self, prototype):
        assert len(prototype.flows) == 16

    def test_thirty_two_links(self, prototype):
        assert len(prototype.topology.links) == 32

    def test_five_initiators(self, prototype):
        assert len(prototype.initiators) == 5
        assert {c for c, _ in prototype.initiators} == {
            "CPU0",
            "CPU1",
            "GFX",
            "PMU",
            "Audio",
        }

    def test_all_flows_validate(self, prototype):
        for flow in prototype.flows:
            assert validate(flow).ok, flow.id

    def test_deterministic(self):
        assert load_prototype() == load_prototype()

    def test_text_is_the_package_document(self):
        path = Path(spec_io.__file__).with_name("prototype.spec")
        assert PROTOTYPE_SPEC == path.read_text(encoding="utf-8")

    def test_declarations_are_pinned(self):
        """Comments in the document may change; its declaration lines, and
        the blank lines between them, may not."""
        body = [
            line for line in PROTOTYPE_SPEC.splitlines()
            if not line.lstrip().startswith("#")
        ]
        digest = hashlib.sha256(("\n".join(body) + "\n").encode()).hexdigest()
        assert digest == "f136650b4b0a5bf1734fee1440817c9f73d28598451a018995065493aa66c7ce"

    def test_canonical_form_is_pinned(self, prototype):
        digest = hashlib.sha256(serialize_system(prototype).encode()).hexdigest()
        assert digest == "7c649fa810f429771b10e788d0868a4879a3a794ff20f2d080d44613e94dff93"

    def test_coherent_writes_are_cpu_write_under_renaming(self, prototype):
        reference = make_cpu_write_flow()
        for cpu, peer in (("0", "1"), ("1", "0")):
            expected = _renamed(
                reference,
                {
                    "CPU_X": f"CPU{cpu}",
                    "Cache_X": f"Cache{cpu}",
                    "Cache_Y": f"Cache{peer}",
                },
                f"coh_wr_{cpu}",
            )
            got = prototype.flow_by_id[f"coh_wr_{cpu}"]
            assert got.places == expected.places
            assert got.transitions == expected.transitions
            assert got.labeling == expected.labeling
            assert got.initial_marking == expected.initial_marking
            assert got.end_marking == expected.end_marking

    def test_every_event_maps_to_exactly_one_link(self, prototype):
        for event in prototype.all_events:
            assert event in prototype.topology.event_link_map

    def test_multiple_links_between_same_pair(self, prototype):
        pairs = {}
        for link in prototype.topology.links:
            pairs.setdefault((link.src, link.dest), []).append(link)
        assert any(len(ls) > 1 for ls in pairs.values())

    def test_start_and_end_events_are_unique_per_flow(self, prototype):
        from flowtrace.flow_model import end_events, start_events

        starts: list[Event] = []
        ends: list[Event] = []
        for flow in prototype.flows:
            s, e = start_events(flow), end_events(flow)
            assert len(s) == 1, flow.id
            assert len(e) == 1, flow.id
            starts += list(s)
            ends += list(e)
        assert len(set(starts)) == 16
        assert len(set(ends)) == 16
        assert not set(starts) & set(ends)


# ---------------------------------------------------------------------------
# Round-trip property over generated specs.


@st.composite
def random_specs(draw) -> SystemSpec:
    components = ["A", "B", "C", "D"]
    n_links = draw(st.integers(2, 6))
    links = []
    used = set()
    for i in range(n_links):
        src = draw(st.sampled_from(components))
        dest = draw(st.sampled_from([c for c in components if c != src]))
        channel = 0
        while (src, dest, channel) in used:
            channel += 1
        used.add((src, dest, channel))
        links.append(Link(f"l{i}", src, dest, channel))

    event_link: dict[Event, str] = {}
    flows = []
    n_flows = draw(st.integers(1, 4))
    for fi in range(n_flows):
        length = draw(st.integers(1, 4))
        places = [f"p{fi}_{i}" for i in range(length + 1)]
        transitions = []
        labeling = {}
        for i in range(length):
            link = draw(st.sampled_from(links))
            cmd = draw(st.sampled_from(["m0", "m1"]))
            event = Event(link.src, link.dest, cmd)
            if event in event_link and event_link[event] != link.id:
                event = Event(link.src, link.dest, f"m{link.id}")
            event_link.setdefault(event, link.id)
            tid = f"f{fi}_t{i}"
            transitions.append(
                Transition(tid, frozenset({places[i]}), frozenset({places[i + 1]}))
            )
            labeling[tid] = event
        flows.append(
            Flow(
                id=f"flow{fi}",
                places=tuple(places),
                transitions=tuple(transitions),
                labeling=labeling,
                initial_marking=frozenset({places[0]}),
                end_marking=frozenset({places[-1]}),
            )
        )
    initiators = []
    for flow in flows:
        first = flow.labeling[sorted(flow.labeling)[0]]
        initiators.append((first.src, frozenset({flow.id})))
    merged: dict[str, set[str]] = {}
    for c, fids in initiators:
        merged.setdefault(c, set()).update(fids)
    return SystemSpec(
        name="generated",
        topology=Topology(frozenset(components), tuple(links), event_link),
        flows=tuple(flows),
        initiators=tuple((c, frozenset(f)) for c, f in merged.items()),
    )


@given(random_specs())
@settings(max_examples=40, deadline=None)
def test_round_trip_on_generated_specs(spec):
    assert parse_system(serialize_system(spec)) == spec


_PROTOTYPE = load_prototype()


def test_repeated_initiator_rejected_with_the_parsers_message():
    first = _PROTOTYPE.initiators[0]
    with pytest.raises(ValueError, match="^duplicate initiator 'Audio'$"):
        rebuilt(_PROTOTYPE, initiators=_PROTOTYPE.initiators + (first,))


@given(st.lists(st.sampled_from(_PROTOTYPE.initiators), max_size=7))
@settings(max_examples=40, deadline=None)
def test_round_trip_on_replaced_prototypes(initiators):
    """A spec rebuilt with other initiators either fails to build or
    survives the round trip."""
    try:
        spec = rebuilt(_PROTOTYPE, initiators=tuple(initiators))
    except ValueError as exc:
        names = [component for component, _ in initiators]
        repeated = min(c for c in names if names.count(c) > 1)
        assert str(exc) == f"duplicate initiator {repeated!r}"
        return
    assert parse_system(serialize_system(spec)) == spec


_PROTOTYPE_LINES = PROTOTYPE_SPEC.splitlines()
_SPEC_WORDS = sorted(set(PROTOTYPE_SPEC.split())) + [
    "", "{", "}", "{}", "->", ":", "::", ",", "#", "-1", "\t", "\u00e9",
]


@st.composite
def mutated_prototypes(draw) -> str:
    """The prototype text with a few lines dropped, copied, moved or edited."""
    lines = list(_PROTOTYPE_LINES)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(["drop", "copy", "move", "edit"]))
        if op == "drop":
            del lines[i]
        elif op in ("copy", "move"):
            line = lines[i] if op == "copy" else lines.pop(i)
            lines.insert(draw(st.integers(0, len(lines))), line)
        else:
            words = lines[i].split(" ")
            k = draw(st.integers(0, len(words) - 1))
            words[k] = draw(st.sampled_from(_SPEC_WORDS) | st.text(max_size=4))
            lines[i] = " ".join(words)
    return "\n".join(lines) + "\n"


@given(mutated_prototypes())
@settings(max_examples=60, deadline=None)
def test_mutated_prototype_raises_only_spec_errors(text):
    try:
        parse_system(text)
    except SpecSyntaxError:
        pass
    except SpecSemanticError as exc:
        assert exc.line is not None and 1 <= exc.line <= len(text.splitlines())


# ---------------------------------------------------------------------------
# The grammar table against the cursor walk.

_BLANKS = [" ", "\t", "\v", "\u2028"]
_COMMENTS = ["#", " # note", "\t#{p1}: -> ,", "# \u00e9\f"]


def _respaced(text: str, rng: random.Random) -> str:
    """``text`` with each line's blanks changed: each space made a run of
    other whitespace, the spaces around punctuation dropped, a comment
    added at the end, or any mix of these."""
    lines = []
    for line in text.split("\n"):
        if rng.random() < 0.5:
            line = re.sub(r" *([{},:]|->) *", r"\1", line)
        if rng.random() < 0.5:
            line = re.sub(" ", lambda _: "".join(rng.choices(_BLANKS, k=rng.randint(1, 3))), line)
        if rng.random() < 0.5:
            line += rng.choice(_COMMENTS)
        lines.append(line)
    return "\n".join(lines)


def respaced(documents: st.SearchStrategy[str]) -> st.SearchStrategy[str]:
    return st.builds(_respaced, documents, st.randoms(use_true_random=True))


_WELL_FORMED = st.one_of(st.just(PROTOTYPE_SPEC), random_specs().map(serialize_system))
_DOCUMENTS = st.one_of(_WELL_FORMED, mutated_prototypes())


def _outcome(parse, text: str):
    """The spec ``parse`` reads from ``text``, or what it raises."""
    try:
        return parse(text)
    except Exception as exc:  # any difference between the parsers counts
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


@given(st.one_of(_DOCUMENTS, respaced(_DOCUMENTS)))
@settings(max_examples=200, deadline=None)
def test_parse_matches_the_cursor_walk(text):
    assert _outcome(parse_system, text) == _outcome(reference_parse_system, text)


def test_joined_words_and_foreign_digits_read_as_the_cursor_reads_them():
    """Each edit that makes two words one, or an ASCII digit a non-ASCII
    one, in a document with every declaration form."""
    text = MINIMAL.replace("A -> B", "A -> B channel 7")
    edits = [
        text[: m.start()] + new + text[m.end() :]
        for pattern, new in ((r"(?<=\w) (?=\w)", ""), (r"[0-9]", "\u0663"))
        for m in re.finditer(pattern, text)
    ]
    assert len(edits) == 25
    for edit in edits:
        assert _outcome(parse_system, edit) == _outcome(reference_parse_system, edit), edit


_KINDS = ("system", "component", "link", "flow", "place", "transition", "initiator")


@given(respaced(_WELL_FORMED))
@settings(max_examples=40, deadline=None)
def test_declaration_lines_skip_the_error_path(text):
    """Every declaration line of a well-formed document, of each of the
    seven kinds, is read by its line pattern alone: none reaches
    ``_SpecReader.reject``, the path that diagnoses a rejected line."""
    rejected: list[str] = []
    reject = spec_io._SpecReader.reject

    def counting_reject(self, raw: str, line_no: int):
        rejected.append(raw)
        return reject(self, raw, line_no)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spec_io._SpecReader, "reject", counting_reject)
        parse_system(text)
    heads = {m[1] for m in re.finditer(r"^\s*([a-z]+)", text, re.MULTILINE)}
    assert heads >= set(_KINDS)
    assert rejected == []


# Tokens of one line: every keyword and marker, MINIMAL's ids, each kind of
# punctuation, a number with and without leading zeros, characters no token
# holds, a comment, and pieces glued without blanks.
_LINE_TOKENS = [
    *_KINDS, "pre", "post", "event", "on", "channel", "flows", "initial", "end",
    "tiny", "A", "B", "ab", "ping", "s0", "s1", "t0",
    "{", "}", ",", ":", "->", "-", ">", "7", "007",
    "$", "\u03a9", "\u0663", "# c",
    "pre{s0}", "post{s1}", "{s0}", "{s0,s1}", "{}", "{s0,", "A:B:ping", "A->B",
]
# A well-formed line of each kind, as tokens of _LINE_TOKENS.
_LINE_SHAPES = [
    ["system", "tiny"],
    ["component", "A", "B"],
    ["link", "ab", "A", "->", "B", "channel", "007"],
    ["flow", "ping"],
    ["place", "s0", "initial", "s1", "end"],
    ["transition", "t0", "pre", "{s0}", "post", "{", "s1", "}", "event", "A", ":", "B", ":",
     "ping", "on", "ab"],
    ["initiator", "A", "flows", "{", "ping", "}"],
]


@st.composite
def declaration_lines(draw) -> str:
    """A line of 1-16 tokens: drawn at random, or a well-formed line with
    up to three tokens dropped, inserted or replaced."""
    token = st.sampled_from(_LINE_TOKENS)
    tokens = list(draw(st.sampled_from(_LINE_SHAPES) | st.lists(token, min_size=1, max_size=16)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["drop", "insert", "replace"]))
        if edit == "insert":
            tokens.insert(i, draw(token))
        elif edit == "replace":
            tokens[i] = draw(token)
        elif len(tokens) > 1:
            del tokens[i]
    blanks = st.sampled_from(["", " ", "\t", "\v"])
    return "".join(draw(blanks) + token for token in tokens[:16])


@given(declaration_lines(), st.integers(1, MINIMAL.count("\n") + 1))
@settings(max_examples=500, deadline=None)
def test_each_line_reads_as_the_cursor_reads_it(line, at):
    """One line of 1-16 tokens inserted anywhere in ``MINIMAL``: both
    parsers read the same spec or raise the same error at the same place,
    which reaches the set, marker and outside-a-flow errors that whole
    documents rarely do."""
    text = _inserted(at, line)
    assert _outcome(parse_system, text) == _outcome(reference_parse_system, text)


def test_every_one_token_edit_of_a_line_reads_as_the_cursor_reads_it():
    """Each well-formed line with one token dropped, replaced, inserted or
    glued to the next one, placed before ``MINIMAL``'s header, after it,
    and at the end of its flow, where a place or transition repeats one."""
    lines = set()
    for shape in _LINE_SHAPES:
        for i in range(len(shape) + 1):
            head, tail = shape[:i], shape[i:]
            lines.add(" ".join(head) + " ".join(tail))
            lines.add(" ".join(head + tail[1:]))
            for token in _LINE_TOKENS:
                lines.add(" ".join(head + [token] + tail))
                lines.add(" ".join(head + [token] + tail[1:]))
    for line in sorted(lines):
        for at in (1, 2, 8):
            text = _inserted(at, line)
            assert _outcome(parse_system, text) == _outcome(reference_parse_system, text), text


def test_channel_number_drops_its_leading_zeros():
    """4,400 zeros are more digits than ``int`` converts from a string."""
    text = _edit("A -> B", "A -> B channel " + "0" * 4400 + "7")
    assert parse_system(text).topology.links == (Link("ab", "A", "B", 7),)


def test_channel_number_past_the_digit_limit_is_a_syntax_error():
    text = _edit("A -> B", "A -> B channel " + "9" * 5000)
    with pytest.raises(SpecSyntaxError) as exc_info:
        parse_system(text)
    err = exc_info.value
    assert (err.line, err.column, err.message) == (3, 24, "channel number too large")


# ---------------------------------------------------------------------------
# Each rule is checked once, at the line that declares it.


def _constructed(spec: SystemSpec) -> SystemSpec:
    """``spec`` rebuilt through the checking constructors."""
    return SystemSpec(spec.name, Topology(*spec.topology), spec.flows, spec.initiators)


def test_parse_checks_no_identifier_again(monkeypatch):
    """The grammar reads only ASCII identifiers, so the parsed spec is
    built without the constructors' identifier checks; a spec built in
    Python still runs them."""
    calls = []
    check_ident = spec_io._check_ident

    def counting(name: str, what: str) -> str:
        calls.append(name)
        return check_ident(name, what)

    monkeypatch.setattr(spec_io, "_check_ident", counting)
    spec = parse_system(PROTOTYPE_SPEC)
    assert calls == []
    _constructed(spec)
    assert calls


def test_parsed_prototype_is_what_the_constructors_build():
    spec = parse_system(PROTOTYPE_SPEC)
    assert (type(spec), type(spec.topology)) == (SystemSpec, Topology)
    assert _constructed(spec) == spec


@given(random_specs())
@settings(max_examples=40, deadline=None)
def test_parsed_generated_specs_are_what_the_constructors_build(spec):
    """The parser normalises as the constructors do: links and flows by
    id, initiators sorted."""
    parsed = parse_system(serialize_system(spec))
    assert _constructed(parsed) == parsed == spec


_REUSED_EVENT = """\
system reuse
component A B C
link ab A -> B
link ab2 A -> B channel 1
link cb C -> B
flow f
  place s0 initial
  place s1 s2 s3 end
  transition t0 pre {s0} post {s1} event A:B:m on ab
  transition t1 pre {s1} post {s2} event A:B:m on ab
  transition t2 pre {s2} post {s3} event A:B:m on LINK
initiator A flows {f}
"""


@pytest.mark.parametrize(
    "link, message",
    [
        ("ab", None),
        ("nowhere", "line 11: event A:B:m mapped to unknown link 'nowhere'"),
        ("cb", "line 11: event A:B:m is mapped to link cb but cannot travel on it: cb joins C->B"),
        ("ab2", "line 11: event A:B:m already mapped to link ab (line 9)"),
    ],
)
def test_an_event_is_checked_again_on_each_new_link(link, message):
    """A third use of an event, after two on link ``ab``: on ``ab`` it is
    read; on any other link it gets the checks of a first use, in their
    order."""
    text = _REUSED_EVENT.replace("LINK", link)
    assert _outcome(parse_system, text) == _outcome(reference_parse_system, text)
    if message is None:
        assert parse_system(text).topology.event_link_map == {Event("A", "B", "m"): "ab"}
    else:
        with pytest.raises(SpecSemanticError) as exc_info:
            parse_system(text)
        assert str(exc_info.value) == message


@pytest.mark.parametrize("case", sorted(POSITIONED_ERRORS))
def test_rules_are_not_asserts(case, tmp_path):
    """``python -O`` strips ``assert``: ``flowtrace validate`` rejects a
    spec that breaks each cross-reference rule alike with and without it,
    with exit code 2, as a malformed document (only a flow's validation
    findings exit 1)."""
    spec = tmp_path / "broken.spec"
    text, line, _ = POSITIONED_ERRORS[case]
    spec.write_text(text, encoding="utf-8")
    src = str(Path(spec_io.__file__).parent.parent)

    def validate_cli(*flags: str) -> tuple[int, str]:
        run = subprocess.run(
            [sys.executable, *flags, "-m", "flowtrace.cli", "validate", str(spec)],
            capture_output=True, text=True, timeout=60, env=dict(os.environ, PYTHONPATH=src),
        )
        return run.returncode, run.stderr

    normal = validate_cli()
    assert normal[0] == 2 and normal[1].startswith(f"error: {spec}: line {line}: ")
    assert validate_cli("-O") == normal
