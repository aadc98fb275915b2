"""Parsing of system specifications.

The on-disk format is a line-oriented plain-text DSL (ASCII identifiers,
``#`` comments):

    system <name>
    component <id> ...
    link <link-id> <src> -> <dest> [channel <n>]
    flow <flow-id>
      place <p-id> [initial|end] ...
      transition <t-id> pre {<p-id>,...} post {<p-id>,...} \\
          event <src>:<dest>:<cmd> on <link-id>
    initiator <component-id> flows {<flow-id>,...}

Every transition carries exactly one ``event ... on ...`` clause; the
``on`` clause defines the event-to-link mapping and must be consistent
across repeated uses of the same event.  Multiple links may join the same
component pair (distinguished by ``channel``), and several distinct
events may share one link.

:func:`parse_system` checks each rule once, at the line it reads.
:class:`Topology` and :class:`SystemSpec` check the same rules, with the
same functions, when built by hand; the parser builds them with the
named tuples' ``_make``, which skips the checks already made.

:func:`load_prototype` parses the built-in two-CPU SoC model (16 flows
over 32 monitored links), the package file ``prototype.spec`` whose text
is :data:`PROTOTYPE_SPEC`.
"""

from __future__ import annotations

import re
from functools import cached_property
from pathlib import Path
from typing import Container, Iterable, Mapping, NamedTuple, NoReturn

from .flow_model import Event, Flow, Transition, validate

__all__ = [
    "PROTOTYPE_SPEC",
    "Link",
    "SpecSemanticError",
    "SpecSyntaxError",
    "SystemSpec",
    "Topology",
    "load_prototype",
    "parse_system",
]

_ID = r"[A-Za-z_][A-Za-z0-9_]*"  # an ASCII identifier
_IDENT = re.compile(_ID + r"\Z")


class SpecSyntaxError(Exception):
    """A malformed spec document, with 1-based line/column position."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class SpecSemanticError(Exception):
    """A well-formed document that names unknown or inconsistent entities."""

    def __init__(self, message: str, line: int | None = None, findings: bool = False):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line
        self.message = message
        self.findings = findings  # a flow's validation findings, not a malformed spec


def _check_ident(name: str, what: str) -> str:
    if not _IDENT.match(name):
        raise ValueError(f"{what} {name!r} is not an ASCII identifier")
    return name


class Link(NamedTuple):
    """A monitored point-to-point channel between two components.  It
    equals, hashes and sorts like its plain field tuple."""

    id: str
    src: str
    dest: str
    channel: int = 0


# Cross-reference rules, written once: the spec types raise their
# ValueError, parse_system re-raises it at the declaration's line.


def _check_component(name: str, components: Container[str], referrer: str) -> None:
    if name not in components:
        raise ValueError(f"{referrer} references undeclared component {name!r}")


def _add_link(
    link: Link,
    components: Container[str],
    links: dict[str, Link],
    channels: dict[tuple[str, str, int], str],
) -> None:
    """Check ``link`` against the components and the links added before it,
    then add it to ``links`` (by id) and ``channels`` (by src, dest, channel)."""
    if link.id in links:
        raise ValueError(f"duplicate link {link.id!r}")
    for c in (link.src, link.dest):
        _check_component(c, components, f"link {link.id}")
    channel = (link.src, link.dest, link.channel)
    if channel in channels:
        raise ValueError(
            f"duplicate link {link.src}->{link.dest} channel {link.channel}: "
            f"{channels[channel]} and {link.id}"
        )
    links[link.id] = link
    channels[channel] = link.id


def _check_event_link(event: Event, link_id: str, links: Mapping[str, Link]) -> None:
    link = links.get(link_id)
    if link is None:
        raise ValueError(f"event {event} mapped to unknown link {link_id!r}")
    if (event.src, event.dest) != (link.src, link.dest):
        raise ValueError(
            f"event {event} is mapped to link {link_id} but cannot travel on it: "
            f"{link_id} joins {link.src}->{link.dest}"
        )


def _check_flow_id(flow_id: str, earlier: Container[str]) -> None:
    if flow_id in earlier:
        raise ValueError(f"duplicate flow {flow_id!r}")


def _check_initiator_component(
    component: str, components: Container[str], earlier: Container[str]
) -> None:
    """An initiator block names a declared component that no earlier
    block names."""
    _check_component(component, components, "initiator")
    if component in earlier:
        raise ValueError(f"duplicate initiator {component!r}")


def _check_initiator(
    component: str, flow_ids: Iterable[str], flows: Mapping[str, Flow]
) -> None:
    """An initiator block names at least one flow, and each of its flows
    exists and starts at the initiator."""
    flow_ids = sorted(flow_ids)
    if not flow_ids:
        raise ValueError(f"initiator {component} names no flows")
    for fid in flow_ids:
        flow = flows.get(fid)
        if flow is None:
            raise ValueError(f"initiator {component}: unknown flow {fid!r}")
        if not any(e.src == component for e in flow.start_events):
            raise ValueError(
                f"initiator {component}: flow {fid} has no start event "
                f"originating at {component}"
            )


class _TopologyFields(NamedTuple):
    components: frozenset[str]
    links: tuple[Link, ...]
    event_link_map: Mapping[Event, str]


class Topology(_TopologyFields):
    """Components, links, and the event-to-link mapping of a system; it
    equals its plain field tuple."""

    __slots__ = ()

    def __new__(
        cls, components: Iterable[str], links: Iterable[Link], event_link_map: Mapping[Event, str]
    ) -> Topology:
        self = super().__new__(
            cls, frozenset(components), tuple(sorted(links, key=lambda l: l.id)), dict(event_link_map)
        )
        for c in sorted(self.components):
            _check_ident(c, "component")
        links: dict[str, Link] = {}
        channels: dict[tuple[str, str, int], str] = {}
        for l in self.links:
            _check_ident(l.id, "link")
            _add_link(l, self.components, links, channels)
        for event, link_id in self.event_link_map.items():
            _check_event_link(event, link_id, links)
        return self


class _SystemSpecFields(NamedTuple):
    name: str
    topology: Topology
    flows: tuple[Flow, ...]
    initiators: tuple[tuple[str, frozenset[str]], ...]


class SystemSpec(_SystemSpecFields):
    """A fully validated system: topology, flows, and initiator blocks; it
    equals its plain field tuple."""

    # No __slots__: the cached properties live in the instance's __dict__.
    def __new__(
        cls, name: str, topology: Topology, flows: Iterable[Flow],
        initiators: Iterable[tuple[str, Iterable[str]]],
    ) -> SystemSpec:
        self = super().__new__(
            cls, name, topology, tuple(sorted(flows, key=lambda f: f.id)),
            tuple(sorted((c, frozenset(fids)) for c, fids in initiators)),
        )
        _check_ident(self.name, "system name")
        flow_ids: set[str] = set()
        for f in self.flows:
            _check_flow_id(f.id, flow_ids)
            flow_ids.add(f.id)
            _check_ident(f.id, "flow")
            for p in f.places:
                _check_ident(p, "place")
            for t in f.transitions:
                _check_ident(t.id, "transition")
            for e in sorted(f.events):
                for part in (e.src, e.dest, e.cmd):
                    _check_ident(part, "event field")
                if e not in self.topology.event_link_map:
                    raise ValueError(f"flow {f.id}: event {e} has no link mapping")
        # Components first, then flows: the parser's order.
        initiators: set[str] = set()
        for component, _ in self.initiators:
            _check_initiator_component(
                component, self.topology.components, initiators
            )
            initiators.add(component)
        for component, fids in self.initiators:
            _check_initiator(component, fids, self.flow_by_id)
        return self

    @cached_property
    def flow_by_id(self) -> dict[str, Flow]:
        return {f.id: f for f in self.flows}

    @cached_property
    def all_events(self) -> frozenset[Event]:
        out: set[Event] = set()
        for f in self.flows:
            out |= f.events
        return frozenset(out)


# --------------------------------------------------------------------------
# Grammar
#
# One table states the grammar of every declaration.  An entry lists the
# pieces that follow the declaration's keyword, each a pattern with one
# group and what a line lacks when that piece is missing.  Two patterns
# come from each entry:
#
# - the line pattern, all pieces in a row and then the line's end, reads a
#   well-formed line with one match and captures only its fields;
# - the prefix pattern, ``(?:p1(?:p2(?:...)?)?)?``, runs only on a line its
#   line pattern rejected.  Its ``lastindex`` counts the pieces the line
#   has, so the next piece names the syntax error, which sits at the next
#   token.
#
# Tokens are ASCII identifiers, digits and ``{ } , : ->``; any ``\s``
# separates them.  Two words need whitespace between them, punctuation
# needs none, a keyword is a whole word, and a '#' starts a comment.

_W = r"(?![A-Za-z0-9_])"  # a word ends here
_MARKER = rf"(?:initial|end){_W}"
_PLACE = rf"(?!{_MARKER}){_ID}(?:\s+{_MARKER})?"  # a place id and its marker
_SETS = ("preset", "postset", "flow set")


def _id(what: str, sep: str = r"\s+") -> tuple[str, str]:
    return rf"{sep}({_ID})", what


def _kw(word: str, sep: str = r"\s+") -> tuple[str, str]:
    return rf"{sep}({word}){_W}", f"'{word}'"


def _set(what: str) -> tuple[str, str]:
    return rf"\s*\{{\s*((?:{_ID}(?:\s*,\s*{_ID})*)?)\s*\}}", what


def _declaration(*pieces, optional=(), trailing=None):
    """The line pattern, the prefix pattern and the list of whats of the
    declaration made of ``pieces`` and then, all or none, ``optional``.
    ``trailing`` is what a line lacks where a token follows its last
    piece: another of a run of ids, or ``None`` for trailing input."""

    def fields(pieces):  # a keyword's or punctuation's `what` is quoted: no field
        return "".join(p.replace("(", "(?:", 1) if w[0] == "'" else p for p, w in pieces)

    line = fields(pieces) + (f"(?:{fields(optional)})?" if optional else "")
    prefix = ""
    for p, _ in reversed(pieces + optional):
        prefix = f"(?:{p}{prefix})?"
    whats = [w for _, w in pieces + optional] + [trailing]
    return re.compile(line + r"\s*(?:#.*)?\Z"), re.compile(prefix), whats


_COLON = (r"\s*(:)", "':'")
_GRAMMAR = {
    "system": _declaration(_id("system name")),
    "component": _declaration(
        (rf"\s+({_ID}(?:\s+{_ID})*)", "component id"), trailing="component id"
    ),
    "link": _declaration(
        _id("link id"), _id("source component"), (r"\s*(->)", "'->'"),
        _id("destination component", r"\s*"),
        optional=(_kw("channel"), (r"\s+([0-9]+)", "channel number")),
    ),
    "flow": _declaration(_id("flow id")),
    "place": _declaration(
        (rf"\s+({_PLACE}(?:\s+{_PLACE})*)", "place id"), trailing="place id"
    ),
    "transition": _declaration(
        _id("transition id"), _kw("pre"), _set("preset"), _kw("post", r"\s*"),
        _set("postset"), _kw("event", r"\s*"), _id("event source"), _COLON,
        _id("event destination", r"\s*"), _COLON, _id("event command", r"\s*"),
        _kw("on"), _id("link id"),
    ),
    "initiator": _declaration(_id("initiator component"), _kw("flows"), _set("flow set")),
}

_HEAD = re.compile(rf"\s*({_ID})")
_ID_RE = re.compile(_ID)
# Each place id and marker of a run that the place piece matched.
_PLACE_RE = re.compile(rf"({_ID})(?:\s+({_MARKER}))?")
_BLANKS = re.compile(r"\s*")
_BLANK_LINE = re.compile(r"\s*(?:#.*)?\Z")
# A character no token holds; '-' and '>' only as '->'.
_BAD = re.compile(r"[^\sA-Za-z0-9_{},:#>-]|-(?!>)|(?<!-)>")
# What follows a set's '{': ids (group 1 the first), a dangling ',' (group
# 2), and the blanks after them.
_SET_REST = re.compile(rf"\s*(?:({_ID})(?:\s*,\s*{_ID})*(\s*,)?)?\s*")
_MARKER_THEN = re.compile(rf"{_MARKER}\s*")


def _missing(code: str, pos: int, what: str | None) -> tuple[int, str]:
    """Where ``code``, a line up to its comment, lacks ``what`` from ``pos``
    on, and the message: the index of the offending token, ``len(code)``
    at the end of the line."""
    pos = _BLANKS.match(code, pos).end()
    if what is None:
        return pos, "unexpected trailing input"
    if what in _SETS:
        if not code.startswith("{", pos):
            return pos, f"expected '{{' opening {what}"
        rest = _SET_REST.match(code, pos + 1)
        pos = rest.end()
        if pos == len(code) and not rest[2]:
            return pos, f"unterminated {what}"
        what = f"',' or '}}' in {what}" if rest[1] and not rest[2] else f"identifier in {what}"
    if what == "place id":
        marker = _MARKER_THEN.match(code, pos)
        if marker is not None:  # reported at the token after the marker
            return marker.end(), "marker without a preceding place id"
        if pos == len(code):
            return pos, "expected at least one place id"
    return pos, f"expected {what}"


# --------------------------------------------------------------------------
# Parser


class _FlowBuilder:
    def __init__(self, flow_id: str, line: int):
        self.id = flow_id
        self.line = line
        self.places: dict[str, None] = {}  # ordered, with O(1) membership
        self.initial: set[str] = set()
        self.end: set[str] = set()
        self.transitions: list[Transition] = []
        self.labeling: dict[str, Event] = {}

    def build(self) -> Flow:
        return Flow(
            id=self.id,
            places=tuple(self.places),
            transitions=tuple(self.transitions),
            labeling=self.labeling,
            initial_marking=frozenset(self.initial),
            end_marking=frozenset(self.end),
        )


def _at(line: int, check, *args):
    """``check(*args)``, with its :class:`ValueError` raised as a
    :class:`SpecSemanticError` at ``line``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise SpecSemanticError(str(exc), line) from exc


class _SpecReader:
    """The declarations of a document read so far.

    :meth:`read_line` reads a line with the line pattern of its keyword,
    if the document expects that declaration there, and hands the match
    to the method named after the keyword, which checks it at the line.
    Any other line that holds a token goes to :meth:`reject`.

    The expected declarations hold the methods: ``getattr`` by each
    line's keyword would leave the string in CPython's type cache.
    """

    def __init__(self) -> None:
        self.name: str | None = None
        self.components: set[str] = set()
        self.links: dict[str, Link] = {}
        self.channels: dict[tuple[str, str, int], str] = {}
        # Each event by its fields: the event, its link and its first line.
        self.events: dict[tuple[str, str, str], tuple[Event, str, int]] = {}
        self.flows: dict[str, _FlowBuilder] = {}
        self.initiators: dict[str, tuple[frozenset[str], int]] = {}
        self.current: _FlowBuilder | None = None
        self.expected = _HEADER

    def read_line(self, raw: str, line_no: int) -> None:
        head = _HEAD.match(raw)
        expected = self.expected.get(head[1]) if head else None
        m = expected[0].match(raw, head.end()) if expected else None
        if m is not None:
            expected[1](self, line_no, m)
        elif head is not None or not _BLANK_LINE.match(raw):
            self.reject(raw, line_no)

    def reject(self, raw: str, line_no: int) -> NoReturn:
        """Raise the syntax error of a line with a token that
        :meth:`read_line` did not read.  A bad character before the comment
        comes first, then a wrong keyword, then the first piece the line
        lacks.  What a token-by-token read checks before it reaches that
        piece, a repeated transition id or place, is checked first."""
        code = raw.partition("#")[0]
        bad = _BAD.search(code)
        if bad is not None:
            raise SpecSyntaxError(line_no, bad.start() + 1, f"unexpected character {bad[0]!r}")
        pos = _BLANKS.match(code).end()
        head = _ID_RE.match(code, pos)
        kind = head and head[0]
        if kind is None:
            message = "expected a declaration keyword"
        elif self.name is None and kind != "system":
            message = "expected 'system' header"
        elif self.name is not None and kind == "system":
            message = "duplicate 'system' header"
        elif kind not in _GRAMMAR:
            message = f"unknown declaration {kind!r}"
        elif self.current is None and kind in ("place", "transition"):
            message = f"{kind!r} outside a flow block"
        else:
            _, prefix, whats = _GRAMMAR[kind]
            have = prefix.match(code, head.end())
            if have.lastindex and kind == "place":
                self.place(line_no, have)
            if have.lastindex and kind == "transition":
                self.new_transition(line_no, have[1])
            pos, message = _missing(code, have.end(), whats[have.lastindex or 0])
        column = pos + 1 if pos < len(code) else len(raw) + 1
        raise SpecSyntaxError(line_no, column, message)

    def system(self, line_no: int, m: re.Match) -> None:
        self.name = m[1]
        self.expected = _TOP_LEVEL

    def component(self, line_no: int, m: re.Match) -> None:
        for c in _ID_RE.findall(m[1]):
            if c in self.components:
                raise SpecSemanticError(f"duplicate component {c!r}", line_no)
            self.components.add(c)

    def link(self, line_no: int, m: re.Match) -> None:
        link_id, src, dest, digits = m.groups()
        try:  # int() refuses more than sys.get_int_max_str_digits() digits
            channel = int(digits.lstrip("0") or 0) if digits else 0
        except ValueError:
            raise SpecSyntaxError(line_no, m.start(4) + 1, "channel number too large") from None
        link = Link(link_id, src, dest, channel)
        _at(line_no, _add_link, link, self.components, self.links, self.channels)

    def flow(self, line_no: int, m: re.Match) -> None:
        _at(line_no, _check_flow_id, m[1], self.flows)
        self.current = self.flows[m[1]] = _FlowBuilder(m[1], line_no)
        self.expected = _IN_FLOW

    def place(self, line_no: int, m: re.Match) -> None:
        """Add the places of ``m[1]``, each with its marker, to the
        current flow."""
        flow = self.current
        for pid, marker in _PLACE_RE.findall(m[1]):
            if pid in flow.places:
                raise SpecSemanticError(f"flow {flow.id}: duplicate place {pid!r}", line_no)
            flow.places[pid] = None
            if marker == "initial":
                flow.initial.add(pid)
            elif marker == "end":
                flow.end.add(pid)

    def new_transition(self, line_no: int, tid: str) -> None:
        if tid in self.current.labeling:
            raise SpecSemanticError(
                f"flow {self.current.id}: duplicate transition {tid!r}", line_no
            )

    def transition(self, line_no: int, m: re.Match) -> None:
        tid, pre, post, src, dest, cmd, link_id = m.groups()
        self.new_transition(line_no, tid)
        preset, postset = _ID_RE.findall(pre), _ID_RE.findall(post)
        flow = self.current
        for p in preset + postset:
            if p not in flow.places:
                raise SpecSemanticError(
                    f"flow {flow.id}: transition {tid} references "
                    f"undeclared place {p!r}",
                    line_no,
                )
        seen = self.events.get((src, dest, cmd))
        if seen is None or seen[1] != link_id:  # not yet seen on this link: check it
            event = _at(line_no, Event, src, dest, cmd)
            _at(line_no, _check_event_link, event, link_id, self.links)
            if seen is not None:
                raise SpecSemanticError(
                    f"event {event} already mapped to link {seen[1]} (line {seen[2]})",
                    line_no,
                )
            seen = self.events[src, dest, cmd] = (event, link_id, line_no)
        flow.transitions.append(Transition(tid, preset, postset))
        flow.labeling[tid] = seen[0]

    def initiator(self, line_no: int, m: re.Match) -> None:
        component, fids = m.groups()
        _at(
            line_no, _check_initiator_component, component, self.components,
            self.initiators,
        )
        self.initiators[component] = (frozenset(_ID_RE.findall(fids)), line_no)

    def build(self) -> SystemSpec:
        if self.name is None:
            raise SpecSyntaxError(1, 1, "expected 'system' header")
        flows: dict[str, Flow] = {}
        for b in self.flows.values():
            flow = b.build()
            report = validate(flow)
            if not report.ok:
                raise SpecSemanticError(
                    f"flow {flow.id} failed validation: "
                    + "; ".join(str(f) for f in report.findings),
                    b.line, findings=True,
                )
            flows[flow.id] = flow
        for component, (fids, line_no) in self.initiators.items():
            _at(line_no, _check_initiator, component, fids, flows)
        # Every rule was checked at its line: build without the checks,
        # normalised as the constructors normalise.
        topology = Topology._make((
            frozenset(self.components),
            tuple(self.links[k] for k in sorted(self.links)),
            {event: link_id for event, link_id, _ in self.events.values()},
        ))
        return SystemSpec._make((
            self.name, topology, tuple(flows[k] for k in sorted(flows)),
            tuple(sorted((c, fids) for c, (fids, _) in self.initiators.items())),
        ))


def _expect(*kinds: str) -> dict:
    """The line pattern and reader method of each of ``kinds``."""
    return {k: (_GRAMMAR[k][0], getattr(_SpecReader, k)) for k in kinds}


# What the header, the declarations before the first flow and the rest of
# a document may declare.
_HEADER = _expect("system")
_TOP_LEVEL = _expect("component", "link", "flow", "initiator")
_IN_FLOW = _expect("component", "link", "flow", "initiator", "place", "transition")


def parse_system(text: str) -> SystemSpec:
    """Parse a spec document into a fully validated :class:`SystemSpec`.

    Every flow is run through :func:`flowtrace.flow_model.validate`; any
    finding is reported as a :class:`SpecSemanticError` naming the flow.
    Malformed input raises :class:`SpecSyntaxError` with its position.
    Each declaration is checked once, at its line, by the rules
    :class:`Topology`, :class:`SystemSpec` and :class:`Event` enforce, so
    every semantic error names its line; an event is checked on the first
    line that maps it to each link.  The spec is then built without
    checking anything again.
    """
    reader = _SpecReader()
    # ``str.splitlines`` would also end a line at \v, \f, \x1c-\x1e, \x85,
    # U+2028 and U+2029, which the grammar reads as whitespace.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        reader.read_line(raw, line_no)
    return reader.build()


# Read once at import, so load_prototype() does no file I/O.
PROTOTYPE_SPEC = Path(__file__).with_name("prototype.spec").read_text(encoding="utf-8")


def load_prototype() -> SystemSpec:
    """The built-in two-CPU SoC model: 16 flows over 32 monitored links."""
    return parse_system(PROTOTYPE_SPEC)
