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

:func:`load_prototype` parses the built-in two-CPU SoC model (16 flows
over 32 monitored links), the package file ``prototype.spec`` whose text
is :data:`PROTOTYPE_SPEC`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Container, Iterable, Mapping

from .flow_model import Event, Flow, Transition, start_events, validate

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

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line
        self.message = message


def _check_ident(name: str, what: str) -> str:
    if not _IDENT.match(name):
        raise ValueError(f"{what} {name!r} is not an ASCII identifier")
    return name


@dataclass(frozen=True, order=True)
class Link:
    """A monitored point-to-point channel between two components."""

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
        if not any(e.src == component for e in start_events(flow)):
            raise ValueError(
                f"initiator {component}: flow {fid} has no start event "
                f"originating at {component}"
            )


@dataclass(frozen=True)
class Topology:
    """Components, links, and the event-to-link mapping of a system."""

    components: frozenset[str]
    links: tuple[Link, ...]
    event_link_map: Mapping[Event, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", frozenset(self.components))
        object.__setattr__(
            self, "links", tuple(sorted(self.links, key=lambda l: l.id))
        )
        object.__setattr__(self, "event_link_map", dict(self.event_link_map))
        for c in sorted(self.components):
            _check_ident(c, "component")
        links: dict[str, Link] = {}
        channels: dict[tuple[str, str, int], str] = {}
        for l in self.links:
            _check_ident(l.id, "link")
            _add_link(l, self.components, links, channels)
        for event, link_id in self.event_link_map.items():
            _check_event_link(event, link_id, links)


@dataclass(frozen=True)
class SystemSpec:
    """A fully validated system: topology, flows, and initiator blocks."""

    name: str
    topology: Topology
    flows: tuple[Flow, ...]
    initiators: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "flows", tuple(sorted(self.flows, key=lambda f: f.id))
        )
        object.__setattr__(
            self,
            "initiators",
            tuple(sorted((c, frozenset(fids)) for c, fids in self.initiators)),
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

    @cached_property
    def flow_by_id(self) -> dict[str, Flow]:
        return {f.id: f for f in self.flows}

    @cached_property
    def all_events(self) -> frozenset[Event]:
        out: set[Event] = set()
        for f in self.flows:
            out |= f.events
        return frozenset(out)

    def flows_of_initiators(self, initiators: Iterable[str]) -> tuple[Flow, ...]:
        wanted = set(initiators)
        ids: set[str] = set()
        for component, fids in self.initiators:
            if component in wanted:
                ids |= fids
        return tuple(f for f in self.flows if f.id in ids)


# --------------------------------------------------------------------------
# Tokenizer


_TOKEN_RE = re.compile(
    r"(?P<WS>\s+)"
    r"|(?P<COMMENT>#.*)"
    r"|(?P<ARROW>->)"
    rf"|(?P<WORD>{_ID})"
    r"|(?P<NUM>[0-9]+)"
    r"|(?P<LBRACE>\{)"
    r"|(?P<RBRACE>\})"
    r"|(?P<COMMA>,)"
    r"|(?P<COLON>:)"
    r"|(?P<BAD>.)"
)


class _LineCursor:
    """The tokens of one line, as ``(kind, text, column)``, and a read
    position; its errors carry the line and column."""

    def __init__(self, text: str, line_no: int):
        self.tokens: list[tuple[str, str, int]] = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "COMMENT":
                break
            if kind == "BAD":
                raise SpecSyntaxError(
                    line_no, m.start() + 1, f"unexpected character {m.group()!r}"
                )
            if kind != "WS":
                self.tokens.append((kind, m.group(), m.start() + 1))
        self.pos = 0
        self.line_no = line_no
        self.end_column = len(text) + 1

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def peek_word(self) -> str | None:
        """The next token's text if it is a word, else ``None``."""
        tok = self.peek()
        return tok[1] if tok is not None and tok[0] == "WORD" else None

    def fail(self, message: str) -> SpecSyntaxError:
        tok = self.peek()
        return SpecSyntaxError(self.line_no, tok[2] if tok else self.end_column, message)

    def take(self, kind: str, what: str) -> str:
        tok = self.peek()
        if tok is None or tok[0] != kind:
            raise self.fail(f"expected {what}")
        self.pos += 1
        return tok[1]

    def take_word(self, what: str) -> str:
        return self.take("WORD", what)

    def take_keyword(self, keyword: str) -> None:
        if self.peek_word() != keyword:
            raise self.fail(f"expected {keyword!r}")
        self.pos += 1

    def take_set(self, what: str) -> list[str]:
        self.take("LBRACE", f"'{{' opening {what}")
        items: list[str] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise self.fail(f"unterminated {what}")
            if tok[0] == "RBRACE":
                self.pos += 1
                return items
            if items:
                self.take("COMMA", f"',' or '}}' in {what}")
            items.append(self.take_word(f"identifier in {what}"))

    def expect_end(self) -> None:
        if not self.done():
            raise self.fail("unexpected trailing input")


# --------------------------------------------------------------------------
# Line patterns
#
# Most lines of a spec are transition, place and link declarations.  A
# well-formed one is read with one match of its pattern; any line that its
# pattern rejects goes to the cursor walk, which alone reports syntax
# errors.  So a pattern accepts only lines the cursor accepts, and reads the
# same fields from them: ASCII identifiers, the tokenizer's whitespace
# between two words and optional elsewhere, and a comment from any '#' on.

_ID_RE = re.compile(_ID)
_SET = rf"\{{\s*((?:{_ID}(?:\s*,\s*{_ID})*)?)\s*\}}"
_LINE_END = r"\s*(?:#.*)?\Z"
_MARKER = r"(?:initial|end)(?![A-Za-z0-9_])"
# A place id, never a marker word, and its optional marker.
_PLACE = rf"(?!{_MARKER})({_ID})(?:\s+({_MARKER}))?"
_PLACE_RE = re.compile(_PLACE)

_TRANSITION_LINE = re.compile(
    rf"\s*transition\s+({_ID})\s+pre\s*{_SET}\s*post\s*{_SET}\s*event\s+({_ID})"
    rf"\s*:\s*({_ID})\s*:\s*({_ID})\s+on\s+({_ID}){_LINE_END}"
)
_PLACE_LINE = re.compile(rf"\s*place((?:\s+{_PLACE})+){_LINE_END}")
_LINK_LINE = re.compile(
    rf"\s*link\s+({_ID})\s+({_ID})\s*->\s*({_ID})(?:\s+channel\s+([0-9]+))?{_LINE_END}"
)


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

    :meth:`read_line` reads a well-formed transition, place or link line
    with its pattern and any other line with a :class:`_LineCursor`.  Both
    hand what they read to the same checks, :meth:`link`, :meth:`place`,
    :meth:`new_transition` and :meth:`transition`, which raise at the
    declaration's line.
    """

    def __init__(self) -> None:
        self.name: str | None = None
        self.components: set[str] = set()
        self.links: dict[str, Link] = {}
        self.channels: dict[tuple[str, str, int], str] = {}
        self.event_link: dict[Event, str] = {}
        self.event_lines: dict[Event, int] = {}
        self.flows: dict[str, _FlowBuilder] = {}
        self.initiators: dict[str, tuple[frozenset[str], int]] = {}
        self.current: _FlowBuilder | None = None

    def read_line(self, raw: str, line_no: int) -> None:
        """Read one line.  Any line before the ``system`` header, and a
        place or transition line outside a flow block, goes to the cursor,
        which reports what is wrong with it."""
        if self.name is not None:
            if self.current is not None:
                m = _TRANSITION_LINE.match(raw)
                if m is not None:
                    tid, pre, post, src, dest, cmd, link_id = m.groups()
                    self.new_transition(line_no, tid)
                    self.transition(
                        line_no, tid, _ID_RE.findall(pre), _ID_RE.findall(post),
                        src, dest, cmd, link_id,
                    )
                    return
                m = _PLACE_LINE.match(raw)
                if m is not None:
                    for pid, marker in _PLACE_RE.findall(m[1]):
                        self.place(line_no, pid, marker)
                    return
            m = _LINK_LINE.match(raw)
            if m is not None:
                link_id, src, dest, channel = m.groups()
                self.link(line_no, link_id, src, dest, int(channel or 0))
                return
        self.read_tokens(_LineCursor(raw, line_no))

    def read_tokens(self, cur: _LineCursor) -> None:
        if cur.done():
            return
        line_no = cur.line_no
        head = cur.take_word("a declaration keyword")

        if self.name is None:
            if head != "system":
                raise SpecSyntaxError(line_no, cur.tokens[0][2], "expected 'system' header")
            self.name = cur.take_word("system name")
            cur.expect_end()
            return

        if head == "system":
            raise SpecSyntaxError(line_no, cur.tokens[0][2], "duplicate 'system' header")

        if head == "component":
            new = [cur.take_word("component id")]
            while not cur.done():
                new.append(cur.take_word("component id"))
            for c in new:
                if c in self.components:
                    raise SpecSemanticError(f"duplicate component {c!r}", line_no)
                self.components.add(c)
            return

        if head == "link":
            link_id = cur.take_word("link id")
            src = cur.take_word("source component")
            cur.take("ARROW", "'->'")
            dest = cur.take_word("destination component")
            channel = 0
            if not cur.done():
                cur.take_keyword("channel")
                channel = int(cur.take("NUM", "channel number"))
            cur.expect_end()
            self.link(line_no, link_id, src, dest, channel)
            return

        if head == "flow":
            flow_id = cur.take_word("flow id")
            cur.expect_end()
            _at(line_no, _check_flow_id, flow_id, self.flows)
            self.current = self.flows[flow_id] = _FlowBuilder(flow_id, line_no)
            return

        if head == "place":
            if self.current is None:
                raise SpecSyntaxError(
                    line_no, cur.tokens[0][2], "'place' outside a flow block"
                )
            if cur.done():
                raise cur.fail("expected at least one place id")
            while not cur.done():
                pid = cur.take_word("place id")
                if pid in ("initial", "end"):
                    raise cur.fail("marker without a preceding place id")
                marker = cur.peek_word()
                if marker in ("initial", "end"):
                    cur.pos += 1
                else:
                    marker = None
                self.place(line_no, pid, marker)
            return

        if head == "transition":
            if self.current is None:
                raise SpecSyntaxError(
                    line_no, cur.tokens[0][2], "'transition' outside a flow block"
                )
            tid = cur.take_word("transition id")
            self.new_transition(line_no, tid)
            cur.take_keyword("pre")
            preset = cur.take_set("preset")
            cur.take_keyword("post")
            postset = cur.take_set("postset")
            cur.take_keyword("event")
            src = cur.take_word("event source")
            cur.take("COLON", "':'")
            dest = cur.take_word("event destination")
            cur.take("COLON", "':'")
            cmd = cur.take_word("event command")
            cur.take_keyword("on")
            link_id = cur.take_word("link id")
            cur.expect_end()
            self.transition(line_no, tid, preset, postset, src, dest, cmd, link_id)
            return

        if head == "initiator":
            component = cur.take_word("initiator component")
            cur.take_keyword("flows")
            fids = cur.take_set("flow set")
            cur.expect_end()
            _at(
                line_no, _check_initiator_component, component, self.components,
                self.initiators,
            )
            self.initiators[component] = (frozenset(fids), line_no)
            return

        raise SpecSyntaxError(
            line_no, cur.tokens[0][2], f"unknown declaration {head!r}"
        )

    def link(self, line_no: int, link_id: str, src: str, dest: str, channel: int) -> None:
        link = Link(link_id, src, dest, channel)
        _at(line_no, _add_link, link, self.components, self.links, self.channels)

    def place(self, line_no: int, pid: str, marker: str | None) -> None:
        """Add place ``pid`` to the current flow; ``marker`` is
        ``"initial"``, ``"end"``, or ``None`` or ``""`` for neither."""
        flow = self.current
        if pid in flow.places:
            raise SpecSemanticError(f"flow {flow.id}: duplicate place {pid!r}", line_no)
        flow.places[pid] = None
        if marker == "initial":
            flow.initial.add(pid)
        elif marker == "end":
            flow.end.add(pid)

    def new_transition(self, line_no: int, tid: str) -> None:
        """A repeated transition id fails before the rest of its line is
        read, so it wins over a syntax error later on that line."""
        if tid in self.current.labeling:
            raise SpecSemanticError(
                f"flow {self.current.id}: duplicate transition {tid!r}", line_no
            )

    def transition(
        self, line_no: int, tid: str, preset: list[str], postset: list[str],
        src: str, dest: str, cmd: str, link_id: str,
    ) -> None:
        flow = self.current
        for p in preset + postset:
            if p not in flow.places:
                raise SpecSemanticError(
                    f"flow {flow.id}: transition {tid} references "
                    f"undeclared place {p!r}",
                    line_no,
                )
        event = _at(line_no, Event, src, dest, cmd)
        _at(line_no, _check_event_link, event, link_id, self.links)
        prior = self.event_link.get(event)
        if prior is not None and prior != link_id:
            raise SpecSemanticError(
                f"event {event} already mapped to link {prior} "
                f"(line {self.event_lines[event]})",
                line_no,
            )
        self.event_link[event] = link_id
        self.event_lines.setdefault(event, line_no)
        flow.transitions.append(Transition(tid, frozenset(preset), frozenset(postset)))
        flow.labeling[tid] = event

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
                    b.line,
                )
            flows[flow.id] = flow
        for component, (fids, line_no) in self.initiators.items():
            _at(line_no, _check_initiator, component, fids, flows)
        return SystemSpec(
            name=self.name,
            topology=Topology(
                frozenset(self.components), tuple(self.links.values()), self.event_link
            ),
            flows=tuple(flows.values()),
            initiators=tuple((c, fids) for c, (fids, _) in self.initiators.items()),
        )


def parse_system(text: str) -> SystemSpec:
    """Parse a spec document into a fully validated :class:`SystemSpec`.

    Every flow is run through :func:`flowtrace.flow_model.validate`; any
    finding is reported as a :class:`SpecSemanticError` naming the flow.
    Malformed input raises :class:`SpecSyntaxError` with its position.
    Each declaration is checked by the rules :class:`Topology`,
    :class:`SystemSpec` and :class:`Event` enforce, so every semantic
    error names its line.
    """
    reader = _SpecReader()
    # ``str.splitlines`` would also end a line at \v, \f, \x1c-\x1e, \x85,
    # U+2028 and U+2029, which the tokenizer reads as whitespace.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        reader.read_line(raw, line_no)
    return reader.build()


# Read once at import, so load_prototype() does no file I/O.
PROTOTYPE_SPEC = Path(__file__).with_name("prototype.spec").read_text(encoding="utf-8")


def load_prototype() -> SystemSpec:
    """The built-in two-CPU SoC model: 16 flows over 32 monitored links."""
    return parse_system(PROTOTYPE_SPEC)
