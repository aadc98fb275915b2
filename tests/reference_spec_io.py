"""Reference spec parser: the cursor walk over every line.

``reference_parse_system`` reads each line with a ``_LineCursor`` token
by token.  ``spec_io.parse_system`` instead reads every declaration line
with one match of its line pattern, and finds a rejected line's syntax
error with the prefix pattern of the same grammar table entry.  This
token walk is kept verbatim so the differential tests can require an
equal spec, or the same error at the same line and column, for any
document.
"""

from __future__ import annotations

import re

from flowtrace.flow_model import Event, Flow, Transition, validate
from flowtrace.spec_io import (
    Link,
    SpecSemanticError,
    SpecSyntaxError,
    SystemSpec,
    Topology,
    _add_link,
    _check_event_link,
    _check_flow_id,
    _check_initiator,
    _check_initiator_component,
)


# --------------------------------------------------------------------------
# Tokenizer


_TOKEN_RE = re.compile(
    r"(?P<WS>\s+)"
    r"|(?P<COMMENT>#.*)"
    r"|(?P<ARROW>->)"
    r"|(?P<WORD>[A-Za-z_][A-Za-z0-9_]*)"
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


def reference_parse_system(text: str) -> SystemSpec:
    """Parse a spec document into a fully validated :class:`SystemSpec`.

    Every flow is run through :func:`flowtrace.flow_model.validate`; any
    finding is reported as a :class:`SpecSemanticError` naming the flow.
    Malformed input raises :class:`SpecSyntaxError` with its position.
    Each declaration is checked by the rules :class:`Topology`,
    :class:`SystemSpec` and :class:`Event` enforce, so every semantic
    error names its line.
    """
    name: str | None = None
    components: set[str] = set()
    links: dict[str, Link] = {}
    channels: dict[tuple[str, str, int], str] = {}
    event_link: dict[Event, str] = {}
    event_lines: dict[Event, int] = {}
    builders: dict[str, _FlowBuilder] = {}
    initiators: dict[str, tuple[frozenset[str], int]] = {}
    current: _FlowBuilder | None = None

    # ``str.splitlines`` would also end a line at \v, \f, \x1c-\x1e, \x85,
    # U+2028 and U+2029, which the tokenizer reads as whitespace.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        cur = _LineCursor(raw, line_no)
        if cur.done():
            continue
        head = cur.take_word("a declaration keyword")

        if name is None:
            if head != "system":
                raise SpecSyntaxError(line_no, cur.tokens[0][2], "expected 'system' header")
            name = cur.take_word("system name")
            cur.expect_end()
            continue

        if head == "system":
            raise SpecSyntaxError(line_no, cur.tokens[0][2], "duplicate 'system' header")

        if head == "component":
            new = [cur.take_word("component id")]
            while not cur.done():
                new.append(cur.take_word("component id"))
            for c in new:
                if c in components:
                    raise SpecSemanticError(f"duplicate component {c!r}", line_no)
                components.add(c)
            continue

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
            link = Link(link_id, src, dest, channel)
            _at(line_no, _add_link, link, components, links, channels)
            continue

        if head == "flow":
            flow_id = cur.take_word("flow id")
            cur.expect_end()
            _at(line_no, _check_flow_id, flow_id, builders)
            current = builders[flow_id] = _FlowBuilder(flow_id, line_no)
            continue

        if head == "place":
            if current is None:
                raise SpecSyntaxError(
                    line_no, cur.tokens[0][2], "'place' outside a flow block"
                )
            count = 0
            while not cur.done():
                pid = cur.take_word("place id")
                if pid in ("initial", "end"):
                    raise cur.fail("marker without a preceding place id")
                if pid in current.places:
                    raise SpecSemanticError(
                        f"flow {current.id}: duplicate place {pid!r}", line_no
                    )
                current.places[pid] = None
                count += 1
                marker = cur.peek_word()
                if marker in ("initial", "end"):
                    cur.pos += 1
                    (current.initial if marker == "initial" else current.end).add(pid)
            if count == 0:
                raise cur.fail("expected at least one place id")
            continue

        if head == "transition":
            if current is None:
                raise SpecSyntaxError(
                    line_no, cur.tokens[0][2], "'transition' outside a flow block"
                )
            tid = cur.take_word("transition id")
            if tid in current.labeling:
                raise SpecSemanticError(
                    f"flow {current.id}: duplicate transition {tid!r}", line_no
                )
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

            for p in preset + postset:
                if p not in current.places:
                    raise SpecSemanticError(
                        f"flow {current.id}: transition {tid} references "
                        f"undeclared place {p!r}",
                        line_no,
                    )
            event = _at(line_no, Event, src, dest, cmd)
            _at(line_no, _check_event_link, event, link_id, links)
            prior = event_link.get(event)
            if prior is not None and prior != link_id:
                raise SpecSemanticError(
                    f"event {event} already mapped to link {prior} "
                    f"(line {event_lines[event]})",
                    line_no,
                )
            event_link[event] = link_id
            event_lines.setdefault(event, line_no)
            current.transitions.append(
                Transition(tid, frozenset(preset), frozenset(postset))
            )
            current.labeling[tid] = event
            continue

        if head == "initiator":
            component = cur.take_word("initiator component")
            cur.take_keyword("flows")
            fids = cur.take_set("flow set")
            cur.expect_end()
            _at(
                line_no, _check_initiator_component, component, components, initiators
            )
            initiators[component] = (frozenset(fids), line_no)
            continue

        raise SpecSyntaxError(
            line_no, cur.tokens[0][2], f"unknown declaration {head!r}"
        )

    if name is None:
        raise SpecSyntaxError(1, 1, "expected 'system' header")

    flows: dict[str, Flow] = {}
    for b in builders.values():
        flow = b.build()
        report = validate(flow)
        if not report.ok:
            raise SpecSemanticError(
                f"flow {flow.id} failed validation: "
                + "; ".join(str(f) for f in report.findings),
                b.line,
            )
        flows[flow.id] = flow
    for component, (fids, line_no) in initiators.items():
        _at(line_no, _check_initiator, component, fids, flows)

    return SystemSpec(
        name=name,
        topology=Topology(frozenset(components), tuple(links.values()), event_link),
        flows=tuple(flows.values()),
        initiators=tuple((c, fids) for c, (fids, _) in initiators.items()),
    )
