"""Parsing and serialization of system specifications.

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

:func:`load_prototype` returns the built-in two-CPU SoC model (16 flows
over 32 monitored links) used by the experiment harness.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
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
    "serialize_system",
]

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


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
    """Each flow of an initiator block must exist and start at the initiator."""
    for fid in sorted(flow_ids):
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
        for c in self.components:
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
            for e in f.events:
                for part in (e.src, e.dest, e.cmd):
                    _check_ident(part, "event field")
                if e not in self.topology.event_link_map:
                    raise ValueError(f"flow {f.id}: event {e} has no link mapping")
        initiators: set[str] = set()
        for component, fids in self.initiators:
            _check_initiator_component(
                component, self.topology.components, initiators
            )
            initiators.add(component)
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


@dataclass(frozen=True)
class _Token:
    kind: str  # WORD NUM ARROW LBRACE RBRACE COMMA COLON
    text: str
    line: int
    column: int


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
)


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecSyntaxError(
                line_no, pos + 1, f"unexpected character {text[pos]!r}"
            )
        kind = m.lastgroup or ""
        if kind == "COMMENT":
            break
        if kind != "WS":
            tokens.append(_Token(kind, m.group(), line_no, pos + 1))
        pos = m.end()
    return tokens


class _LineCursor:
    """Single-line token cursor with positioned errors."""

    def __init__(self, tokens: list[_Token], line_no: int, line_len: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.line_len = line_len

    def done(self) -> bool:
        return self.pos >= len(self.tokens)

    def peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def fail(self, message: str) -> SpecSyntaxError:
        tok = self.peek()
        column = tok.column if tok else self.line_len + 1
        return SpecSyntaxError(self.line_no, column, message)

    def take(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            raise self.fail(f"expected {what}")
        self.pos += 1
        return tok

    def take_word(self, what: str) -> str:
        return self.take("WORD", what).text

    def take_keyword(self, keyword: str) -> None:
        tok = self.peek()
        if tok is None or tok.kind != "WORD" or tok.text != keyword:
            raise self.fail(f"expected {keyword!r}")
        self.pos += 1

    def take_set(self, what: str) -> list[str]:
        self.take("LBRACE", f"'{{' opening {what}")
        items: list[str] = []
        while True:
            tok = self.peek()
            if tok is None:
                raise self.fail(f"unterminated {what}")
            if tok.kind == "RBRACE":
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
        self.places: list[str] = []
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


def parse_system(text: str) -> SystemSpec:
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

    lines = text.splitlines()
    for line_no, raw in enumerate(lines, start=1):
        tokens = _tokenize_line(raw, line_no)
        if not tokens:
            continue
        cur = _LineCursor(tokens, line_no, len(raw))
        head = cur.take_word("a declaration keyword")

        if name is None:
            if head != "system":
                raise SpecSyntaxError(line_no, tokens[0].column, "expected 'system' header")
            name = cur.take_word("system name")
            cur.expect_end()
            continue

        if head == "system":
            raise SpecSyntaxError(line_no, tokens[0].column, "duplicate 'system' header")

        if head == "component":
            first = cur.take_word("component id")
            new = [first]
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
                channel = int(cur.take("NUM", "channel number").text)
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
                    line_no, tokens[0].column, "'place' outside a flow block"
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
                current.places.append(pid)
                count += 1
                nxt = cur.peek()
                if nxt is not None and nxt.kind == "WORD" and nxt.text in ("initial", "end"):
                    cur.pos += 1
                    (current.initial if nxt.text == "initial" else current.end).add(pid)
            if count == 0:
                raise cur.fail("expected at least one place id")
            continue

        if head == "transition":
            if current is None:
                raise SpecSyntaxError(
                    line_no, tokens[0].column, "'transition' outside a flow block"
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
            line_no, tokens[0].column, f"unknown declaration {head!r}"
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


# --------------------------------------------------------------------------
# Serializer


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


# --------------------------------------------------------------------------
# Built-in models


def _coherent_flow(n: int, kind: str) -> str:
    """Coherent read/write flow for CPU ``n`` (same net shape for both)."""
    me, peer = n, 1 - n
    snp_out, snp_in = f"snp_{me}{peer}", f"snp_{peer}{me}"
    k = kind  # "wr" or "rd"
    return f"""\
flow coh_{k}_{me}
  place p1 initial
  place p2 p3 p4 p5 p6 p7 p8
  place p9 end
  transition t1  pre {{p1}} post {{p2}} event CPU{me}:Cache{me}:{k}_req on c{me}_req_coh
  transition t2  pre {{p2}} post {{p3}} event Cache{me}:Cache{peer}:snp_{k}_req on {snp_out}
  transition t3  pre {{p3}} post {{p4}} event Cache{peer}:Cache{me}:snp_{k}_resp on {snp_in}
  transition t4  pre {{p4}} post {{p5}} event Cache{me}:Bus:{k}_req on cache{me}_bus_{k}
  transition t5  pre {{p5}} post {{p6}} event Bus:Mem:rd_req on bus_mem_rd
  transition t6  pre {{p6}} post {{p7}} event Mem:Bus:rd_resp on mem_bus_rd
  transition t7  pre {{p7}} post {{p8}} event Bus:Cache{me}:{k}_resp on bus_cache{me}_{k}
  transition t8  pre {{p8}} post {{p9}} event Cache{me}:CPU{me}:{k}_resp on c{me}_resp_coh
  transition t9  pre {{p4}} post {{p9}} event Cache{me}:CPU{me}:{k}_resp on c{me}_resp_coh
  transition t10 pre {{p2}} post {{p9}} event Cache{me}:CPU{me}:{k}_resp on c{me}_resp_coh
"""


def _noncoherent_flow(n: int, kind: str) -> str:
    """Buffered non-coherent (no snoop) memory access for CPU ``n``."""
    k = kind
    return f"""\
flow nc_{k}_{n}
  place q1 initial
  place q2 q3 q4 q5 q6
  place q7 end
  transition u1 pre {{q1}} post {{q2}} event CPU{n}:Cache{n}:nc_{k}_req on c{n}_req_nc
  transition u2 pre {{q2}} post {{q3}} event Cache{n}:Bus:{k}_req on cache{n}_bus_{k}
  transition u3 pre {{q3}} post {{q4}} event Bus:Mem:{k}_req on bus_mem_{k}
  transition u4 pre {{q4}} post {{q5}} event Mem:Bus:{k}_resp on mem_bus_{k}
  transition u5 pre {{q5}} post {{q6}} event Bus:Cache{n}:{k}_resp on bus_cache{n}_{k}
  transition u6 pre {{q6}} post {{q7}} event Cache{n}:CPU{n}:nc_{k}_resp on c{n}_resp_nc
"""


def _upstream_flow(block: str, short: str, kind: str) -> str:
    """Peripheral DMA to memory: request, grant, memory access, response."""
    k = kind
    return f"""\
flow up_{k}_{short}
  place r1 initial
  place r2 r3 r4 r5
  place r6 end
  transition v1 pre {{r1}} post {{r2}} event {block}:Bus:{k}_req on {short}_bus
  transition v2 pre {{r2}} post {{r3}} event Bus:{block}:dma_gnt on bus_{short}
  transition v3 pre {{r3}} post {{r4}} event Bus:Mem:{k}_req on bus_mem_{k}
  transition v4 pre {{r4}} post {{r5}} event Mem:Bus:{k}_resp on mem_bus_{k}
  transition v5 pre {{r5}} post {{r6}} event Bus:{block}:{k}_resp on bus_{short}
"""


def _power_flow(kind: str) -> str:
    """Power state change walked across both CPUs by the PMU."""
    return f"""\
flow pm_{kind}
  place s1 initial
  place s2 s3 s4
  place s5 end
  transition w1 pre {{s1}} post {{s2}} event PMU:CPU0:{kind}_req on pmu_cpu0
  transition w2 pre {{s2}} post {{s3}} event CPU0:PMU:pm_ack on cpu0_pmu
  transition w3 pre {{s3}} post {{s4}} event PMU:CPU1:{kind}_req on pmu_cpu1
  transition w4 pre {{s4}} post {{s5}} event CPU1:PMU:{kind}_ack on cpu1_pmu
"""


PROTOTYPE_SPEC = (
    """\
# Two-CPU SoC with private caches, a shared bus, memory, and three
# peripheral blocks.  Each link below carries one per-link monitor.
system soc16

component CPU0 CPU1 Cache0 Cache1 Bus Mem GFX PMU Audio

# CPU <-> private cache: separate request/response channels for coherent
# and non-coherent traffic.
link c0_req_coh  CPU0 -> Cache0 channel 0
link c0_req_nc   CPU0 -> Cache0 channel 1
link c0_resp_coh Cache0 -> CPU0 channel 0
link c0_resp_nc  Cache0 -> CPU0 channel 1
link c1_req_coh  CPU1 -> Cache1 channel 0
link c1_req_nc   CPU1 -> Cache1 channel 1
link c1_resp_coh Cache1 -> CPU1 channel 0
link c1_resp_nc  Cache1 -> CPU1 channel 1

# Cache-to-cache snoop channels.
link snp_01 Cache0 -> Cache1
link snp_10 Cache1 -> Cache0

# Cache <-> bus, split into write and read channels.
link cache0_bus_wr Cache0 -> Bus channel 0
link cache0_bus_rd Cache0 -> Bus channel 1
link bus_cache0_wr Bus -> Cache0 channel 0
link bus_cache0_rd Bus -> Cache0 channel 1
link cache1_bus_wr Cache1 -> Bus channel 0
link cache1_bus_rd Cache1 -> Bus channel 1
link bus_cache1_wr Bus -> Cache1 channel 0
link bus_cache1_rd Bus -> Cache1 channel 1

# Bus <-> memory, split into write and read channels.
link bus_mem_wr Bus -> Mem channel 0
link bus_mem_rd Bus -> Mem channel 1
link mem_bus_wr Mem -> Bus channel 0
link mem_bus_rd Mem -> Bus channel 1

# Peripheral DMA ports.
link gfx_bus GFX -> Bus
link bus_gfx Bus -> GFX
link pmu_bus PMU -> Bus
link bus_pmu Bus -> PMU
link aud_bus Audio -> Bus
link bus_aud Bus -> Audio

# Power management.
link pmu_cpu0 PMU -> CPU0
link cpu0_pmu CPU0 -> PMU
link pmu_cpu1 PMU -> CPU1
link cpu1_pmu CPU1 -> PMU

"""
    + _coherent_flow(0, "wr")
    + _coherent_flow(1, "wr")
    + _coherent_flow(0, "rd")
    + _coherent_flow(1, "rd")
    + _noncoherent_flow(0, "wr")
    + _noncoherent_flow(1, "wr")
    + _noncoherent_flow(0, "rd")
    + _noncoherent_flow(1, "rd")
    + _upstream_flow("GFX", "gfx", "wr")
    + _upstream_flow("GFX", "gfx", "rd")
    + _upstream_flow("PMU", "pmu", "wr")
    + _upstream_flow("PMU", "pmu", "rd")
    + _upstream_flow("Audio", "aud", "wr")
    + _upstream_flow("Audio", "aud", "rd")
    + _power_flow("wake")
    + _power_flow("sleep")
    + """\

initiator CPU0 flows {coh_wr_0,coh_rd_0,nc_wr_0,nc_rd_0}
initiator CPU1 flows {coh_wr_1,coh_rd_1,nc_wr_1,nc_rd_1}
initiator GFX flows {up_wr_gfx,up_rd_gfx}
initiator PMU flows {up_wr_pmu,up_rd_pmu,pm_wake,pm_sleep}
initiator Audio flows {up_wr_aud,up_rd_aud}
"""
)


def load_prototype() -> SystemSpec:
    """The built-in two-CPU SoC model: 16 flows over 32 monitored links."""
    return parse_system(PROTOTYPE_SPEC)
