"""Reference flow facts: the acyclicity check, the DFS over string-keyed
place and transition nodes, and the start and end event scans.

``flow_model._has_cycle`` walks transition indices instead.  This copy is
kept verbatim so the differential tests can require the same answer on
nets with distinct transition ids.  It keys a transition by its id, so a
second transition with the same id replaces the first one's out-edges
while both keep their in-edges: on such a net it can miss a cycle or
report one that the net does not have.

``flow_model.start_events`` and ``end_events`` read a flow's cached sets;
the scans below rescan every transition on each call.

``validate`` and ``_has_cycle_by_index`` build every set they test,
read transitions by field name and always walk the net for a cycle; the
differential tests require the same findings, in the same order and with
the same text, from ``flow_model.validate``.
"""

from __future__ import annotations

from flowtrace.flow_model import Event, Finding, Flow, ValidationReport


def start_events(flow: Flow) -> frozenset[Event]:
    """Labels of transitions enabled in the initial marking."""
    return frozenset(
        flow.labeling[t.id]
        for t in flow.transitions
        if t.preset <= flow.initial_marking and t.id in flow.labeling
    )


def end_events(flow: Flow) -> frozenset[Event]:
    """Labels of transitions that produce only end-marking places."""
    return frozenset(
        flow.labeling[t.id]
        for t in flow.transitions
        if t.postset <= flow.end_marking and t.id in flow.labeling
    )


def has_cycle(flow: Flow) -> bool:
    """Detect a cycle in the bipartite place/transition digraph."""
    graph: dict[str, list[str]] = {f"p:{p}": [] for p in flow.places}
    for t in flow.transitions:
        node = f"t:{t.id}"
        graph[node] = [f"p:{p}" for p in t.postset if f"p:{p}" in graph]
        for p in t.preset:
            if f"p:{p}" in graph:
                graph[f"p:{p}"].append(node)

    WHITE, GREY, BLACK = 0, 1, 2
    color = dict.fromkeys(graph, WHITE)
    for root in graph:
        if color[root] != WHITE:
            continue
        color[root] = GREY
        # The grey path from ``root``, each node with its unvisited successors.
        stack = [(root, iter(graph[root]))]
        while stack:
            node, successors = stack[-1]
            for nxt in successors:
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(graph[nxt])))
                    break
            else:
                color[node] = BLACK
                stack.pop()
    return False


def validate(flow: Flow) -> ValidationReport:
    """Check every structural and behavioral invariant of a flow.

    Structural checks cover identifier uniqueness, labeling totality,
    marking sanity, per-transition preset/postset rules and acyclicity of
    the place/transition graph.  If the structure permits it, the token
    game (:attr:`Flow.state_graph`) is then explored exhaustively: every
    place must be reachable, every transition fireable, token merges must
    not occur, and every maximal firing sequence must terminate exactly in
    the end marking.
    """
    findings: list[Finding] = []

    def flag(code: str, detail: str) -> None:
        findings.append(Finding(code, detail))

    place_set = set(flow.places)
    if not flow.places:
        flag("empty net", "flow declares no places")
    if len(place_set) != len(flow.places):
        dupes = sorted({p for p in flow.places if flow.places.count(p) > 1})
        flag("duplicate place", ", ".join(dupes))

    seen_t: set[str] = set()
    for t in flow.transitions:
        if t.id in seen_t:
            flag("duplicate transition", t.id)
        seen_t.add(t.id)
        if not t.preset:
            flag("empty preset", t.id)
        if not t.postset:
            flag("empty postset", t.id)
        if t.preset & t.postset:
            flag("self-loop", f"{t.id} shares places {sorted(t.preset & t.postset)}")
        unknown = (t.preset | t.postset) - place_set
        if unknown:
            for p in sorted(unknown):
                flag("unknown place", f"{t.id} references {p}")

    for tid in flow.labeling:
        if tid not in seen_t:
            flag("label for unknown transition", tid)
    unlabeled = sorted(seen_t - set(flow.labeling))
    if unlabeled:
        flag("unlabeled transition", ", ".join(unlabeled))

    if not flow.initial_marking:
        flag("empty initial marking", flow.id)
    if not flow.end_marking:
        flag("empty end marking", flow.id)
    if flow.initial_marking & flow.end_marking:
        flag(
            "overlapping markings",
            f"initial and end markings share {sorted(flow.initial_marking & flow.end_marking)}",
        )
    for p in sorted((flow.initial_marking | flow.end_marking) - place_set):
        flag("unknown place", f"marking references {p}")
    for t in flow.transitions:
        for p in sorted(t.preset & flow.end_marking):
            flag("end place consumed", f"{p} is in the preset of {t.id}")

    if _has_cycle_by_index(flow):
        flag("cyclic structure", "place/transition graph contains a cycle")

    if findings:
        return ValidationReport(flow.id, tuple(findings))

    # Behavioral checks, read off the explored state graph.
    graph = flow.state_graph
    explored = list(zip(graph.markings, graph.successors))
    by_id = {t.id: t for t in flow.transitions}
    fired: set[str] = set()
    collision = None
    for marked, successors in explored:
        for tid, _ in successors:
            fired.add(tid)
            t = by_id[tid]
            if collision is None and (marked - t.preset) & t.postset:
                collision = (
                    f"firing {tid} merges tokens on "
                    f"{sorted((marked - t.preset) & t.postset)}"
                )
    if collision:
        flag("token collision", collision)
    if graph.truncated:
        flag("state explosion", "too many reachable markings to validate")

    for tid in sorted(seen_t - fired):
        flag("dead transition", f"{tid} can never fire")
    for p in sorted(place_set.difference(*graph.markings)):
        flag("unreachable place", p)
    dead_ends = [marked for marked, successors in explored if not successors]
    for marked in sorted(dead_ends, key=sorted):
        if marked != flow.end_marking:
            flag(
                "bad termination",
                f"a maximal firing sequence stops in {sorted(marked)} "
                f"instead of the end marking {sorted(flow.end_marking)}",
            )

    return ValidationReport(flow.id, tuple(findings))


def _has_cycle_by_index(flow: Flow) -> bool:
    """Detect a cycle in the place/transition digraph, walked over transition
    indices: ``k`` has an edge to ``j`` when a place in ``k``'s postset is a
    known place in ``j``'s preset, so a repeated id is a node of its own."""
    consumers: dict[str, list[int]] = {p: [] for p in flow.places}
    for j, (_, pre, _) in enumerate(flow.transitions):
        for p in pre:
            if p in consumers:
                consumers[p].append(j)
    edges = [
        [j for p in post if p in consumers for j in consumers[p]]
        for _, _, post in flow.transitions
    ]

    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * len(edges)
    for root in range(len(edges)):
        if color[root] != WHITE:
            continue
        color[root] = GREY
        # The grey path from ``root``, each node with its unvisited successors.
        stack = [(root, iter(edges[root]))]
        while stack:
            node, successors = stack[-1]
            for nxt in successors:
                if color[nxt] == GREY:
                    return True
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(edges[nxt])))
                    break
            else:
                color[node] = BLACK
                stack.pop()
    return False
