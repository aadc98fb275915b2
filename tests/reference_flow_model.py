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
"""

from __future__ import annotations

from flowtrace.flow_model import Event, Flow


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
