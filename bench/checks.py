"""Output checks for the benchmark's workloads.

Each check takes plain data (a parsed cell body, or a selection as
strings) and returns a list of problems; an empty list means the output
passed.  Every failed check fails one operation of the run, which is
how ``failed`` and the error rate are counted.
"""

from __future__ import annotations

import hashlib
import json
from typing import Iterable, Mapping


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def selection_bytes(events: Iterable[str], links: Iterable[str]) -> bytes:
    """Canonical bytes of one selection: its sorted events and links."""
    body = {"events": sorted(events), "links": sorted(links)}
    return json.dumps(body, sort_keys=True).encode()


def golden_problems(name: str, digest: str, golden: Mapping[str, str] | None) -> list[str]:
    """Compare an output's digest with the recorded one, when there is one."""
    if golden is None:
        return []
    want = golden.get(name)
    if want is None:
        return [f"{name}: no golden digest recorded"]
    if digest != want:
        return [f"{name}: sha256 {digest[:12]} differs from golden {want[:12]}"]
    return []


def conservation_problems(cell: Mapping) -> list[str]:
    """Per-link conservation as far as a cell body shows it.

    A cell records detected, dropped and residual counts per link and
    the total observed.  Each link's observed count is therefore
    detected - drops - residual; it must not be negative, and the
    per-link counts must add up to the observed total.
    """
    problems = []
    detected, drops, residual = cell["detected"], cell["drops"], cell["residual"]
    if not set(detected) == set(drops) == set(residual) == set(cell["links"]):
        problems.append("per-link counters name different link sets")
        return problems
    observed_sum = 0
    for link in sorted(detected):
        observed = detected[link] - drops[link] - residual[link]
        if observed < 0:
            problems.append(
                f"{link}: detected {detected[link]} < drops {drops[link]} "
                f"+ residual {residual[link]}"
            )
        observed_sum += observed
    if observed_sum != cell["observed_events"]:
        problems.append(
            f"per-link observed counts sum to {observed_sum}, "
            f"cell reports {cell['observed_events']} observed events"
        )
    return problems


def result_conservation_problems(
    detected: Mapping[str, int],
    drops: Mapping[str, int],
    residual: Mapping[str, int],
    observed_links: Iterable[str],
) -> list[str]:
    """Per-link conservation on a simulation result: every detected event
    was observed, dropped or left in the queue."""
    observed = dict.fromkeys(detected, 0)
    for link in observed_links:
        observed[link] = observed.get(link, 0) + 1
    return [
        f"{link}: detected {detected.get(link, 0)} != observed {observed[link]} "
        f"+ drops {drops.get(link, 0)} + residual {residual.get(link, 0)}"
        for link in sorted(observed)
        if detected.get(link, 0)
        != observed[link] + drops.get(link, 0) + residual.get(link, 0)
    ]


def full_observability_problems(cell: Mapping) -> list[str]:
    """The paper invariant for a lossless run: FIC = CEC = path_resolved = 1."""
    cov = cell["coverage"]
    problems = [
        f"{key} = {cov[key]}, expected 1"
        for key in ("fic", "cec", "path_resolved")
        if cov[key] != 1
    ]
    if not cell["lossless"]:
        problems.append("run is not lossless")
    return problems


def fic_cover_problems(
    selected: Iterable[str], guaranteed: Mapping[str, Iterable[str]]
) -> list[str]:
    """Every flow must have a selected event that all its paths emit."""
    chosen = set(selected)
    return [
        f"fic selection does not cover flow {fid}"
        for fid, events in sorted(guaranteed.items())
        if not chosen & set(events)
    ]


def cec_endpoint_problems(
    selected: Iterable[str],
    starts: Mapping[str, Iterable[str]],
    ends: Mapping[str, Iterable[str]],
) -> list[str]:
    """Every flow's start and end events must be in the cec selection."""
    chosen = set(selected)
    problems = []
    for kind, table in (("start", starts), ("end", ends)):
        for fid, events in sorted(table.items()):
            missing = sorted(set(events) - chosen)
            if missing:
                problems.append(f"cec selection misses {kind} events {missing} of {fid}")
    return problems
