"""Metamorphic check: link names are labels, not inputs.

Renaming every link by a bijection that keeps their sorted order leaves
the port's round-robin order, the queue split and every selector's
tie-break as they were, so each ``compare`` cell must come out the same
once the link names in it are mapped back.
"""

from __future__ import annotations

import json
import re

import pytest

from flowtrace.cli import main
from flowtrace.spec_io import PROTOTYPE_SPEC, parse_system

from conftest import bench_module

# Cell fields keyed by link; ``links`` is the sorted list of enabled links.
LINK_MAPS = ("detected", "drops", "residual", "max_occupancy")


def renamed(text: str) -> tuple[str, dict[str, str]]:
    """``text`` with its links renamed ``L0000``, ``L0001``, ... in sorted
    order, and the map from each new name back to the old one."""
    links = sorted(link.id for link in parse_system(text).topology.links)
    new = {old: f"L{k:04d}" for k, old in enumerate(links)}

    def swap(match: re.Match) -> str:
        return match[1] + new.get(match[2], match[2])

    # A link is named where it is declared and where a transition emits on it.
    text = re.sub(r"(\b(?:link|on)\s+)(\w+)", swap, text)
    return text, {v: k for k, v in new.items()}


def compare_cells(tmp_path, name: str, text: str) -> dict[str, dict]:
    spec = tmp_path / f"{name}.spec"
    spec.write_text(text, encoding="utf-8")
    out = tmp_path / name
    plan = tmp_path / f"{name}.json"
    plan.write_text(json.dumps({
        "spec": str(spec),
        "capacities": [8, 32],
        "seeds": [1, 2],
        "workload": {"instances_per_initiator": 10},
        "out_dir": str(out),
    }), encoding="utf-8")
    assert main(["compare", str(plan)]) == 0
    cells = {p.name: json.loads(p.read_text(encoding="utf-8")) for p in out.glob("*.json")}
    assert len(cells) == 16
    return cells


def mapped_back(cell: dict, back: dict[str, str]) -> dict:
    cell = {**cell, "links": sorted(back[link] for link in cell["links"])}
    for key in LINK_MAPS:
        cell[key] = {back[link]: n for link, n in cell[key].items()}
    return cell


@pytest.mark.parametrize("spec", ["prototype", "soc"])
def test_renaming_links_in_sorted_order_changes_no_cell(tmp_path, capsys, spec):
    text = PROTOTYPE_SPEC if spec == "prototype" else bench_module("socgen").soc(4, 4, 1)
    text_renamed, back = renamed(text)
    links = parse_system(text_renamed).topology.links
    assert sorted(link.id for link in links) == sorted(back)  # every link was renamed
    want = compare_cells(tmp_path, "original", text)
    got = compare_cells(tmp_path, "renamed", text_renamed)
    capsys.readouterr()
    assert got.keys() == want.keys()
    differing = [name for name in sorted(want) if mapped_back(got[name], back) != want[name]]
    assert differing == []
    assert any(sum(cell["drops"].values()) for cell in want.values())  # loss was compared
