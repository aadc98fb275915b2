"""Cell files of a small ``compare`` and ``run`` plan, pinned by sha256.

The digests were recorded from the fused simulator loop, so they pin
that the grid driver's run-once-per-seed, replay-per-cell structure
writes byte-identical cells, in one lane or with a forked child.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from flowtrace.cli import main

COMPARE_PLAN = {
    "seeds": [1, 2],
    "capacities": [8],
    "workload": {"instances_per_initiator": 20},
}
RUN_PLAN = {
    "selection": "none",
    "scope": ["CPU0", "GFX"],
    "capacities": [1, 4],
    "seeds": [3, 5],
    "workload": {"instances_per_initiator": 20},
    "drain": False,
}

GOLDEN = {
    "compare": {
        "cec_8_1.json": "82c96a9aa02c846f112091785767527a35b944e8cf34b904122f918b7e2b6f71",
        "cec_8_2.json": "2499e6fac0dda156b2c3681a984b08ba660ba4978639f0d2fc3922479f22a961",
        "fc16_8_1.json": "1c1e15a3f4d9cf3816757ae470f79b029547dff3e3e1ab74ade035694917f40f",
        "fc16_8_2.json": "1931b018060984383c8e29b9cb00a2d6d44ae2b7bb0fa5086165135877878c74",
        "fic_8_1.json": "627cbd961e1905bc26a3d1e52a4cda6c05459cbf81a5a921d5b9dc3028a48864",
        "fic_8_2.json": "922370f6acc184a0835b545c01441cf7fe6d68ac7dd1df338dbf87d4b97b7a7f",
        "none_8_1.json": "0dc560c0000f4eb6e41d236e51606af5a48e0d0ae71110a4abe7f35bc3dd2a53",
        "none_8_2.json": "ab1ecbcf753b3852ee20eaa8e7c40d25817c43b17c77fc1e54aea2f84e568152",
    },
    # Scoped, drops on every cell, residual where the run ends undrained.
    "run": {
        "none_1_3.json": "b3c2703688b2100c0b2c00374878477128c9e3de687b37e553ed03e46ad77afa",
        "none_1_5.json": "1d2216752a61ea39dab0fe5395af60bb6fa6ef502084d5013c5080ca9a3f01e4",
        "none_4_3.json": "56e0dfae6d681e0489015451e050aaf90aba3b65b9764f31a015e5be5f31e6a1",
        "none_4_5.json": "cb1d6ce5f63388f47878c279a8fe0d204891263ea46fe6ab8c7fdce05ae18e04",
    },
}


def cell_digests(tmp_path, command: str, body: dict) -> dict[str, str]:
    out_dir = tmp_path / "results"
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(dict(body, out_dir=str(out_dir))), encoding="utf-8")
    assert main([command, str(plan)]) == 0
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.glob("*_*_*.json"))
    }


@pytest.mark.parametrize("lanes", [1, 2])
@pytest.mark.parametrize(
    "command, body", [("compare", COMPARE_PLAN), ("run", RUN_PLAN)]
)
def test_cell_files_match_recorded_digests(tmp_path, capsys, force_lanes, command, body, lanes):
    force_lanes(lanes)
    assert cell_digests(tmp_path, command, body) == GOLDEN[command]
