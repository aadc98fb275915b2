"""The README's Python API examples, run as written."""

from __future__ import annotations

import re
from pathlib import Path

from flowtrace import run_simulation

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_blocks_run_in_one_namespace(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"<README.md python block {i}>", "exec"), namespace)
    assert "ALL" in capsys.readouterr().out  # the coverage table was printed
    spec, obs = namespace["spec"], namespace["obs"]
    assert namespace["result"] == run_simulation(spec, namespace["WorkloadConfig"](seed=1), obs)
