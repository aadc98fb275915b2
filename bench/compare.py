"""Compare benchmark results from a parent commit and a change.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per run, named ``<workload>-<seed>.json``,
whose last line is the benchmark's JSON result.  Runs are grouped by
workload and paired by file name.  For every metric the table gives each
side's sample count, median and quartiles, the change in the median as a
share of the parent's, the share of pairs the change won, and a verdict
under the rules of ``bench/README.md``: ``regression`` when an
end-to-end median is worse by more than its bound, ``unresolved`` when
the parent's own spread is wider than that bound, ``gain`` when the
change won at least nine tenths of the pairs and the medians differ by
more than the parent's spread, ``same`` otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run_bench import quartiles

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9


def load_runs(directory: Path) -> dict[str, dict[str, dict]]:
    """workload -> file name -> result."""
    runs: dict[str, dict[str, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        lines = path.read_text(encoding="utf-8").strip().splitlines()
        workload = path.stem.rsplit("-", 1)[0]
        runs.setdefault(workload, {})[path.name] = json.loads(lines[-1])
    return runs


def fmt(values: list[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.4g}, {q3:.4g}]"


def verdict(parent: list[float], change: list[float], won: int, pairs: int, better: str, bound) -> str:
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    sign = 1 if better == "higher" else -1
    worse_by = sign * (p_med - c_med) / p_med if p_med else 0.0
    spread = (p_q3 - p_q1) / p_med if p_med else 0.0
    if bound is not None and spread > bound:
        return "unresolved"
    if bound is not None and worse_by > bound:
        return "regression"
    if pairs and won >= GAIN_SHARE * pairs and -worse_by > spread:
        return "gain"
    return "same"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    defs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent_runs, change_runs = (load_runs(Path(d)) for d in argv)
    for workload in sorted(set(parent_runs) & set(change_runs)):
        parent, change = parent_runs[workload], change_runs[workload]
        print(f"\n{workload}: {len(parent)} parent runs, {len(change)} change runs")
        print(
            f"{'metric':<28} {'unit':>6} {'parent median [q1, q3]':>36} "
            f"{'change median [q1, q3]':>36} {'delta':>8} {'won':>7} verdict"
        )
        names = [n for n in defs if all(n in r["metrics"] for r in parent.values())]
        for name in names:
            pv = [r["metrics"][name]["value"] for r in parent.values()]
            cv = [r["metrics"][name]["value"] for r in change.values() if name in r["metrics"]]
            if not cv:
                continue
            pairs = [
                (parent[f]["metrics"][name]["value"], change[f]["metrics"][name]["value"])
                for f in sorted(set(parent) & set(change))
                if name in change[f]["metrics"]
            ]
            d = defs[name]
            p_med, c_med = statistics.median(pv), statistics.median(cv)
            delta = (c_med - p_med) / p_med if p_med else 0.0
            won = sum(1 for p, c in pairs if (c > p if d["better"] == "higher" else c < p))
            ruling = verdict(pv, cv, won, len(pairs), d["better"], d.get("bound"))
            print(
                f"{name:<28} {d['unit']:>6} {fmt(pv):>36} {fmt(cv):>36} "
                f"{delta:>+8.1%} {won:>3}/{len(pairs):<3} {ruling}"
            )
        failed = sum(r["failed"] for r in change.values())
        attempted = sum(r["attempted"] for r in change.values())
        print(f"change: {failed} of {attempted} operations failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
