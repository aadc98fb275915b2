"""flowtrace benchmark: times one workload and checks every output.

Run from the repository root:

    python3 bench/run_bench.py --workload compare-prototype --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, each timed
call bracketed by the reference loop of ``calibration.py`` so that the
host's changing speed cancels out; ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics.  Metric names and
units come from ``BENCHMARK.json``.  A table of every metric (unit,
sample count, median and quartiles) goes to stdout,
and the last line of stdout is the JSON result.  The program is imported
from ``src/`` of the same checkout; all scratch files go to
``.bench_work/``.  ``--record-golden`` rewrites ``bench/golden.json``
from the current program's outputs on the default seeds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import calibration
from tracer import LAYERS, Tracer, layer_metrics
from workloads import WORKLOADS, Outcome

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH_DIR / "golden.json"
DEFAULT_SEEDS = tuple(range(1, 11))
MIN_REPS = 3


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def import_flowtrace() -> SimpleNamespace:
    """Import flowtrace afresh from ``src/``, so each set-up pays for it."""
    for name in [n for n in sys.modules if n == "flowtrace" or n.startswith("flowtrace.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("flowtrace")
    if Path(package.__file__).resolve().parent != SRC / "flowtrace":
        raise BenchError(f"flowtrace was imported from {package.__file__}, not {SRC}")
    modules = {m: importlib.import_module(f"flowtrace.{m}") for m in LAYERS}
    return SimpleNamespace(package=package, **modules)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class OffClock:
    """Times the reference loop between the steps of a pipeline call and
    keeps that time off the call's clock."""

    def __init__(self) -> None:
        self.paces: list[float] = []
        self.seconds = 0.0

    def __call__(self) -> None:
        start = time.perf_counter()
        self.paces.append(calibration.pace())
        self.seconds += time.perf_counter() - start


class Run:
    """One benchmark run: set-up, repetitions, checks and the result."""

    def __init__(self, workload: str, seed: int, seconds: float, golden: dict | None):
        self.workdir = WORK / f"{workload}-{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.workload = WORKLOADS[workload](seed, self.workdir)
        self.seconds = seconds
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.samples: dict[str, list[float]] = {}
        # Speed-corrected metrics: [sum of call seconds, sum of pace seconds].
        self.paced: dict[str, list[float]] = {}
        self.events: list[int] = []
        self.inner_paces: list[float] = []
        self.facts: dict | None = None

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def timed(self, name: str, seconds: float, pace: float) -> None:
        """Record one call's seconds and the reference loop's around it."""
        total = self.paced.setdefault(name, [0.0, 0.0])
        total[0] += seconds
        total[1] += pace
        self.sample(name, calibration.corrected(seconds, pace))

    def corrected(self, name: str) -> float:
        seconds, pace = self.paced[name]
        return calibration.corrected(seconds, pace)

    def set_up(self) -> float:
        """Import flowtrace, parse the spec and load the plan; return the seconds."""
        gc.collect()
        start = time.perf_counter()
        self.ft = import_flowtrace()
        self.state = self.workload.setup(self.ft)
        elapsed = time.perf_counter() - start
        if self.facts is None:
            self.facts = self.workload.facts(self.ft, self.state)
        return elapsed

    def repetition(self, tracer: Tracer | None = None, heap: bool = False) -> float:
        """Run the pipeline call once, check its outputs, return its seconds
        (NaN if it raised); the work it delivered goes to ``events``, and
        the reference loop's times between its steps to ``inner_paces``."""
        wl = self.workload
        wl.prepare()
        gc.collect()
        if heap:
            tracemalloc.start()
        raw = error = None
        try:
            if tracer is None:
                off_clock = OffClock()
                start = time.perf_counter()
                raw = wl.run(self.ft, self.state, None if heap else off_clock)
                elapsed = time.perf_counter() - start - off_clock.seconds
                self.inner_paces = off_clock.paces
            else:
                with tracer.patched():
                    with tracer.phase("setup"):
                        state = wl.setup(self.ft)
                    with tracer.phase("pipeline"):
                        raw = wl.run(self.ft, state)
                elapsed = tracer.spans[tracer.roots["pipeline"]].duration
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
            elapsed = float("nan")
        finally:
            if heap:
                self.sample("peak_heap_mb", tracemalloc.get_traced_memory()[1] / 2**20)
                tracemalloc.stop()
        if error is None:
            traced_problems = tracer.problems if tracer else {}
            outcome = wl.check(raw, self.facts, self.golden, traced_problems)
        else:
            outcome = Outcome()
            outcome.fail_all(wl.expected_ops(), error)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems += outcome.problems
        self.digests.update(outcome.digests)
        if error is None and not heap and tracer is None:
            self.events.append(outcome.events)
        return elapsed

    def measure(self) -> None:
        """End-to-end metrics, tracing off; then one untimed heap pass.

        The reference loop runs before the first set-up, after every
        set-up and pipeline call, and between the steps of a pipeline call
        that has them, so each timed call has a pace measured just before
        and just after it.
        """
        deadline = time.perf_counter() + self.seconds
        reps = 0
        pace = calibration.pace()
        while reps < MIN_REPS or time.perf_counter() < deadline:
            setup = self.set_up()
            pace_mid = calibration.pace()
            wall = self.repetition()
            pace_end = calibration.pace()
            self.timed("setup_s", setup, (pace + pace_mid) / 2)
            if not math.isnan(wall):
                paces = [pace_mid, *self.inner_paces, pace_end]
                self.timed("wall_s", wall, statistics.mean(paces))
                self.sample("events_per_s", self.events[-1] / self.samples["wall_s"][-1])
            pace = pace_end
            reps += 1
        self.sample("host_slowdown", self.paced["setup_s"][1] / reps / calibration.REFERENCE_S)
        self.repetition(heap=True)

    def end_to_end(self) -> dict[str, float]:
        """Reported end-to-end values: speed-corrected ratios of sums."""
        values = {name: self.corrected(name) for name in self.paced}
        if "wall_s" in values:
            values["events_per_s"] = statistics.mean(self.events) / values["wall_s"]
        values["peak_heap_mb"] = self.samples["peak_heap_mb"][0]
        return values

    def measure_traced(self) -> list[Tracer]:
        """Alternate untraced and traced repetitions for the per-layer metrics."""
        tracers = []
        untraced, traced = [], []
        deadline = time.perf_counter() + self.seconds
        while len(traced) < MIN_REPS or time.perf_counter() < deadline:
            self.set_up()
            untraced.append(self.repetition())
            tracer = Tracer()
            traced.append(self.repetition(tracer))
            tracers.append(tracer)
            if not math.isnan(traced[-1]):
                for name, value in layer_metrics(tracer).items():
                    self.sample(name, value)
        untraced = [t for t in untraced if not math.isnan(t)]
        traced = [t for t in traced if not math.isnan(t)]
        if untraced and traced:
            self.sample("trace_overhead_s", min(traced) - min(untraced))
        return tracers


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(run: Run, metric_defs: list[dict], reported: dict[str, float] | None) -> dict:
    """Print every metric's samples and return the reported values.

    End-to-end metrics report the values in ``reported`` (see
    ``Run.end_to_end``); their samples are the per-repetition corrected
    values.  Per-layer metrics report the median.
    """
    print(f"{'metric':<30} {'unit':>7} {'n':>4} {'reported':>12} {'median':>12} {'q1':>12} {'q3':>12}")
    metrics = {}
    for m in metric_defs:
        values = run.samples.get(m["name"])
        if not values:
            raise BenchError(f"metric {m['name']} was not measured")
        q1, median, q3 = quartiles(values)
        value = median if reported is None else reported[m["name"]]
        print(
            f"{m['name']:<30} {m['unit']:>7} {len(values):>4} "
            f"{value:>12.6g} {median:>12.6g} {q1:>12.6g} {q3:>12.6g}"
        )
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    rate = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'error_rate':<30} {'ratio':>7} {run.attempted:>4} {rate:>12.6g}")
    if "host_slowdown" in run.samples:
        raw = run.paced["wall_s"][0] / len(run.events) if run.events else float("nan")
        print(f"{'host_slowdown':<30} {'x':>7} {'':>4} {run.samples['host_slowdown'][0]:>12.6g}")
        print(f"{'uncorrected_wall_s (mean)':<30} {'s':>7} {len(run.events):>4} {raw:>12.6g}")
    return metrics


def record_golden() -> None:
    golden: dict[str, dict[str, dict[str, str]]] = {}
    for name in WORKLOADS:
        golden[name] = {}
        for seed in DEFAULT_SEEDS:
            run = Run(name, seed, 0, None)
            run.set_up()
            run.repetition()
            if run.failed:
                raise BenchError(f"{name} seed {seed}: {run.problems[:3]}")
            golden[name][str(seed)] = dict(sorted(run.digests.items()))
            print(f"{name} seed {seed}: {len(run.digests)} outputs", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "flowtrace" / "__init__.py").is_file():
        print(f"error: no flowtrace sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.record_golden:
            record_golden()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        spec = load_spec()
        golden = None
        if args.seed in DEFAULT_SEEDS:
            golden = json.loads(GOLDEN.read_text(encoding="utf-8"))[args.workload][str(args.seed)]
        run = Run(args.workload, args.seed, args.seconds, golden)
        if args.trace:
            tracers = run.measure_traced()
            metrics = report(run, spec["per_layer"], None)
            spans = [[s.to_json() for s in t.spans] for t in tracers]
            (run.workdir / "spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
        else:
            run.measure()
            metrics = report(run, spec["end_to_end"], run.end_to_end())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
