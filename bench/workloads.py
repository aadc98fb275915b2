"""The benchmark's workloads: inputs from a seed, set-up, the timed
pipeline call, and the checks on its outputs.

Why each workload exists (see README.md for the layer each one moves):

* ``compare-prototype`` is the headline user path, ``flowtrace compare``
  on the built-in prototype with a saturated trace port; every seed's
  workload is simulated once per method, so engine speed-ups show here.
* ``trace-light`` is ``flowtrace run`` with every link observed and a
  port that keeps up: no drops, exact-projection reconstruction over
  every event, and each seed simulated once.
* ``select-soc`` runs validation, path enumeration and the three
  selectors on a generated SoC large enough for the greedy link cover;
  it does no simulation.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
from pathlib import Path
from types import SimpleNamespace

import checks
import socgen

# compare-prototype: the four methods at base capacity 8, default delays.
COMPARE_SIM_SEEDS = 2
COMPARE_INSTANCES = 150
COMPARE_LABELS = ("none", "fic", "cec", "fc16")
# trace-light: every link, a wide initiation delay so the port keeps up.
LIGHT_SIM_SEEDS = 3
LIGHT_INSTANCES = 200
LIGHT_DELAY = (30, 60)
CAPACITY = 8
# select-soc: past EXACT_COVER_LIMIT, so select_fic uses the greedy cover.
SOC_CPUS = 24
SOC_PERIPHERALS = 24
FC_K = 16


class Outcome:
    """Operations attempted and failed by one repetition, and its work."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.events = 0
        self.digests: dict[str, str] = {}

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]

    def fail_all(self, names: list[str], problem: str) -> None:
        for name in names:
            self.op(name, [problem])


def sim_seeds(seed: int, count: int) -> list[int]:
    """Simulation seeds for one benchmark seed: distinct, in 1..10**6."""
    return random.Random(seed).sample(range(1, 10**6), count)


class CliWorkload:
    """A workload that runs one ``flowtrace`` plan subcommand in-process."""

    command = ""
    labels: tuple[str, ...] = ()
    lossless = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.out_dir = workdir / "results"
        self.plan_path = workdir / "plan.json"
        self.seeds = self.make_seeds(seed)
        self.plan_path.write_text(json.dumps(self.plan(), indent=2) + "\n", encoding="utf-8")

    def make_seeds(self, seed: int) -> list[int]:
        raise NotImplementedError

    def plan(self) -> dict:
        raise NotImplementedError

    def setup(self, ft: SimpleNamespace):
        """Parse the spec and load the plan: the program's set-up work."""
        plan = ft.experiment.load_plan(json.loads(self.plan_path.read_text(encoding="utf-8")))
        return ft.experiment.load_spec_source(plan.spec_source), plan

    def facts(self, ft: SimpleNamespace, state) -> dict:
        return {}

    def prepare(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def run(self, ft: SimpleNamespace, state, between=None) -> int:
        """One ``flowtrace`` call; it has no steps, so ``between`` is unused."""
        with contextlib.redirect_stdout(io.StringIO()):
            return ft.cli.main([self.command, str(self.plan_path)])

    def expected_ops(self) -> list[str]:
        return [f"{label}_{CAPACITY}_{s}.json" for label in self.labels for s in self.seeds]

    def check(self, raw, facts: dict, golden: dict | None, traced: dict) -> Outcome:
        """Check each expected cell file; ``traced`` maps a cell file name
        to problems the tracer found in that cell's simulation result."""
        out = Outcome()
        names = self.expected_ops()
        if raw != 0:
            out.fail_all(names, f"flowtrace {self.command} exited with {raw}")
            return out
        for name in names:
            path = self.out_dir / name
            if not path.is_file():
                out.op(name, ["cell file missing"])
                continue
            data = path.read_bytes()
            cell = json.loads(data)
            digest = checks.sha256(data)
            out.digests[name] = digest
            out.events += cell["ground_truth_events"]
            problems = checks.golden_problems(name, digest, golden)
            problems += checks.conservation_problems(cell)
            problems += traced.get(name, [])
            if self.lossless:
                problems += checks.full_observability_problems(cell)
            out.op(name, problems)
        for name in sorted(set(traced) - set(names)):
            out.op(name, traced[name])
        return out


class ComparePrototype(CliWorkload):
    command = "compare"
    labels = COMPARE_LABELS

    def make_seeds(self, seed: int) -> list[int]:
        return sim_seeds(seed, COMPARE_SIM_SEEDS)

    def plan(self) -> dict:
        return {
            "spec": "prototype",
            "capacities": [CAPACITY],
            "seeds": self.seeds,
            "workload": {"instances_per_initiator": COMPARE_INSTANCES},
            "out_dir": str(self.out_dir),
        }


class TraceLight(CliWorkload):
    command = "run"
    labels = ("none",)
    lossless = True

    def make_seeds(self, seed: int) -> list[int]:
        return sim_seeds(seed, LIGHT_SIM_SEEDS)

    def plan(self) -> dict:
        return {
            "spec": "prototype",
            "selection": "none",
            "capacities": [CAPACITY],
            "seeds": self.seeds,
            "workload": {
                "instances_per_initiator": LIGHT_INSTANCES,
                "initiation_delay": list(LIGHT_DELAY),
            },
            "out_dir": str(self.out_dir),
        }


class SelectSoc:
    """Validate, enumerate paths and run the three selectors on a generated SoC."""

    selectors = ("fic", "cec", "fc")

    def __init__(self, seed: int, workdir: Path):
        self.text = socgen.soc(SOC_CPUS, SOC_PERIPHERALS, seed)

    def setup(self, ft: SimpleNamespace):
        return ft.spec_io.parse_system(self.text)

    def facts(self, ft: SimpleNamespace, spec) -> dict:
        """Per-flow reference sets for the checks, computed untimed."""
        fm, sel = ft.flow_model, ft.selection

        def strs(events) -> list[str]:
            return sorted(str(e) for e in events)

        return {
            "guaranteed": {f.id: strs(sel.guaranteed_events(f)) for f in spec.flows},
            "starts": {f.id: strs(fm.start_events(f)) for f in spec.flows},
            "ends": {f.id: strs(fm.end_events(f)) for f in spec.flows},
            "events": len(self.selectors) * sum(len(f.events) for f in spec.flows),
        }

    def prepare(self) -> None:
        pass

    def run(self, ft: SimpleNamespace, spec, between=None) -> dict:
        """Validate, enumerate paths, then the three selectors; ``between``,
        if given, is called between these four steps."""
        fm, sel = ft.flow_model, ft.selection
        between = between or (lambda: None)
        findings = [str(r) for r in (fm.validate(f) for f in spec.flows) if not r.ok]
        for flow in spec.flows:
            fm.enumerate_paths(flow)
        problem = sel.SelectionProblem(
            spec.flows, spec.topology.event_link_map, CAPACITY * len(spec.topology.links)
        )
        between()
        fic = sel.select_fic(problem)
        between()
        cec = sel.select_cec(problem)
        between()
        fc = sel.select_fc_baseline(problem, FC_K)
        return {"findings": findings, "fic": fic, "cec": cec, "fc": fc}

    def check(self, raw: dict, facts: dict, golden: dict | None, traced: dict) -> Outcome:
        out = Outcome()
        out.events = facts["events"]
        for name in self.selectors:
            selection = raw[name]
            events = [str(e) for e in selection.events]
            digest = checks.sha256(checks.selection_bytes(events, selection.links))
            out.digests[name] = digest
            problems = checks.golden_problems(name, digest, golden) + raw["findings"]
            if name == "fic":
                problems += checks.fic_cover_problems(events, facts["guaranteed"])
            elif name == "cec":
                problems += checks.cec_endpoint_problems(events, facts["starts"], facts["ends"])
            out.op(name, problems)
        return out

    def expected_ops(self) -> list[str]:
        return list(self.selectors)


WORKLOADS = {
    "compare-prototype": ComparePrototype,
    "trace-light": TraceLight,
    "select-soc": SelectSoc,
}
