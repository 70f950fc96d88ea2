"""The benchmark's three workloads.

Each workload is a closed loop with one caller: a pass makes its calls
into the package one after another, and the next pass starts when the
previous one has returned.  ``setup`` turns the workload seed into the
inputs the package sees; ``run_pass`` times one pass and then, outside the
timed region, checks every output against its oracle.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from age_patrol import cli, dissemination, graphs, markov, simulation, trajectory_design
from age_patrol import aoi_analysis

import oracles
from tracer import Tracer, patched

# simulate: long-horizon runs on one geometric instance
SIM_N = 200
SIM_BATCH_SLOTS = 125_000          # per batch, randomized walk, dissemination and vacation
SIM_AGE_BASED_SLOTS = 500_000

# scale: analytics at the north-star size, one instance per family; the single
# full SVD of design_objective runs on the smallest of them (the ring)
SCALE_GEOMETRIC_N = 2000
SCALE_GRID_SIDE = 32
SCALE_RING_N = 1000
SCALE_RING_K = 3


@dataclass
class PassResult:
    wall_s: float
    ops: int                        # operations attempted
    failures: list                  # one message per failed operation
    avg_age_ratio: float
    slots: int = 0                  # simulated slots
    sim_s: float = 0.0              # time spent inside simulator calls
    report_failures: list = ()      # dissemination_report hard checks that failed


def _operation(failures: list, label: str, fn):
    """Run one operation; record an exception or oracle problems as its failure."""
    try:
        problems = fn()
    except Exception as exc:  # the benchmark must keep running and count the failure
        problems = [f"{type(exc).__name__}: {exc}"]
    if problems:
        failures.append(f"{label}: " + "; ".join(problems))


class Figures:
    """The whole `reproduce --figure all` sweep, run in-process through the CLI."""

    name = "figures"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch

    def params(self) -> dict:
        return {"base_seed": self.seed, "jobs": 1, "figure": "all",
                "geometric_sizes": list(cli.GEOMETRIC_SIZES),
                "grid_sides": list(cli.GRID_SIDES), "ring_sizes": list(cli.RING_SIZES)}

    def setup(self):
        return ["reproduce", "--figure", "all", "--jobs", "1",
                "--base-seed", str(self.seed)]

    def run_pass(self, argv, tracer: Tracer | None = None) -> PassResult:
        out_dir = self.scratch / f"figures-{self.seed}"
        shutil.rmtree(out_dir, ignore_errors=True)
        points = []

        def capture(kind, fn):
            def wrapper(*args, **kwargs):
                if kind == "point":
                    points.append({"designs": [], "ages": []})
                result = fn(*args, **kwargs)
                if kind == "point":
                    points[-1]["result"] = result
                elif kind == "design":
                    points[-1]["designs"].append((args[0], result))
                else:
                    points[-1]["ages"].append((args[0], result))
                return result
            return wrapper

        main = cli.main.main
        if tracer is not None:
            main = tracer.span("cli.reproduce", main)
        args = argv + ["--out-dir", str(out_dir)]
        sink = io.StringIO()
        with contextlib.ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(tracer.installed())
            stack.enter_context(patched([
                (cli, "_sweep_point_safe", capture("point", cli._sweep_point_safe)),
                (cli, "build_mh", capture("design", cli.build_mh)),
                (cli, "build_fastest_mixing", capture("design", cli.build_fastest_mixing)),
                (cli, "analytic_ages", capture("ages", cli.analytic_ages)),
            ]))
            stack.enter_context(contextlib.redirect_stdout(sink))
            stack.enter_context(contextlib.redirect_stderr(sink))
            t0 = time.perf_counter()
            try:
                main(args, standalone_mode=False)
                aborted = None
            except (Exception, SystemExit) as exc:  # the CLI exits on a fatal error
                aborted = f"sweep aborted: {type(exc).__name__}: {exc} {sink.getvalue()[-300:]}"
            wall = time.perf_counter() - t0

        expected = len(cli.GEOMETRIC_SIZES) + len(cli.GRID_SIDES) + len(cli.RING_SIZES)
        if aborted:
            shutil.rmtree(out_dir, ignore_errors=True)
            return PassResult(wall_s=wall, ops=expected, failures=[aborted] * expected,
                              avg_age_ratio=math.nan)
        tables = {}
        for fig in oracles.FIGURE_POLICIES:
            with open(out_dir / f"{fig}.csv", newline="") as fh:
                tables[fig] = list(csv.DictReader(fh))
        shutil.rmtree(out_dir, ignore_errors=True)

        failures = []
        if len(points) != expected:
            failures.append(f"sweep ran {len(points)} points, expected {expected}")
        for point in points:
            result = point.get("result", {})
            family, n = result.get("family"), result.get("n")
            label = f"sweep point {family} n={n}"

            def check(point=point, result=result, family=family, n=n):
                if "error" in result:
                    return [result["error"]]
                problems = []
                for g, design in point["designs"]:
                    problems += oracles.check_design(design, g)
                for analysis, report in point["ages"]:
                    problems += oracles.check_ages(analysis, report)
                return problems + oracles.check_sweep_point(family, n, tables)
            _operation(failures, label, check)
        return PassResult(wall_s=wall, ops=max(len(points), expected), failures=failures,
                          avg_age_ratio=_sweep_ratio(tables))


def _sweep_ratio(tables) -> float:
    """Mean over sweep points of the fastest-mixing average age over the lower bound."""
    ratios = []
    for fig in ("fig5", "fig6", "fig7"):
        by_n = {}
        for row in tables[fig]:
            by_n.setdefault(int(row["n"]), {})[row["policy"]] = float(row["value"])
        ratios += [v["fastest_mixing"] / v["lower_bound"] for v in by_n.values()]
    return float(np.mean(ratios))


@dataclass(frozen=True)
class SimulateInputs:
    graph: object
    design: object
    lam: float
    service: object
    vacation: object


class Simulate:
    """Long-horizon simulator runs on one geometric instance with an MH design."""

    name = "simulate"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self._reference = None

    def params(self) -> dict:
        return {"n": SIM_N, "radius": 2.0 / math.sqrt(SIM_N), "batches": oracles.BATCHES,
                "batch_slots": SIM_BATCH_SLOTS, "age_based_slots": SIM_AGE_BASED_SLOTS}

    def setup(self) -> SimulateInputs:
        g = graphs.generate_random_geometric(SIM_N, 2.0 / math.sqrt(SIM_N), self.seed)
        g = graphs.assign_weights(g, "random_interval", lo=1.0, hi=2.0, seed=self.seed + 1)
        design = trajectory_design.build_mh(g)
        rng = np.random.default_rng(self.seed)
        lam = float(rng.uniform(0.1, 0.3))
        service = dissemination.DiscreteLaw.uniform(range(1, int(rng.integers(2, 4)) + 1))
        vacation = dissemination.DiscreteLaw.uniform(range(1, int(rng.integers(2, 6)) + 1))
        return SimulateInputs(g, design, lam, service, vacation)

    def reference(self, inp: SimulateInputs) -> dict:
        """Analytic values the simulated ones are checked against (computed once)."""
        if self._reference is None:
            analysis = markov.analyze(inp.design.matrix, pi=inp.design.target_pi)
            report = aoi_analysis.analytic_ages(analysis, inp.graph.weights)
            params = dissemination.QueueModelParams.from_laws(inp.lam, inp.service,
                                                              inp.vacation)
            self._reference = {"network_avg": report.network_avg,
                               "lower_bound": report.lower_bound_avg,
                               "vacation_peak": dissemination.berg1_vacation_peak_age(params)}
        return self._reference

    def run_pass(self, inp: SimulateInputs, tracer: Tracer | None = None) -> PassResult:
        g, design = inp.graph, inp.design
        out = {}
        sim = [0.0, 0]       # seconds inside simulator calls, slots simulated

        def timed(fn, *args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            sim[0] += time.perf_counter() - t0
            sim[1] += kwargs.get("horizon", 0)
            return result

        steps = [
            ("randomized", lambda: [
                timed(simulation.simulate_randomized, g, design.matrix,
                      horizon=SIM_BATCH_SLOTS, seed=1000 * self.seed + b).network_avg
                for b in range(oracles.BATCHES)]),
            ("age_based", lambda: timed(simulation.simulate_age_based, g,
                                        horizon=SIM_AGE_BASED_SLOTS).network_avg),
            ("separation_policy", lambda: dissemination.separation_policy(g, design=design)),
            ("dissemination", lambda: [
                timed(dissemination.simulate_dissemination, g, out["separation_policy"],
                      horizon=SIM_BATCH_SLOTS, seed=1000 * self.seed + b)
                for b in range(oracles.BATCHES)]),
            ("vacation", lambda: [
                timed(dissemination.simulate_berg1_vacation, inp.lam, inp.service,
                      inp.vacation, horizon=SIM_BATCH_SLOTS,
                      seed=1000 * self.seed + b).empirical_peak
                for b in range(oracles.BATCHES)]),
        ]
        errors = {}
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            for label, step in steps:
                try:
                    out[label] = step()
                except Exception as exc:  # counted as a failed operation below
                    errors[label] = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0

        ref = self.reference(inp)
        checks = {
            "randomized": lambda: oracles.check_interval(out["randomized"], ref["network_avg"],
                                                         "randomized network average age"),
            "age_based": lambda: oracles.check_lower_bound(out["age_based"],
                                                           ref["lower_bound"], "age-based"),
            "separation_policy": lambda: [],
            "dissemination": lambda: oracles.check_dissemination(
                out["separation_policy"], out["dissemination"], g.weights),
            "vacation": lambda: oracles.check_interval(out["vacation"], ref["vacation_peak"],
                                                       "vacation-queue peak age"),
        }
        failures = []
        for label, check in checks.items():
            if label in errors:
                failures.append(f"{label}: {errors[label]}")
            else:
                _operation(failures, label, check)
        report_failures = []
        if "dissemination" in out:
            _operation(report_failures, "dissemination_report",
                       lambda: oracles.report_hard_checks(out["separation_policy"],
                                                          out["dissemination"], g.weights))
        ratio = out.get("age_based", math.nan) / ref["lower_bound"]
        return PassResult(wall_s=wall, ops=len(checks), failures=failures,
                          avg_age_ratio=ratio, slots=sim[1], sim_s=sim[0],
                          report_failures=report_failures)


_GENERATORS = {"geometric": "generate_random_geometric", "grid": "generate_grid_diag",
               "ring": "generate_ring_k"}


class Scale:
    """Analytics at n of 1000 to 2000 across the three graph families."""

    name = "scale"

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def params(self) -> dict:
        return {"geometric_n": SCALE_GEOMETRIC_N, "grid_side": SCALE_GRID_SIDE,
                "ring_n": SCALE_RING_N, "ring_k": SCALE_RING_K,
                "radius": 2.0 / math.sqrt(SCALE_GEOMETRIC_N)}

    def setup(self) -> list:
        return [
            ("geometric", {"n": SCALE_GEOMETRIC_N, "r": 2.0 / math.sqrt(SCALE_GEOMETRIC_N),
                           "seed": self.seed}, self.seed + 1),
            ("grid", {"side": SCALE_GRID_SIDE}, self.seed + 2),
            ("ring", {"n": SCALE_RING_N, "k": SCALE_RING_K}, self.seed + 3),
        ]

    def run_pass(self, instances, tracer: Tracer | None = None) -> PassResult:
        results = []
        errors = {}
        with tracer.installed() if tracer is not None else contextlib.nullcontext():
            t0 = time.perf_counter()
            for family, spec, weight_seed in instances:
                try:
                    # looked up per call so that a traced pass sees the wrapped generator
                    g = getattr(graphs, _GENERATORS[family])(**spec)
                    g = graphs.assign_weights(g, "random_interval", lo=1.0, hi=2.0,
                                              seed=weight_seed)
                    design = trajectory_design.build_mh(g)
                    analysis = markov.analyze(design.matrix)
                    report = aoi_analysis.analytic_ages(analysis, g.weights)
                    results.append((family, g, design, analysis, report))
                except Exception as exc:  # counted as a failed operation below
                    errors[family] = f"{type(exc).__name__}: {exc}"
            objective = None
            if results:
                design = results[-1][2]
                try:
                    objective = trajectory_design.design_objective(design.matrix.p,
                                                                   design.target_pi)
                except Exception as exc:  # counted as a failed operation below
                    errors["design_objective"] = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0

        failures = [f"{label}: {msg}" for label, msg in errors.items()]
        for family, g, design, analysis, report in results:
            _operation(failures, f"{family} n={g.n}", lambda: (
                oracles.check_design(design, g) + oracles.check_ages(analysis, report)))
        if objective is not None:
            _operation(failures, "design_objective",
                       lambda: oracles.check_objective(objective, results[-1][3].slem))
        ratio = (float(np.mean([r[4].network_avg / r[4].lower_bound_avg for r in results]))
                 if results else math.nan)
        return PassResult(wall_s=wall, ops=len(instances) + 1, failures=failures,
                          avg_age_ratio=ratio)


WORKLOADS = {cls.name: cls for cls in (Figures, Simulate, Scale)}
