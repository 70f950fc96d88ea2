"""Command-line front end.

Subcommands: ``graph`` (generate mobility graphs), ``design`` (build a
trajectory and report its analytic ages), ``simulate`` (gathering runs),
``disseminate`` (queued-update runs), and ``reproduce`` (figure-style
sweeps over network size emitting one CSV per figure id).

Exit codes: 0 success, 2 usage, 3 validation, 4 numerical failure.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import click
import numpy as np

from .aoi_analysis import analytic_ages
from .dissemination import (EVENT_CSV_FIELDS, policy_from_design, separation_policy,
                            simulate_dissemination, dissemination_report)
from .errors import (GraphValidationError, NumericalError, SolverError, StabilityError)
from .graphs import (MobilityGraph, assign_weights, generate_grid_diag,
                     generate_random_geometric, generate_ring_k, load_graph, save_graph)
# analyze is unused here, but perfbench/tracer.py wraps it as a global of this module
from .markov import JsonRecord, analyze, read_json, write_json  # noqa: F401
from .simulation import (TRACE_HORIZON_LIMIT, check_window, simulate_age_based,
                         simulate_periodic, simulate_randomized)
from .trajectory_design import (DesignResult, SolverOptions, build_fastest_mixing, build_mh,
                                design_objective)

EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

RUN_CSV_FIELDS = ["row_type", "policy", "seed", "horizon", "burn_in",
                  "network_peak", "network_avg", "peak_stderr", "avg_stderr"]
SWEEP_CSV_FIELDS = ["n", "policy", "metric", "value", "stderr"]
POLICIES = ("mh", "fastest", "age_based", "periodic")

GEOMETRIC_SIZES = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100]
GRID_SIDES = [3, 4, 5, 6, 7, 8, 9]
# sizes where mixing effects (not small-graph artefacts) dominate; 25 and 36
# give grid-matched points for cross-family comparisons
RING_SIZES = [21, 25, 30, 36]
RING_RADIUS = 3
SWEEP_SOLVER_ITERATIONS = 2000
SWEEP_BASE_SEED = 1
# graph family -> the network sizes n its figures sweep by default
SWEEP_SIZES = {"geometric": GEOMETRIC_SIZES, "grid": [side * side for side in GRID_SIDES],
               "ring": RING_SIZES}
# graph family -> (the rule its sweep sizes must meet, the test of one size)
SWEEP_SIZE_RULES = {
    "geometric": ("at least 2", lambda n: n >= 2),
    "grid": ("squares of a side >= 2", lambda n: n >= 4 and math.isqrt(n) ** 2 == n),
    "ring": (f"at least {2 * RING_RADIUS + 1}", lambda n: n >= 2 * RING_RADIUS + 1),
}

_AVG_ROWS = (("mh", "mh_avg"), ("fastest_mixing", "fastest_avg"),
             ("age_based", "age_based_avg"), ("lower_bound", "lower_bound"))
# figure id -> (graph family, metric, its (policy, sweep-point key) rows in CSV order)
FIGURES = {
    "fig4": ("geometric", "peak_age", (("mh", "mh_peak"), ("fastest_mixing", "fastest_peak"),
                                       ("age_based", "age_based_peak"))),
    "fig5": ("geometric", "avg_age", _AVG_ROWS),
    "fig6": ("grid", "avg_age", _AVG_ROWS),
    "fig7": ("ring", "avg_age", _AVG_ROWS),
    "fig8": ("geometric", "avg_age", (("fastest_mixing", "fastest_avg"),
                                      ("separation", "dissemination_avg"))),
}


def _cli_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (NumericalError, SolverError) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except (GraphValidationError, StabilityError, ValueError) as exc:
            click.echo(f"validation error: {exc}", err=True)
            sys.exit(EXIT_VALIDATION)
    return wrapper


@click.group()
def main():
    """Design and evaluate freshness-aware patrol trajectories on mobility graphs."""


def _parallel_map(fn, jobs, *iterables) -> list:
    """list(map(fn, *iterables)), over a pool of `jobs` processes when that can help."""
    if jobs > 1 and len(iterables[0]) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *iterables))
    return list(map(fn, *iterables))


@dataclass
class WeightSpec(JsonRecord):
    """The terminal weights of an inline graph spec, as `assign_weights` takes them."""

    mode: str = "uniform"
    lo: float = 1.0
    hi: float = 2.0
    seed: int | None = None


@dataclass
class GraphSpec(JsonRecord):
    """An inline graph: a family, its size (``n``, or ``side`` for a grid) and parameters."""

    family: str
    n: int | None = None
    side: int | None = None
    k: int = 3
    r: float | None = None  # None means 2/sqrt(n)
    seed: int = 0
    weights: WeightSpec | None = None


# graph family -> (the spec field giving its size, generator of a spec); the
# lambdas read the generators from the module globals at call time, so a
# wrapper installed on those globals sees every generated graph
_GENERATORS = {
    "geometric": ("n", lambda spec: generate_random_geometric(
        spec.n, 2.0 / math.sqrt(spec.n) if spec.r is None else spec.r, spec.seed)),
    "grid": ("side", lambda spec: generate_grid_diag(spec.side)),
    "ring": ("n", lambda spec: generate_ring_k(spec.n, spec.k)),
}


def _family_graph(spec: GraphSpec) -> MobilityGraph:
    """Generate the graph a spec names and give it the spec's weights, if any."""
    if spec.family not in _GENERATORS:
        raise click.UsageError(f"unknown graph family: {spec.family!r}")
    size_key, generate = _GENERATORS[spec.family]
    if getattr(spec, size_key) is None:
        raise click.UsageError(f"{spec.family} family needs {size_key}")
    g = generate(spec)
    w = spec.weights
    return g if w is None else assign_weights(g, w.mode, lo=w.lo, hi=w.hi, seed=w.seed)


def _int_list(ctx, param, value):
    """Click callback: a comma-separated list of integers; blank items are skipped."""
    if value is None:
        return None
    try:
        return [int(s) for s in value.split(",") if s.strip()]
    except ValueError:
        raise click.BadParameter(f"{value!r} is not a comma-separated list of integers") from None


def _radius(ctx, param, value):
    """Click callback: a geometric radius as a float, or 'auto' (or None) as given."""
    try:
        return value if value in (None, "auto") else float(value)
    except ValueError:
        raise click.BadParameter(f"{value!r} is neither a number nor 'auto'") from None


@main.command("graph")
@click.option("--family", type=click.Choice(sorted(_GENERATORS)), required=True)
@click.option("--n", type=int, default=None, help="terminal count (geometric, ring)")
@click.option("--side", type=int, default=None, help="grid side length")
@click.option("--k", type=int, default=3, help="ring neighbour radius")
@click.option("--r", default=None, callback=_radius,
              help="geometric radius, or 'auto' for 2/sqrt(n)")
@click.option("--seed", type=int, default=0)
@click.option("--weights", "weights_mode", type=click.Choice(["uniform", "random"]),
              default="uniform")
@click.option("--lo", type=float, default=1.0, help="random-weight interval lower bound")
@click.option("--hi", type=float, default=2.0, help="random-weight interval upper bound")
@click.option("--weight-seed", type=int, default=None)
@click.option("-o", "--output", type=click.Path(dir_okay=False), required=True)
@_cli_errors
def cmd_graph(family, n, side, k, r, seed, weights_mode, lo, hi, weight_seed, output):
    """Generate a mobility graph and write it as JSON."""
    if family == "geometric" and r is None:
        raise click.UsageError("geometric family needs --r (or --r auto)")
    weights = WeightSpec("random_interval", lo, hi, seed if weight_seed is None else weight_seed)
    g = _family_graph(GraphSpec(family, n, side, k, None if r == "auto" else r,
                                seed, weights if weights_mode == "random" else None))
    save_graph(g, output)
    click.echo(f"wrote {family} graph with n={g.n}, {len(g.edges)} directed edges -> {output}")


@main.command("design")
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--method", type=click.Choice(["mh", "fastest"]), required=True)
@click.option("--max-iterations", type=click.IntRange(min=0), default=None)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def cmd_design(graph_path, method, max_iterations, output):
    """Build a randomized trajectory and print its analytic age report."""
    g = load_graph(graph_path)
    if method == "mh":
        design = build_mh(g)
    else:
        opts = None if max_iterations is None else SolverOptions(max_iterations=max_iterations)
        design = build_fastest_mixing(g, opts)
    report = analytic_ages(design.analysis, g.weights)
    objective = design.objective
    if objective is None:
        objective = design_objective(design.matrix.p, design.target_pi)
        click.echo(f"spectral distance to the target chain: {objective:.6f} (not optimized)")
    else:
        click.echo(f"objective ||P - Pi*||_2 = {objective:.6f} "
                   f"(iterations {design.iterations}, converged {design.converged})")
    click.echo("residuals: " + json.dumps(design.residuals))
    click.echo(f"network peak age {report.network_peak:.6f} "
               f"(optimal {report.peak_opt_value:.6f})")
    click.echo(f"network average age {report.network_avg:.6f} "
               f"(lower bound {report.lower_bound_avg:.6f}, "
               f"upper bound {report.upper_bound_avg:.6f})")
    if output:
        write_json(output, dict(design.to_json(), age_report=report.to_json()))
        click.echo(f"wrote design -> {output}")


def _write_csv(path, header, rows):
    """Write a header and then the rows; a None cell is written empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _stderr(values: np.ndarray) -> float:
    k = len(values)
    return float(values.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0


@dataclass
class ExperimentConfig(JsonRecord):
    """One simulation or dissemination experiment, loadable from JSON.

    ``graph`` is either a path to a graph file or an inline `GraphSpec` such as
    {"family": "ring", "n": 21, "k": 3, "seed": 0,
     "weights": {"mode": "random_interval", "lo": 1, "hi": 2, "seed": 3}}.
    """

    graph: str | GraphSpec | None = None
    policy: str | None = None  # None: the command's default
    sequence: list | None = field(default=None, metadata={"dtype": int})
    horizon: int = 50_000
    burn_in: int | None = None
    replications: int | None = None  # None: one per seed, or 1 without seeds
    seeds: list | None = field(default=None, metadata={"dtype": int})
    start: int = 0
    rate_scale: float = 1.0
    jobs: int | None = None
    output: str | None = None
    report: str | None = None

    @staticmethod
    def load(path) -> "ExperimentConfig":
        """Read a config file; an unknown key or a bad type is a usage error."""
        try:
            return ExperimentConfig.from_json(read_json(path), strict=True)
        except ValueError as exc:  # json.JSONDecodeError included
            raise click.UsageError(f"config file {path}: {exc}") from None

    def validate(self) -> None:
        if self.graph is None:
            raise click.UsageError("a graph (file path or inline spec) is required")
        if self.replications is not None and self.replications < 1:
            raise click.UsageError("replications must be >= 1")
        if None not in (self.replications, self.seeds) and self.replications != len(self.seeds):
            raise click.UsageError(f"replications ({self.replications}) differs from the "
                                   f"number of seeds ({len(self.seeds)})")
        if self.jobs is not None and self.jobs < 1:
            raise click.UsageError("jobs must be >= 1")
        if not self.seed_list():
            raise click.UsageError("the seed list is empty")
        if not (math.isfinite(self.rate_scale) and self.rate_scale > 0):
            raise click.UsageError(f"rate_scale must be a finite number > 0, "
                                   f"not {self.rate_scale!r}")
        check_window(self.horizon, self.burn_in)  # a bad window is a validation error
        if self.policy == "periodic" and not self.sequence:
            raise click.UsageError("periodic policy needs a visit sequence")
        if self.output is None:
            raise click.UsageError("an output path is required (-o or config)")

    def seed_list(self) -> list:
        return list(range(self.replications or 1)) if self.seeds is None else self.seeds

    def resolve_graph(self) -> MobilityGraph:
        return load_graph(self.graph) if isinstance(self.graph, str) else _family_graph(self.graph)


# the options `simulate` and `disseminate` share; every option but --config is
# named after the ExperimentConfig field it sets and has no default of its own,
# so an option the user leaves out keeps the config file's value or the default
_EXPERIMENT_OPTIONS = [
    click.option("--graph", type=click.Path(dir_okay=False)),
    click.option("--horizon", type=int),
    click.option("--burn-in", type=int),
    click.option("--replications", type=int),
    click.option("--seeds", callback=_int_list, help="comma-separated seed list"),
    click.option("--start", type=int),
    click.option("--config", type=click.Path(exists=True, dir_okay=False),
                 help="JSON ExperimentConfig; explicit flags win"),
    click.option("-o", "--output", type=click.Path(dir_okay=False)),
]


def _experiment_options(fn):
    return functools.reduce(lambda f, option: option(f), reversed(_EXPERIMENT_OPTIONS), fn)


def _experiment(flags: dict, policies=POLICIES) -> ExperimentConfig:
    """The config file (or the defaults) with every flag the user gave on top, validated.

    `policies` are those the command runs; the first is its default.
    """
    cfg = ExperimentConfig.load(flags["config"]) if flags["config"] else ExperimentConfig()
    for f in fields(cfg):
        if flags.get(f.name) is not None:
            setattr(cfg, f.name, flags[f.name])
    if cfg.policy is None:
        cfg.policy = policies[0]
    if cfg.policy not in policies:  # a --policy flag is one of them, so the file named it
        raise click.UsageError(f"config file {flags['config']}: policy must be one of "
                               f"{policies}, not {cfg.policy!r}")
    cfg.validate()
    return cfg


def _gathering_run(g, policy, sequence, horizon, burn_in, start, matrix, seed, record):
    if policy in ("mh", "fastest"):
        return simulate_randomized(g, matrix, horizon, burn_in, seed=seed, start=start,
                                   record_trace=record)
    if policy == "age_based":
        return simulate_age_based(g, horizon, burn_in, start=start, record_trace=record)
    return simulate_periodic(g, sequence, horizon, burn_in, record_trace=record)


def _dissemination_run(g, policy, horizon, burn_in, start, seed, record):
    return simulate_dissemination(g, policy, horizon, burn_in, seed=seed, start=start,
                                  record_events=record)


def _replicate(run, cfg: ExperimentConfig, record: bool):
    """Run `run(seed, record)` once per seed, write the replication and aggregate rows.

    Only replication 0 records its trace or event log; recording draws no
    random numbers, so its statistics are those of a plain run.  Returns
    the per-seed statistics and replication 0's log (None unless recorded).
    """
    seeds = cfg.seed_list()
    outs = _parallel_map(run, cfg.jobs or 1, seeds,
                         [record and k == 0 for k in range(len(seeds))])
    log = None
    if record:
        outs[0], log = outs[0]
    rows = [["replication", cfg.policy, seed, cfg.horizon, stats.burn_in,
             stats.network_peak, stats.network_avg, "", ""] for seed, stats in zip(seeds, outs)]
    peaks = np.array([stats.network_peak for stats in outs])
    avgs = np.array([stats.network_avg for stats in outs])
    rows.append(["aggregate", cfg.policy, "", cfg.horizon, outs[0].burn_in, float(peaks.mean()),
                 float(avgs.mean()), _stderr(peaks), _stderr(avgs)])
    _write_csv(cfg.output, RUN_CSV_FIELDS, rows)
    click.echo(f"wrote {len(rows)} rows -> {cfg.output}")
    return outs, log


@main.command("simulate")
@_experiment_options
@click.option("--policy", type=click.Choice(POLICIES))
@click.option("--sequence", callback=_int_list, help="comma-separated periodic visit sequence")
@click.option("--jobs", type=int)
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False),
              help=f"dump the full age trace (horizon <= {TRACE_HORIZON_LIMIT})")
@_cli_errors
def cmd_simulate(trace_path, **flags):
    """Run gathering simulations and write per-replication plus aggregate CSV rows."""
    cfg = _experiment(flags)
    if cfg.policy in ("age_based", "periodic"):
        # these walks draw no random numbers: every seed would repeat the first row
        cfg.seeds = cfg.seed_list()[:1]
    g = cfg.resolve_graph()
    matrix = None
    if cfg.policy in ("mh", "fastest"):
        matrix = (build_mh(g) if cfg.policy == "mh" else build_fastest_mixing(g)).matrix
    run = functools.partial(_gathering_run, g, cfg.policy, cfg.sequence, cfg.horizon,
                            cfg.burn_in, cfg.start, matrix)
    _, trace = _replicate(run, cfg, record=bool(trace_path))
    if trace_path:
        _write_csv(trace_path, ["t", "m"] + [f"A_{i}" for i in range(g.n)],
                   ([t + 1, int(trace.visit_log[t])] + trace.ages[t].tolist()
                    for t in range(trace.horizon)))
        click.echo(f"wrote trace -> {trace_path}")


@main.command("disseminate")
@_experiment_options
@click.option("--rate-scale", type=float,
              help="scale the separation rates by this factor (must stay below 1/rho)")
@click.option("--design", "design_path", type=click.Path(exists=True, dir_okay=False),
              help="reuse a trajectory design JSON written by `design`")
@click.option("--report", type=click.Path(dir_okay=False))
@click.option("--events", "events_path", type=click.Path(dir_okay=False),
              help=f"event log CSV (horizon <= {TRACE_HORIZON_LIMIT})")
@_cli_errors
def cmd_disseminate(design_path, events_path, **flags):
    """Run separation-policy dissemination and write CSV rows plus a bound report."""
    cfg = _experiment(flags, policies=("separation",))
    g = cfg.resolve_graph()
    if design_path:
        design = DesignResult.from_json(read_json(design_path))
    else:
        design = build_fastest_mixing(g)
    policy = separation_policy(g, design=design)
    if cfg.rate_scale != 1.0:
        policy = policy_from_design(design, rates=policy.rates * cfg.rate_scale)

    run = functools.partial(_dissemination_run, g, policy, cfg.horizon, cfg.burn_in, cfg.start)
    stats, events = _replicate(run, cfg, record=bool(events_path))
    if cfg.report:
        # replication 0, the one --events records
        report = dissemination_report(policy, stats[0], g.weights)
        write_json(cfg.report, report)
        click.echo(f"wrote report -> {cfg.report}")
    if events_path:
        _write_csv(events_path, EVENT_CSV_FIELDS, events)
        click.echo(f"wrote events -> {events_path}")


def _sweep_graph(family, n, base_seed):
    return _family_graph(GraphSpec(
        family, n, math.isqrt(n), RING_RADIUS, seed=base_seed + n,
        weights=WeightSpec("random_interval", 1.0, 2.0, base_seed + 10_000 + n)))


def _sweep_point_safe(args) -> dict:
    try:
        return _sweep_point(args)
    except (NumericalError, SolverError, ValueError) as exc:
        return {"family": args[0], "n": args[1], "error": str(exc)}


def _sweep_point(args) -> dict:
    family, n, base_seed, horizon, solver_iterations, need_dissemination = args
    g = _sweep_graph(family, n, base_seed)
    mh = build_mh(g)
    opts = SolverOptions(max_iterations=solver_iterations)
    fast = build_fastest_mixing(g, opts)
    mh_report = analytic_ages(mh.analysis, g.weights)
    fast_report = analytic_ages(fast.analysis, g.weights)
    age_stats = simulate_age_based(g, horizon=horizon, start=0)
    point = {
        "family": family, "n": g.n,
        "mh_peak": mh_report.network_peak, "mh_avg": mh_report.network_avg,
        "fastest_peak": fast_report.network_peak, "fastest_avg": fast_report.network_avg,
        "age_based_peak": age_stats.network_peak, "age_based_avg": age_stats.network_avg,
        "lower_bound": mh_report.lower_bound_avg,
    }
    if need_dissemination:
        policy = separation_policy(g, design=fast)
        diss = simulate_dissemination(g, policy, horizon, seed=base_seed + 1, start=0)
        point["dissemination_avg"] = diss.network_avg
    return point


def _figure_rows(figure, points) -> list:
    _, metric, columns = FIGURES[figure]
    return [{"n": pt["n"], "policy": policy, "metric": metric, "value": pt[key], "stderr": 0.0}
            for pt in points for policy, key in columns]


@main.command("reproduce")
@click.option("--figure", type=click.Choice(sorted(FIGURES) + ["all"]), required=True)
@click.option("--out-dir", type=click.Path(file_okay=False), required=True)
@click.option("--horizon", type=click.IntRange(min=1), default=50_000)
@click.option("--base-seed", type=click.IntRange(min=0), default=SWEEP_BASE_SEED)
@click.option("--sizes", callback=_int_list, help="comma-separated size override for the sweep")
@click.option("--solver-iterations", type=click.IntRange(min=0), default=SWEEP_SOLVER_ITERATIONS)
@click.option("--jobs", type=click.IntRange(min=1), default=1)
@_cli_errors
def cmd_reproduce(figure, out_dir, horizon, base_seed, sizes, solver_iterations, jobs):
    """Sweep network size per graph family and emit one CSV per figure id."""
    if sizes == []:
        raise click.UsageError("--sizes lists no size")
    figures = sorted(FIGURES) if figure == "all" else [figure]
    families = {}
    for fig in figures:
        family, _, columns = FIGURES[fig]
        entry = families.setdefault(family, {"sizes": set(), "diss": False})
        entry["sizes"].update(sizes or SWEEP_SIZES[family])
        entry["diss"] = entry["diss"] or any(key == "dissemination_avg" for _, key in columns)
    for family, entry in families.items():
        rule, fits = SWEEP_SIZE_RULES[family]
        bad = sorted(n for n in entry["sizes"] if not fits(n))
        if bad:
            raise click.UsageError(f"{family} sizes must be {rule}, not {bad}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    tasks = []
    for family, entry in sorted(families.items()):
        for n in sorted(entry["sizes"]):
            tasks.append((family, n, base_seed, horizon, solver_iterations, entry["diss"]))
    results = _parallel_map(_sweep_point_safe, jobs, tasks)
    for pt in results:
        if "error" in pt:
            # record the failure and keep sweeping
            click.echo(f"sweep point {pt['family']} n={pt['n']} failed: {pt['error']}",
                       err=True)

    # tasks run in family and size order, so each family's points are sorted by n
    for fig in figures:
        rows = _figure_rows(fig, [p for p in results
                                  if p["family"] == FIGURES[fig][0] and "error" not in p])
        path = out / f"{fig}.csv"
        _write_csv(path, SWEEP_CSV_FIELDS, ([row[k] for k in SWEEP_CSV_FIELDS] for row in rows))
        click.echo(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
