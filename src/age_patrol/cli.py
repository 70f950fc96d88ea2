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
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from pathlib import Path

import click
import numpy as np

from .aoi_analysis import analytic_ages, average_age_lower_bound, peak_optimal_value
from .dissemination import (EVENT_CSV_FIELDS, EVENT_LOG_HORIZON_LIMIT, policy_from_design,
                            separation_policy, simulate_dissemination, dissemination_report)
from .errors import (GraphValidationError, NumericalError, SolverError, StabilityError)
from .graphs import (MobilityGraph, assign_weights, generate_grid_diag,
                     generate_random_geometric, generate_ring_k, load_graph, save_graph)
from .markov import analyze
from .simulation import (AGE_FUNCTIONS, TRACE_HORIZON_LIMIT, _check_window,
                         simulate_age_based, simulate_periodic, simulate_randomized)
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
        except click.ClickException:
            raise
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


def _default_jobs() -> int:
    try:
        return max(1, int(os.environ.get("AGE_PATROL_JOBS", "1")))
    except ValueError:
        return 1


def _parallel_map(fn, jobs, *iterables) -> list:
    """list(map(fn, *iterables)), over a pool of `jobs` processes when that can help."""
    if jobs > 1 and len(iterables[0]) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, *iterables))
    return list(map(fn, *iterables))


# graph family -> (the spec key giving its size, generator of a spec); the
# lambdas read the generators from the module globals at call time, so a
# wrapper installed on those globals sees every generated graph
_GENERATORS = {
    "geometric": ("n", lambda spec: generate_random_geometric(
        spec["n"], 2.0 / math.sqrt(spec["n"]) if spec.get("r") is None else spec["r"],
        spec.get("seed", 0))),
    "grid": ("side", lambda spec: generate_grid_diag(spec["side"])),
    "ring": ("n", lambda spec: generate_ring_k(spec["n"], spec.get("k", 3))),
}


def _family_graph(spec: dict) -> MobilityGraph:
    """Generate the graph an inline spec names; a missing radius r means 2/sqrt(n)."""
    family = spec.get("family")
    if family not in _GENERATORS:
        raise click.UsageError(f"unknown graph family: {family!r}")
    size_key, generate = _GENERATORS[family]
    if spec.get(size_key) is None:
        raise click.UsageError(f"{family} family needs {size_key}")
    for key in ("n", "side", "k"):
        value = spec.get(key)
        if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
            raise click.UsageError(f"graph size {key} must be an integer, not {value!r}")
    return generate(spec)


@main.command("graph")
@click.option("--family", type=click.Choice(sorted(_GENERATORS)), required=True)
@click.option("--n", type=int, default=None, help="terminal count (geometric, ring)")
@click.option("--side", type=int, default=None, help="grid side length")
@click.option("--k", type=int, default=3, help="ring neighbour radius")
@click.option("--r", default=None, help="geometric radius, or 'auto' for 2/sqrt(n)")
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
    g = _family_graph({"family": family, "n": n, "side": side, "k": k, "seed": seed,
                       "r": None if r in (None, "auto") else float(r)})
    if weights_mode == "random":
        g = assign_weights(g, "random_interval", lo=lo, hi=hi,
                           seed=seed if weight_seed is None else weight_seed)
    save_graph(g, output)
    click.echo(f"wrote {family} graph with n={g.n}, {len(g.edges)} directed edges -> {output}")


@main.command("design")
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False),
              required=True)
@click.option("--method", type=click.Choice(["mh", "fastest"]), required=True)
@click.option("--max-iterations", type=int, default=None)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_cli_errors
def cmd_design(graph_path, method, max_iterations, output):
    """Build a randomized trajectory and print its analytic age report."""
    g = load_graph(graph_path)
    if method == "mh":
        design = build_mh(g)
    else:
        opts = SolverOptions(max_iterations=max_iterations) if max_iterations else None
        design = build_fastest_mixing(g, opts)
    analysis = analyze(design.matrix, pi=design.target_pi)
    report = analytic_ages(analysis, g.weights)
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
        payload = design.to_json()
        payload["age_report"] = report.to_json()
        Path(output).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        click.echo(f"wrote design -> {output}")


def _write_csv(path, fieldnames, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def _aggregate_rows(rows, policy, horizon, burn_in):
    peaks = np.array([r["network_peak"] for r in rows], dtype=float)
    avgs = np.array([r["network_avg"] for r in rows], dtype=float)
    k = len(rows)
    return {
        "row_type": "aggregate", "policy": policy, "seed": "",
        "horizon": horizon, "burn_in": burn_in,
        "network_peak": float(peaks.mean()), "network_avg": float(avgs.mean()),
        "peak_stderr": float(peaks.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0,
        "avg_stderr": float(avgs.std(ddof=1) / math.sqrt(k)) if k > 1 else 0.0,
    }


@dataclass
class ExperimentConfig:
    """One simulation or dissemination experiment, loadable from JSON.

    ``graph`` is either a path to a graph file or an inline spec such as
    {"family": "ring", "n": 21, "k": 3, "seed": 0,
     "weights": {"mode": "random_interval", "lo": 1, "hi": 2, "seed": 3}}.
    """

    graph: object = None
    policy: str = "mh"
    sequence: list | None = None
    g_fn: str = "quadratic_plus_linear"
    horizon: int = 50_000
    burn_in: int | None = None
    replications: int = 1
    seeds: list | None = None
    start: int = 0
    rate_scale: float = 1.0
    jobs: int | None = None
    output: str | None = None
    report: str | None = None

    @staticmethod
    def from_json(path) -> "ExperimentConfig":
        """Load a config file; a key, type or choice the CLI would not accept is a usage error."""
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise click.UsageError("a config file must hold a JSON object")
        unknown = set(payload) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise click.UsageError(f"unknown config keys: {sorted(unknown)}")
        for f in fields(ExperimentConfig):
            if f.name not in payload or payload[f.name] is None and f.type.endswith("| None"):
                continue
            value = payload[f.name]
            kind = {"int": int, "int | None": int, "float": (int, float)}.get(f.type)
            # a JSON true is no number, though bool is an int to isinstance
            if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
                raise click.UsageError(f"config key {f.name} must be a JSON number of type "
                                       f"{f.type.split(' |')[0]}, not {value!r}")
        for key, choices in (("policy", POLICIES), ("g_fn", AGE_FUNCTIONS)):
            if key in payload and payload[key] not in choices:
                raise click.UsageError(f"config key {key} must be one of {choices}, "
                                       f"not {payload[key]!r}")
        return ExperimentConfig(**payload)

    def override(self, ctx, flag_map: dict) -> None:
        """Apply CLI flags the user set explicitly on top of config values."""
        for param, (field_name, value) in flag_map.items():
            source = ctx.get_parameter_source(param)
            explicit = source is not None and source.name not in ("DEFAULT", "DEFAULT_MAP")
            if explicit or getattr(self, field_name) is None and value is not None:
                setattr(self, field_name, value)

    def validate(self) -> None:
        if self.graph is None:
            raise click.UsageError("a graph (file path or inline spec) is required")
        if self.replications < 1:
            raise click.UsageError("replications must be >= 1")
        if not self.seed_list():
            raise click.UsageError("the seed list is empty")
        _check_window(self.horizon, self.burn_in)  # a bad window is a validation error
        if self.policy == "periodic" and not self.sequence:
            raise click.UsageError("periodic policy needs a visit sequence")
        if self.output is None:
            raise click.UsageError("an output path is required (-o or config)")

    def seed_list(self) -> list:
        if self.seeds is None:
            return list(range(self.replications))
        if isinstance(self.seeds, str):
            return [int(s) for s in self.seeds.split(",") if s.strip() != ""]
        return [int(s) for s in self.seeds]

    def sequence_list(self) -> list:
        if isinstance(self.sequence, str):
            return [int(s) for s in self.sequence.split(",")]
        return [int(s) for s in self.sequence]

    def resolve_graph(self) -> MobilityGraph:
        if isinstance(self.graph, str):
            return load_graph(self.graph)
        g = _family_graph(self.graph)
        weights = self.graph.get("weights")
        if weights:
            mode = weights.get("mode", "uniform")
            g = assign_weights(g, mode, lo=weights.get("lo", 1.0), hi=weights.get("hi", 2.0),
                               seed=weights.get("seed"))
        return g


def _gathering_run(g, policy, sequence, g_fn, horizon, burn_in, start, matrix, seed, record):
    if policy in ("mh", "fastest"):
        return simulate_randomized(g, matrix, horizon, burn_in, seed=seed, start=start,
                                   record_trace=record)
    if policy == "age_based":
        return simulate_age_based(g, g_fn, horizon, burn_in, start=start, record_trace=record)
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
    outs = _parallel_map(run, cfg.jobs or _default_jobs(), seeds,
                         [record and k == 0 for k in range(len(seeds))])
    log = None
    if record:
        outs[0], log = outs[0]
    rows = [{
        "row_type": "replication", "policy": cfg.policy, "seed": seed,
        "horizon": cfg.horizon, "burn_in": stats.burn_in,
        "network_peak": stats.network_peak, "network_avg": stats.network_avg,
        "peak_stderr": "", "avg_stderr": "",
    } for seed, stats in zip(seeds, outs)]
    rows.append(_aggregate_rows(rows, cfg.policy, cfg.horizon, rows[0]["burn_in"]))
    _write_csv(cfg.output, RUN_CSV_FIELDS, rows)
    click.echo(f"wrote {len(rows)} rows -> {cfg.output}")
    return outs, log


@main.command("simulate")
@click.option("--graph", "graph_path", type=click.Path(dir_okay=False), default=None)
@click.option("--policy", type=click.Choice(POLICIES), default="mh")
@click.option("--sequence", default=None, help="comma-separated periodic visit sequence")
@click.option("--g-fn", type=click.Choice(AGE_FUNCTIONS), default="quadratic_plus_linear")
@click.option("--horizon", type=int, default=50_000)
@click.option("--burn-in", type=int, default=None)
@click.option("--replications", type=int, default=1)
@click.option("--seeds", default=None, help="comma-separated seed list")
@click.option("--start", type=int, default=0)
@click.option("--jobs", type=int, default=None)
@click.option("--trace", "trace_path", type=click.Path(dir_okay=False), default=None,
              help=f"dump the full age trace (horizon <= {TRACE_HORIZON_LIMIT})")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON ExperimentConfig; explicit flags win")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@click.pass_context
@_cli_errors
def cmd_simulate(ctx, graph_path, policy, sequence, g_fn, horizon, burn_in, replications,
                 seeds, start, jobs, trace_path, config_path, output):
    """Run gathering simulations and write per-replication plus aggregate CSV rows."""
    cfg = ExperimentConfig.from_json(config_path) if config_path else ExperimentConfig()
    cfg.override(ctx, {
        "graph_path": ("graph", graph_path), "policy": ("policy", policy),
        "sequence": ("sequence", sequence), "g_fn": ("g_fn", g_fn),
        "horizon": ("horizon", horizon), "burn_in": ("burn_in", burn_in),
        "replications": ("replications", replications), "seeds": ("seeds", seeds),
        "start": ("start", start), "jobs": ("jobs", jobs), "output": ("output", output),
    })
    cfg.validate()
    policy = cfg.policy
    g = cfg.resolve_graph()
    matrix = None
    if policy in ("mh", "fastest"):
        matrix = (build_mh(g) if policy == "mh" else build_fastest_mixing(g)).matrix
    sequence = cfg.sequence_list() if cfg.sequence else None
    run = functools.partial(_gathering_run, g, policy, sequence, cfg.g_fn, cfg.horizon,
                            cfg.burn_in, cfg.start, matrix)
    _, trace = _replicate(run, cfg, record=bool(trace_path))
    if trace_path:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "m"] + [f"A_{i}" for i in range(g.n)])
            for t in range(trace.horizon):
                writer.writerow([t + 1, int(trace.visit_log[t])] + trace.ages[t].tolist())
        click.echo(f"wrote trace -> {trace_path}")


@main.command("disseminate")
@click.option("--graph", "graph_path", type=click.Path(dir_okay=False), default=None)
@click.option("--horizon", type=int, default=50_000)
@click.option("--burn-in", type=int, default=None)
@click.option("--replications", type=int, default=1)
@click.option("--seeds", default=None)
@click.option("--start", type=int, default=0)
@click.option("--rate-scale", type=float, default=1.0,
              help="scale the separation rates by this factor (must stay below 1/rho)")
@click.option("--design", "design_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="reuse a trajectory design JSON written by `design`")
@click.option("--report", "report_path", type=click.Path(dir_okay=False), default=None)
@click.option("--events", "events_path", type=click.Path(dir_okay=False), default=None,
              help=f"event log CSV (horizon <= {EVENT_LOG_HORIZON_LIMIT})")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="JSON ExperimentConfig; explicit flags win")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@click.pass_context
@_cli_errors
def cmd_disseminate(ctx, graph_path, horizon, burn_in, replications, seeds, start, rate_scale,
                    design_path, report_path, events_path, config_path, output):
    """Run separation-policy dissemination and write CSV rows plus a bound report."""
    cfg = ExperimentConfig.from_json(config_path) if config_path else ExperimentConfig()
    cfg.policy = "separation"
    cfg.override(ctx, {
        "graph_path": ("graph", graph_path), "horizon": ("horizon", horizon),
        "burn_in": ("burn_in", burn_in), "replications": ("replications", replications),
        "seeds": ("seeds", seeds), "start": ("start", start),
        "rate_scale": ("rate_scale", rate_scale), "output": ("output", output),
        "report_path": ("report", report_path),
    })
    cfg.validate()
    g = cfg.resolve_graph()
    if design_path:
        design = DesignResult.from_json(json.loads(Path(design_path).read_text()))
    else:
        design = build_fastest_mixing(g)
    policy = separation_policy(g, design=design)
    if cfg.rate_scale != 1.0:
        policy = policy_from_design(design, rates=policy.rates * cfg.rate_scale)

    run = functools.partial(_dissemination_run, g, policy, cfg.horizon, cfg.burn_in, cfg.start)
    stats, events = _replicate(run, cfg, record=bool(events_path))
    if cfg.report:
        report = dissemination_report(policy, stats[-1], g.weights)
        Path(cfg.report).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        click.echo(f"wrote report -> {cfg.report}")
    if events_path:
        with open(events_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(EVENT_CSV_FIELDS)
            for t, kind, terminal, gen in events:
                writer.writerow([t, kind, terminal, "" if gen is None else gen])
        click.echo(f"wrote events -> {events_path}")


def _sweep_graph(family, n, base_seed):
    g = _family_graph({"family": family, "n": n, "side": int(round(math.sqrt(n))),
                       "k": RING_RADIUS, "seed": base_seed + n})
    return assign_weights(g, "random_interval", lo=1.0, hi=2.0, seed=base_seed + 10_000 + n)


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
    mh_report = analytic_ages(analyze(mh.matrix, pi=mh.target_pi), g.weights)
    fast_report = analytic_ages(analyze(fast.matrix, pi=fast.target_pi), g.weights)
    age_stats = simulate_age_based(g, horizon=horizon, start=0)
    point = {
        "family": family, "n": g.n,
        "mh_peak": mh_report.network_peak, "mh_avg": mh_report.network_avg,
        "fastest_peak": fast_report.network_peak, "fastest_avg": fast_report.network_avg,
        "age_based_peak": age_stats.network_peak, "age_based_avg": age_stats.network_avg,
        "lower_bound": average_age_lower_bound(g.weights),
        "peak_opt": peak_optimal_value(g.weights),
        "objective": fast.objective,
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
@click.option("--horizon", type=int, default=50_000)
@click.option("--base-seed", type=int, default=SWEEP_BASE_SEED)
@click.option("--sizes", default=None, help="comma-separated size override for the sweep")
@click.option("--solver-iterations", type=int, default=SWEEP_SOLVER_ITERATIONS)
@click.option("--jobs", type=int, default=None)
@_cli_errors
def cmd_reproduce(figure, out_dir, horizon, base_seed, sizes, solver_iterations, jobs):
    """Sweep network size per graph family and emit one CSV per figure id."""
    figures = sorted(FIGURES) if figure == "all" else [figure]
    jobs = jobs if jobs else _default_jobs()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    override = [int(s) for s in sizes.split(",")] if sizes else None
    families = {}
    for fig in figures:
        family, _, columns = FIGURES[fig]
        entry = families.setdefault(family, {"sizes": set(), "diss": False})
        entry["sizes"].update(override or SWEEP_SIZES[family])
        entry["diss"] = entry["diss"] or any(key == "dissemination_avg" for _, key in columns)

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
        _write_csv(path, SWEEP_CSV_FIELDS, rows)
        click.echo(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
