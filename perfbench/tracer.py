"""In-memory spans recorded around calls into the age_patrol modules.

The benchmark never edits the package.  It replaces module attributes
(for example ``markov.stationary_distribution``) with wrappers that open
a span, call the original and close the span, so that calls made inside
``analyze`` through its module globals become child spans of the
``analyze`` span.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

# span name -> modules of the package whose global of that name is replaced.
# The first module is the one that defines the function.
TRACED = {
    "graphs.generate_random_geometric": ("graphs", "cli"),
    "graphs.generate_grid_diag": ("graphs", "cli"),
    "graphs.generate_ring_k": ("graphs", "cli"),
    "graphs.assign_weights": ("graphs", "cli"),
    "markov.analyze": ("markov", "cli", "dissemination"),
    "markov.stationary_distribution": ("markov",),
    "markov.fundamental_matrix": ("markov",),
    "markov.slem": ("markov",),
    "markov.check_irreducible": ("markov", "trajectory_design"),
    "aoi_analysis.analytic_ages": ("aoi_analysis", "cli"),
    "trajectory_design.build_mh": ("trajectory_design", "cli"),
    "trajectory_design.build_fastest_mixing": ("trajectory_design", "cli", "dissemination"),
    "trajectory_design.design_objective": ("trajectory_design", "cli"),
    "simulation.simulate_randomized": ("simulation", "cli"),
    "simulation.simulate_age_based": ("simulation", "cli"),
    "dissemination.simulate_dissemination": ("dissemination", "cli"),
    "dissemination.simulate_berg1_vacation": ("dissemination",),
    "dissemination.separation_policy": ("dissemination", "cli"),
    "dissemination.policy_from_design": ("dissemination", "cli"),
    "cli._sweep_point_safe": ("cli",),
}

PACKAGE = "age_patrol"
LAYERS = ("graphs", "markov", "aoi_analysis", "trajectory_design", "simulation",
          "dissemination", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None      # index of the enclosing span in Tracer.spans
    run_id: str
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


@contextlib.contextmanager
def patched(bindings):
    """Replace (module, attribute, value) bindings; restore them on exit."""
    saved = []
    try:
        for module, attr, value in bindings:
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class Tracer:
    """Records one span per call of every function named in TRACED."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []     # bindings that do not exist in this version
        self.run_id = ""
        self._stack: list = []

    def span(self, name: str, fn):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            record = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                self._stack.pop()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            record.info = _span_info(name, bound.arguments, result)
            return result
        return traced

    def installed(self):
        """Context manager that wraps every TRACED binding present in the package."""
        bindings = []
        for name, modules in TRACED.items():
            attr = name.split(".", 1)[1]
            owner = importlib.import_module(f"{PACKAGE}.{modules[0]}")
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.span(name, original)
            for mod_name in modules:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
                if getattr(module, attr, None) is original:
                    bindings.append((module, attr, wrapper))
                else:
                    self.missing.append(f"{mod_name}.{attr}")
        return patched(bindings)

    def to_json(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "run_id": s.run_id, "info": s.info} for s in self.spans]


def _span_info(name: str, arguments: dict, result) -> dict:
    """Counts recorded at the span boundary: work done and its outcome."""
    if name.startswith("graphs.generate"):
        return {"edges": len(result.edges)}
    if name == "trajectory_design.build_fastest_mixing":
        return {"iterations": int(result.iterations), "converged": bool(result.converged)}
    if "horizon" in arguments:
        return {"slots": int(arguments["horizon"])}
    if name == "cli._sweep_point_safe":
        return {"failed": "error" in result}
    return {}


def self_times(spans) -> list:
    """Duration of each span minus the union of its direct children's intervals."""
    children = [[] for _ in spans]
    for idx, s in enumerate(spans):
        if s.parent is not None:
            children[s.parent].append(idx)
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[idx]):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.duration - covered)
    return out


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced pass, keyed by the names in BENCHMARK.json."""
    selfs = self_times(spans)
    total = {}
    calls = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + s.duration
        calls[s.name] = calls.get(s.name, 0) + 1
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s, own in zip(spans, selfs):
        if s.layer in layer_self:
            layer_self[s.layer] += own

    def t(name):
        return total.get(name, 0.0)

    def rate(name):
        slots = sum(s.info.get("slots", 0) for s in spans if s.name == name)
        return slots / t(name) if t(name) > 0 else 0.0

    fastest = [i for i, s in enumerate(spans)
               if s.name == "trajectory_design.build_fastest_mixing"]
    iters = sum(spans[i].info["iterations"] for i in fastest)
    objective_calls = calls.get("trajectory_design.design_objective", 0)
    svd_est = 0.0
    for i in fastest:
        # one full SVD per iteration, priced at this call's own design_objective spans
        own = [s.duration for s in spans
               if s.parent == i and s.name == "trajectory_design.design_objective"]
        if own:
            svd_est += spans[i].info["iterations"] * sum(own) / len(own)
    sweep = [s for s in spans if s.name == "cli._sweep_point_safe"]

    metrics = {
        "graphs.generate_s": sum(t(n) for n in total if n.startswith("graphs.generate")),
        "graphs.edges": sum(s.info.get("edges", 0) for s in spans
                            if s.name.startswith("graphs.generate")),
        "markov.analyze_s": t("markov.analyze"),
        "markov.stationary_s": t("markov.stationary_distribution"),
        "markov.fundamental_s": t("markov.fundamental_matrix"),
        "markov.slem_s": t("markov.slem"),
        "markov.check_irreducible_s": t("markov.check_irreducible"),
        "markov.analyze_calls": calls.get("markov.analyze", 0),
        "aoi_analysis.analytic_ages_s": t("aoi_analysis.analytic_ages"),
        "trajectory_design.build_mh_s": t("trajectory_design.build_mh"),
        "trajectory_design.fastest_s": t("trajectory_design.build_fastest_mixing"),
        "trajectory_design.fastest_iters": iters,
        "trajectory_design.fastest_iter_ms":
            1e3 * t("trajectory_design.build_fastest_mixing") / iters if iters else 0.0,
        "trajectory_design.converged_frac":
            sum(spans[i].info["converged"] for i in fastest) / len(fastest) if fastest else 0.0,
        "trajectory_design.design_objective_s":
            t("trajectory_design.design_objective") / objective_calls if objective_calls else 0.0,
        "trajectory_design.svd_share_est":
            svd_est / t("trajectory_design.build_fastest_mixing") if fastest else 0.0,
        "trajectory_design.self_share": layer_self["trajectory_design"] / wall_s,
        "simulation.randomized_slots_per_s": rate("simulation.simulate_randomized"),
        "simulation.age_based_slots_per_s": rate("simulation.simulate_age_based"),
        "dissemination.slots_per_s": rate("dissemination.simulate_dissemination"),
        "dissemination.vacation_slots_per_s": rate("dissemination.simulate_berg1_vacation"),
        "dissemination.separation_policy_s": t("dissemination.separation_policy"),
        "cli.sweep_points": len(sweep),
        "cli.failed_points": sum(s.info["failed"] for s in sweep),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer]
    return metrics
