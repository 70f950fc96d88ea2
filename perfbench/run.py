"""age-patrol benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload figures|simulate|scale|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``
of that checkout.  With ``--trace 0`` the run times untraced passes and
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced
and traced passes and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report and the run manifest.  Spans of a traced run are written
to ``.perfbench_out/`` when the run ends.  ``--workload all`` runs the
three workloads one after another, each in its own process, and ends with
one JSON object whose metric names are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# the benchmark is one single-threaded process; BLAS gets one thread so that
# the small dense solves of the sweep are not slowed by thread hand-off
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import age_patrol.cli; print(time.perf_counter() - t)")

WORKLOAD_NAMES = ("figures", "simulate", "scale")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "avg_age_ratio": "ratio",
                    "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha(root: Path):
    """Commit of the checkout, or None outside a git work tree or without git."""
    try:
        # the ceiling keeps git from taking a repository above the checkout for it
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, env=dict(os.environ,
                                                  GIT_CEILING_DIRECTORIES=str(root.parent)))
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def import_seconds() -> list:
    """Import time of the package in fresh interpreters, one per set-up repeat."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip()))
    return out


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_passes(workload, inputs, seconds: float, tracer_factory=None):
    """Closed loop: passes until the next one would end after `seconds`.

    With a tracer factory the passes alternate untraced and traced, and
    the loop ends only after at least one of each.
    """
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        want_trace = tracer_factory is not None and len(traced) < len(untraced)
        if want_trace:
            tracer = tracer_factory(len(traced))
            traced.append((workload.run_pass(inputs, tracer), tracer))
        else:
            untraced.append(workload.run_pass(inputs))
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        if tracer_factory is not None and not traced:
            continue
        if elapsed + elapsed / done > seconds:
            return untraced, traced


def manifest(args, workload, setup_samples, passes, traced) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "argv": sys.argv,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {k: os.environ.get(k) for k in BLAS_ENV}},
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params(),
        "samples": {"setup_s": setup_samples, "passes": len(passes),
                    "traced_passes": len(traced)},
        # recorded, not counted in `failed`: see oracles.report_hard_checks
        "dissemination_report_failed_passes": sum(bool(p.report_failures) for p in passes),
    }


def report_lines(args, metrics, passes, attempted, failed, failures) -> list:
    walls = [p.wall_s for p in passes]
    q1, q3 = quartiles(walls)
    lines = [f"workload {args.workload} seed {args.seed}: {len(passes)} untraced pass(es), "
             f"wall_s median {statistics.median(walls):.4f} s (q1 {q1:.4f}, q3 {q3:.4f}, "
             f"n={len(walls)})"]
    for name, entry in metrics.items():
        lines.append(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    if args.workload == "simulate":
        rate = sum(p.slots for p in passes) / sum(p.sim_s for p in passes)
        lines.append(f"  {'slots_per_s':40s} {rate:.6g} 1/s")
    lines.append(f"  {'fail_frac':40s} {failed / attempted:.6g} "
                 f"({failed} of {attempted} operations)")
    lines += [f"  FAILED {msg}" for msg in failures[:20]]
    if args.workload == "simulate":
        failing = [p.report_failures for p in passes if p.report_failures]
        lines.append(f"  dissemination_report hard checks (2% margin, not an oracle) failed in "
                     f"{len(failing)} of {len(passes)} untraced passes"
                     + (f": {failing[0]}" if failing else ""))
    return lines


def run_all(args) -> int:
    """Every workload in a child process of its own, so that each has its own peak RSS."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "age_patrol" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    for key in BLAS_ENV:
        os.environ[key] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    import age_patrol
    if Path(age_patrol.__file__).resolve().parent != SRC / "age_patrol":
        print(f"error: age_patrol imported from {age_patrol.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from tracer import Tracer, layer_metrics
    from workloads import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT_DIR / "tmp")
    setup_samples = []
    imports = import_seconds()
    inputs = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = workload.setup()
        setup_samples.append(time.perf_counter() - t0)
    setup_s = statistics.median(imports) + statistics.median(setup_samples)

    def new_tracer(k):
        tracer = Tracer()
        tracer.run_id = f"{args.workload}-{args.seed}-{k}"
        return tracer

    passes, traced = run_passes(workload, inputs, args.seconds,
                                new_tracer if args.trace else None)
    every = passes + [p for p, _ in traced]
    attempted = sum(p.ops for p in every)
    failures = [msg for p in every for msg in p.failures]
    failed = len(failures)

    if args.trace:
        per_pass = [layer_metrics(tr.spans, p.wall_s) for p, tr in traced]
        metrics = {name: {"value": statistics.median(m[name] for m in per_pass),
                          "unit": _layer_unit(name)} for name in per_pass[0]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(p.wall_s for p, _ in traced)
            - statistics.median(p.wall_s for p in passes), "unit": "s"}
    else:
        values = {
            "wall_s": statistics.median(p.wall_s for p in passes),
            "setup_s": setup_s,
            # a pass whose operations all failed has no ratio; it counts in `failed`
            "avg_age_ratio": statistics.median(
                [p.avg_age_ratio for p in passes if math.isfinite(p.avg_age_ratio)] or [0.0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    info = manifest(args, workload, {"imports": imports, "inputs": setup_samples},
                    passes, traced)
    for line in report_lines(args, metrics, passes, attempted, failed, failures):
        print(line)
    print("manifest " + json.dumps(info, sort_keys=True))
    if args.trace:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"manifest": info, "metrics": metrics,
                                    "missing_bindings": traced[0][1].missing,
                                    "spans": [s for _, tr in traced for s in tr.to_json()]}))
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_frac", "_share", "_share_est")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
