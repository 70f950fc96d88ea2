"""Golden record of fixed-seed outputs of the package.

    python3 perfbench/golden.py --check    # compare with perfbench/golden.json
    python3 perfbench/golden.py --write    # record the current outputs

The record holds network values of AgeStats and AgeReport, design
objectives, transition matrices (hashed, with their entries) and the
CSVs of a small figure sweep.  ``--check`` reports each entry as
bit-exact, within 1e-12 (relative) or mismatched.  A mismatch is a
report, not a benchmark failure: a change may alter the order of random
draws if it says why.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden.json"
TOLERANCE = 1e-12
SWEEP_ARGS = ["reproduce", "--figure", "all", "--sizes", "9,16", "--horizon", "2000",
              "--solver-iterations", "100", "--jobs", "1", "--base-seed", "3"]


def _matrix(p) -> dict:
    """Hash of the bytes for the bit-exact case, and every entry for the 1e-12 one."""
    import numpy as np
    p = np.ascontiguousarray(p, dtype=np.float64)
    return {"sha256": hashlib.sha256(p.tobytes()).hexdigest(), "entries": p.tolist()}


def collect(scratch: Path) -> dict:
    """Fixed-seed outputs keyed by a stable name."""
    from age_patrol import (DiscreteLaw, SolverOptions, analytic_ages, analyze,
                            assign_weights, build_fastest_mixing, build_mh, cli,
                            design_objective, generate_grid_diag, generate_random_geometric,
                            generate_ring_k, separation_policy, simulate_age_based,
                            simulate_berg1_vacation, simulate_dissemination,
                            simulate_randomized)
    out = {}
    instances = {
        "geometric12": assign_weights(generate_random_geometric(12, 2 / math.sqrt(12), 5),
                                      "random_interval", seed=6),
        "grid3": assign_weights(generate_grid_diag(3), "random_interval", seed=7),
        "ring9": assign_weights(generate_ring_k(9, 2), "random_interval", seed=8),
    }
    for name, g in instances.items():
        mh = build_mh(g)
        out[f"{name}.mh.matrix"] = _matrix(mh.matrix.p)
        out[f"{name}.mh.objective"] = design_objective(mh.matrix.p, mh.target_pi)
        report = analytic_ages(analyze(mh.matrix, pi=mh.target_pi), g.weights)
        for key in ("network_peak", "network_avg", "lower_bound_avg", "upper_bound_avg"):
            out[f"{name}.mh.ages.{key}"] = getattr(report, key)

    g = instances["geometric12"]
    mh = build_mh(g)
    fast = build_fastest_mixing(g, SolverOptions(max_iterations=300))
    out["geometric12.fastest.matrix"] = _matrix(fast.matrix.p)
    out["geometric12.fastest.objective"] = fast.objective
    out["geometric12.fastest.iterations"] = fast.iterations
    runs = {
        "randomized": simulate_randomized(g, mh.matrix, 20_000, seed=3),
        "age_based": simulate_age_based(g, horizon=20_000),
        "dissemination": simulate_dissemination(g, separation_policy(g, design=mh), 20_000,
                                                seed=4),
    }
    for name, stats in runs.items():
        out[f"geometric12.{name}.network_peak"] = stats.network_peak
        out[f"geometric12.{name}.network_avg"] = stats.network_avg
    vac = simulate_berg1_vacation(0.2, DiscreteLaw.uniform([1, 2]),
                                  DiscreteLaw.uniform([1, 2, 3]), 20_000, seed=5)
    out["vacation.empirical_peak"] = vac.empirical_peak
    out["vacation.empirical_avg"] = vac.empirical_avg

    out_dir = scratch / "golden-sweep"
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main.main(SWEEP_ARGS + ["--out-dir", str(out_dir)], standalone_mode=False)
    for path in sorted(out_dir.glob("*.csv")):
        with open(path, newline="") as fh:
            out[f"sweep.{path.name}"] = {"rows": list(csv.DictReader(fh))}
    shutil.rmtree(out_dir, ignore_errors=True)
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def compare_entry(expected, actual) -> str:
    """'bit-exact', 'within 1e-12' or 'mismatch'."""
    if expected == actual:
        return "bit-exact"
    if isinstance(expected, (int, float)) and isinstance(actual, (int, float)):
        return "within 1e-12" if _close(expected, actual) else "mismatch"
    if isinstance(expected, dict) and isinstance(actual, dict):
        if "sha256" in expected and "sha256" in actual:
            return _compare_entries(expected["entries"], actual["entries"])
        if "rows" in expected and "rows" in actual:
            return _compare_rows(expected["rows"], actual["rows"])
    return "mismatch"


def _compare_entries(expected: list, actual: list) -> str:
    if len(expected) != len(actual) or any(len(e) != len(a) for e, a in zip(expected, actual)):
        return "mismatch"
    ok = all(_close(x, y) for e, a in zip(expected, actual) for x, y in zip(e, a))
    return "within 1e-12" if ok else "mismatch"


def _compare_rows(expected: list, actual: list) -> str:
    if len(expected) != len(actual):
        return "mismatch"
    for e, a in zip(expected, actual):
        if e.keys() != a.keys():
            return "mismatch"
        for key in e:
            if e[key] == a[key]:
                continue
            try:
                if not _close(float(e[key]), float(a[key])):
                    return "mismatch"
            except ValueError:
                return "mismatch"
    return "within 1e-12"


def check(record: dict, outputs: dict) -> dict:
    """Status of every entry of the record; entries the run lacks are mismatches."""
    return {name: compare_entry(value, outputs.get(name)) for name, value in record.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="golden record of fixed-seed outputs")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        outputs = collect(Path(scratch))
    if args.write:
        GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(outputs)} entries to {GOLDEN.relative_to(ROOT)}")
        return 0
    status = check(json.loads(GOLDEN.read_text()), outputs)
    for name, result in sorted(status.items()):
        if result != "bit-exact":
            print(f"{result:12s} {name}")
    counts = {k: sum(v == k for v in status.values())
              for k in ("bit-exact", "within 1e-12", "mismatch")}
    print("golden: " + ", ".join(f"{v} {k}" for k, v in counts.items()))
    return 1 if counts["mismatch"] else 0


if __name__ == "__main__":
    sys.exit(main())
