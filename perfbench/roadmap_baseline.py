"""Re-measure the hand-timed per-layer baseline listed in ROADMAP.md.

    python3 perfbench/roadmap_baseline.py

Times, on the sweep's random geometric instances (base seed 1) at n=100
and n=200: build_mh, build_fastest_mixing, analyze, and the randomized,
age-based and dissemination simulators in seconds per million slots.
Each quantity is timed once, as the hand-timed numbers were, and printed
as one JSON object.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SLOTS = 1_000_000


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return time.perf_counter() - t0, result


def measure(n: int) -> dict:
    from age_patrol import (analyze, build_fastest_mixing, build_mh, cli, separation_policy,
                            simulate_age_based, simulate_dissemination, simulate_randomized)
    g = cli._sweep_graph("geometric", n, cli.SWEEP_BASE_SEED)
    mh_s, mh = _timed(build_mh, g)
    fastest_s, fast = _timed(build_fastest_mixing, g)
    analyze_s, _ = _timed(analyze, mh.matrix)
    policy = separation_policy(g, design=fast)
    per_million = SLOTS / 1e6
    return {
        "build_mh_ms": 1e3 * mh_s,
        "fastest_s": fastest_s,
        "fastest_iterations": fast.iterations,
        "analyze_ms": 1e3 * analyze_s,
        "randomized_s_per_M": _timed(simulate_randomized, g, fast.matrix, SLOTS)[0] / per_million,
        "age_based_s_per_M": _timed(simulate_age_based, g, horizon=SLOTS)[0] / per_million,
        "dissemination_s_per_M":
            _timed(simulate_dissemination, g, policy, SLOTS)[0] / per_million,
    }


def main() -> int:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    print(json.dumps({f"n={n}": measure(n) for n in (100, 200)}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
