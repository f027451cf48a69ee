"""Measure every metric on every workload and record it with the environment.

    python3 perfbench/baseline.py

For each workload: RUNS untraced runs with seeds 1..RUNS, then one traced
run with the default seed, each exactly as BENCHMARK.json's command runs
them.  For each end-to-end metric it records the median, the quartiles
(statistics.quantiles, n=4) and the spread (Q3 - Q1) / median against the
metric's bound.  Writes perfbench/baseline.json.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RUNS = 10
OUT = run.BENCH / "baseline.json"


def invoke(workload: str, seed: int, trace: int) -> dict:
    cmd = BENCHMARK["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(BENCHMARK["run_seconds"]),
                                  "--trace", str(trace)]
    started = time.monotonic()
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=200)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def environment() -> dict:
    import numpy
    import sympy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "machine": platform.machine(),
        "run_seconds": BENCHMARK["run_seconds"],
    }


def summarize(runs: list[dict]) -> dict:
    out = {}
    for metric in BENCHMARK["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        out[metric["name"]] = {
            "unit": metric["unit"], "median": med, "q1": q1, "q3": q3, "spread": spread,
            "bound": metric["bound"], "spread_below_third_of_bound": spread < metric["bound"] / 3,
            "values": values,
        }
    return out


def main() -> int:
    doc = {"environment": environment(), "workloads": {}}
    for workload in run.workloads.WORKLOADS:
        runs = [invoke(workload, seed, 0) for seed in range(1, RUNS + 1)]
        traced = invoke(workload, run.workloads.DEFAULT_SEED, 1)
        doc["workloads"][workload] = {
            "end_to_end": summarize(runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "run_wall_s": [r["wall_s"] for r in runs],
            "traced": {"seed": run.workloads.DEFAULT_SEED, "failed": traced["failed"],
                       "wall_s": traced["wall_s"],
                       "per_layer": {k: v["value"] for k, v in traced["metrics"].items()}},
        }
        for name, m in doc["workloads"][workload]["end_to_end"].items():
            print(f"{workload:10s} {name:12s} median {m['median']:12.5g} {m['unit']:6s} "
                  f"spread {m['spread']:.4f} (bound {m['bound']})", flush=True)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
