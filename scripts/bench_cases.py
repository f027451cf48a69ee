"""Wall time, peak RSS and exit code of fixed twocubes commands, each run in
fresh processes, written as one record per checkout into a BENCH_<PR>.json.

    python scripts/bench_cases.py --out BENCH_32.json [--runs 3] [--case NAME ...] [CHECKOUT ...]

A checkout (default: this repository) runs from its own src/.  With several
checkouts every run of a case alternates between them, so that a drift of
the host falls on each alike.  For each case a record holds the argv, the
median, minimum and maximum wall time of --runs fresh processes (stdout sent
to /dev/null), the exit code, and the peak RSS of one more run: the
ru_maxrss that RUSAGE_CHILDREN gives in a fresh parent with that one child,
since it is a high-water mark over all of a parent's children.  Once per
record: the git sha of the checkout, nproc, and the Python and numpy
versions.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

CLI = ["-m", "twocubes.cli"]
# Arguments to python, one case each.
CASES = [
    ["-c", "pass"],
    ["-c", "import twocubes.cli"],
    [*CLI, "ff", "rank"],
    [*CLI, "surface", "analyze"],
    [*CLI, "ff", "lfunction", "--p", "17"],
    [*CLI, "ff", "lfunction", "--p", "13"],
    [*CLI, "ff", "lfunction", "--p", "19"],
    [*CLI, "ff", "lfunction", "--p", "23"],  # the largest p = 2 mod 3 in budget
    [*CLI, "ff", "lfunction", "--p", "787"],  # the largest p = 1 mod 3 in budget
    [*CLI, "ff", "lfunction", "--p", "11", "--direct"],
    [*CLI, "twists", "table", "--from", "0", "--to", "9999", "--certify", "--budget", "1000"],
    [*CLI, "identities", "verify"],
    [*CLI, "identities", "nearmiss", "--family", "infinity", "--count", "2000"],
    [*CLI, "identities", "taxicab", "--bound", "1000000000"],
]

_PEAK = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL).returncode\n"
    "print(code, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
)


def case_name(args: list[str]) -> str:
    return " ".join(args[2:]) if args[:2] == CLI else " ".join(["python", *args])


def _env(checkout: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(checkout / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def _wall(checkout: Path, args: list[str]) -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, *args], stdout=subprocess.DEVNULL, env=_env(checkout))
    return time.perf_counter() - started


def _peak(checkout: Path, args: list[str]) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of one run, from a fresh parent."""
    out = subprocess.run(
        [sys.executable, "-c", _PEAK, sys.executable, *args],
        capture_output=True, text=True, env=_env(checkout), check=True,
    )
    code, kib = map(int, out.stdout.split())
    return code, round(kib / 1024, 1)


def _meta(checkout: Path, runs: int) -> dict:
    def output(*cmd: str, env=None) -> str | None:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env)
        return out.stdout.strip() if out.returncode == 0 else None

    git = ("git", "-C", str(checkout))
    return {
        "git_sha": output(*git, "rev-parse", "HEAD"),
        "dirty": bool(output(*git, "status", "--porcelain", "--untracked-files=no")),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": output(sys.executable, "-c", "import numpy; print(numpy.__version__)",
                        env=_env(checkout)),
        "runs": runs,
        "cases": [],
    }


def bench(checkouts: list[Path], cases: list[list[str]], runs: int) -> list[dict]:
    records = [_meta(c, runs) for c in checkouts]
    for args in cases:
        walls = [[] for _ in checkouts]
        for _ in range(runs):
            for i, checkout in enumerate(checkouts):
                walls[i].append(_wall(checkout, args))
        for record, checkout, wall in zip(records, checkouts, walls):
            code, peak = _peak(checkout, args)
            record["cases"].append({
                "name": case_name(args),
                "argv": args,
                "wall_s": {"median": round(statistics.median(wall), 4),
                           "min": round(min(wall), 4), "max": round(max(wall), 4)},
                "peak_rss_mb": peak,
                "exit_code": code,
            })
    return records


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", type=Path,
                        default=[Path(__file__).resolve().parents[1]])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--case", action="append", choices=[case_name(c) for c in CASES],
                        help="run only this case (repeatable)")
    args = parser.parse_args(argv)
    cases = [c for c in CASES if args.case is None or case_name(c) in args.case]
    records = bench([c.resolve() for c in args.checkouts], cases, args.runs)
    args.out.write_text(json.dumps({"records": records}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
