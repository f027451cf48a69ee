"""Wall time, peak RSS and exit code of fixed twocubes commands, each run in
fresh processes, written as one record per checkout into a BENCH_<PR>.json.

    python scripts/bench_cases.py --out BENCH_32.json [--runs 3] [--case NAME ...] [CHECKOUT ...]

A checkout (default: this repository) runs from a fresh copy of its src/
with no __pycache__, under PYTHONDONTWRITEBYTECODE=1, so every run compiles
what it imports, as in a new checkout, whatever caches the checkout holds
(a stale cache would load some modules from bytecode and compile others).
With several checkouts every run of a case alternates between them, so that
a drift of the host falls on each alike.  For each case a record holds the
argv, the median, minimum and maximum wall time of --runs fresh processes
(stdout sent to /dev/null), the exit code, and the peak RSS of one more
run: the ru_maxrss that RUSAGE_CHILDREN gives in a fresh parent with that
one child, since it is a high-water mark over all of a parent's children.
Once per record: the git sha of the checkout, nproc, the Python and numpy
versions, and the bytecode mode.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
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


BYTECODE = "none: a copy of src/ without __pycache__, PYTHONDONTWRITEBYTECODE=1"


def _fresh_src(checkout: Path, into: Path) -> Path:
    """A copy of the checkout's src/ without its __pycache__ directories."""
    return Path(shutil.copytree(checkout / "src", into / "src",
                                ignore=shutil.ignore_patterns("__pycache__")))


def _env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}


def _wall(src: Path, args: list[str]) -> float:
    started = time.perf_counter()
    subprocess.run([sys.executable, *args], stdout=subprocess.DEVNULL, env=_env(src))
    return time.perf_counter() - started


def _peak(src: Path, args: list[str]) -> tuple[int, float]:
    """(exit code, peak RSS in MB) of one run, from a fresh parent."""
    out = subprocess.run(
        [sys.executable, "-c", _PEAK, sys.executable, *args],
        capture_output=True, text=True, env=_env(src), check=True,
    )
    code, kib = map(int, out.stdout.split())
    return code, round(kib / 1024, 1)


def _meta(checkout: Path, src: Path, runs: int) -> dict:
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
                        env=_env(src)),
        "bytecode": BYTECODE,
        "runs": runs,
        "cases": [],
    }


def bench(checkouts: list[Path], cases: list[list[str]], runs: int) -> list[dict]:
    with tempfile.TemporaryDirectory() as tmp:
        srcs = [_fresh_src(c, Path(tmp, str(i))) for i, c in enumerate(checkouts)]
        records = [_meta(c, src, runs) for c, src in zip(checkouts, srcs)]
        for args in cases:
            walls = [[] for _ in srcs]
            for _ in range(runs):
                for i, src in enumerate(srcs):
                    walls[i].append(_wall(src, args))
            for record, src, wall in zip(records, srcs, walls):
                code, peak = _peak(src, args)
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
