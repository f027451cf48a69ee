"""scripts/bench_cases.py: one record per checkout, with the keys a
BENCH_<PR>.json reader relies on."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_cases_records_one_cheap_case(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_cases.py"), "--out", str(out),
         "--runs", "1", "--case", "identities verify"],
        check=True, timeout=120,
    )
    (record,) = json.loads(out.read_text())["records"]
    assert set(record) == {"git_sha", "dirty", "nproc", "python", "numpy", "bytecode", "runs",
                           "cases"}
    assert record["bytecode"].startswith("none")
    assert record["runs"] == 1 and record["nproc"] >= 1
    (case,) = record["cases"]
    assert set(case) == {"name", "argv", "wall_s", "peak_rss_mb", "exit_code"}
    assert case["name"] == "identities verify"
    assert case["argv"] == ["-m", "twocubes.cli", "identities", "verify"]
    assert case["exit_code"] == 0
    wall = case["wall_s"]
    assert 0 < wall["min"] == wall["median"] == wall["max"] < 60
    assert 1 < case["peak_rss_mb"] < 1000
