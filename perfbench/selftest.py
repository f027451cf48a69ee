"""Self-test of the benchmark; about two minutes.

    python3 perfbench/selftest.py

1. The metric tables in run.py match BENCHMARK.json (names, units, order).
2. A reduced-size (--smoke) run of each workload, untraced and traced,
   prints a last line with exactly the keys the contract names, the
   metric names of BENCHMARK.json, and no failed op.
3. The same reduced runs against a deliberately corrupted copy of the
   reference report the corrupted values as failed ops.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def corrupt(ref: dict) -> dict:
    """One wrong reference value per workload, each one a smoke run meets."""
    bad = copy.deepcopy(ref)
    bad["lfunction"]["lpoly"]["5"][2] += 1
    i = workloads.DIGEST_HEX * workloads.T_RANGE  # the digest of t = 0
    digests = bad["twists"]["digests"]
    flipped = "0" if digests[i] != "0" else "1"
    bad["twists"]["digests"] = digests[:i] + flipped + digests[i + 1:]
    bad["symbolic"]["lambda"]["P1"][1] += 1
    return bad


def run_once(workload: str, trace: int) -> dict:
    argv = ["--workload", workload, "--seed", str(workloads.DEFAULT_SEED), "--seconds", "1",
            "--trace", str(trace), "--smoke"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(argv)
    assert code == 0, f"{workload}: exit {code}"
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def main() -> int:
    e2e = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert e2e == run.END_TO_END, "end_to_end of BENCHMARK.json differs from run.py"
    assert layers == [(n, u) for n, u, _, _ in run.PER_LAYER], "per_layer differs"
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)

    for workload in workloads.WORKLOADS:
        for trace, names in ((0, e2e), (1, layers)):
            out = run_once(workload, trace)
            assert set(out) == {"correct", "attempted", "failed", "metrics"}, out.keys()
            got = [(n, m["unit"]) for n, m in out["metrics"].items()]
            assert got == names, f"{workload} trace={trace}: metric names differ"
            assert out["correct"] and out["failed"] == 0, f"{workload}: {out}"
        print(f"ok   {workload}: metric names match BENCHMARK.json, no failed op")

    good = workloads.REFERENCE_DIR
    bad_dir = run.BENCH / ".runs" / "selftest-reference"
    bad_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name, ref in corrupt(workloads.load_reference(good)).items():
            (bad_dir / f"{name}.json").write_text(json.dumps(ref))
        workloads.REFERENCE_DIR = bad_dir
        for workload in workloads.WORKLOADS:
            out = run_once(workload, 0)
            assert not out["correct"] and out["failed"] >= 1, f"{workload}: {out}"
            print(f"ok   {workload}: corrupted reference -> {out['failed']} failed ops")
    finally:
        workloads.REFERENCE_DIR = good
        shutil.rmtree(bad_dir, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
