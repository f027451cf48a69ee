"""The twocubes benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload {lfunction,twists,symbolic} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its src/.
Each pass of the workload is a fresh interpreter (worker.py) in a fresh
working directory, so no lru_cache, table or file survives from one pass
to the next, as for a CLI user.  One client, closed loop: each op starts
when the previous one has returned.  Passes repeat while the next one is
predicted to end within --seconds (at least one; with --trace 1 at least
one traced and one untraced, traced first, unless the untraced one would
be cut at HARD_LIMIT_S).  Set-up is also sampled by PROBES extra
interpreters that stop once set-up is done, half before the passes and
half after.  Set-up times, and the op times of the workloads in
workloads.GAUGED, are scaled to a reference host speed by the readings of
worker.gauge() taken next to them; lfunction's op times are wall time.
The last stdout line is the JSON result; see README.md for the metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PROBES = 8
HARD_LIMIT_S = 170.0  # every child is killed by then; unfinished ops fail
GAUGE_REF_MS = 2.0  # scaled times are those of a host on which worker.gauge() takes this

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
]


def _layer(name, unit, layer=None, field=None):
    """A per-layer metric read from the trace summary: field of layer."""
    if layer is None:
        layer, field = name.rsplit(".", 1)
    return (name, unit, layer, field)


PER_LAYER = [
    _layer("exact.zechlog.build.calls", "count"),
    _layer("exact.zechlog.build.self_s", "s"),
    _layer("exact.zechlog.build.elements", "count"),
    _layer("exact.zechlog.build.rss_rise_mb", "MB"),
    _layer("exact.zechlog.sextic_traces.self_s", "s"),
    _layer("exact.zechlog.cube_class_counts.self_s", "s"),
    _layer("exact.ffield.field_init.calls", "count"),
    _layer("exact.ffield.field_init.self_s", "s"),
    _layer("exact.ffield.elem_ops", "count", "exact.ffield.elem_ops", "count"),
    _layer("exact.numbers.factorize.calls", "count"),
    _layer("exact.numbers.factorize.self_s", "s"),
    _layer("exact.poly.mul.calls", "count"),
    _layer("exact.poly.mul.self_s", "s"),
    _layer("exact.poly.poly_gcd.calls", "count"),
    _layer("exact.poly.poly_gcd.self_s", "s"),
    _layer("exact.ratfunc.ops", "count", "exact.ratfunc.ops", "count"),
    _layer("elliptic.add_points.calls", "count"),
    _layer("elliptic.add_points.self_s", "s"),
    _layer("elliptic.scalar_mul.calls", "count"),
    _layer("elliptic.point_order.self_s", "s"),
    _layer("elliptic.subgroup_is_cyclic.self_s", "s"),
    _layer("elliptic.torsion_order_bound.self_s", "s"),
    _layer("elliptic.count_points.calls", "count"),
    _layer("elliptic.count_points.self_s", "s"),
    _layer("elliptic.count_points.elements", "count"),
    _layer("function_field.fiber_trace_sum.calls", "count"),
    _layer("function_field.fiber_trace_sum.self_s", "s"),
    _layer("function_field.fiber_trace_sum.field_elements", "count"),
    _layer("function_field.lfunction.calls", "count"),
    _layer("function_field.lfunction.self_s", "s"),
    _layer("function_field.rank_bounds.self_s", "s"),
    _layer("function_field.section_add.calls", "count"),
    _layer("function_field.section_add.self_s", "s"),
    _layer("function_field.section_mul.calls", "count"),
    _layer("function_field.section_mul.self_s", "s"),
    _layer("function_field.pullback_differential.calls", "count"),
    _layer("function_field.pullback_differential.self_s", "s"),
    _layer("function_field.z_rank.calls", "count"),
    _layer("function_field.z_rank.self_s", "s"),
    _layer("surface.analyze.self_s", "s"),
    _layer("surface.classify_fibers.self_s", "s"),
    _layer("cli.dispatch.self_s", "s"),
    _layer("twists.specialize.self_s", "s"),
    _layer("twists.rank2_certificate.self_s", "s"),
    _layer("twists.certified", "count", "twists.rank2_certificate", "certified"),
    _layer("twists.exhausted", "count", "twists.rank2_certificate", "exhausted"),
    _layer("twists.primes_tried", "count", "twists.rank2_certificate", "primes_tried"),
    _layer("twists.certified_per_prime", "ratio", "twists.rank2_certificate", None),
    _layer("identities.verify.self_s", "s"),
    _layer("identities.nearmiss_stream.self_s", "s"),
    _layer("identities.taxicab_search.self_s", "s"),
    _layer("trace.overhead_s", "s", "trace", None),
]


def run_child(work: Path, name: str, spec: dict, deadline: float) -> dict:
    """Start worker.py in its own directory and wait, killing it at the deadline."""
    cwd = work / name
    cwd.mkdir(parents=True)
    (cwd / "spec.json").write_text(json.dumps(spec))
    with open(cwd / "stderr.txt", "w") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(cwd / "spec.json"), repr(spawn)],
            cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        killed = False
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            killed = True
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    wall = time.monotonic() - spawn
    lines = []
    if (cwd / "results.jsonl").exists():
        for line in (cwd / "results.jsonl").read_text().splitlines():
            try:
                lines.append(json.loads(line))
            except json.JSONDecodeError:  # cut off by the kill
                break
    ops = [r for r in lines if "id" in r]
    end = next((r for r in lines if "peak_rss_mb" in r), None)
    after = [r["gauge_ms"] for r in ops[1:]] + [end["gauge_ms"] if end else None]
    for r, g in zip(ops, after):  # the gauge on each side of the op
        r["scaled_ms"] = r["ms"] * GAUGE_REF_MS / ((r["gauge_ms"] + (g or r["gauge_ms"])) / 2)
    setup = next((r for r in lines if "setup_s" in r), None)
    pass_ = {
        "killed": killed,
        "returncode": proc.returncode,
        "wall_s": wall,
        "setup_s": setup and setup["setup_s"] * GAUGE_REF_MS / setup["gauge_ms"],
        "peak_rss_mb": next((r["peak_rss_mb"] for r in lines if "peak_rss_mb" in r), None),
        "done": {r["id"]: r for r in ops},
        "stderr": (cwd / "stderr.txt").read_text()[-2000:],
        "trace": None,
    }
    if (cwd / "trace.json").exists():
        pass_["trace"] = json.loads((cwd / "trace.json").read_text())
    return pass_


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def failed_ops(passes, n_ops):
    """Ops that raised, failed a check, or never finished."""
    return sum(n_ops - len(p["done"]) + sum(1 for r in p["done"].values() if r["error"])
               for p in passes)


def latency_key(workload):
    """Which op latency the timings use: scaled by the gauge, or wall time as measured."""
    return "scaled_ms" if workload in workloads.GAUGED else "ms"


def pass_run_s(p, key):
    return sum(r[key] for r in p["done"].values()) / 1000


def op_latencies(passes, key):
    """Each op's latency in ms: its median over the passes that ran it."""
    per_op = {}
    for p in passes:
        for i, r in p["done"].items():
            per_op.setdefault(i, []).append(r[key])
    return [statistics.median(v) for v in per_op.values()]


def end_to_end(setups, passes, n_ops, key):
    complete = [p for p in passes if len(p["done"]) == n_ops]
    lat = op_latencies(passes, key)
    if complete:
        run_s = statistics.median(pass_run_s(p, key) for p in complete)
    else:  # every pass was cut: the time it ran is a lower bound
        run_s = max(p["wall_s"] - (p["setup_s"] or 0.0) for p in passes)
    rss = [p["peak_rss_mb"] for p in passes if p["peak_rss_mb"] is not None]
    attempted = n_ops * len(passes)
    return {
        "setup_s": statistics.median(setups) if setups else HARD_LIMIT_S,
        "run_s": run_s,
        "op_p95_ms": _quantile(lat, 95) if lat else HARD_LIMIT_S * 1000,
        "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        "ok_ratio": 1 - failed_ops(passes, n_ops) / attempted,
    }


def overhead_pairs(passes, n_ops, key):
    """Traced minus untraced run_s of each adjacent (traced, untraced) pair of passes."""
    return [pass_run_s(t, key) - pass_run_s(u, key) for t, u in zip(passes[::2], passes[1::2])
            if t["traced"] and not u["traced"]
            and len(t["done"]) == n_ops and len(u["done"]) == n_ops]


def per_layer(passes, n_ops, key):
    """Median over traced passes of each layer metric; absent layers read 0."""
    summaries = [p["trace"] for p in passes if p["traced"] and p["trace"]]
    values = {}
    for name, _, layer, field in PER_LAYER:
        if layer == "trace":
            pairs = overhead_pairs(passes, n_ops, key)
            values[name] = statistics.median(pairs) if pairs else 0.0
            continue
        per_pass = []
        for s in summaries:
            if layer in s["counts"]:
                per_pass.append(s["counts"][layer])
                continue
            st = s["layers"].get(layer, {})
            if field is None:  # useful outcomes per attempt
                tried = st.get("primes_tried", 0)
                per_pass.append(st.get("certified", 0) / tried if tried else 0.0)
            else:
                per_pass.append(st.get(field, 0))
        values[name] = statistics.median(per_pass) if per_pass else 0.0
    absent = sorted({a for s in summaries for a in s["absent"]})
    return values, absent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced-size inputs for the self-test; not a measurement")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "twocubes" / "cli.py").is_file():
        print(f"perfbench: no twocubes sources under {src}", file=sys.stderr)
        return 2
    ops = workloads.make_ops(args.workload, args.seed, args.smoke)
    n_ops = len(ops)
    work = BENCH / ".runs" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    spec = {"src": str(src), "reference": str(workloads.REFERENCE_DIR),
            "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
            "trace": False, "probe": True}
    try:
        setups = []

        def probe(i):
            p = run_child(work, f"probe{i}", spec, deadline)
            if p["setup_s"] is not None:
                setups.append(p["setup_s"])

        for i in range(PROBES // 2):
            probe(i)
        passes = []
        kinds = itertools.cycle((True, False)) if args.trace else itertools.repeat(False)
        for i, traced in enumerate(kinds):
            if passes:
                elapsed = time.monotonic() - start
                both = len({q["traced"] for q in passes}) == (2 if args.trace else 1)
                if both and elapsed + statistics.median(q["wall_s"] for q in passes) > args.seconds:
                    break
                if elapsed + max(q["wall_s"] for q in passes) > HARD_LIMIT_S - 10:
                    break  # it would be cut at the hard limit
            p = run_child(work, f"pass{i}", dict(spec, trace=traced, probe=False), deadline)
            p["traced"] = traced
            passes.append(p)
            if p["setup_s"] is not None:
                setups.append(p["setup_s"])
            if p["killed"]:
                break
        for i in range(PROBES // 2, PROBES):
            if time.monotonic() < deadline - 10:
                probe(i)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = n_ops * len(passes)
    failures = []
    for p in passes:
        for op in ops:
            r = p["done"].get(op["id"])
            if r is None:
                why = "killed at the deadline" if p["killed"] else "not finished"
                failures.append(f"{workloads.op_label(op)}: {why}")
            elif r["error"]:
                failures.append(f"{workloads.op_label(op)}: {r['error']}")
        if p["returncode"] != 0 and not p["killed"]:
            failures.append(f"worker exited {p['returncode']}: {p['stderr'].strip()[-500:]}")
    failed = failed_ops(passes, n_ops)
    key = latency_key(args.workload)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(untraced)} untraced + {len(traced)} traced passes "
          f"of {n_ops} ops, {len(setups)} set-up samples, "
          f"{time.monotonic() - start:.1f} s wall")
    if args.trace:
        values, absent = per_layer(passes, n_ops, key)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        if absent:
            print("absent layers, reported as 0: " + ", ".join(absent))
        pairs = overhead_pairs(passes, n_ops, key)
        if not pairs:
            print("trace.overhead_s unresolved, reported as 0: no complete traced/untraced pair")
        else:
            print(f"trace.overhead_s: median of {len(pairs)} traced/untraced pairs, "
                  f"range {min(pairs):.3f} to {max(pairs):.3f} s"
                  + ("; unresolved: not above the noise of the host"
                     if values["trace.overhead_s"] <= 0 else ""))
        saved = next((p["trace"] for p in reversed(traced) if p["trace"]), None)
        if saved:
            out = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            out.parent.mkdir(exist_ok=True)
            out.write_text(json.dumps(saved))
            print(f"spans of the last traced pass: {out.relative_to(ROOT)}")
    else:
        values = end_to_end(setups, untraced, n_ops, key)
        units = dict(END_TO_END)
        print("timings " + ("scaled to the gauge's reference speed" if key == "scaled_ms"
                            else "as measured (wall time)"))
    for name, value in values.items():
        print(f"  {name:48s} {value:14.6g} {units[name]}")
    if not args.trace and untraced:
        # Printed, not bounded: on lfunction it is one ~0.6 s op measured once per run.
        lat = op_latencies(untraced, key)
        print(f"  {'op_p50_ms':48s} {statistics.median(lat):14.6g} ms (median of {len(lat)} ops)")
        if key == "scaled_ms":
            wall = statistics.median(pass_run_s(p, "ms") for p in untraced)
            print(f"  {'run_s as measured':48s} {wall:14.6g} s")
    print(f"  {'fail_ratio':48s} {failed / attempted:14.6g} ratio ({failed} of {attempted} ops)")
    for line in failures[:10]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
