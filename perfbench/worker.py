"""One pass of a workload in a fresh interpreter: set up, run every op, check it.

    python3 worker.py SPEC_JSON SPAWN_MONOTONIC

The orchestrator (run.py) starts this in a fresh working directory and
passes its CLOCK_MONOTONIC reading taken just before the spawn, so the
set-up time covers interpreter start, the imports of `twocubes.cli` and
`function_field`, and `build_family`.  sympy is not imported here: the
library imports it lazily, so it is paid inside the first op that needs it
(`ff lfunction`, `surface analyze`) and never on `twists`.  Results are
appended to results.jsonl one line per op and flushed, so a pass killed at
its deadline still shows which ops finished.

Before every op, after the last one and after set-up, the worker times
`gauge()`, a fixed pure-Python kernel that does not touch the library.
run.py uses these readings to scale wall times to a reference host speed;
see README.md.
"""

import sys
import time

SPAWN = float(sys.argv[2])

import json  # noqa: E402
from pathlib import Path  # noqa: E402

SPEC = json.loads(Path(sys.argv[1]).read_text())
sys.path.insert(0, SPEC["src"])

import twocubes.cli as cli  # noqa: E402
from twocubes import function_field  # noqa: E402

FAMILY = function_field.build_family()
READY = time.monotonic()

import gc  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from fractions import Fraction  # noqa: E402

import workloads  # noqa: E402


def gauge():
    """Milliseconds taken by a fixed kernel of Fraction and big-int arithmetic.

    It reads how fast the host runs pure Python right now.  The collector
    is off while it runs, so the size of the library's heap cannot slow it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i * i + 1, i + 7)
        a = [i * 12345678901 for i in range(60)]
        conv = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(a):
                conv[i + j] += x * y
        return (time.perf_counter() - started) * 1000
    finally:
        if collecting:
            gc.enable()


def execute(op):
    """Run one op; only this is timed."""
    if op["kind"] == "cli":
        report, _ = cli.dispatch(op["argv"])
        return report.to_json()
    ff = function_field
    return ff.section_add(FAMILY, ff.section_mul(FAMILY, op["m"], FAMILY.p1),
                          ff.section_mul(FAMILY, op["n"], FAMILY.p2))


def main():
    with open("results.jsonl", "w") as results:

        def emit(record):
            results.write(json.dumps(record) + "\n")
            results.flush()

        run(emit)


def run(emit):
    emit({"setup_s": READY - SPAWN, "gauge_ms": statistics.median(gauge() for _ in range(3))})
    if SPEC["probe"]:
        return
    tracer = None
    if SPEC["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    ref = workloads.load_reference(Path(SPEC["reference"]))
    ops = workloads.make_ops(SPEC["workload"], SPEC["seed"], SPEC["smoke"])
    for op in ops:
        gauge_ms = gauge()
        if tracer:
            tracer.op_id = op["id"]
            span = tracer.begin("op", lambda: workloads.op_label(op))
        started = time.perf_counter()
        try:
            raw, error = execute(op), None
        except Exception as exc:  # a raised exception is a failed op
            raw, error = None, f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - started) * 1000
        if tracer:
            tracer.end("op", span)
        if error is None:
            try:
                out = raw if op["kind"] == "cli" else workloads.section_output(raw)
                error = workloads.check(op, out, ref)
            except Exception as exc:  # malformed output
                error = f"check raised {type(exc).__name__}: {exc}"
        emit({"id": op["id"], "ms": ms, "gauge_ms": gauge_ms, "error": error})
    emit({"gauge_ms": gauge(),
          "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
    if tracer:
        summary = tracer.summary()
        summary["ops"] = {op["id"]: workloads.op_label(op) for op in ops}
        summary["spans"] = tracer.spans
        with open("trace.json", "w") as f:
            json.dump(summary, f)


if __name__ == "__main__":
    main()
