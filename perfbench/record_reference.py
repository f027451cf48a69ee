"""Record the reference outputs that the benchmark's checks compare against.

    python3 perfbench/record_reference.py [lfunction] [twists] [symbolic]

Imports the library from src/ of this checkout and rewrites reference/*.json.
The committed files were recorded at the seed commit; re-record only when a
change is meant to alter an output.  The published values below are
asserted, never recorded.  The twist digests cover every integer t in
[-10^4, 10^4] (one `twist_table` call, about 15 minutes on one core).
"""

from __future__ import annotations

import json
import sys

import workloads

sys.path.insert(0, str(workloads.REFERENCE_DIR.parent.parent / "src"))

# Published: L mod 17 = (17u - 1)^2 (17u + 1)^2 (83521u^4 + 34u^2 + 1), rank 2
# (geometric 4), six type-IV fibers, e = 24, Picard number 18.
L17_FACTORS = [[-1, 17], [-1, 17], [1, 17], [1, 17], [1, 0, 34, 0, 83521]]
LAMBDA = {"P1": [0, 84, -42], "P2": [42, -84]}


def dispatch(argv):
    from twocubes import cli

    report, _ = cli.dispatch(argv)
    out = report.to_json()
    if out["status"] not in ("ok", "exhausted"):
        raise SystemExit(f"{' '.join(argv)}: {out['results']}")
    return out


def lfunction_reference():
    ref = {"lpoly": {}, "lpoly_factors": {"17": L17_FACTORS}, "lpoly_bounds": {"17": [2, 4]},
           "rank_bounds": {"arith": [2, 2], "geom": [4, 4]},
           "surface": {"picard": 18, "euler_number": 24, "iv_fibers": 6, "all_iv": True}}
    for p in (5, 11, 13):
        out = dispatch(["ff", "lfunction", "--p", str(p)])
        ref["lpoly"][str(p)] = [int(c) for c in out["results"]["coeffs"]]
    for p in (5, 11, 13, 17):
        op = {"kind": "cli", "argv": ["ff", "lfunction", "--p", str(p)]}
        assert workloads.check(op, dispatch(op["argv"]), {"lfunction": ref}) is None
    for argv in (["ff", "rank"], ["surface", "analyze"]):
        op = {"kind": "cli", "argv": argv}
        assert workloads.check(op, dispatch(argv), {"lfunction": ref}) is None, argv
    return ref


def twist_records() -> dict:
    from twocubes.twists import twist_table

    r = workloads.T_RANGE
    return {int(rec.t): rec.to_json() for rec in twist_table(-r, r, certify=True).records}


def twists_reference(records: dict) -> dict:
    r = workloads.T_RANGE
    return {
        "exhausted_t": sorted(t for t, rec in records.items() if rec["cert_prime"] is None),
        "digests": "".join(workloads.twist_digest(records[t]) for t in range(-r, r + 1)),
    }


def symbolic_reference():
    from twocubes import function_field as ff

    fam = ff.build_family()
    for name, sec in (("P1", fam.p1), ("P2", fam.p2)):
        w = ff.pullback_differential(sec).as_polynomial()
        assert [int(c) for c in w.coeffs] == LAMBDA[name], name
    ref = {"lambda": LAMBDA, "sections": {}, "outputs": {}}
    outputs = []
    for op in workloads.make_ops("symbolic", workloads.DEFAULT_SEED):
        if op["kind"] == "section":
            m, n = op["m"], op["n"]
            S = ff.section_add(fam, ff.section_mul(fam, m, fam.p1), ff.section_mul(fam, n, fam.p2))
            out = workloads.section_output(S)
            ref["sections"][f"{m},{n}"] = workloads.digest(out)
        else:
            out = dispatch(op["argv"])
            ref["outputs"][" ".join(op["argv"])] = workloads.digest(out["results"])
        outputs.append((op, out))
    for op, out in outputs:  # the independent checks hold at the reference too
        assert workloads.check(op, out, {"symbolic": ref}) is None, op
    return ref


def main(names):
    record = {"lfunction": lfunction_reference, "symbolic": symbolic_reference,
              "twists": lambda: twists_reference(twist_records())}
    for name in names or workloads.WORKLOADS:
        ref = record[name]()
        path = workloads.REFERENCE_DIR / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
