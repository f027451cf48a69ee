"""Workload inputs from a seed, and exact checks of every output.

Pure stdlib: the orchestrator imports this without importing the library,
and the checks below use their own integer and Fraction arithmetic, so a
bug in the library's polynomial or field code cannot vouch for itself.

An op is a dict: {"id", "kind": "cli", "argv"} runs `twocubes.cli.dispatch`,
{"id", "kind": "section", "m", "n"} computes m*P1 + n*P2 over Q(T).
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("lfunction", "twists", "symbolic")
DEFAULT_SEED = 0
T_RANGE = 10**4  # twists draw t uniformly from [-T_RANGE, T_RANGE]
TWISTS_DRAWN = 600
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# Workloads whose timings are scaled by the worker's gauge readings (see
# README.md).  Their ops are pure-Python arithmetic, whose speed the gauge
# tracks.  lfunction spends most of its time in numpy scatter and gather
# over tables of up to 100 MB, whose speed it does not.
GAUGED = ("twists", "symbolic")


def _cli(argv):
    return {"kind": "cli", "argv": argv}


def make_ops(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    """The op list of one pass; smoke=True is the reduced size of the self-test."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "lfunction":
        # p = 17 comes first: `_engine` keeps 8 log tables, and the 9 tables of
        # 11 and 13 evict its 17^6 table in any order, so `ff rank` builds it
        # again.  That rebuild is measured on every seed.
        ps = [5, 11] if smoke else [5, 11, 13]
        rng.shuffle(ps)
        ops = [_cli(["ff", "lfunction", "--p", str(p)]) for p in ([] if smoke else [17]) + ps]
        ops.append(_cli(["ff", "lfunction", "--p", "5", "--direct"]))
        if not smoke:
            ops += [_cli(["ff", "rank"]), _cli(["surface", "analyze"])]
    elif workload == "twists":
        ts = [0, 1, 2] + [rng.randint(-T_RANGE, T_RANGE) for _ in range(3 if smoke else TWISTS_DRAWN)]
        ops = [_cli(["twists", "table", "--from", str(t), "--to", str(t), "--certify"]) for t in ts]
    elif workload == "symbolic":
        span = 1 if smoke else 2
        pairs = [(m, n) for m in range(-span, span + 1) for n in range(-span, span + 1)
                 if (m, n) != (0, 0)]
        rng.shuffle(pairs)
        ops = [{"kind": "section", "m": m, "n": n} for m, n in pairs]
        count, bound = ("10", "100000") if smoke else ("1000", "100000000")
        ops += [
            _cli(["ff", "differentials"]),
            _cli(["identities", "verify"]),
            _cli(["identities", "nearmiss", "--family", "zero", "--count", count]),
            _cli(["identities", "nearmiss", "--family", "infinity", "--count", count]),
            _cli(["identities", "taxicab", "--bound", bound]),
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    for i, op in enumerate(ops):
        op["id"] = i
    return ops


def op_label(op: dict) -> str:
    if op["kind"] == "section":
        return f"section {op['m']}*P1 + {op['n']}*P2"
    return " ".join(op["argv"])


def section_output(S) -> dict | None:
    """A section point as coefficient strings, low degree first; None is O."""
    if S is None:
        return None
    return {axis: [[str(c) for c in f.num.coeffs], [str(c) for c in f.den.coeffs]]
            for axis, f in (("x", S.x), ("y", S.y))}


def load_reference(directory: Path) -> dict:
    return {w: json.loads((directory / f"{w}.json").read_text()) for w in WORKLOADS}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


DIGEST_HEX = 8


def twist_digest(record: dict) -> str:
    """32-bit digest of one twist record, as stored for every t in the range."""
    key = "|".join(str(record[k]) for k in ("d", "x1", "y1", "x2", "y2", "cert_prime"))
    return hashlib.sha256(key.encode()).hexdigest()[:DIGEST_HEX]


# -- integer polynomials, low degree first -------------------------------------


def _pmul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _horner(cs, t):
    acc = 0
    for c in reversed(cs):
        acc = acc * t + c
    return acc


def _deriv(cs):
    return [i * c for i, c in enumerate(cs)][1:] or [0]


def family_k():
    """k(T) = 63 (3T^2 - 3T + 1)(T^2 + T + 1)(T^2 - 3T + 3)."""
    k = [63]
    for q in ([1, -3, 3], [1, 1, 1], [3, -3, 1]):
        k = _pmul(k, q)
    return k


def _icbrt(n: int) -> int:
    lo, hi = 0, 1 << (n.bit_length() // 3 + 2)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid**3 <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _lpoly(factors):
    out = [1]
    for f in factors:
        out = _pmul(out, f)
    return out


# -- checks: each returns None when the output is right, else the reason -------


def check(op: dict, out, ref: dict) -> str | None:
    if op["kind"] == "section":
        return _check_section(op, out, ref["symbolic"])
    argv = op["argv"]
    status, results = out["status"], out["results"]
    group, command = argv[0], argv[1]
    if group == "twists":
        return _check_twist(int(argv[3]), status, results, ref["twists"])
    if status != "ok":
        return f"status {status}: {results.get('error', '')}"
    if (group, command) == ("ff", "lfunction"):
        return _check_lfunction(int(argv[3]), results, ref["lfunction"])
    if (group, command) == ("ff", "rank"):
        want = ref["lfunction"]["rank_bounds"]
        got = {"arith": [results["rank_lower_bound"], results["rank_upper_bound"]],
               "geom": [results["geometric_rank_lower_bound"],
                        results["geometric_rank_upper_bound"]]}
        return None if got == want else f"rank bounds {got} != {want}"
    if (group, command) == ("surface", "analyze"):
        want = ref["lfunction"]["surface"]
        iv = sum(f["degree"] for f in results["fibers"] if f["type"] == "IV")
        got = {"picard": results["picard"], "euler_number": results["euler_number"],
               "iv_fibers": iv, "all_iv": all(f["type"] == "IV" for f in results["fibers"])}
        return None if got == want else f"surface {got} != {want}"
    return _check_symbolic_cli(argv, results, ref["symbolic"])


def _check_lfunction(p, results, ref):
    got = [int(c) for c in results["coeffs"]]
    if str(p) in ref["lpoly"]:
        want = ref["lpoly"][str(p)]
    else:
        want = _lpoly(ref["lpoly_factors"][str(p)])
    if got != want:
        return f"L mod {p} = {got}, expected {want}"
    bounds = [results["arith_bound"], results["geom_bound"]]
    if str(p) in ref["lpoly_bounds"] and bounds != ref["lpoly_bounds"][str(p)]:
        return f"rank bounds mod {p} = {bounds}, expected {ref['lpoly_bounds'][str(p)]}"
    return None


def _check_twist(t, status, results, ref):
    exhausted = t in ref["exhausted_t"]
    if status != ("exhausted" if exhausted else "ok"):
        return f"t={t}: status {status}: {results.get('error', '')}"
    records = results["records"]
    if len(records) != 1 or records[0]["t"] != str(t):
        return f"t={t}: expected one record, got {len(records)}"
    rec = records[0]
    d = int(rec["d"])
    k = _horner(family_k(), t)
    if Fraction(rec["k"]) != k:
        return f"t={t}: k = {rec['k']}, expected {k}"
    c3, rem = divmod(k, d)
    if rem or c3 <= 0 or _icbrt(c3) ** 3 != c3:
        return f"t={t}: k(t) / d = {k}/{d} is not a positive cube"
    for x, y in (("x1", "y1"), ("x2", "y2")):
        if Fraction(rec[x]) ** 3 + Fraction(rec[y]) ** 3 != d:
            return f"t={t}: ({rec[x]}, {rec[y]}) is not on X^3 + Y^3 = {d}"
    if (rec["cert_prime"] is None) != exhausted:
        return f"t={t}: cert_prime {rec['cert_prime']} but exhausted={exhausted}"
    i = t + T_RANGE
    if 0 <= i <= 2 * T_RANGE:
        want = ref["digests"][DIGEST_HEX * i: DIGEST_HEX * (i + 1)]
        if twist_digest(rec) != want:
            return f"t={t}: record digest {twist_digest(rec)} != reference {want}"
    return None


def _int_pair(num, den):
    """x = num/den with Fraction coefficients -> integer polynomials (A, B), x = A/B."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    lcm = 1
    for c in num + den:
        lcm = lcm * c.denominator // _gcd(lcm, c.denominator)
    return [int(c * lcm) for c in num], [int(c * lcm) for c in den]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _check_section(op, out, ref):
    """S on X^3 + Y^3 = k and lambda(S) = m*lambda(P1) + n*lambda(P2), exactly.

    With x = A/B and y = C/E over Z[T], both are polynomial identities
        A^3 E^3 + C^3 B^3 - k B^3 E^3 = 0,
        (A'B - AB') C E - A B (C'E - CE') - W B^2 E^2 = 0,
    W = m w1 + n w2; each is checked at more integer points than its degree,
    which proves it.
    """
    m, n = op["m"], op["n"]
    if out is None:
        return f"{m}*P1 + {n}*P2 is the identity"
    A, B = _int_pair(*out["x"])
    C, E = _int_pair(*out["y"])
    if not any(B) or not any(E):
        return "zero denominator"
    k = family_k()
    w1, w2 = ref["lambda"]["P1"], ref["lambda"]["P2"]
    W = [m * a + n * b for a, b in zip(w1 + [0] * (3 - len(w1)), w2 + [0] * (3 - len(w2)))]
    dA, dB, dC, dE = (len(f) - 1 for f in (A, B, C, E))
    deg_curve = max(3 * (dA + dE), 3 * (dC + dB), 6 + 3 * (dB + dE))
    deg_lambda = max(dA + dB + dC + dE, 2 + 2 * (dB + dE))
    dA_, dB_, dC_, dE_ = (_deriv(f) for f in (A, B, C, E))
    for t in range(max(deg_curve, deg_lambda) + 1):
        a, b, c, e = (_horner(f, t) for f in (A, B, C, E))
        if t <= deg_curve and a**3 * e**3 + c**3 * b**3 - _horner(k, t) * b**3 * e**3:
            return f"{m}*P1 + {n}*P2 is off the curve at T={t}"
        if t <= deg_lambda:
            a1, b1, c1, e1 = (_horner(f, t) for f in (dA_, dB_, dC_, dE_))
            lhs = (a1 * b - a * b1) * c * e - a * b * (c1 * e - c * e1)
            if lhs != _horner(W, t) * b * b * e * e:
                return f"lambda({m}*P1 + {n}*P2) != {m}*lambda(P1) + {n}*lambda(P2) at T={t}"
    want = ref["sections"].get(f"{m},{n}")
    if want is not None and digest(out) != want:
        return f"{m}*P1 + {n}*P2 digest {digest(out)} != reference {want}"
    return None


def _check_symbolic_cli(argv, results, ref):
    key = " ".join(argv)
    command = argv[1]
    if command == "differentials":
        if (results["z_rank_rational"], results["z_rank_cm_extended"]) != (2, 4):
            return "z-ranks are not (2, 4)"
    elif command == "verify":
        if results["all_verified"] is not True:
            return "identities not all verified"
    elif command == "nearmiss":
        tuples = results["tuples"]
        if len(tuples) != int(argv[-1]):
            return f"{len(tuples)} near-miss tuples, expected {argv[-1]}"
        for tp in tuples:
            a, b, c = int(tp["a"]), int(tp["b"]), int(tp["c"])
            if tp["epsilon"] not in (1, -1) or a**3 + b**3 - c**3 != tp["epsilon"]:
                return f"near miss n={tp['n']}: {a}^3 + {b}^3 - {c}^3 != {tp['epsilon']}"
    elif command == "taxicab":
        entries = results["entries"]
        bound = int(argv[-1])
        if not entries or entries[0]["n"] != "1729":
            return "the first taxicab number is not 1729"
        for e in entries:
            n = int(e["n"])
            reps = e["representations"]
            if n > bound or len(reps) < 2 or any(int(a) ** 3 + int(b) ** 3 != n for a, b in reps):
                return f"taxicab entry {n} is wrong"
    want = ref["outputs"].get(key)
    if want is not None and digest(results) != want:
        return f"{key}: output digest {digest(results)} != reference {want}"
    return None
