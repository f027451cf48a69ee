"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Exact equalities throughout; the stated wall-clock budgets are
asserted (1 s for the desk-scale checks, 10 minutes for the mod-17
L-function computed from cubic-character sums plus the functional equation
with a counted S_3 verification pass over F_{17^6}).
"""

import json
import time
from fractions import Fraction

from newton_oracle import power_sums
from trace_oracle import trace
from twocubes import identities
from twocubes.cli import main
from twocubes.elliptic import count_points
from twocubes.exact import FiniteField
from twocubes.function_field import (
    build_family,
    lfunction,
    pullback_differential,
    rank_bounds,
    z_rank,
    z_rank_cm,
)
from twocubes.identities import (
    NearMissError,
    euler_family_symbolic_check,
    nearmiss_stream,
    verify_entry20,
    verify_euler_family,
    verify_ramanujan_1913,
)
from twocubes.surface import classify_fibers, euler_and_k3, shioda_tate
from twocubes.twists import rank2_certificate, specialize

RESULTS = []


def _report(number: int, description: str, ok: bool, elapsed: float | None = None):
    timing = f" [{elapsed:.3f}s]" if elapsed is not None else ""
    line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}{timing}"
    RESULTS.append(line)
    print(line)
    if not ok:  # raised, not asserted, so the suite still checks under python -O
        raise AssertionError(line)


def _run_cli_json(capsys, argv):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    return code, doc


def test_criterion_1_taxicab(capsys):
    t0 = time.perf_counter()
    code, doc = _run_cli_json(capsys, ["identities", "taxicab", "--bound", "2000"])
    dt = time.perf_counter() - t0
    ok = (
        code == 0
        and doc["results"]["entries"]
        == [{"n": "1729", "representations": [["1", "12"], ["9", "10"]]}]
        and dt < 1.0
    )
    with capsys.disabled():
        _report(1, "taxicab --bound 2000 returns exactly 1729 = {(1,12),(9,10)}", ok, dt)


def test_criterion_2_identity_suites(monkeypatch):
    t0 = time.perf_counter()
    ok_1913 = verify_ramanujan_1913().zero_polynomial
    ok_e20 = verify_entry20().zero_polynomial
    ok_euler = euler_family_symbolic_check()
    quad = verify_euler_family(3, 0, 1)
    ok_point = (quad.x, quad.y, quad.z, quad.w) == (12, 1, 10, 9) and quad.common_value() == 1729
    # the grid proofs reject false identities: D = 2c^2, and 5AB -> 6AB in the 1913 r1
    rejects_d2 = not euler_family_symbolic_check(d=2)
    forms_1913 = identities.ramanujan_1913_forms

    def planted_1913(A, B):
        lhs, r1, r2, r3 = forms_1913(A, B)
        return lhs, r1 + A * B, r2, r3

    monkeypatch.setattr(identities, "ramanujan_1913_forms", planted_1913)
    planted = verify_ramanujan_1913()
    caught = not planted.zero_polynomial and planted.offending_point is not None
    dt = time.perf_counter() - t0
    _report(
        2,
        "1913, entry 20(iii), Euler family reduce to zero; (3,0,1) gives 1729;"
        " D = 2c^2 and a planted 1913 coefficient are rejected",
        ok_1913 and ok_e20 and ok_euler and ok_point and rejects_d2 and caught and dt < 1.0,
        dt,
    )


def test_criterion_3_family_consistency():
    t0 = time.perf_counter()
    fam = build_family()  # raises if the identities fail
    from qt_oracle import qt  # the identities again, in sympy's Q(T)

    ok = all(qt(P.x) ** 3 + qt(P.y) ** 3 == qt(fam.k) for P in (fam.p1, fam.p2))
    dt = time.perf_counter() - t0
    _report(3, "x1^3+y1^3 - k and x2^3+y2^3 - k are zero polynomials", ok, dt)


def test_criterion_4_rank_lower_bounds():
    fam = build_family()
    t0 = time.perf_counter()
    w1 = pullback_differential(fam.p1)
    w2 = pullback_differential(fam.p2)
    r_q = z_rank([w1, w2])
    r_cm = z_rank_cm([w1, w2])
    dt = time.perf_counter() - t0
    _report(4, "z_rank({l(P1),l(P2)}) = 2 over Q; 4 with the CM twists", r_q == 2 and r_cm == 4 and dt < 1.0, dt)


def test_criterion_5_lfunction_17(capsys):
    t0 = time.perf_counter()
    code, doc = _run_cli_json(capsys, ["ff", "lfunction", "--p", "17"])
    dt = time.perf_counter() - t0
    expected = ["1", "0", "-544", "0", "147390", "0", "-45435424", "0", "6975757441"]
    factors = {tuple(f["factor"]): f["multiplicity"] for f in doc["results"]["factorization"]}
    ok = (
        code == 0
        and doc["results"]["coeffs"] == expected
        and factors == {("-1", "17"): 2, ("1", "17"): 2, ("1", "0", "34", "0", "83521"): 1}
        and dt < 600.0
    )
    with capsys.disabled():
        _report(5, "L(17) = (17u-1)^2(17u+1)^2(83521u^4+34u^2+1), coefficient-exact", ok, dt)


def test_criterion_6_rank_bounds():
    t0 = time.perf_counter()
    arith, geom = rank_bounds(lfunction(17))
    dt = time.perf_counter() - t0
    _report(6, "arith_bound = 2 and geom_bound = 4 from the computed L", (arith, geom) == (2, 4), dt)


def test_criterion_7_surface():
    fam = build_family()
    t0 = time.perf_counter()
    fibers = classify_fibers(fam.k)
    geometric = sum(f.place.degree for f in fibers)
    types_ok = len(fibers) == 3 and all(
        f.type == "IV" and f.place.degree == 2 for f in fibers
    )
    e, is_k3 = euler_and_k3(fibers)
    rho = shioda_tate(4, fibers)
    dt = time.perf_counter() - t0
    ok = types_ok and geometric == 6 and e == 24 and is_k3 and rho == 18 and rho <= 20 and dt < 1.0
    _report(7, "six geometric IV fibers over three quadratic places; e=24, K3, rho=18<=20", ok, dt)


def test_criterion_8_nearmiss(monkeypatch):
    t0 = time.perf_counter()
    tuples = nearmiss_stream("zero", 10)
    ints = [(n, int(a), int(b), int(c), eps) for (n, a, b, c, eps) in tuples]  # Decimals
    relations = all(a**3 + b**3 - c**3 == eps == (-1) ** n for (n, a, b, c, eps) in ints)
    has_135 = tuples[1][1:4] == (135, 138, 172)
    # a mis-transcribed numerator (c's x^2 coefficient -9 for -10) fails at n = 2
    planted = ((1, 53, 9), (2, -26, -12), (2, 8, -9))
    monkeypatch.setitem(identities.NEARMISS_FAMILIES, "zero", (planted, 0))
    try:
        nearmiss_stream("zero", 10)
        caught = False
    except NearMissError as exc:
        caught = "n=2:" in str(exc)
    dt = time.perf_counter() - t0
    _report(
        8,
        "first 10 near-miss tuples satisfy a^3+b^3 = c^3+(-1)^n, incl. (135,138,172);"
        " a planted numerator fails at n=2",
        relations and has_135 and len(tuples) == 10 and caught and dt < 1.0,
        dt,
    )


def test_criterion_9_twists(capsys):
    t0 = time.perf_counter()
    code, doc = _run_cli_json(capsys, ["twists", "table", "--from", "0", "--to", "3"])
    dt = time.perf_counter() - t0
    recs = doc["results"]["records"]
    ds = [r["d"] for r in recs]
    t3 = recs[-1]
    on_curve = all(
        Fraction(r["x1"]) ** 3 + Fraction(r["y1"]) ** 3 == int(r["d"])
        and Fraction(r["x2"]) ** 3 + Fraction(r["y2"]) ** 3 == int(r["d"])
        for r in recs
    )
    ok = (
        code == 0
        and ds == ["7", "7", "9", "1729"]
        and (t3["x1"], t3["y1"], t3["x2"], t3["y2"]) == ("46/3", "-37/3", "10", "9")
        and on_curve
        and dt < 1.0
    )
    with capsys.disabled():
        _report(9, "twists 0..3 give d in {7,7,9,1729}; t=3 carries (46/3,-37/3),(10,9)", ok, dt)


def test_criterion_10_property_suites():
    import random

    t0 = time.perf_counter()
    rng = random.Random(83)
    fam = build_family()

    # group-law axioms on random points over F_101, on the law the certificates run
    from twocubes.elliptic import _add_mod_p

    p, A = 101, 31
    pts = [None] + [(u, v) for u in range(p) for v in range(p) if (v * v - u**3 - A) % p == 0]
    group_ok = len(pts) > 12
    for _ in range(50):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        group_ok &= _add_mod_p(p, P, Q) == _add_mod_p(p, Q, P)
        group_ok &= _add_mod_p(p, _add_mod_p(p, P, Q), R) == _add_mod_p(p, P, _add_mod_p(p, Q, R))
        group_ok &= _add_mod_p(p, P, None) == P
        group_ok &= _add_mod_p(p, P, None if P is None else (P[0], -P[1] % p)) is None

    # Hasse bound on counted fibers; supersingular law for q = 2 mod 3
    hasse_ok = True
    for p, n in ((13, 1), (7, 2), (17, 1)):
        Fq = FiniteField(p, n)
        for _ in range(5):
            a = Fq.from_index(rng.randrange(1, Fq.q))
            hasse_ok &= trace(Fq, a) ** 2 <= 4 * Fq.q
    ss_ok = all(
        count_points(FiniteField(q), a) == q + 1 for q in (5, 11, 17, 23) for a in (1, 2, 3)
    )

    # lambda additivity on random section combinations, checked in sympy's Q(T)
    from qt_oracle import qt
    from twocubes.function_field import section_add, section_mul

    w1 = qt(pullback_differential(fam.p1))
    w2 = qt(pullback_differential(fam.p2))
    lam_ok = True
    for _ in range(6):
        m, n = rng.randint(-2, 2), rng.randint(-2, 2)
        if (m, n) == (0, 0):
            continue
        S = section_add(fam, section_mul(fam, m, fam.p1), section_mul(fam, n, fam.p2))
        expected = m * w1 + n * w2
        lam_ok &= (expected == 0) if S is None else (qt(pullback_differential(S)) == expected)

    # L-polynomial invariants on every computed L
    l_ok = True
    for p in (5, 13, 17):
        L = lfunction(p)
        sign = L.functional_equation_sign()
        l_ok &= sign in (1, -1)
        l_ok &= power_sums(L.coeffs, len(L.counted)) == [c for _, c in L.counted]

    # certificate soundness negative test: dependent points never certify
    from chord_oracle import Point, WeierstrassCurve, scalar_mul, to_hesse
    from triples import triple
    from twocubes.elliptic import to_weierstrass
    from twocubes import twists

    rec = specialize(3, fam)
    w1 = Point(*to_weierstrass(rec.d, rec.p1.x, rec.p1.y))
    dbl = to_hesse(rec.d, scalar_mul(WeierstrassCurve(-432 * rec.d**2), 2, w1))
    dep = twists.TwistRecord(rec.t, rec.k_t, rec.d, rec.p1, twists.Point(*triple(dbl.x, dbl.y)))
    cert_ok = rank2_certificate(dep, prime_budget=20).exhausted

    dt = time.perf_counter() - t0
    _report(
        10,
        "property suites: group law, Hasse, supersingular, lambda-additivity, "
        "L invariants, certificate soundness",
        group_ok and hasse_ok and ss_ok and lam_ok and l_ok and cert_ok,
        dt,
    )


def teardown_module(module):
    print()
    for line in RESULTS:
        print(line)
