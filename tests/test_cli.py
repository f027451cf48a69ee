"""CLI tests: JSON schema, determinism, round-trips, CSV, exit codes."""

import hashlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumeration import count_by_enumeration
from twocubes import budget, cli
from twocubes.budget import BudgetError
from twocubes.cli import PolynomialSyntaxError, _parse_poly, _poly_str, dispatch, main
from twocubes.exact import FiniteField, Polynomial, rational_poly
from twocubes.function_field import build_family

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_json(capsys, *argv) -> dict:
    code = main(list(argv))
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["status"] in ("ok", "failed", "exhausted")
    assert (code == 0) == (doc["status"] == "ok")
    return doc


def test_taxicab_cli(capsys):
    doc = run_json(capsys, "identities", "taxicab", "--bound", "2000", "--reps", "2")
    assert doc["status"] == "ok"
    entries = doc["results"]["entries"]
    assert entries == [{"n": "1729", "representations": [["1", "12"], ["9", "10"]]}]


def test_identities_verify_cli(capsys):
    doc = run_json(capsys, "identities", "verify")
    assert doc["results"]["all_verified"]
    assert doc["results"]["identity_1913"]["zero_polynomial"]
    assert doc["results"]["entry_20_iii"]["zero_polynomial"]
    assert doc["results"]["euler_family"]["symbolic_zero"]
    assert doc["results"]["euler_family"]["example"]["common_value"] == "1729"


def test_nearmiss_cli_both_families(capsys):
    doc = run_json(capsys, "identities", "nearmiss", "--family", "zero", "--count", "4")
    tuples = doc["results"]["tuples"]
    assert tuples[1] == {"n": 1, "a": "135", "b": "138", "c": "172", "epsilon": -1}
    doc = run_json(capsys, "identities", "nearmiss", "--family", "infinity", "--count", "2")
    assert doc["results"]["tuples"][0]["a"] == "9"


def test_symbolic_outputs_match_the_benchmark_reference():
    """Every CLI output the symbolic benchmark pins, at the digest it records."""
    ref = json.loads((Path(SRC).parent / "perfbench/reference/symbolic.json").read_text())
    assert len(ref["outputs"]) == 5
    for key, want in ref["outputs"].items():
        report, _ = dispatch(key.split())
        body = json.dumps(report.results, sort_keys=True).encode()
        assert hashlib.sha256(body).hexdigest()[:16] == want, key


def _twists_window_against_reference(lo: int, hi: int) -> list[int]:
    """Certify [lo, hi] and check each record against the per-t digest the
    twists benchmark pins: sha256 of d, x1, y1, x2, y2 and cert_prime joined
    by "|", 8 hex digits at index t + 10^4.  Returns the uncertified t."""
    ref = json.loads((Path(SRC).parent / "perfbench/reference/twists.json").read_text())
    report, _ = dispatch(["twists", "table", "--from", str(lo), "--to", str(hi), "--certify"])
    records = report.results["records"]
    assert [rec["t"] for rec in records] == [str(t) for t in range(lo, hi + 1)]
    for rec in records:
        i = int(rec["t"]) + 10**4
        key = "|".join(str(rec[k]) for k in ("d", "x1", "y1", "x2", "y2", "cert_prime"))
        assert hashlib.sha256(key.encode()).hexdigest()[:8] == ref["digests"][8 * i:8 * i + 8], i
    exhausted = [int(rec["t"]) for rec in records if rec["cert_prime"] is None]
    assert exhausted == [t for t in ref["exhausted_t"] if lo <= t <= hi]
    assert report.status == ("exhausted" if exhausted else "ok")
    return exhausted


def test_twists_outputs_match_the_benchmark_reference():
    """The certified table over [-300, 300] at the reference digests, with
    exactly the reference's exhausted t left uncertified."""
    ref = json.loads((Path(SRC).parent / "perfbench/reference/twists.json").read_text())
    assert _twists_window_against_reference(-300, 300) == ref["exhausted_t"] == [-1, 0, 1, 2]


def test_twists_outputs_match_the_benchmark_reference_at_the_ends():
    """[-10^4, -9900] and [9900, 10^4], where the factor values of k(t) reach
    about 3 * 10^8, at the reference digests, all certified."""
    assert _twists_window_against_reference(-10**4, -9900) == []
    assert _twists_window_against_reference(9900, 10**4) == []


def test_ec_count_cli(capsys):
    doc = run_json(capsys, "ec", "count", "--p", "7", "--a", "1")
    assert doc["results"]["count"] == "12"
    assert doc["results"]["trace"] == "-4"
    doc = run_json(capsys, "ec", "count", "--p", "17", "--n", "2", "--a", "3,1")
    assert int(doc["results"]["count"]) > 0


def test_ec_count_cli_large_fields(capsys):
    # q = 10007^3 = 2 mod 3: supersingular, q + 1 at once (no enumeration, no hang)
    doc = run_json(capsys, "ec", "count", "--p", "10007", "--n", "3", "--a", "1")
    assert doc["results"]["count"] == str(10007**3 + 1)
    # q = 10009^3 = 1 mod 6: for A in F_p, a_{p^3} = a_p^3 - 3 p a_p with a_p enumerated
    p = 10009
    a_p = p + 1 - count_by_enumeration(FiniteField(p), 1)
    doc = run_json(capsys, "ec", "count", "--p", str(p), "--n", "3", "--a", "1")
    assert doc["results"]["trace"] == str(a_p**3 - 3 * p * a_p)
    assert a_p != 0


@pytest.mark.parametrize(
    "d,x,y,A,u,v",
    [
        ("1729", "9", "10", "-1291438512", "1092", "-3276"),
        ("2", "1", "1", "-1728", "12", "0"),
        ("7", "2", "-1", "-21168", "84", "756"),
        ("1729/27", "3", "10/3", "-47831056/27", "364/3", "-364/3"),
    ],
    ids=["1729", "2", "7", "1729_over_27"],
)
def test_ec_map_cli(capsys, d, x, y, A, u, v):
    doc = run_json(capsys, "ec", "map", "--d", d, "--x", x, "--y", y)
    assert doc["status"] == "ok"
    assert doc["results"] == {
        "d": d, "weierstrass_A": A, "u": u, "v": v, "at_infinity": False, "on_curve": True,
    }


@pytest.mark.parametrize(
    "d,x,y,error",
    [
        ("0", "1", "1", "ValueError: d must be nonzero"),
        ("1729", "1", "1", "ValueError: (1, 1) is not on X^3 + Y^3 = 1729"),
    ],
    ids=["zero_d", "off_curve"],
)
def test_ec_map_rejects_off_curve(capsys, d, x, y, error):
    doc = run_json(capsys, "ec", "map", "--d", d, "--x", x, "--y", y)
    assert doc["status"] == "failed"
    assert doc["results"] == {"error": error}


@pytest.mark.parametrize("flag", ["--d", "--x", "--y"])
@pytest.mark.parametrize("value", ["1e1000000000", "0.5"])
def test_ec_map_takes_only_integers_or_fractions(capsys, flag, value):
    # Fraction("1e1000000000") would build a billion-digit integer first.
    argv = {"--d": "1729", "--x": "9", "--y": "10", flag: value}
    started = time.perf_counter()
    doc = run_json(capsys, "ec", "map", *(t for kv in argv.items() for t in kv))
    assert time.perf_counter() - started < 1.0
    assert doc["status"] == "failed"
    assert doc["results"] == {"error": f"ValueError: {flag} must be an integer or a/b: {value!r}"}


def test_ff_differentials_cli(capsys):
    doc = run_json(capsys, "ff", "differentials")
    res = doc["results"]
    assert res["z_rank_rational"] == 2
    assert res["z_rank_cm_extended"] == 4
    assert res["differentials"]["P1"] == "-42*T^2 + 84*T"
    assert res["differentials"]["P2"] == "-84*T + 42"


def test_ff_lfunction_cli_p5(capsys):
    doc = run_json(capsys, "ff", "lfunction", "--p", "5")
    res = doc["results"]
    assert res["degree"] == 8
    assert res["coeffs"][-1] == str(5**8)
    assert res["functional_equation_sign"] == 1


def test_ff_lfunction_cli_p17(capsys):
    doc = run_json(capsys, "ff", "lfunction", "--p", "17")
    res = doc["results"]
    assert res["coeffs"] == [
        "1", "0", "-544", "0", "147390", "0", "-45435424", "0", "6975757441",
    ]
    factors = {tuple(f["factor"]): f["multiplicity"] for f in res["factorization"]}
    assert factors[("-1", "17")] == 2
    assert factors[("1", "17")] == 2
    assert factors[("1", "0", "34", "0", "83521")] == 1
    assert res["arith_bound"] == 2 and res["geom_bound"] == 4


# The published order of the factors: by degree, then by printed form.
GOLDEN_FACTORIZATION = {
    5: [[["1", "5"], 4], [["-1", "5"], 4]],
    11: [[["1", "11"], 4], [["-1", "11"], 4]],
    13: [[["-1", "13"], 4], [["1", "13", "169"], 1], [["1", "1", "169"], 1]],
    17: [[["1", "17"], 2], [["-1", "17"], 2], [["1", "0", "34", "0", "83521"], 1]],
}


@pytest.mark.parametrize("p", sorted(GOLDEN_FACTORIZATION))
def test_ff_lfunction_factorization_order_is_pinned(capsys, p):
    doc = run_json(capsys, "ff", "lfunction", "--p", str(p))
    got = [[f["factor"], f["multiplicity"]] for f in doc["results"]["factorization"]]
    assert got == GOLDEN_FACTORIZATION[p]


def test_factor_order_key_matches_sympy_printing():
    """The order key (degree, printed form) is sympy's (degree, str(Poly)),
    here on random polynomials that tie in degree."""
    import sympy

    u, rng = sympy.Symbol("u"), random.Random(5)
    polys = [[rng.choice((-1, 0, 1, rng.randint(-300, 300))) for _ in range(rng.randint(1, 4))]
             + [rng.choice((-1, 1, rng.randint(1, 400)))] for _ in range(200)]
    for f in polys:
        assert _poly_str(f) == str(sympy.Poly(list(reversed(f)), u))
    ours = sorted(polys, key=lambda f: (len(f), _poly_str(f)))
    theirs = sorted(polys, key=lambda f: (len(f), str(sympy.Poly(list(reversed(f)), u))))
    assert ours == theirs


def test_lfunction_and_surface_never_import_sympy():
    """The factorizations and the Q(T) arithmetic run in-house, also under
    python -O: every subcommand and the section operations of the benchmark
    leave sympy unimported.  A failed command raises, so -O cannot strip the
    status check."""
    script = """
import sys
from twocubes.cli import dispatch
from twocubes.function_field import build_family, section_add, section_mul
for argv in (['ff', 'lfunction', '--p', '17'], ['ff', 'rank'], ['ff', 'differentials'],
             ['surface', 'analyze'], ['surface', 'analyze', '--k', 'T^6 - 1'],
             ['twists', 'table', '--from', '3', '--to', '6', '--certify'],
             ['identities', 'verify'], ['identities', 'taxicab', '--bound', '100000'],
             ['identities', 'nearmiss', '--count', '10'],
             ['ec', 'count', '--p', '17', '--n', '2', '--a', '3,1'],
             ['ec', 'map', '--d', '1729', '--x', '9', '--y', '10']):
    status = dispatch(argv)[0].status
    if status != 'ok':
        raise SystemExit(f'{argv}: {status}')
fam = build_family()
S = section_add(fam, section_mul(fam, 2, fam.p1), section_mul(fam, -1, fam.p2))
if S is None or not S.on_curve(fam.k):
    raise SystemExit('section arithmetic failed')
print('sympy' in sys.modules)
"""
    for flags in ([], ["-O"]):
        out = subprocess.run(
            [sys.executable, *flags, "-c", script], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert out.stdout.strip() == "False", flags


def test_ff_lfunction_cli_refuses_oversized_field_at_once(capsys):
    """101 = 2 mod 3 counts up to F_{101^6}; 811 = 1 mod 3, the first good p
    of that residue past the budget, counts up to F_{811^3}."""
    for p, q in ((101, "101^6"), (811, "811^3")):
        t0 = time.perf_counter()
        doc = run_json(capsys, "ff", "lfunction", "--p", str(p))
        assert time.perf_counter() - t0 < 1.0
        assert doc["status"] == "failed"
        assert doc["results"]["error"] == (
            f"BudgetError: counting q = {q} exceeds the cap 526385152"
        )


def test_ff_rank_cli(capsys):
    doc = run_json(capsys, "ff", "rank")
    res = doc["results"]
    assert res["rank"] == 2
    assert res["geometric_rank"] == 4


def test_surface_analyze_cli(capsys):
    doc = run_json(capsys, "surface", "analyze")
    res = doc["results"]
    assert res["picard"] == 18
    assert res["is_k3"]
    assert res["euler_number"] == 24
    assert len(res["fibers"]) == 3


def test_surface_analyze_custom_k(capsys):
    doc = run_json(capsys, "surface", "analyze", "--k", "T^6 - 1")
    res = doc["results"]
    assert res["euler_number"] == 24 and res["is_k3"]
    doc = run_json(capsys, "surface", "analyze", "--k=-2,0,0,1")
    assert doc["results"]["euler_number"] == 12
    assert not doc["results"]["is_k3"]


def test_parse_poly_family_k_as_expression():
    text = "63*(3*T^2 - 3*T + 1)*(T^2 + T + 1)*(T**2 - 3*T + 3)"
    assert _parse_poly(text) == build_family().k
    assert _parse_poly("189, -567, 630, -315, 630, -567, 189") == build_family().k


@pytest.mark.parametrize(
    "text,coeffs",
    [
        ("T^6 - 1", (-1, 0, 0, 0, 0, 0, 1)),
        ("-T^2", (0, 0, -1)),
        ("-2^2", (-4,)),
        ("(T + 1)/2", (Fraction(1, 2), Fraction(1, 2))),
        ("3/4*T - -1", (1, Fraction(3, 4))),
        ("2 * (T - 1) ** 2", (2, -4, 2)),
        ("1/2, 3", (Fraction(1, 2), 3)),
        ("-2,0,0,1", (-2, 0, 0, 1)),
    ],
)
def test_parse_poly_accepts(text, coeffs):
    assert _parse_poly(text) == rational_poly(*coeffs)


@pytest.mark.parametrize(
    "text",
    ["", "T +", "(T", "T)", "t^2", "T^2^3", "T^-1", "T/(T + 1)", "1/0", "T^65",
     "2^99999", "(T^8)^9", "1.5*T", "1e9, 2", "x, 1", "T + len('a')"],
)
def test_parse_poly_rejects(text):
    """Malformed text is a syntax error; an exponent or a degree above its cap
    is a refusal."""
    want = BudgetError if text in ("T^65", "2^99999", "(T^8)^9") else PolynomialSyntaxError
    with pytest.raises(want):
        _parse_poly(text)


@pytest.mark.parametrize("text", ["(T^64)^32", "((1+T)^64)^64", "(T^60)*(T^5)"])
def test_parse_poly_refuses_a_degree_before_multiplying(text):
    """A power or product of too high a degree is refused by its degree, before
    the coefficients are multiplied out."""
    degree = {"(T^64)^32": 2048, "((1+T)^64)^64": 4096, "(T^60)*(T^5)": 65}[text]
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match=f"^--k degree {degree} exceeds the cap 64$"):
        _parse_poly(text)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "text,reason",
    [
        pytest.param(text, reason, id=f"{text}-{case}") for text, reason, case in [
            ("(" * 2000 + "T" + ")" * 2000, "--k nesting 2000 exceeds the cap 100",
             "parentheses nested more than 100 deep"),
            ("(" * 101 + "T" + ")" * 101, "--k nesting 101 exceeds the cap 100",
             "parentheses nested more than 100 deep"),
            ("9" * 5000, "--k digits 5000 exceeds the cap 1000", "integer of 5000 digits"),
            ("T^" + "9" * 5000, "--k digits 5000 exceeds the cap 1000", "integer of 5000 digits"),
        ]
    ],
)
def test_surface_analyze_k_refuses_deep_or_long_input_by_name(capsys, text, reason):
    """Nesting that would reach the recursion limit, and literals of more
    digits than the cap, whose int() could pass int_max_str_digits, fail as
    BudgetError with the reason."""
    doc = run_json(capsys, "surface", "analyze", "--k=" + text)
    assert doc["status"] == "failed"
    assert doc["results"]["error"].startswith(f"BudgetError: {reason}")


def _random_expression(rng: random.Random, depth: int) -> tuple[str, Polynomial]:
    """A random --k expression and its value by Polynomial arithmetic over Fractions."""
    # n: a number (twice as likely), t: T, u: a unary minus, (: parentheses
    kind = rng.choice("ntn+-*/^u(" if depth else "ntn")
    if kind == "n":
        n = rng.choice([0, 1, rng.randrange(2, 10**rng.randint(1, 30))])
        return str(n), rational_poly(n)
    if kind == "t":
        return "T", rational_poly(0, 1)
    text, f = _random_expression(rng, depth - 1)
    if kind == "^":
        e = rng.randint(0, 4)
        return f"({text})^{e}", f**e
    if kind == "u":
        return f"-({text})", -f
    if kind == "(":
        return f"({text})", f
    text2, g = _random_expression(rng, depth - 1)
    if kind == "/":
        c = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        return f"({text}) / ({c.numerator}/{c.denominator})", f * (1 / c)
    value = f + g if kind == "+" else f - g if kind == "-" else f * g
    return f"({text}) {kind} ({text2})", value


def test_parse_poly_matches_fraction_arithmetic():
    """The parser computes on cleared integer coefficients over one
    denominator; Polynomial arithmetic over Fractions is the oracle, and every
    coefficient comes back a Fraction (a divisor c^0 once gave floats)."""
    rng = random.Random(31)
    for _ in range(2000):
        text, want = _random_expression(rng, rng.randint(1, 5))
        try:
            got = _parse_poly(text)
        except BudgetError:
            continue  # a degree or height above its cap
        assert got == want, text
        assert all(type(c) is Fraction for c in got.coeffs), text
    assert _parse_poly("T / 5^0") == rational_poly(0, 1)
    assert all(type(c) is Fraction for c in _parse_poly("T / 5^0").coeffs)


def test_parse_poly_long_but_flat_input():
    # signs are read in a loop and only parentheses nest, so these are not refused
    assert _parse_poly("-" * 5000 + "T") == rational_poly(0, 1)
    assert _parse_poly("-" * 5001 + "T") == rational_poly(0, -1)
    assert _parse_poly("(" * 100 + "T" + ")" * 100) == rational_poly(0, 1)
    assert _parse_poly("+".join(["T"] * 4096)) == rational_poly(0, 4096)  # at the length cap


def test_surface_analyze_k_never_runs_code(capsys, tmp_path):
    marker = tmp_path / "ran"
    for payload in (
        "T**2 + 1 + 0*len(__import__('os').getcwd())",
        f"T**2 + 1 + 0*len(open({str(marker)!r}, 'w').name)",
    ):
        doc = run_json(capsys, "surface", "analyze", "--k", payload)
        assert doc["status"] == "failed"
        assert doc["results"]["error"].startswith("PolynomialSyntaxError: ")
    assert not marker.exists()


def test_cli_import_leaves_numpy_out():
    """What every command pays before its handler runs: the import of the CLI
    and the family.  None of these modules is loaded by then (the records are
    NamedTuples or plain classes, and CSV is imported by its writer)."""
    script = (
        "import sys, twocubes.cli\n"
        "from twocubes import function_field\n"
        "function_field.build_family()\n"
        "print([m for m in ('numpy', 'dataclasses', 'inspect', 'csv', 'argparse')"
        " if m in sys.modules])\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_refused_lfunction_leaves_numpy_out():
    """The counting cap is checked without importing the sweeps."""
    script = (
        "import json, sys\n"
        "from twocubes.cli import dispatch\n"
        "report, _ = dispatch(['ff', 'lfunction', '--p', '101'])\n"
        "print(json.dumps([report.status, report.results['error'], 'numpy' in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=True,
    )
    status, error, numpy_loaded = json.loads(out.stdout)
    assert status == "failed" and "exceeds the cap 526385152" in error
    assert not numpy_loaded


def test_twists_table_cli_json(capsys):
    doc = run_json(capsys, "twists", "table", "--from", "0", "--to", "3")
    recs = doc["results"]["records"]
    assert [r["d"] for r in recs] == ["7", "7", "9", "1729"]
    t3 = recs[-1]
    assert (t3["x1"], t3["y1"], t3["x2"], t3["y2"]) == ("46/3", "-37/3", "10", "9")
    assert doc["results"]["summary"]["distinct_d"] == 3


def test_twists_table_cli_reports_exhausted(capsys):
    doc = run_json(capsys, "twists", "table", "--from", "0", "--to", "3", "--certify")
    assert doc["status"] == "exhausted"
    summary = doc["results"]["summary"]
    assert summary["uncertified"] == 3
    assert summary["exhausted"] == [
        {"t": str(t), "d": d, "reason": "budget exhausted", "primes_tried": 50}
        for t, d in ((0, "7"), (1, "7"), (2, "9"))
    ]
    recs = doc["results"]["records"]
    assert [(r["cert_reason"], r["primes_tried"]) for r in recs] == [
        ("budget exhausted", 50)
    ] * 3 + [("non-cyclic image", 7)]


def test_twists_table_cli_refuses_an_inverted_range(capsys, monkeypatch):
    from twocubes import cli

    def no_work(*args, **kwargs):
        raise AssertionError("an inverted range started work")

    monkeypatch.setattr(cli, "twist_table", no_work)
    doc = run_json(capsys, "twists", "table", "--from", "5", "--to", "3", "--certify")
    assert doc["status"] == "failed"
    assert doc["results"]["error"] == "ValueError: --from 5 is greater than --to 3"


def test_twists_table_cli_refuses_a_budget_below_1(capsys, monkeypatch):
    from twocubes import cli

    def no_work(*args, **kwargs):
        raise AssertionError("a budget below 1 started work")

    with monkeypatch.context() as m:
        m.setattr(cli, "twist_table", no_work)
        for budget in (0, -5):
            doc = run_json(capsys, "twists", "table", "--from", "3", "--to", "4", "--certify",
                           "--budget", str(budget))
            assert doc["status"] == "failed"
            assert doc["results"]["error"] == f"BudgetError: --budget {budget} is below 1"
    doc = run_json(capsys, "twists", "table", "--from", "3", "--to", "3", "--certify",
                   "--budget", "1")
    assert doc["status"] == "exhausted"
    assert doc["results"]["records"][0]["primes_tried"] == 1


def test_twists_table_cli_csv(capsys):
    code = main(["twists", "table", "--from", "3", "--to", "3", "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,k,d,x1,y1,x2,y2,cert_prime"
    assert lines[1].startswith("3,46683,1729,46/3,-37/3,10,9")


def test_round_trip_parse_what_you_print(capsys):
    for argv in (
        ["identities", "taxicab", "--bound", "1729"],
        ["ec", "count", "--p", "13", "--a", "2"],
        ["ff", "differentials"],
        ["twists", "table", "--from", "1", "--to", "2"],
    ):
        doc = run_json(capsys, *argv)
        assert json.loads(json.dumps(doc)) == doc
        assert doc["command"] == " ".join(argv[:2])
        assert isinstance(doc["parameters"], dict)


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["identities", "nonsense"])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert "invalid choice" in err


# One argv per command, with flags given, defaulted and abbreviated.
LEAF_ARGV = [
    ["identities", "verify"],
    ["identities", "taxicab", "--bound", "2000"],
    ["identities", "nearmiss", "--count", "3", "--family", "infinity"],
    ["ec", "count", "--p", "13", "--a", "2,1", "--n", "2"],
    ["ec", "map", "--d", "1729", "--x", "10", "--y", "9"],
    ["ff", "rank"],
    ["ff", "lfunction", "--p", "13", "--dir"],
    ["ff", "differentials"],
    ["surface", "analyze", "--k", "T^3 + 1"],
    ["twists", "table", "--to", "3", "--from=-2", "--certify", "--format", "csv"],
]


def test_leaf_dispatch_matches_the_full_tree():
    """Each command parsed by its leaf alone gives the command, parameters
    (key order included) and results that the tree's namespace gives."""
    from twocubes import cli

    assert sorted(map(tuple, (argv[:2] for argv in LEAF_ARGV))) == sorted(cli._command_tree()[1])
    for argv in LEAF_ARGV:
        tree = cli.build_parser().parse_args(argv)
        flags = {k: v for k, v in vars(tree).items() if k not in ("group", "command")}
        group, command, args, handler = cli._parse(argv)
        assert (group, command) == (tree.group, tree.command)
        assert list(vars(args).items()) == list(flags.items()), argv
        report, _ = dispatch(argv)
        assert report.command == f"{tree.group} {tree.command}"
        want = {k: str(v) for k, v in flags.items() if v is not None}
        assert list(report.parameters.items()) == list(want.items()), argv
        assert report.results == handler(tree), argv


@pytest.mark.parametrize("argv", [
    ["twists", "table", "--from", "1", "--to", "2", "--bogus"],  # unrecognized argument
    ["twists", "table", "--from", "1", "--to", "2", "extra"],
    ["twists", "table", "--from", "1"],  # missing required flag
    ["ec", "count", "--p", "x", "--a", "1"],  # bad int
    ["twists", "table", "--from", "1", "--to", "2", "--bogus", "--budget", "x"],
    ["identities", "nearmiss", "--family", "one"],  # bad choice
    ["identities", "nonsense"],  # unknown command
    ["nonsense", "verify"],
    ["twists"],
    [],
    ["twists", "table", "--", "--from", "1", "--to", "2"],
    ["ff", "lfunction", "-h"],  # help on a leaf
    ["twists", "table", "--bogus", "--help"],
    ["--help"],  # top-level help
    ["ff", "--help"],
])
def test_leaf_dispatch_exits_as_the_full_tree(capsys, argv):
    """Help, every parser error and its exit code are the tree's own."""
    from twocubes import cli

    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    assert outcome(dispatch) == outcome(cli.build_parser().parse_args)


_FRESH_DISPATCH = """
import json, sys
from twocubes.cli import dispatch

out = []
for argv in json.loads(sys.stdin.read()):
    report, _ = dispatch(argv)
    out.append([report.status, report.results, "argparse" in sys.modules])
print(json.dumps(out))
"""


def test_a_valid_dispatch_leaves_argparse_unimported():
    """A valid command given with exact option strings is read from the
    command table alone: a fresh process runs each and never imports argparse,
    so it builds no parser.  The abbreviated and `=` forms take argparse."""
    exact = [a for a in LEAF_ARGV if not any(w == "--dir" or "=" in w for w in a)]
    assert len(exact) == len(LEAF_ARGV) - 2
    certify = ["twists", "table", "--from", "3", "--to", "3", "--certify"]
    out = subprocess.run(
        [sys.executable, "-c", _FRESH_DISPATCH], input=json.dumps([certify, *exact, LEAF_ARGV[6]]),
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=True,
    )
    runs = json.loads(out.stdout)
    assert [status for status, _, _ in runs] == ["ok"] * len(runs)
    assert runs[0][1]["records"][0]["cert_prime"] is not None
    assert [imported for _, _, imported in runs] == [False] * (len(exact) + 1) + [True]


# Tokens argparse reads in ways the table parser must not guess at: signs,
# Unicode and non-ASCII digits, a lone dash, "--", help and extra words.
_AWKWARD = ["-", "--", "-h", "--help", "extra", "", "-1.5", "-٣", "٣", "³", " 4", "4 ", "1_0",
            "-0", "1e3", "x", "one", "-x", "- 3", "--to", "--certify"]
_VALUES = {int: ["0", "3", "-2", "17", "-40", "٣", " 4", "1_0", "-٣", "x", ""],
           str: ["T^3 + 1", "-1", "1,2", "x", "-x", "", "--k"]}


@st.composite
def _words(draw, flags):
    """argv[2:] for a leaf of these flags: each flag absent or given with a
    value of its own kind, and in half the draws also twice, abbreviated or
    in the = form, or with up to two awkward tokens; all in any order."""
    noisy = draw(st.booleans())
    forms = ["absent", "exact", "exact"] + ["twice", "abbrev", "="] * noisy
    chunks = []
    for option, kw in flags:
        form = draw(st.sampled_from(forms))
        if form == "absent":
            continue
        value = [] if kw.get("action") == "store_true" else [draw(st.sampled_from(
            [*kw["choices"], "one"] if "choices" in kw else _VALUES[kw["type"]]))]
        words = [option[:-1] if form == "abbrev" else option, *value]
        if form == "=":
            words = [f"{option}={value[0] if value else 1}"]
        chunks += [words] * (1 + (form == "twice"))
    chunks += [[t] for t in draw(st.lists(st.sampled_from(_AWKWARD), max_size=2 * noisy))]
    return sum(draw(st.permutations(chunks)), [])


@pytest.mark.parametrize("key", list(cli._COMMANDS), ids=" ".join)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_table_parse_agrees_with_argparse(key, data):
    """argparse is the oracle: whenever the table parser accepts argv[2:],
    the leaf parser and the full tree accept it too, and their namespaces
    equal its own, key order, values and value types included."""
    flags = cli._COMMANDS[key][2]
    words = data.draw(_words(flags))
    args = cli._table_parse(flags, words)
    if args is None:
        return
    typed = lambda pairs: [(k, type(v), v) for k, v in pairs]  # noqa: E731
    leaf, rest = cli._command_tree()[1][key].parse_known_args(words)
    assert rest == [] and typed(vars(leaf).items()) == typed(vars(args).items())
    tree = vars(cli.build_parser().parse_args([*key, *words]))
    assert (tree.pop("group"), tree.pop("command")) == key
    assert typed(tree.items()) == typed(vars(args).items())


def test_table_parse_agrees_with_argparse_under_python_O():
    out = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider", __file__,
         "-k", "test_table_parse_agrees_with_argparse and not python_O"],
        capture_output=True, text=True, cwd=Path(SRC).parent, timeout=600,
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert out.returncode == 0, out.stdout[-3000:] + out.stderr[-3000:]
    assert f"{len(cli._COMMANDS)} passed" in out.stdout


def test_determinism(capsys):
    doc1 = run_json(capsys, "twists", "table", "--from", "0", "--to", "2")
    doc2 = run_json(capsys, "twists", "table", "--from", "0", "--to", "2")
    assert doc1["results"] == doc2["results"]


def test_inputs_above_their_caps_fail_before_any_work(capsys, monkeypatch):
    from twocubes import cli

    def no_work(*args, **kwargs):
        raise AssertionError("a capped command started work")

    monkeypatch.setattr(cli.identities, "taxicab_search", no_work)
    monkeypatch.setattr(cli.identities, "nearmiss_stream", no_work)
    monkeypatch.setattr(cli, "twist_table", no_work)
    monkeypatch.setattr(cli, "FiniteField", no_work)
    cases = [
        (["identities", "taxicab", "--bound", str(budget.MAX_TAXICAB_BOUND + 1)],
         "--bound", budget.MAX_TAXICAB_BOUND),
        (["identities", "nearmiss", "--count", str(budget.MAX_NEARMISS_COUNT + 1)],
         "--count", budget.MAX_NEARMISS_COUNT),
        (["twists", "table", "--from", "-5", "--to", str(budget.MAX_TWIST_RANGE - 5)],
         "--from/--to width", budget.MAX_TWIST_RANGE),
        (["twists", "table", "--from", "3", "--to", "3", "--certify",
          "--budget", str(budget.MAX_PRIME_BUDGET + 1)],
         "--budget", budget.MAX_PRIME_BUDGET),
        (["ec", "count", "--p", "5", "--n", str(budget.MAX_EC_DEGREE + 1), "--a", "3"],
         "--n", budget.MAX_EC_DEGREE),
        # p^2 has one bit more than the cap; the cap is checked before primality
        (["ec", "count", "--p", str(2 ** (budget.MAX_EC_FIELD_BITS // 2) + 1), "--n", "2",
          "--a", "3"], "bits of q = p^n", budget.MAX_EC_FIELD_BITS),
    ]
    for argv, flag, cap in cases:
        doc = run_json(capsys, *argv)
        assert doc["status"] == "failed"
        assert doc["results"]["error"] == f"BudgetError: {flag} {cap + 1} exceeds the cap {cap}"


def test_benchmark_inputs_are_within_their_caps():
    from twocubes import cli

    assert budget.MAX_TAXICAB_BOUND >= 10**8
    assert budget.MAX_NEARMISS_COUNT >= 1000
    assert budget.MAX_TWIST_RANGE >= 1
    assert budget.MAX_PRIME_BUDGET >= 50


def test_readme_cli_examples_run():
    """Every command in README's CLI block runs, without and with its bracketed
    options; `twists table --certify` is exhausted, since t = 0, 1, 2 are."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("twocubes ")]
    assert len(lines) >= 10
    for line in lines:
        bare, full = re.sub(r"\s*\[[^]]*\]", "", line), re.sub(r"\[([^]]*)\]", r"\1", line)
        for text in dict.fromkeys((bare, full)):
            argv = shlex.split(text)[1:]
            want = "exhausted" if argv[:2] == ["twists", "table"] and "--certify" in argv else "ok"
            assert dispatch(argv)[0].status == want, text
