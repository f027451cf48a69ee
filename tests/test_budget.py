"""Every cap refuses with one type, BudgetError, before the work it bounds,
also under python -O, and every command runs at its caps within a wall bound."""

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from twocubes import budget, cli
from twocubes.budget import BudgetError, check_cap
from twocubes.cli import dispatch

ROOT = Path(__file__).resolve().parents[1]
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

_X = 10**1400 + 1  # x^3 + 8 has 4201 digits, within Python's 4300 but not within the cap
# 128 KiB, one argument's limit on Linux, of "*3/3" on a value of degree 64
_LONG_K = "((2^50)^2*T+1)^64" + "*3/3" * 32763

# (argv, the error in its report)
REFUSALS = [
    (["identities", "taxicab", "--bound", "1000000001"],
     "BudgetError: --bound 1000000001 exceeds the cap 1000000000"),
    (["identities", "nearmiss", "--count", "2001"],
     "BudgetError: --count 2001 exceeds the cap 2000"),
    (["twists", "table", "--from", "0", "--to", "10000"],
     "BudgetError: --from/--to width 10001 exceeds the cap 10000"),
    (["twists", "table", "--from", "3", "--to", "3", "--certify", "--budget", "1001"],
     "BudgetError: --budget 1001 exceeds the cap 1000"),
    (["twists", "table", "--from", "3", "--to", "3", "--certify", "--budget", "0"],
     "BudgetError: --budget 0 is below 1"),
    (["ec", "count", "--p", "5", "--n", "17", "--a", "3"],
     "BudgetError: --n 17 exceeds the cap 16"),
    (["ec", "count", "--p", str(2**256 + 1), "--n", "2", "--a", "3"],
     "BudgetError: bits of q = p^n 513 exceeds the cap 512"),
    (["ec", "count", "--p", "5", "--a", "1,x"],
     "PolynomialSyntaxError: --a must be comma-separated integers: '1,x'"),
    (["ec", "count", "--p", "5", "--n", "2", "--a", "1," + "9" * 1001],
     "BudgetError: --a digits 1001 exceeds the cap 1000"),
    (["ec", "map", "--x", str(_X), "--y", "2", "--d", str(_X**3 + 8)],
     "BudgetError: --d digits 4201 exceeds the cap 1000"),
    (["ec", "map", "--d", "1729", "--x", "9", "--y", "1/" + "1" * 1000],
     "BudgetError: --y digits 1001 exceeds the cap 1000"),
    (["surface", "analyze", "--k", "(((9^64)^64)^16)*T^3+1"],
     "BudgetError: --k height bits 13056 exceeds the cap 8192"),
    (["surface", "analyze", "--k", "(((9^64)^64)^64)*T^3+1"],
     "BudgetError: --k height bits 13056 exceeds the cap 8192"),
    (["surface", "analyze", "--k", "((9^64)^30)*((9^64)^30)*T^6 + 1"],
     "BudgetError: --k height bits 12175 exceeds the cap 8192"),
    (["surface", "analyze", "--k", "1/" + str(2**3000) + ",1/" + str(3**1800) + ",1/"
      + str(5**1200) + ",1"],
     "BudgetError: --k height bits 8640 exceeds the cap 8192"),
    (["surface", "analyze", "--k", "(T^8)^9"], "BudgetError: --k degree 72 exceeds the cap 64"),
    (["surface", "analyze", "--k", ",".join(["1"] * 66)],
     "BudgetError: --k degree 65 exceeds the cap 64"),
    (["surface", "analyze", "--k", "T^65"], "BudgetError: --k exponent 65 exceeds the cap 64"),
    (["surface", "analyze", "--k", "(" * 101 + "T" + ")" * 101],
     "BudgetError: --k nesting 101 exceeds the cap 100"),
    (["surface", "analyze", "--k", "9" * 1001 + "*T^6 + 1"],
     "BudgetError: --k digits 1001 exceeds the cap 1000"),
    (["surface", "analyze", "--k", _LONG_K],
     f"BudgetError: --k length {len(_LONG_K)} exceeds the cap 8192"),
    (["surface", "analyze", "--k", ",".join(["1"] * 4097)],
     "BudgetError: --k length 8193 exceeds the cap 8192"),
    (["surface", "analyze", "--k", "T^6 + 1.5"],
     "PolynomialSyntaxError: unexpected '.' in 'T^6 + 1.5'"),
    (["ff", "lfunction", "--p", "29"], "BudgetError: counting q = 29^6 exceeds the cap 526385152"),
    (["ff", "lfunction", "--p", "811"],
     "BudgetError: counting q = 811^3 exceeds the cap 526385152"),
    (["ff", "lfunction", "--p", "787", "--direct"],
     "BudgetError: counting q = 787^4 exceeds the cap 526385152"),
    (["ff", "rank", "--p", "29"], "BudgetError: counting q = 29^6 exceeds the cap 526385152"),
]

# (a library call that refuses, its error): the caps no flag reaches directly
LIBRARY_REFUSALS = [
    ("character_sum(build_family(), 19, 5)",
     "BudgetError: base field of S_5: Q = 19^5 exceeds the cap 524288"),
    ("NormLog(FiniteField(811)).cube_class_counts(3, FiniteField(811)(1), [FiniteField(811)(2)])",
     "BudgetError: counting q = 533411731 exceeds the cap 526385152"),
]

_REFUSAL_SCRIPT = """
import json, sys
from twocubes.cli import dispatch
from twocubes.exact import FiniteField
from twocubes.exact.zechlog import NormLog
from twocubes.function_field import build_family, character_sum

cases = json.loads(sys.stdin.read())
errors = [dispatch(argv)[0].results["error"] for argv in cases["argv"]]
for call in cases["calls"]:
    try:
        eval(call)
        errors.append("accepted")
    except Exception as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
print(json.dumps(errors))
"""


@pytest.mark.parametrize("argv, error", REFUSALS, ids=[" ".join(a)[:60] for a, _ in REFUSALS])
def test_a_capped_input_is_refused_by_name_within_a_second(argv, error):
    started = time.perf_counter()
    report, _ = dispatch(argv)
    assert time.perf_counter() - started < 1.0
    assert report.status == "failed"
    assert report.results == {"error": error}


@pytest.mark.parametrize("call, error", LIBRARY_REFUSALS)
def test_a_library_cap_is_refused_by_name(call, error):
    from twocubes.exact import FiniteField  # noqa: F401  (read by eval)
    from twocubes.exact.zechlog import NormLog  # noqa: F401
    from twocubes.function_field import build_family, character_sum  # noqa: F401

    with pytest.raises(BudgetError) as info:
        eval(call)
    assert f"BudgetError: {info.value}" == error


def test_every_refusal_is_the_same_under_python_O():
    """Every cap is an if/raise, never an assert: one -O process gives the
    same errors, types and messages, as the table."""
    cases = {"argv": [argv for argv, _ in REFUSALS], "calls": [c for c, _ in LIBRARY_REFUSALS]}
    out = subprocess.run(
        [sys.executable, "-O", "-c", _REFUSAL_SCRIPT], input=json.dumps(cases),
        capture_output=True, text=True, env=ENV, check=True, timeout=120,
    )
    assert json.loads(out.stdout) == [e for _, e in REFUSALS] + [e for _, e in LIBRARY_REFUSALS]


def test_check_cap_admits_the_cap_and_names_the_value():
    check_cap("--n", 16, 16)
    with pytest.raises(BudgetError, match="^--n 17 exceeds the cap 16$"):
        check_cap("--n", 17, 16)
    with pytest.raises(BudgetError, match="^counting q = 29\\^6 exceeds the cap 5$"):
        check_cap("counting q =", 29**6, 5, "29^6")
    assert issubclass(BudgetError, ValueError)


def test_every_cap_constant_is_defined_in_budget():
    """MAX_ROOTS, the uint8 headroom of the sweep, is a guard, not a cap."""
    defined = {
        (path.name, name)
        for path in (ROOT / "src").rglob("*.py")
        for name in re.findall(r"^(MAX_\w+) =", path.read_text(), re.M)
    }
    others = {(f, n) for f, n in defined if f != "budget.py"}
    assert others == {("zechlog.py", "MAX_ROOTS")}
    assert {n for f, n in defined if f == "budget.py"} == {
        "MAX_TAXICAB_BOUND", "MAX_NEARMISS_COUNT", "MAX_TWIST_RANGE", "MAX_PRIME_BUDGET",
        "MAX_EC_DEGREE", "MAX_EC_FIELD_BITS", "MAX_LITERAL_DIGITS", "MAX_PARSED_DEGREE",
        "MAX_PARSED_NESTING", "MAX_PARSED_HEIGHT", "MAX_PARSED_LENGTH", "MAX_COUNTING_FIELD",
        "MAX_BASE_FIELD",
    }


def test_a_product_above_the_height_cap_is_never_multiplied(monkeypatch):
    def no_product(a, b):
        raise AssertionError("a refused product was multiplied out")

    monkeypatch.setattr(cli, "_int_mul", no_product)
    with pytest.raises(BudgetError, match="^--k height bits 12175 exceeds the cap 8192$"):
        cli._parse_poly("((9^64)^30)*((9^64)^30)")


def test_the_caps_admit_their_limits():
    """1000 digits are read, and a value of height 8130 bits is formed."""
    assert cli._parse_poly("9" * 1000 + "*T").coeffs == (0, 10**1000 - 1)
    assert cli._parse_poly("((2^64)^64)*((2^64)^63)*T + 1/2").coeffs == (Fraction(1, 2), 2**8128)


def _k_at_the_length_cap() -> str:
    """8192 characters of "/3*3" on a value of degree 64 whose 65 coefficients
    all have about 8000 bits, the slowest --k found at the cap; k = T^6 - 1."""
    x = "((2^62)^2*T+(3^39)^2)^64"
    tail = f" - {x} + T^6 - 1"
    body = x + "/3*3" * ((budget.MAX_PARSED_LENGTH - len(x) - len(tail)) // 4)
    return body + tail.rjust(budget.MAX_PARSED_LENGTH - len(body))


def _ec_map_at_the_cap() -> list[str]:
    """A point of X^3 + Y^3 = d with d of 998 digits, numerator and denominator."""
    b = 10**166 + 7
    x, y = Fraction(10**166 - 3, b), Fraction(2 * 10**165 + 1, b)
    return ["ec", "map", "--d", str(x**3 + y**3), "--x", str(x), "--y", str(y)]


# (argv, status, wall bound in seconds): each command at its caps.  The bounds
# are about ten times the fresh-process times on a 2-vCPU host (0.1-0.8 s,
# and 1.6 s for the twist table), which include about 0.1 s of start-up.
WORST_CASES = [
    (["identities", "verify"], "ok", 5),
    (["identities", "taxicab", "--bound", str(budget.MAX_TAXICAB_BOUND)], "ok", 5),
    (["identities", "nearmiss", "--count", str(budget.MAX_NEARMISS_COUNT)], "ok", 5),
    # n = 16, q = p^16 below 2^512 for p the largest prime below 2^32, and 16
    # coefficients of 1000 digits
    (["ec", "count", "--p", "4294967291", "--n", "16", "--a", ",".join(["9" * 1000] * 16)],
     "ok", 5),
    (_ec_map_at_the_cap(), "ok", 5),
    (["ff", "rank"], "ok", 5),
    (["ff", "lfunction", "--p", "787"], "ok", 10),
    (["ff", "differentials"], "ok", 5),
    (["surface", "analyze"], "ok", 5),
    # height 8131 bits: the largest --k coefficients print with 2443 digits
    (["surface", "analyze", "--k",
      "((9^64)^40)*T^6 - ((7^64)^43)*T^3 + ((5^64)^46)*T + 1"], "ok", 5),
    # values of degree 64 and height 7937 bits while parsing; k = T^6 - 1 at the end
    (["surface", "analyze", "--k", "(((2^62)^2*T + 1)^64 - ((2^62)^2*T + 1)^64) + T^6 - 1"],
     "ok", 5),
    (["surface", "analyze", "--k=" + ",".join([str(10**999 + 7)] * 6 + ["9" * 1000])], "ok", 5),
    # parses in about 0.9 s
    (["surface", "analyze", "--k", _k_at_the_length_cap()], "ok", 10),
    (["twists", "table", "--from", "0", "--to", "9999", "--certify", "--budget", "1000"],
     "exhausted", 20),
]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_a_k_above_the_length_cap_is_refused_within_a_second(flags):
    """The length is checked before the text is parsed, in a fresh process."""
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, *flags, "-m", "twocubes.cli", "surface", "analyze", "--k", _LONG_K],
        capture_output=True, text=True, env=ENV, timeout=60,
    )
    assert time.perf_counter() - started < 1.0
    assert out.returncode == 1
    assert json.loads(out.stdout)["results"] == {
        "error": f"BudgetError: --k length {len(_LONG_K)} exceeds the cap 8192"}


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
@pytest.mark.parametrize(
    "argv, status, bound", WORST_CASES, ids=[" ".join(a)[:60] for a, _, _ in WORST_CASES]
)
def test_every_command_at_its_caps_ends_within_its_bound(flags, argv, status, bound):
    started = time.perf_counter()
    out = subprocess.run(
        [sys.executable, *flags, "-m", "twocubes.cli", *argv],
        capture_output=True, text=True, env=ENV, timeout=10 * bound,
    )
    elapsed = time.perf_counter() - started
    for fault in ("Exceeds the limit", "invalid literal", "RecursionError", "MemoryError"):
        assert fault not in out.stdout + out.stderr
    doc = json.loads(out.stdout)
    assert (doc["status"], out.returncode) == (status, 0 if status == "ok" else 1), doc["results"]
    assert elapsed < bound
