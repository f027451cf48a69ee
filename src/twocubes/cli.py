"""Command-line interface: one JSON document per invocation.

Subcommands mirror the library modules:

    identities verify | taxicab | nearmiss
    ec count | map
    ff rank | lfunction | differentials
    surface analyze
    twists table

Every report carries {"schema": 1, "command", "parameters", "results",
"status", "timing_seconds"}; big integers are serialized as decimal
strings so consumers never overflow.  Exit code 0 iff status is "ok".
"""

from __future__ import annotations

import itertools
import json
import re
import sys
import time
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from types import SimpleNamespace
from typing import TYPE_CHECKING, NamedTuple

from . import identities
from .budget import MAX_EC_DEGREE, MAX_EC_FIELD_BITS, MAX_LITERAL_DIGITS, MAX_NEARMISS_COUNT
from .budget import MAX_PARSED_DEGREE, MAX_PARSED_HEIGHT, MAX_PARSED_LENGTH, MAX_PARSED_NESTING
from .budget import MAX_PRIME_BUDGET, MAX_TAXICAB_BOUND, MAX_TWIST_RANGE, BudgetError, check_cap
from .elliptic import count_points, to_weierstrass
from .exact import FiniteField, Polynomial, factor_over_z, rational_poly
from .exact.poly import _int_add, _int_mul
from .function_field import (
    build_family,
    lfunction,
    pullback_differential,
    rank_bounds,
    rank_report,
    z_rank,
    z_rank_cm,
)
from .surface import analyze, classify_fibers, euler_and_k3
from .twists import twist_table

if TYPE_CHECKING:
    import argparse


class RunReport(NamedTuple):
    command: str
    parameters: dict
    results: dict
    status: str = "ok"
    timing: float = 0.0

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "command": self.command,
            "parameters": self.parameters,
            "results": self.results,
            "status": self.status,
            "timing_seconds": round(self.timing, 3),
        }


_TOKEN = re.compile(r"\s*(?:(\d+)|(\*\*|[-+*/^()T]))")
_COEFF = re.compile(r"\s*[-+]?\d+(?:/\d+)?\s*")
_INT = re.compile(r"\s*[-+]?\d+\s*")


class PolynomialSyntaxError(ValueError):
    pass


def _check_digits(flag: str, text: str) -> None:
    """Refuse a number read as text by its digits, before int() or Fraction() reads it."""
    check_cap(f"{flag} digits", sum(map(str.isdigit, text)), MAX_LITERAL_DIGITS)


def _parse_poly(text: str) -> Polynomial:
    """A polynomial in T over Q, from either a comma-separated low-to-high
    coefficient list (integers or a/b) or an expression over integers, T,
    + - * / ^ ** and parentheses.  The text is parsed, never evaluated, and
    its length is capped before any parsing."""
    check_cap("--k length", len(text), MAX_PARSED_LENGTH)
    if "," not in text:
        return _ExprParser(text).parse()
    coeffs = text.split(",")
    if not all(_COEFF.fullmatch(c) for c in coeffs):
        raise PolynomialSyntaxError(f"coefficients must be integers or a/b: {text!r}")
    check_cap("--k degree", len(coeffs) - 1, MAX_PARSED_DEGREE)
    for c in coeffs:
        _check_digits("--k", c)
    try:
        f = rational_poly(*(c.strip() for c in coeffs))
    except ZeroDivisionError as exc:
        raise PolynomialSyntaxError(f"bad coefficient in {text!r}: {exc}") from None
    den = lcm(*(c.denominator for c in f.coeffs))
    _check_height([c.numerator * (den // c.denominator) for c in f.coeffs], den)
    return f


def _height(nums: list[int], den: int) -> int:
    return max(map(int.bit_length, [den, *nums]))


def _check_height(nums: list[int], den: int) -> None:
    check_cap("--k height bits", _height(nums, den), MAX_PARSED_HEIGHT)


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *nums)
    return ([c // g for c in nums], den // g) if g > 1 else (nums, den)


class _ExprParser:
    """Recursive descent over

        expr  := term (('+' | '-') term)*
        term  := unary (('*' | '/') unary)*
        unary := ('+' | '-')* power
        power := atom (('^' | '**') integer)?
        atom  := integer | 'T' | '(' expr ')'

    where a divisor must be a nonzero constant.  Each value is held cleared,
    as integer coefficients low to high with no trailing zero over a positive
    common denominator prime to their content; its height is the largest bit
    length among them.  Parentheses nest at most MAX_PARSED_NESTING deep, so
    that no input reaches Python's recursion limit, and every value stays
    within MAX_PARSED_DEGREE and MAX_PARSED_HEIGHT: a product or a power is
    refused by bounds on its degree and height before it is multiplied out,
    and a sum or a quotient, of height at most one more than its operands'
    together, once it is formed."""

    def __init__(self, text: str):
        self.tokens = []
        pos, end = 0, len(text.rstrip())
        while pos < end:
            m = _TOKEN.match(text, pos)
            if m is None:
                raise PolynomialSyntaxError(f"unexpected {text[pos:].lstrip()[:1]!r} in {text!r}")
            self.tokens.append(m.group(1) or m.group(2))
            pos = m.end()
        depth = itertools.accumulate((t == "(") - (t == ")") for t in self.tokens)
        check_cap("--k nesting", max(depth, default=0), MAX_PARSED_NESTING)
        self.pos = 0

    def parse(self) -> Polynomial:
        nums, den = self._expr()
        if self.pos < len(self.tokens):
            raise PolynomialSyntaxError(f"unexpected {self.tokens[self.pos]!r}")
        return Polynomial(tuple(Fraction(c, den) for c in nums))

    def _peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self) -> str:
        tok = self._peek()
        if tok is None:
            raise PolynomialSyntaxError("unexpected end of expression")
        self.pos += 1
        return tok

    def _expr(self):
        a, da = self._term()
        while self._peek() in ("+", "-"):
            sign = 1 if self._take() == "+" else -1
            b, db = self._term()
            den = lcm(da, db)
            sa, sb = den // da, den // db
            a, da = _reduced(_int_add([c * sa for c in a], [c * sb for c in b], sign), den)
            _check_height(a, da)
        return a, da

    def _term(self):
        a, da = self._unary()
        while self._peek() in ("*", "/"):
            op, (b, db) = self._take(), self._unary()
            if op == "/":
                if len(b) != 1:
                    raise PolynomialSyntaxError("divisors must be nonzero constants")
                n = b[0]  # a/da divided by n/db
                a, da = _reduced([c * db if n > 0 else -c * db for c in a], da * abs(n))
                _check_height(a, da)
            else:
                check_cap("--k degree", len(a) + len(b) - 2, MAX_PARSED_DEGREE)
                height = _height(a, da) + _height(b, db) + min(len(a), len(b)).bit_length()
                check_cap("--k height bits", height, MAX_PARSED_HEIGHT)
                a, da = _reduced(_int_mul(a, b), da * db)
        return a, da

    def _unary(self):
        negate = False
        while self._peek() in ("+", "-"):
            negate ^= self._take() == "-"
        a, da = self._power()
        return ([-c for c in a], da) if negate else (a, da)

    def _power(self):
        a, da = self._atom()
        if self._peek() in ("^", "**"):
            self._take()
            e = self._take()
            if not e.isdigit():
                raise PolynomialSyntaxError(
                    f"exponents must be integers in [0, {MAX_PARSED_DEGREE}], not {e!r}"
                )
            e = self._int(e)
            check_cap("--k exponent", e, MAX_PARSED_DEGREE)
            check_cap("--k degree", max(len(a) - 1, 0) * e, MAX_PARSED_DEGREE)
            height = e * (_height(a, da) + len(a).bit_length())
            check_cap("--k height bits", height, MAX_PARSED_HEIGHT)
            a, da = list((Polynomial(a) ** e).coeffs), da**e
        return a, da

    def _atom(self):
        tok = self._take()
        if tok.isdigit():
            n = self._int(tok)
            return [n] if n else [], 1
        if tok == "T":
            return [0, 1], 1
        if tok == "(":
            f = self._expr()
            if self._take() != ")":
                raise PolynomialSyntaxError("missing ')'")
            return f
        raise PolynomialSyntaxError(f"unexpected {tok!r}")

    @staticmethod
    def _int(tok: str) -> int:
        _check_digits("--k", tok)
        return int(tok)


# -- subcommand handlers --------------------------------------------------------


def _run_identities_verify(args) -> dict:
    r1913 = identities.verify_ramanujan_1913()
    r20 = identities.verify_entry20()
    euler_sym = identities.euler_family_symbolic_check()
    example = {"alpha": 3, "beta": 0, "gamma": 1}  # the quadruple of 1729
    quad = identities.verify_euler_family(**example)
    all_ok = r1913.zero_polynomial and r20.zero_polynomial and euler_sym
    return {
        "all_verified": all_ok,
        "identity_1913": r1913.to_json(),
        "entry_20_iii": r20.to_json(),
        "euler_family": {
            "symbolic_zero": euler_sym,
            "example": {
                **{k: str(v) for k, v in example.items()},
                "quadruple": [str(v) for v in (quad.x, quad.y, quad.z, quad.w)],
                "common_value": str(quad.common_value()),
            },
        },
    }


def _run_identities_taxicab(args) -> dict:
    check_cap("--bound", args.bound, MAX_TAXICAB_BOUND)
    found = identities.taxicab_search(args.bound, args.reps)
    return {
        "bound": str(args.bound),
        "reps": args.reps,
        "entries": [
            {"n": str(n), "representations": [[str(a), str(b)] for a, b in reps]}
            for n, reps in found
        ],
    }


def _run_identities_nearmiss(args) -> dict:
    check_cap("--count", args.count, MAX_NEARMISS_COUNT)
    tuples = identities.nearmiss_stream(args.family, args.count)
    numerators, _ = identities.NEARMISS_FAMILIES[args.family]
    return {
        "family": args.family,
        "numerators": [[str(c) for c in num] for num in numerators],
        "denominator": [str(c) for c in identities.NEARMISS_DENOMINATOR],
        "tuples": [
            {"n": n, "a": str(a), "b": str(b), "c": str(c), "epsilon": eps}
            for (n, a, b, c, eps) in tuples
        ],
    }


def _run_ec_count(args) -> dict:
    check_cap("--n", args.n, MAX_EC_DEGREE)
    check_cap("bits of q = p^n", (args.p ** max(args.n, 0)).bit_length(), MAX_EC_FIELD_BITS)
    coeffs = args.a.split(",")
    if not all(_INT.fullmatch(c) for c in coeffs):
        raise PolynomialSyntaxError(f"--a must be comma-separated integers: {args.a!r}")
    for c in coeffs:
        _check_digits("--a", c)
    field = FiniteField(args.p, args.n)
    A = field.element(tuple(map(int, coeffs)))
    n_points = count_points(field, A)
    return {
        "p": args.p,
        "n": args.n,
        "q": str(field.q),
        "A": list(A.coeffs),
        "count": str(n_points),
        "trace": str(field.q + 1 - n_points),
    }


def _run_ec_map(args) -> dict:
    # Checked before Fraction() sees them: it expands exponent notation such
    # as "1e1000000000" into an integer of unbounded size.
    for flag, text in (("--d", args.d), ("--x", args.x), ("--y", args.y)):
        if not _COEFF.fullmatch(text):
            raise ValueError(f"{flag} must be an integer or a/b: {text!r}")
        _check_digits(flag, text)
    d, x, y = Fraction(args.d), Fraction(args.x), Fraction(args.y)
    if d == 0:
        raise ValueError("d must be nonzero")
    if x**3 + y**3 != d:
        raise ValueError(f"({args.x}, {args.y}) is not on X^3 + Y^3 = {d}")
    A = -432 * d * d
    u, v = to_weierstrass(d, x, y)
    return {
        "d": str(d),
        "weierstrass_A": str(A),
        "u": str(u),
        "v": str(v),
        "at_infinity": False,
        "on_curve": v * v == u**3 + A,
    }


def _run_ff_rank(args) -> dict:
    return rank_report(args.p).to_json()


def _run_ff_lfunction(args) -> dict:
    L = lfunction(args.p, direct=args.direct)
    arith, geom = rank_bounds(L)
    return {
        "p": args.p,
        "degree": L.degree,
        "coeffs": [str(c) for c in L.coeffs],
        "counted_cn": {str(n): str(c) for n, c in L.counted},
        "functional_equation_sign": L.functional_equation_sign(),
        "factorization": _factor_l(L),
        "arith_bound": arith,
        "geom_bound": geom,
    }


def _factor_l(L) -> list[dict]:
    """The content of L(u) unless it is 1, then its irreducible factors over Z,
    ordered by degree and then by their printed form (_poly_str)."""
    content, factors = factor_over_z(L.coeffs)
    out = [] if content == 1 else [{"factor": [str(content)], "multiplicity": 1}]
    for f, mult in sorted(factors, key=lambda fm: (len(fm[0]), _poly_str(fm[0]))):
        out.append({"factor": [str(c) for c in f], "multiplicity": mult})
    return out


def _poly_str(f: list[int]) -> str:
    """f in u as sympy prints a Poly over ZZ, "Poly(169*u**2 + 13*u + 1, u, domain='ZZ')";
    the factor order of the JSON report is defined on this form."""
    terms = []
    for i in range(len(f) - 1, -1, -1):
        if f[i]:
            mono = "" if i == 0 else "u" if i == 1 else f"u**{i}"
            c = abs(f[i])
            body = mono if mono and c == 1 else f"{c}*{mono}" if mono else str(c)
            terms.append(("- " if f[i] < 0 else "+ ") + body)
    sign = "-" if f[-1] < 0 else ""
    return f"Poly({sign}{' '.join(terms)[2:]}, u, domain='ZZ')"


def _run_ff_differentials(args) -> dict:
    fam = build_family()
    w1 = pullback_differential(fam.p1)
    w2 = pullback_differential(fam.p2)
    return {
        "k": [str(c) for c in fam.k.coeffs],
        "sections": {
            "P1": {"x": fam.p1.x.format(), "y": fam.p1.y.format()},
            "P2": {"x": fam.p2.x.format(), "y": fam.p2.y.format()},
        },
        "differentials": {
            "P1": w1.format(),
            "P2": w2.format(),
        },
        "z_rank_rational": z_rank([w1, w2]),
        "z_rank_cm_extended": z_rank_cm([w1, w2]),
    }


def _run_surface_analyze(args) -> dict:
    if args.k is not None:
        k = _parse_poly(args.k)
        fibers = classify_fibers(k)
        e, is_k3 = euler_and_k3(fibers)
        return {
            "k": [str(c) for c in k.coeffs],
            "fibers": [f.to_json() for f in fibers],
            "euler_number": e,
            "chi": e // 12,
            "is_k3": is_k3,
            "note": "picard requires the family surface; no rank supplied for custom k",
        }
    report = analyze()
    return report.to_json()


def _run_twists_table(args) -> dict:
    if args.t_from > args.t_to:
        raise ValueError(f"--from {args.t_from} is greater than --to {args.t_to}")
    check_cap("--from/--to width", args.t_to - args.t_from + 1, MAX_TWIST_RANGE)
    if args.budget < 1:
        raise BudgetError(f"--budget {args.budget} is below 1")
    check_cap("--budget", args.budget, MAX_PRIME_BUDGET)
    table = twist_table(args.t_from, args.t_to, certify=args.certify, prime_budget=args.budget)
    payload = table.to_json()
    if args.certify:
        exhausted = [r for r in table.records if r.outcome and r.outcome.exhausted]
        payload["summary"]["uncertified"] = len(exhausted)
        payload["summary"]["exhausted"] = [
            {"t": str(r.t), "d": str(r.d), "reason": r.outcome.reason,
             "primes_tried": r.outcome.primes_tried}
            for r in exhausted
        ]
    return payload


def _twists_csv(results: dict) -> str:
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["t", "k", "d", "x1", "y1", "x2", "y2", "cert_prime"])
    for r in results["records"]:
        writer.writerow(
            [r["t"], r["k"], r["d"], r["x1"], r["y1"], r["x2"], r["y2"], r["cert_prime"] or ""]
        )
    return buf.getvalue()


# -- command table / parse ---------------------------------------------------------


_GROUPS = {
    "identities": "cube identities and near misses",
    "ec": "elliptic curve models and counting",
    "ff": "the curve over Q(T) and its L-function",
    "surface": "elliptic surface analysis",
    "twists": "specializations to cubic twists",
}

# (group, command): (handler, help, [(option, its argparse keywords), ...]),
# in the order of the help; the one declaration of every command.
_COMMANDS = {
    ("identities", "verify"): (
        _run_identities_verify, "verify the classical identities symbolically", []),
    ("identities", "taxicab"): (
        _run_identities_taxicab, "numbers with several two-cube representations", [
            ("--bound", dict(type=int, required=True)),
            ("--reps", dict(type=int, default=2))]),
    ("identities", "nearmiss"): (
        _run_identities_nearmiss, "x^3 + y^3 = z^3 +/- 1 families", [
            ("--family", dict(choices=("zero", "infinity"), default="zero")),
            ("--count", dict(type=int, default=10))]),
    ("ec", "count"): (_run_ec_count, "count points of v^2 = u^3 + A over F_{p^n}", [
        ("--p", dict(type=int, required=True)),
        ("--n", dict(type=int, default=1)),
        ("--a", dict(type=str, required=True, help="integer, or comma digits low-to-high"))]),
    ("ec", "map"): (_run_ec_map, "map a Hesse point to the Weierstrass model", [
        ("--d", dict(type=str, required=True)),
        ("--x", dict(type=str, required=True)),
        ("--y", dict(type=str, required=True))]),
    ("ff", "rank"): (_run_ff_rank, "rank bounds over Q(T) and geometrically", [
        ("--p", dict(type=int, default=17))]),
    ("ff", "lfunction"): (_run_ff_lfunction, "degree-8 L-polynomial mod p", [
        ("--p", dict(type=int, required=True)),
        ("--direct", dict(action="store_true", help="count the character sums S_1..S_4 directly"))]),
    ("ff", "differentials"): (
        _run_ff_differentials, "pullback differentials of the sections", []),
    ("surface", "analyze"): (
        _run_surface_analyze, "fibers, Euler number, K3 flag, Picard number", [
            ("--k", dict(type=str, default=None, help="custom squarefree k(T)"))]),
    ("twists", "table"): (_run_twists_table, "twist records for integer t in a range", [
        ("--from", dict(dest="t_from", type=int, required=True)),
        ("--to", dict(dest="t_to", type=int, required=True)),
        ("--certify", dict(action="store_true")),
        ("--budget", dict(type=int, default=50)),
        ("--format", dict(choices=("json", "csv"), default="json"))]),
}

_NEGATIVE_INT = re.compile(r"-[0-9]+")


def _table_parse(flags: list, words: list[str]) -> SimpleNamespace | None:
    """The namespace a leaf parser of these flags gives words, every dest in
    declaration order and defaults included, or None unless argparse would
    parse words the same way: each word is an exact option string, seen once;
    a value follows each value flag, starting with '-' only as an ASCII
    negative integer, and converts by its type into its choices; every
    required flag is given."""
    table, given, rest = dict(flags), {}, iter(words)
    for word in rest:
        kw = table.get(word)
        if kw is None or word in given:
            return None
        if kw.get("action") == "store_true":
            given[word] = True
            continue
        value = next(rest, None)
        if value is None or value[:1] == "-" and not _NEGATIVE_INT.fullmatch(value):
            return None
        try:
            given[word] = value = kw.get("type", str)(value)
        except (TypeError, ValueError):
            return None
        if value not in kw.get("choices", (value,)):
            return None
    if any(kw.get("required") and option not in given for option, kw in flags):
        return None
    args = SimpleNamespace()
    for option, kw in flags:
        default = kw.get("default", False if "action" in kw else None)  # store_true: False
        setattr(args, kw.get("dest", option[2:]), given.get(option, default))
    return args


@lru_cache(maxsize=1)
def _command_tree() -> tuple[argparse.ArgumentParser, dict]:
    """The argparse tree of _COMMANDS, built once per process (parsing does
    not mutate it), and its leaf parser by (group, command)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="twocubes", description="Exact computations around sums of two cubes."
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {
        name: top.add_parser(name, help=help).add_subparsers(dest="command", required=True)
        for name, help in _GROUPS.items()
    }
    leaves = {}
    for (group, command), (_, help, flags) in _COMMANDS.items():
        leaves[(group, command)] = leaf = groups[group].add_parser(command, help=help)
        for option, kw in flags:
            leaf.add_argument(option, **kw)
    return parser, leaves


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of every command."""
    return _command_tree()[0]


def _parse(argv: list[str]):
    """(group, command, parsed flags, handler) for argv.

    A known (group, command) reads argv[2:] with _table_parse, in one pass
    over its declared flags and with no argparse.  Whatever that declines
    goes to argparse, the one source of help and errors: the leaf parser of
    (group, command), which the tree would hand argv[2:] to unchanged, and
    then the full tree, which prints the help or the error and exits with
    its code: an unknown command, fewer than two words, or arguments the
    leaf leaves over (`twocubes: error: unrecognized arguments`).
    """
    key = tuple(argv[:2])
    if key in _COMMANDS:
        handler, _, flags = _COMMANDS[key]
        args, rest = _table_parse(flags, argv[2:]), []
        if args is None:
            args, rest = _command_tree()[1][key].parse_known_args(argv[2:])
        if not rest:
            return argv[0], argv[1], args, handler
    args = build_parser().parse_args(argv)
    return args.group, args.command, args, _COMMANDS[(args.group, args.command)][0]


def dispatch(argv: list[str]) -> tuple[RunReport, str | None]:
    """Run one subcommand; returns the report and an optional CSV body.

    A valid command is read from the command table in one pass and builds no
    argparse parser (`_parse`); the report's parameters are its flags in
    declaration order, those left at None omitted."""
    group, command, args, handler = _parse(argv)
    params = {
        k: v for k, v in vars(args).items() if k not in ("group", "command") and v is not None
    }
    started = time.perf_counter()
    try:
        results = handler(args)
        status = "ok"
    except Exception as exc:  # surfaced in the report, nonzero exit
        results = {"error": f"{type(exc).__name__}: {exc}"}
        status = "failed"
    timing = time.perf_counter() - started
    if (
        status == "ok"
        and group == "twists"
        and args.certify
        and results.get("summary", {}).get("uncertified", 0) > 0
    ):
        status = "exhausted"
    report = RunReport(
        f"{group} {command}", {k: str(v) for k, v in params.items()}, results, status, timing,
    )
    csv_body = None
    if getattr(args, "format", "json") == "csv" and status != "failed":
        csv_body = _twists_csv(results)
    return report, csv_body


def main(argv: list[str] | None = None) -> int:
    report, csv_body = dispatch(sys.argv[1:] if argv is None else argv)
    if csv_body is not None:
        sys.stdout.write(csv_body)
    else:
        json.dump(report.to_json(), sys.stdout, indent=2)
        sys.stdout.write("\n")
    return 0 if report.status == "ok" else 1


if __name__ == "__main__":
    sys.exit(main())
