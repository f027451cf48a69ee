"""Tests for the identity suites, taxicab search, and near-miss families."""

import decimal
import random
import sys
from fractions import Fraction

import pytest

from twocubes import identities
from twocubes.budget import MAX_NEARMISS_COUNT
from twocubes.cli import dispatch
from twocubes.exact.poly import _int_mul
from twocubes.identities import (
    NEARMISS_CONTEXT,
    NEARMISS_FAMILIES,
    NEARMISS_RECURRENCE_ORDER,
    CubeQuadruple,
    IdentityError,
    NearMissError,
    euler_family_symbolic_check,
    nearmiss_stream,
    taxicab_search,
    verify_entry20,
    verify_euler_family,
    verify_ramanujan_1913,
)


def test_ramanujan_1913_zero_polynomial():
    report = verify_ramanujan_1913()
    assert report.zero_polynomial
    assert report.offending_point is None


# (forms, signs of the cubes, degree bounds of the grid, variables) of each grid proof
GRID_PROOFS = {
    "1913": (identities.ramanujan_1913_forms, identities.RAMANUJAN_1913_SIGNS,
             identities.RAMANUJAN_1913_DEGREES, "A B"),
    "entry20": (identities.entry20_forms, identities.ENTRY20_SIGNS,
                identities.ENTRY20_DEGREES, "M P"),
    "euler": (identities.euler_family_forms, identities.EULER_SIGNS,
              identities.EULER_DEGREES, "a b c"),
}


@pytest.mark.parametrize("name", sorted(GRID_PROOFS))
def test_grid_proof_matches_sympy_and_its_grid_bounds_every_cube(name):
    """sympy expands each identity to 0, and every cube has degree at most the
    grid's bound in each variable, so the grid is one larger than the degree of
    the difference in each variable and a false identity cannot vanish on it."""
    import sympy

    forms, signs, degrees, names = GRID_PROOFS[name]
    xs = sympy.symbols(names)
    assert len(degrees) == len(xs)
    assert sympy.expand(sum(s * f**3 for s, f in zip(signs, forms(*xs)))) == 0
    generic = (*xs, sympy.Symbol("d")) if name == "euler" else xs  # for every d, not only 3
    for cube in (f**3 for f in forms(*generic)):
        poly = sympy.Poly(cube, *xs)
        assert all(poly.degree(x) <= d for x, d in zip(xs, degrees)), (name, cube)


_FORMS_1913 = identities.ramanujan_1913_forms
_FORMS_ENTRY20 = identities.entry20_forms


def _planted_1913(A, B):
    lhs, r1, r2, r3 = _FORMS_1913(A, B)
    return lhs, r1 + A * B, r2, r3  # 5AB becomes 6AB in r1


def _planted_entry20(M, P):
    t1, t2, t3, rhs = _FORMS_ENTRY20(M, P)
    return t1, t2, t3, rhs + M**4 * P  # -3M^4 P becomes -2M^4 P in rhs


@pytest.mark.parametrize("name,planted,verify", [
    ("ramanujan_1913_forms", _planted_1913, verify_ramanujan_1913),
    ("entry20_forms", _planted_entry20, verify_entry20),
])
def test_grid_proof_catches_a_planted_coefficient(monkeypatch, name, planted, verify):
    monkeypatch.setattr(identities, name, planted)
    report = verify()
    assert not report.zero_polynomial
    assert report.offending_point is not None
    doc = report.to_json()
    assert doc["offending_point"] == [str(v) for v in report.offending_point]
    assert doc["specializations"] == []


def test_ramanujan_1913_specializations():
    report = verify_ramanujan_1913()
    by_key = {(s["A"], s["B"], s["scale"]): s for s in report.specializations}
    base = by_key[("1", "0", "1")]
    assert base["cubes"] == ["6", "3", "4", "5"]  # 216 = 27 + 64 + 125
    scaled = by_key[("2", "-1", "3")]
    assert scaled["cubes"] == ["12", "-1", "10", "9"]
    assert all(s["holds"] for s in report.specializations)


def test_entry20_zero_polynomial_and_values():
    report = verify_entry20()
    assert report.zero_polynomial
    vals = {(s["M"], s["P"]): s for s in report.specializations}
    assert vals[("2", "0")]["terms"] == ["84", "105", "63", "126"]
    assert 84**3 + 105**3 + 63**3 == 126**3  # direct arithmetic oracle
    assert vals[("1", "0")]["holds"]


def test_euler_family_symbolic():
    assert euler_family_symbolic_check()


def test_euler_family_symbolic_rejects_perturbed_family():
    # D = 2c^2 instead of 3c^2 breaks the identity; the check is not vacuous
    assert not euler_family_symbolic_check(d=2)
    # D = 0 collapses the forms to (N^2 c, 0, 0, N^2 c), a trivial solution with
    # L = N/D undefined: refused, not passed
    with pytest.raises(ValueError, match="d = 0"):
        euler_family_symbolic_check(d=0)


def test_euler_family_taxicab_point():
    q = verify_euler_family(3, 0, 1)
    assert (q.x, q.y, q.z, q.w) == (12, 1, 10, 9)
    assert q.common_value() == 1729


def test_euler_family_degenerate():
    q = verify_euler_family(1, 1, 1)
    assert (q.x, q.y, q.z, q.w) == (2, 2, 2, 2)


def test_euler_family_rejects_gamma_zero():
    with pytest.raises(ValueError):
        verify_euler_family(1, 2, 0)


def test_euler_family_random_rationals():
    rng = random.Random(41)
    for _ in range(100):
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        g = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        q = verify_euler_family(a, b, g)  # construction re-checks the relation
        assert q.x**3 + q.y**3 == q.z**3 + q.w**3


def test_cube_quadruple_rejects_wrong_relation():
    with pytest.raises(IdentityError):
        CubeQuadruple(Fraction(1), Fraction(1), Fraction(1), Fraction(2))


def test_cube_quadruple_repr_names_its_fields():
    q = verify_euler_family(1, 2, 3)
    assert repr(q) == ("CubeQuadruple(x=Fraction(292, 243), y=Fraction(95, 27), "
                       "z=Fraction(88, 27), w=Fraction(535, 243))")
    assert (q.x, q.y, q.z, q.w) == tuple(q) and q.common_value() == q.z**3 + q.w**3


# -- taxicab ---------------------------------------------------------------------


def _taxicab_oracle(bound, reps=2):
    hits = {}
    a = 1
    while a**3 + 1 <= bound:
        for b in range(a, bound):
            s = a**3 + b**3
            if s > bound:
                break
            hits.setdefault(s, []).append((a, b))
        a += 1
    return sorted((n, sorted(ps)) for n, ps in hits.items() if len(ps) >= reps)


def test_taxicab_first_example():
    assert taxicab_search(2000, 2) == [(1729, [(1, 12), (9, 10)])]


def test_taxicab_below_threshold_empty():
    assert taxicab_search(1728, 2) == []


def test_taxicab_second_entry():
    found = taxicab_search(20000, 2)
    assert found[0][0] == 1729
    assert found[1] == (4104, [(2, 16), (9, 15)])


def test_taxicab_matches_bruteforce_oracle():
    assert taxicab_search(10**5, 2) == _taxicab_oracle(10**5, 2)
    assert taxicab_search(10**5, 3) == _taxicab_oracle(10**5, 3)


def test_taxicab_three_representations_match_the_oracle():
    found = taxicab_search(10**8, 3)
    assert found == _taxicab_oracle(10**8, 3)
    assert found == [(87539319, [(167, 436), (228, 423), (255, 414)])]


def test_taxicab_every_small_bound_matches_the_oracle():
    # Below 3000 there is one window, whose last edge is the bound itself:
    # this puts it on every sum, 1729 among them, and one below each.
    for bound in range(2, 3001):
        for reps in (2, 3):
            assert taxicab_search(bound, reps) == _taxicab_oracle(bound, reps), (bound, reps)


@pytest.mark.parametrize("bound", [87539319, 87539318])
def test_taxicab_bound_at_the_first_three_way_sum(bound):
    # 87539319 = 167^3 + 436^3 = 228^3 + 423^3 = 255^3 + 414^3
    found = taxicab_search(bound, 3)
    assert found == _taxicab_oracle(bound, 3)
    assert len(found) == (bound == 87539319)


def test_taxicab_two_representations_match_the_oracle_at_the_benchmark_bound():
    assert taxicab_search(10**8, 2) == _taxicab_oracle(10**8, 2)


@pytest.mark.parametrize("pairs", [1, 7])
def test_taxicab_tiny_windows_match_the_oracle(monkeypatch, pairs):
    # Thousands of windows, so that many edges fall on sums and between the
    # pairs of one sum.
    monkeypatch.setattr(identities, "_PAIRS_PER_WINDOW", pairs)
    for bound in (2, 1729, 4104, 20683, 10**5, 10**6):
        for reps in (2, 3):
            assert taxicab_search(bound, reps) == _taxicab_oracle(bound, reps), (bound, reps)


def test_taxicab_memory_grows_with_the_cube_root_of_the_bound():
    """The cube tables hold one entry per b, about 215 at 10^7, and one
    window holds about 4096 packed keys at any bound; the sum-indexed table
    of an earlier version held all 20 000 pairs at once (4 MB)."""
    import tracemalloc

    tracemalloc.start()
    try:
        taxicab_search(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_taxicab_memory_stays_under_1_mib_at_the_benchmark_bound():
    import tracemalloc

    tracemalloc.start()
    try:
        taxicab_search(10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_taxicab_rejects_bad_args():
    with pytest.raises(ValueError):
        taxicab_search(1)
    with pytest.raises(ValueError):
        taxicab_search(100, 1)


# -- near-miss families ------------------------------------------------------------


def test_nearmiss_zero_family_first_tuples():
    tuples = nearmiss_stream("zero", 3)
    assert tuples[0] == (0, 1, 2, 2, 1)
    assert tuples[1] == (1, 135, 138, 172, -1)
    assert 135**3 + 138**3 == 172**3 - 1  # integer-arithmetic oracle
    # oracle: run the recurrence a_n = 82 a_{n-1} + 82 a_{n-2} - a_{n-3} + num_n by hand
    a0 = 1
    a1 = 82 * a0 + 53
    a2 = 82 * a1 + 82 * a0 + 9
    assert [a0, a1, a2] == [1, 135, 11161]
    assert [t[1] for t in tuples] == [a0, a1, a2]


def test_nearmiss_zero_family_ten_verified():
    tuples = nearmiss_stream("zero", 10)
    assert len(tuples) == 10
    for n, *abc, eps in tuples:
        a, b, c = map(int, abc)  # Decimals: the default context would round the cubes
        assert a**3 + b**3 - c**3 == eps == (-1) ** n


def test_nearmiss_infinity_family():
    tuples = nearmiss_stream("infinity", 6)
    assert tuples[0] == (1, 9, -12, -10, 1)
    assert 9**3 + (-12) ** 3 - (-10) ** 3 == 1
    assert tuples[1][1:] == (791, -1010, -812, -1)
    for n, *abc, eps in tuples:
        a, b, c = map(int, abc)
        assert a**3 + b**3 - c**3 == eps == (-1) ** (n + 1)


def test_nearmiss_recurrence_property():
    # beyond the numerator degree the sequences satisfy the denominator recurrence
    tuples = nearmiss_stream("zero", 8)
    seqs = list(zip(*[(int(a), int(b), int(c)) for (_, a, b, c, _) in tuples]))
    for seq in seqs:
        for n in range(3, len(seq)):
            assert seq[n] == 82 * seq[n - 1] + 82 * seq[n - 2] - seq[n - 3]


def test_nearmiss_bad_config_aborts_with_index(monkeypatch):
    broken = ((1, 53, 9), (2, -26, -12), (2, 8, -9))
    monkeypatch.setitem(identities.NEARMISS_FAMILIES, "zero", (broken, 0))
    # the corrupted quadratic coefficient first shows up in the n=2 coefficient
    with pytest.raises(NearMissError, match="n=2"):
        nearmiss_stream("zero", 3)
    # the corrupted cubic coefficient at infinity first shows up at n=3
    broken = ((0, 9, 53, 1), (0, -12, -26, 2), (0, -10, 8, 3))
    monkeypatch.setitem(identities.NEARMISS_FAMILIES, "infinity", (broken, 1))
    with pytest.raises(NearMissError, match="n=3"):
        nearmiss_stream("infinity", 3)


def _series(num, total):
    """The first `total` Taylor coefficients of num / (1 - 82x - 82x^2 + x^3) at 0."""
    s = []
    for n in range(total):
        v = num[n] if n < len(num) else 0
        s.append(v + sum(c * s[n - j] for j, c in ((1, 82), (2, 82), (3, -1)) if n >= j))
    return s


def _defects(numerators, offset, count):
    """D_n = a_n^3 + b_n^3 - c_n^3 - (-1)^(n - offset) for n = offset .. offset + count - 1."""
    a, b, c = (_series(num, offset + count) for num in numerators)
    return [a[n] ** 3 + b[n] ** 3 - c[n] ** 3 - (-1) ** (n - offset)
            for n in range(offset, offset + count)]


def _first_failure(numerators, offset, count):
    """The per-term cube check: the first n whose tuple misses the relation, or None."""
    return next((offset + i for i, D in enumerate(_defects(numerators, offset, count)) if D), None)


@pytest.mark.parametrize("family", sorted(NEARMISS_FAMILIES))
def test_nearmiss_every_term_to_the_cap_by_cubes(family):
    # the per-term check the stream ran before the recurrence proof replaced it
    numerators, offset = NEARMISS_FAMILIES[family]
    assert _first_failure(numerators, offset, MAX_NEARMISS_COUNT) is None
    # the CLI prints every term of the stream as str() of the oracle's int would
    series = [_series(num, offset + MAX_NEARMISS_COUNT) for num in numerators]
    report, _ = dispatch(["identities", "nearmiss", "--family", family,
                          "--count", str(MAX_NEARMISS_COUNT)])
    assert report.status == "ok"
    assert [(t["n"], t["a"], t["b"], t["c"], t["epsilon"]) for t in report.results["tuples"]] == [
        (n, *(str(s[n]) for s in series), (-1) ** (n - offset))
        for n in range(offset, offset + MAX_NEARMISS_COUNT)
    ]
    # integer Decimals only: exponent 0 rules out E notation; the strings rule out -0
    assert all(isinstance(v, decimal.Decimal) and v.as_tuple().exponent == 0
               for t in nearmiss_stream(family, MAX_NEARMISS_COUNT) for v in t[1:4])


def test_nearmiss_defect_obeys_the_order_7_recurrence():
    # (z^2 - 571538z + 1)(z^2 - 83z + 1)(z^2 + 6887z + 1)(z + 1): its roots are
    # r^+-3, r^+-1, -r^+-2 and -1, for r + 1/r = 83
    char = [1]
    for f in ([1, -571538, 1], [1, -83, 1], [1, 6887, 1], [1, 1]):
        char = _int_mul(char, f)
    assert len(char) - 1 == NEARMISS_RECURRENCE_ORDER
    rng = random.Random(21)
    for offset in (0, 1):
        for _ in range(10):
            nums = [[rng.randint(-99, 99) for _ in range(3 + offset)] for _ in range(3)]
            D = _defects(nums, offset, 60 - offset)
            assert any(D)
            for m in range(len(D) - len(char) + 1):
                assert sum(ci * D[m + i] for i, ci in enumerate(char)) == 0, (nums, m)


def test_nearmiss_planted_error_is_caught_at_the_oracles_index(monkeypatch):
    rng = random.Random(7)
    for family in sorted(NEARMISS_FAMILIES):
        numerators, offset = NEARMISS_FAMILIES[family]
        for _ in range(10):
            nums = [list(num) for num in numerators]
            nums[rng.randrange(3)][rng.randrange(offset, 3 + offset)] += rng.choice((-2, -1, 1, 2))
            n = _first_failure(nums, offset, 50)
            assert n is not None
            monkeypatch.setitem(identities.NEARMISS_FAMILIES, family, (nums, offset))
            with pytest.raises(NearMissError, match=f"n={n}:"):
                nearmiss_stream(family, 50)


def test_nearmiss_refuses_a_numerator_outside_the_proof(monkeypatch):
    # a trailing zero is harmless, but the premise is read off the length
    for family, (numerators, offset) in NEARMISS_FAMILIES.items():
        longer = (numerators[0] + (0,),) + numerators[1:]
        monkeypatch.setitem(identities.NEARMISS_FAMILIES, family, (longer, offset))
        with pytest.raises(NearMissError, match=f"more than {3 + offset} coefficients"):
            nearmiss_stream(family, 1)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int_max_str_digits limit before Python 3.11")
@pytest.mark.parametrize("family", sorted(NEARMISS_FAMILIES))
def test_nearmiss_terms_at_the_cap_still_print(family):
    # the terms are Decimals, so str(int)'s digit limit does not apply, even at its minimum
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        report, _ = dispatch(["identities", "nearmiss", "--family", family,
                              "--count", str(MAX_NEARMISS_COUNT)])
    finally:
        sys.set_int_max_str_digits(old)
    assert report.status == "ok", report.results
    assert len(report.results["tuples"][-1]["a"]) > 640


def test_nearmiss_ignores_and_keeps_the_callers_decimal_context():
    want = [tuple(map(str, t)) for t in nearmiss_stream("zero", 50)]
    with decimal.localcontext(decimal.Context(prec=5)) as ctx:
        before = repr(ctx)  # prec, rounding, exponent range, flags and traps
        got = [tuple(map(str, t)) for t in nearmiss_stream("zero", 50)]
        assert decimal.getcontext() is ctx and repr(ctx) == before
    assert got == want
    assert NEARMISS_CONTEXT.traps[decimal.Inexact] and NEARMISS_CONTEXT.traps[decimal.Rounded]
