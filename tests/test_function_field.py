"""Tests for the Q(T) curve, differentials, and the L-function machinery."""

import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from chord_oracle import Point, WeierstrassCurve, add_points, scalar_mul, to_hesse
from cm_oracle import OMEGA2, chain_differential, cm_twist, flat_rank, lift, mul
from enumeration import count_by_enumeration
from newton_oracle import power_sums
from qt_oracle import T, qt
from trace_oracle import fiber_trace_sum
from triples import triple
from twocubes.budget import MAX_BASE_FIELD, MAX_COUNTING_FIELD, BudgetError
from twocubes.elliptic import _frobenius, _zw_mul, to_weierstrass
from twocubes.exact import FiniteField, Polynomial, RationalFunction, rational_poly
from twocubes.function_field import (
    FamilyError,
    FunctionFieldCurve,
    LFunctionError,
    LPolynomial,
    _lfunction,
    _rank,
    _roots_mod_p,
    build_family,
    character_sum,
    good_prime,
    lfunction,
    SectionPoint,
    pullback_differential,
    rank_bounds,
    rank_report,
    section_add,
    section_mul,
    z_rank,
    z_rank_cm,
)
from zech_oracle import ZechLog

PAPER_L17 = (1, 0, -544, 0, 147390, 0, -45435424, 0, 6975757441)


@pytest.fixture(scope="module")
def family():
    return build_family()


# -- the family and its sections ---------------------------------------------------


def test_family_on_curve_identities(family):
    k = qt(family.k)
    assert qt(family.p1.x) ** 3 + qt(family.p1.y) ** 3 == k
    assert qt(family.p2.x) ** 3 + qt(family.p2.y) ** 3 == k


def test_family_k_values(family):
    k = family.k
    assert k(Fraction(0)) == 189
    assert family.p1.x(Fraction(0)) == 4 and family.p1.y(Fraction(0)) == 5
    assert 4**3 + 5**3 == 189
    assert k(Fraction(3)) == 46683 == 27 * 1729
    assert family.p2.x(Fraction(3)) == 30 and family.p2.y(Fraction(3)) == 27
    assert 30**3 + 27**3 == 46683


def test_family_k_expansion(family):
    # leading and constant coefficients of 63(3T^2-3T+1)(T^2+T+1)(T^2-3T+3)
    assert family.k.degree == 6
    assert family.k.lc == 189
    assert family.k.coeff(0) == 189


# -- pullback differentials ----------------------------------------------------------


def _wronskian(P):
    return _wronskian_of(P.x, P.y)


def _wronskian_of(x, y):
    """x'y - xy' in sympy's Q(T)."""
    x, y = qt(x), qt(y)
    return x.diff(T) * y - x * y.diff(T)


def test_wronskian_values(family):
    # symbolic differentiation oracle, done by hand on the quadratics:
    # w1 = (12T-4)(-3T^2-5T+5) - (6T^2-4T+4)(-6T-5) = -42T^2 + 84T
    oracle1 = _wronskian(family.p1)
    assert oracle1 == -42 * T**2 + 84 * T
    w1 = pullback_differential(family.p1)
    assert w1.den == rational_poly(1) and qt(w1.num) == oracle1
    # w2 = -42(2T - 1)
    w2 = pullback_differential(family.p2)
    assert w2.den == rational_poly(1) and w2.num == rational_poly(42, -84)


def test_wronskian_degree_bound(family):
    # holomorphy: quadratic sections give deg <= 2
    rng = random.Random(67)
    for _ in range(25):
        x = rational_poly(*(rng.randint(-9, 9) for _ in range(3)))
        y = rational_poly(*(rng.randint(-9, 9) for _ in range(3)))
        w = x.derivative() * y - x * y.derivative()
        assert w.is_zero() or w.degree <= 2


def test_cm_twist_scales_by_cube_root(family):
    w1 = pullback_differential(family.p1)
    tw = chain_differential(*cm_twist(family.p1))
    # (wx)'(wy) - (wx)(wy)' = w^2 (x'y - xy'), and w^2 = -1 - w
    assert tw == mul(OMEGA2, lift(w1))
    assert tw == (-qt(w1), -qt(w1))


def test_z_rank_examples(family):
    w1 = pullback_differential(family.p1)
    w2 = pullback_differential(family.p2)
    assert z_rank([w1, w2]) == 2
    cm = [lift(w1), lift(w2), chain_differential(*cm_twist(family.p1)),
          chain_differential(*cm_twist(family.p2))]
    assert flat_rank(cm) == 4 == z_rank_cm([w1, w2])
    assert z_rank([w1, RationalFunction(-w1.num, w1.den)]) == 1
    assert z_rank([]) == 0


def _section_set(family, name):
    P1, P2 = family.p1, family.p2
    return {
        "P1": [P1],
        "P1,2P1": [P1, section_mul(family, 2, P1)],
        "P1,P2": [P1, P2],
        "P1,P2,P1+P2": [P1, P2, section_add(family, P1, P2)],
    }[name]


@pytest.mark.parametrize(
    "name, rank", [("P1", 2), ("P1,2P1", 2), ("P1,P2", 4), ("P1,P2,P1+P2", 4)]
)
def test_z_rank_cm_matches_the_q_omega_chain(family, name, rank):
    sections = _section_set(family, name)
    diffs = [pullback_differential(P) for P in sections]
    twisted = [chain_differential(*cm_twist(P)) for P in sections]
    for d, t in zip(diffs, twisted):
        assert t == mul(OMEGA2, lift(d))  # lambda([omega]P) = omega^2 lambda(P)
    assert z_rank_cm(diffs) == flat_rank([lift(d) for d in diffs] + twisted) == rank


def _random_poly(rng, terms, bound=9):
    return rational_poly(*(Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                           for _ in range(terms)))


def _random_w(rng):
    """A rational w whose denominator has degree 0, 1 or 2 (0 half the time)."""
    den = rational_poly(*(rng.randint(-5, 5) for _ in range(rng.choice((0, 0, 1, 2)))),
                        rng.randint(1, 3))
    return RationalFunction(_random_poly(rng, rng.randint(1, 4)), den)


def test_z_rank_cm_is_twice_z_rank_against_the_q_omega_oracle():
    """The rows (w, 0) and (-w, -w) span {(v, 0), (0, v) : v in span(w)}, so
    z_rank_cm = 2 z_rank; sympy ranks those rows over Q(omega)(T) directly,
    on sets of 1..5 w with planted dependent members in every other set."""
    rng = random.Random(22)
    deficient = rational = 0
    for trial in range(60):
        ws = [_random_w(rng) for _ in range(rng.randint(1, 3))]
        while trial % 2 and len(ws) < 5 and rng.random() < 0.8:
            u, v = rng.choice(ws), rng.choice(ws)
            a, c = Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-4, 4)
            ws.append(RationalFunction(a * u.num * v.den + c * v.num * u.den, u.den * v.den))
        rng.shuffle(ws)
        oracle = flat_rank([lift(w) for w in ws] + [mul(OMEGA2, lift(w)) for w in ws])
        assert z_rank_cm(ws) == oracle == 2 * z_rank(ws), ws
        deficient += z_rank(ws) < len(ws)
        rational += any(w.den.degree for w in ws)
    assert deficient >= 10 and rational >= 10


def test_q_omega_sections_are_rejected(family):
    """A coefficient outside Q (here in F_17, or a float) is refused where it
    enters, when a RationalFunction is built, so no section or differential
    over another field reaches the integer kernel."""
    F17 = FiniteField(17)
    x = family.p1.x.num
    reduced = Polynomial(tuple(F17(int(c)) for c in x.coeffs))
    for num, den in ((reduced, None), (x, reduced), (F17(3), None), (1, 0.5)):
        with pytest.raises(TypeError, match="coefficients in Q"):
            RationalFunction(num, den)


def test_rank_is_exact_on_large_integers():
    # determinant -1; float elimination loses the second pivot
    assert _rank([[2**60 + 1, 2**60], [2**60, 2**60 - 1]]) == 2


# -- the lambda homomorphism -----------------------------------------------------------
# lambda(P + Q) = lambda(P) + lambda(Q), checked in sympy's Q(T).


def _lam(P):
    return qt(pullback_differential(P))


def test_lambda_additivity_examples(family):
    P1, P2 = family.p1, family.p2
    assert _lam(section_add(family, P1, P2)) == _lam(P1) + _lam(P2)
    assert _lam(section_add(family, P1, P1)) == 2 * _lam(P1)
    # P + (-P) lands on the identity, and lambda(-P) = -lambda(P): lambda(O) = 0
    minus_p1 = SectionPoint(P1.Y, P1.X, P1.Z)  # (X : Y : Z) -> (Y : X : Z) is negation
    assert section_add(family, P1, minus_p1) is None
    assert _lam(minus_p1) == -_lam(P1)


def test_lambda_check_rejects_a_section_at_the_flex(family):
    """x + y = 0 is the flex, no section of the curve: lambda(P + Q) is never formed."""
    flex = SectionPoint(*triple(rational_poly(0, 1), rational_poly(0, -1)))
    with pytest.raises(ValueError):
        section_add(family, flex, family.p1)


def test_lambda_additivity_random_combinations(family):
    rng = random.Random(71)
    w1, w2 = _lam(family.p1), _lam(family.p2)
    tried = 0
    for _ in range(20):
        m = rng.randint(-2, 2)
        n = rng.randint(-2, 2)
        if (m, n) == (0, 0):
            continue
        S = section_add(
            family, section_mul(family, m, family.p1), section_mul(family, n, family.p2)
        )
        expected = m * w1 + n * w2
        if S is None:
            assert expected == 0
        else:
            assert _lam(S) == expected
        tried += 1
    assert tried >= 15


def test_section_arithmetic_stays_on_curve(family):
    S = section_add(family, family.p1, family.p2)
    assert S is not None and S.on_curve(family.k)
    D = section_mul(family, 2, family.p1)
    assert D is not None and D.on_curve(family.k)
    assert section_add(family, family.p1, family.p1) == D  # doubling reached through addition
    X, Y, Z = family.p1
    assert section_add(family, family.p1, SectionPoint(Y, X, Z)) is None


def _poly_section(x, y):
    return SectionPoint(*triple(x, y))


def test_on_curve_clears_the_denominator_of_k(family):
    x, y = family.p1.x.num, family.p1.y.num  # polynomial sections: den = 1
    half = _poly_section(x * Fraction(1, 2), y * Fraction(1, 2))
    assert half.on_curve(family.k * Fraction(1, 8))
    assert not half.on_curve(family.k)
    assert not family.p1.on_curve(family.k * Fraction(1, 8))
    assert not _poly_section(x + 1, y).on_curve(family.k)


def test_multiples_of_the_identity_are_the_identity(family):
    # the identity is the point (1 : -1 : 0), so a negative n needs no branch for it
    for n in (-3, -1, 0, 1, 2):
        assert section_mul(family, n, None) is None
    assert section_add(family, None, None) is None
    assert section_add(family, None, family.p1) == family.p1


# The affine chord-tangent law in sympy's Q(T), through the Hesse-Weierstrass
# map, is the oracle for the Hessian group law over Z[T] on X^3 + Y^3 = kZ^3.
# The test keeps its name from the Jacobian law that the Hessian law replaced.


def _affine_combination(curve, m, n):
    """m P1 + n P2 as a pair in sympy's Q(T), or None for the identity."""
    k = qt(curve.k)
    E = WeierstrassCurve(-432 * k * k)
    mP1, nP2 = (scalar_mul(E, c, Point(*to_weierstrass(k, qt(P.x), qt(P.y))))
                for c, P in ((m, curve.p1), (n, curve.p2)))
    S = to_hesse(k, add_points(E, mP1, nP2))
    return None if S.at_infinity else (S.x, S.y)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(-2, 3) for n in range(-2, 3)])
def test_jacobian_group_law_matches_affine_oracle(family, m, n):
    """Also the stored form: a primitive triple of int tuples with lc(Z) > 0,
    whose x and y, read off with no gcd, are the gcd-computed normal form."""
    S = section_add(family, section_mul(family, m, family.p1), section_mul(family, n, family.p2))
    assert (None if S is None else (qt(S.x), qt(S.y))) == _affine_combination(family, m, n)
    assert (S is None) if (m, n) == (0, 0) else S.on_curve(family.k)
    if S is not None:
        assert all(type(c) is int for f in S for c in f)
        assert math.gcd(*S.X, *S.Y, *S.Z) == 1 and S.Z[-1] > 0
        for f, got in ((S.X, S.x), (S.Y, S.y)):
            assert got == RationalFunction(Polynomial(f), Polynomial(S.Z))


def test_section_arithmetic_needs_integral_k(family):
    """A k outside Z[T] is refused when the curve is built, so the Hessian
    law, the sweep and specialization only ever see k over Z."""
    for k in (family.k * Fraction(1, 8), Polynomial((0.5, 1.0))):
        with pytest.raises(FamilyError, match="Z\\[T\\]"):
            FunctionFieldCurve(k, family.p1, family.p2)


def test_off_curve_sections_raise_value_error_under_python_O():
    script = """
from twocubes.function_field import SectionPoint, build_family, section_add, section_mul
fam = build_family()
X, Y, Z = fam.p1
off = SectionPoint((X[0] + 1,) + X[1:], Y, Z)  # x + 1
for bad in (off, SectionPoint((0, 1), (0, -1), (1,))):  # the second at the flex
    for call in (lambda: section_add(fam, bad, fam.p2), lambda: section_add(fam, fam.p2, bad),
                 lambda: section_mul(fam, 1, bad), lambda: section_mul(fam, -2, bad),
                 lambda: section_mul(fam, 3, bad)):
        try:
            call()
            print("accepted")
        except ValueError:
            print("ValueError")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for flags in ([], ["-O"]):
        argv = [sys.executable, *flags, "-c", script]
        out = subprocess.run(argv, capture_output=True, text=True, env=env, check=True, timeout=120)
        assert out.stdout.split() == ["ValueError"] * 10, flags


def test_section_arithmetic_rejects_non_rational_coefficients(family):
    """Section coordinates over F_17 or in floats cannot be cleared to a
    triple over Z[T], so the Hessian law and the Wronskian only ever see
    Q(T)."""
    F17 = FiniteField(17)
    for bad in (Polynomial((F17(4), F17(1))), Polynomial((0.5, 1.0))):
        with pytest.raises(TypeError):
            _poly_section(bad, family.p1.y.num)


def test_fraction_free_wronskian_matches_rational_function_chain(family):
    """The Wronskian over Z[T] against the chain rule in sympy's Q(T)."""
    S = section_add(family, section_mul(family, 2, family.p1), section_mul(family, -1, family.p2))
    assert S.x.den.degree > 0
    for P in (family.p1, family.p2, S):
        assert qt(pullback_differential(P)) == _wronskian(P)


def test_triple_wronskian_matches_the_chain_rule_off_any_curve():
    """x = a/b and y = c/e with b != e, on no curve: (X'Y - XY')/Z^2 on the
    triple (ae : cb : be) is x'y - xy' for any rational x and y.  The oracle
    reads x and y, not the triple, whose x and y are in lowest terms on the
    curve only."""
    rng = random.Random(23)
    distinct = 0
    for _ in range(40):
        a, c = (_random_poly(rng, rng.randint(1, 4)) for _ in range(2))
        b, e = (_random_poly(rng, rng.randint(1, 3), 5) + rational_poly(0, 0, 0, 1)
                for _ in range(2))  # T^3 keeps both denominators nonzero
        if b == e:
            continue
        x, y = RationalFunction(a, b), RationalFunction(c, e)
        assert qt(pullback_differential(SectionPoint(*triple(x, y)))) == _wronskian_of(x, y)
        distinct += x.den != y.den
    assert distinct >= 30


# -- the L-function ---------------------------------------------------------------------


def test_good_prime_screen(family):
    assert good_prime(family, 5)
    assert good_prime(family, 17)
    assert not good_prime(family, 7)  # divides lc(k) = 189
    assert not good_prime(family, 3)
    assert not good_prime(family, 15)
    with pytest.raises(FamilyError, match="Z\\[T\\]"):  # refused before any prime
        FunctionFieldCurve(family.k * Fraction(1, 8), family.p1, family.p2)


def test_an_equal_curve_is_the_same_cache_key(family):
    """A curve compares and hashes by (k, p1, p2), so an equal but distinct
    one hits the character-sum and L-function caches the family filled; a
    curve cannot be changed under those keys."""
    twin = FunctionFieldCurve(Polynomial(family.k.coeffs), family.p1, family.p2)
    assert twin is not family and twin == family and hash(twin) == hash(family)
    assert twin != FunctionFieldCurve(2 * family.k, family.p1, family.p2)
    assert twin != (family.k, family.p1, family.p2)
    with pytest.raises(AttributeError, match="immutable"):
        twin.k = 2 * family.k
    assert twin.k == family.k and twin.over_z == family.over_z
    for cached, args in ((character_sum, (5, 1)), (_lfunction, (5, False))):
        want = cached(family, *args)
        before = cached.cache_info()
        assert cached(twin, *args) is want
        after = cached.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


_RECORD_CHECKS_SCRIPT = """
from fractions import Fraction
from twocubes.function_field import FamilyError, FunctionFieldCurve, build_family
from twocubes.identities import CubeQuadruple, IdentityError
family = build_family()
for make, error in ((lambda: FunctionFieldCurve(family.k * Fraction(1, 8), family.p1, family.p2),
                     FamilyError),
                    (lambda: CubeQuadruple(*map(Fraction, (1, 1, 1, 2))), IdentityError)):
    try:
        make()
    except error as exc:
        print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["python", "python -O"])
def test_record_checks_raise_with_and_without_asserts(flags):
    """A curve with k outside Z[T] and a quadruple off the cube relation are
    refused by their constructors, with typed errors that -O does not strip."""
    out = subprocess.run(
        [sys.executable, *flags, "-c", _RECORD_CHECKS_SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        check=True,
    )
    assert out.stdout.splitlines() == [
        "FamilyError the curve needs k(T) in Z[T]",
        "IdentityError cube relation fails for CubeQuadruple(x=Fraction(1, 1), y=Fraction(1, 1),"
        " z=Fraction(1, 1), w=Fraction(2, 1))",
    ]


@pytest.mark.parametrize("k, p", [(None, 7), (None, 3), (rational_poly(6, -7, 1), 5)])
def test_fiber_trace_sum_refuses_a_prime_that_is_not_good(family, monkeypatch, k, p):
    """63 divides every coefficient of the family's k, so k = 0 mod 3 and mod
    7; (T - 1)(T - 6) = (T - 1)^2 mod 5.  Each character sum is refused by
    name before a field is built, never an IndexError or a sweep of F_{p^2}."""
    from twocubes import function_field

    def no_field(*args):
        raise AssertionError("a field was built")

    monkeypatch.setattr(function_field, "_counting_field", no_field)
    curve = family if k is None else FunctionFieldCurve(k, family.p1, family.p2)
    with pytest.raises(LFunctionError, match=f"^{p} is not a good prime"):
        character_sum(curve, p, 1)


def cn_from_characters(curve, p, n):
    """c_n = 2 Re(alpha^(n/e) S_(n/e)), e = 1 at p = 1 mod 3 and 2 at p = 2 mod 3;
    0 when e does not divide n."""
    e = 1 if p % 3 == 1 else 2
    if n % e:
        return 0
    x, alpha = character_sum(curve, p, n // e), _frobenius(p)[0]
    for _ in range(n // e):
        x = _zw_mul(x, alpha)
    return 2 * x[0] - x[1]


def test_fiber_trace_sum_supersingular_zero(family):
    """17^n = 2 mod 3 for odd n: every good fiber is supersingular, so the
    oracle gives c_n = 0 without counting, and lfunction(17) lists c_n = 0."""
    counted = dict(lfunction(17).counted)
    for n in (1, 3, 5):
        assert fiber_trace_sum(family, 17, n) == 0 == counted[n]


# c_n as counted by the int32 log/Zech-table sweep that the class table replaced;
# the trace-table oracle and c_n = 2 Re(alpha^n S_n) must both give them
GOLDEN_CN = {
    13: {1: -38, 2: -170, 3: -13688, 4: -142130, 5: -971918},
    5: {2: -200, 4: -5000, 6: -125000, 8: -3125000},
    11: {2: -968, 4: -117128},
    17: {2: -1088, 4: -2312},
    19: {1: -68, 2: -482, 3: -30572},
    23: {2: -4232, 4: -2238728},
}


@pytest.mark.parametrize("p", sorted(GOLDEN_CN))
def test_fiber_trace_sum_goldens(family, p):
    """chi(g) for the generator g of a field is omega or omega^2 from field to
    field (omega^2 over F_{13^5}, F_19 and F_{19^3}), so c_5 at 13 and c_1, c_3
    at 19 hold only with chi read off N(g)."""
    assert {n: fiber_trace_sum(family, p, n) for n in GOLDEN_CN[p]} == GOLDEN_CN[p]
    assert {n: cn_from_characters(family, p, n) for n in GOLDEN_CN[p]} == GOLDEN_CN[p]


def test_fiber_trace_sum_refuses_fields_above_the_table_budget(family):
    """The work bound on the counted field, and the bound on F_Q itself where
    an S_m with m prime to 6 is counted over F_{B^m} with no subfield."""
    assert 23**6 <= MAX_COUNTING_FIELD < 29**6
    assert 787**3 <= MAX_COUNTING_FIELD < 811**3
    with pytest.raises(BudgetError, match="q = 29\\^6 exceeds"):
        character_sum(family, 29, 3)
    assert 13**5 <= MAX_BASE_FIELD < 19**5
    with pytest.raises(BudgetError, match="Q = 19\\^5 exceeds the cap 524288"):
        character_sum(family, 19, 5)


@pytest.mark.parametrize("p, direct, n", [(101, False, 6), (29, False, 6), (29, True, 8), (811, False, 3)])
def test_lfunction_refuses_oversized_fields_before_counting(p, direct, n):
    t0 = time.perf_counter()
    with pytest.raises(BudgetError, match=f"q = {p}\\^{n} exceeds the cap 526385152"):
        lfunction(p, direct=direct)
    assert time.perf_counter() - t0 < 1.0


def clear_counting_caches():
    """Forget every S_m, counting engine and root set this process has counted."""
    from twocubes import function_field

    for cached in (character_sum, function_field._counting_engine,
                   function_field._counting_roots, _lfunction):
        cached.cache_clear()


def test_character_sum_memory_over_f11_8_is_far_below_q_bytes(family):
    """S_4 at p = 11 counts F_{11^8}, q = 214 MB, as m = 2 over F_Q = F_{11^4}:
    the sweep holds O(Q) bytes of Zech logarithms and root rows and one block
    of BLOCK class sums at a time, and measures about 3 MiB, held to 8 MiB."""
    import tracemalloc

    from twocubes.function_field import _counting_field

    _counting_field(11, 4).generator()  # built once per process, not the sweep's
    clear_counting_caches()  # so that S_4 is counted here, engine included
    tracemalloc.start()
    try:
        S = character_sum(family, 11, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert S == (-58564, 0)
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("p, direct", [(5, False), (5, True), (13, True), (17, False)])
def test_only_f_b_and_f_b2_are_built_for_counting(p, direct, monkeypatch):
    """Every S_m is counted over F_B, B = p or p^2 with 3 | B - 1, and the S_4
    of direct=True over F_{B^2}: no larger F_{p^n} is built, and exact.zechlog
    has no class table of a whole field left to build."""
    from twocubes import function_field
    from twocubes.exact import zechlog

    expected, built = lfunction(p, direct=direct).coeffs, []

    def spy(q, n):
        built.append((q, n))
        return FiniteField(q, n)

    monkeypatch.setattr(function_field, "_counting_field", spy)
    clear_counting_caches()
    assert _lfunction.__wrapped__(build_family(), p, direct).coeffs == expected
    e = 1 if p % 3 == 1 else 2
    assert set(built) == ({(p, e), (p, 2 * e)} if direct else {(p, e)})
    assert not hasattr(zechlog, "ZechLog") and "ZechLog" not in zechlog.__all__
    clear_counting_caches()  # nothing built through the spy outlives the test


def test_each_engine_is_built_and_each_s_m_counted_once(monkeypatch):
    """lfunction(17) counts S_1..S_3 over F_{17^2} with one engine and one root
    set, and lfunction(5, direct=True) after lfunction(5) counts S_4 alone,
    over F_{5^4}: S_1..S_3 are not counted again.  Every L is unchanged."""
    from twocubes import function_field
    from twocubes.exact import zechlog

    expected = [lfunction(17), lfunction(5), lfunction(5, direct=True)]
    built, rooted, counted = [], [], []

    class Spy(zechlog.NormLog):
        def __init__(self, field):
            built.append((field.p, field.n))
            super().__init__(field)

        def cube_class_counts(self, m, unit, roots):
            counted.append((self.field.p, self.field.n, m))
            return super().cube_class_counts(m, unit, roots)

    def roots_spy(k, field):
        rooted.append((field.p, field.n))
        return _roots_mod_p(k, field)

    monkeypatch.setattr(zechlog, "NormLog", Spy)
    monkeypatch.setattr(function_field, "_roots_mod_p", roots_spy)
    clear_counting_caches()
    try:
        assert lfunction(17) == expected[0]
        assert built == rooted == [(17, 2)]
        assert counted == [(17, 2, 1), (17, 2, 2), (17, 2, 3)]
        del built[:], rooted[:], counted[:]
        assert lfunction(5) == expected[1]
        assert lfunction(5, direct=True) == expected[2]
        assert built == rooted == [(5, 2), (5, 4)]
        assert counted == [(5, 2, 1), (5, 2, 2), (5, 2, 3), (5, 4, 2)]
    finally:
        clear_counting_caches()


def test_norm_count_of_c6_at_17_equals_the_table_sweep(family):
    """S_3 over F_{17^6}, which gives the published c_6, through the norm to
    F_{17^2} with the Frobenius fold, and again from the class table of all of
    F_{17^6} (zech_oracle) with that field's own generator: at p = 2 mod 3,
    S_m is real, so either cubic character gives it."""
    F = FiniteField(17, 6)
    z = ZechLog(F)
    k = [int(c) % 17 for c in family.k.coeffs]
    counts, zeros = z.cube_class_counts(F(k[-1]), _roots_mod_p(k, F))
    counts[z.sextic_class(F(k[-1])) % 3] += 1  # deg k = 6: the point at infinity
    assert zeros == 6
    assert character_sum(family, 17, 3) == (counts[0] - counts[2], counts[1] - counts[2])
    assert cn_from_characters(family, 17, 6) == dict(lfunction(17).counted)[6]


def test_norm_count_memory_over_f17_6_is_not_q_bytes():
    """The F_{17^6} count holds O(Q) bytes for Q = 17^2 and small blocks, not
    the q = 24 MB class table: it measures about 0.3 MiB, held to 4 MiB."""
    import tracemalloc

    from twocubes.exact.zechlog import NormLog

    F = FiniteField(17, 2)
    F.generator()
    tracemalloc.start()
    try:
        NormLog(F).cube_class_counts(3, F(7), [F(1), F(2), F(3), F(5), F(8), F(13)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def _trace_sum_by_enumeration(k, p, n):
    """c_n one fiber at a time over P^1(F_{p^n}), each counted by enumeration
    (no log tables, closed forms or factorization of k anywhere)."""
    F = FiniteField(p, n)
    a432 = F.element(-432 % p)
    total = 0
    for idx in range(F.q):
        t = F.from_index(idx)
        kt = F.zero()
        for c in reversed(k.coeffs):
            kt = kt * t + F.element(int(c) % p)
        if not kt.is_zero():
            total += F.q + 1 - count_by_enumeration(F, a432 * kt * kt)
    if k.degree % 3 == 0:  # the fiber at infinity is good: A = -432 lc(k)^2
        total += F.q + 1 - count_by_enumeration(F, a432 * F.element(int(k.lc) % p) ** 2)
    return total


def test_c2_against_per_fiber_enumeration(family):
    """Independent oracle: sum fiber traces over P^1(F_289) one fiber at a time."""
    total = _trace_sum_by_enumeration(family.k, 17, 2)
    assert total == -1088
    assert fiber_trace_sum(family, 17, 2) == total == cn_from_characters(family, 17, 2)


# Squarefree k off the family whose factors mod p split in the counted fields:
# linear mod 7 and mod 13, and three quadratics irreducible mod 5 (n = 2 only).
OFF_FAMILY_K = {
    "deg4": rational_poly(4, 0, -5, 0, 1),  # (T - 1)(T + 1)(T - 2)(T + 2)
    "deg5": 3 * rational_poly(0, 1) * rational_poly(1, 0, 1) * rational_poly(-6, 1, 1),
    "deg6": 2 * rational_poly(2, 0, 1) * rational_poly(1, 1, 1) * rational_poly(3, 0, 1),
}


@pytest.mark.parametrize("name, p, n", [
    ("deg4", 7, 1), ("deg4", 7, 2), ("deg5", 13, 1), ("deg5", 13, 2), ("deg6", 5, 2),
])
def test_cn_against_per_fiber_enumeration_off_the_family(family, name, p, n):
    curve = FunctionFieldCurve(OFF_FAMILY_K[name], family.p1, family.p2)
    assert good_prime(curve, p)
    assert cn_from_characters(curve, p, n) == _trace_sum_by_enumeration(curve.k, p, n)


def test_direct_path_agrees_off_the_family(family):
    """deg k = 4: five bad fibers with infinity, so L has degree 6 and L_chi
    degree d = 3.  The completion takes S_1, S_2 and checks S_3, and direct
    counts S_1..S_d, the same three here."""
    curve = FunctionFieldCurve(OFF_FAMILY_K["deg4"], family.p1, family.p2)
    L = _lfunction(curve, 7, False)
    assert L.degree == 6 and L.functional_equation_sign() in (1, -1)
    assert _lfunction(curve, 7, True).coeffs == L.coeffs


def test_rational_surfaces_have_the_exact_geometric_bound(family):
    """For squarefree k of degree 1..3 the surface is rational, rho = 10 over
    the algebraic closure at every good p, so by Shioda-Tate the geometric
    rank bound of L is 8 - sum (m_v - 1) at every usable good prime."""
    from twocubes.surface import classify_fibers

    rng = random.Random(11)
    seen = 0
    while seen < 25:
        deg = rng.randint(1, 3)
        k = rational_poly(*[rng.randint(-9, 9) for _ in range(deg)], rng.choice([-3, -2, 1, 2]))
        try:
            fibers = classify_fibers(k)
        except ValueError:  # not squarefree
            continue
        expected = 8 - sum((f.components - 1) * f.place.degree for f in fibers)
        curve = FunctionFieldCurve(k, family.p1, family.p2)
        used = []
        for p in (5, 7, 11, 13, 17, 19, 23, 29):
            if not good_prime(curve, p):
                continue
            try:
                L = _lfunction(curve, p, False)
            except LFunctionError as err:  # a factor of k mod p outside the counted fields
                assert "factor of degree" in str(err)
                continue
            assert L.degree == 2 * (deg + (deg % 3 != 0)) - 4
            assert rank_bounds(L)[1] == expected, (k, p)
            used.append(p)
        assert used, k
        seen += 1


@pytest.mark.parametrize("p", [7, 13])
def test_sweep_refuses_a_factor_outside_the_counted_field(family, p):
    """T^3 - 2 is irreducible mod 7 and mod 13, so its roots lie in F_{p^3}
    only: S_1 is refused, never counted from a partial root set."""
    curve = FunctionFieldCurve(rational_poly(-2, 0, 0, 1), family.p1, family.p2)
    assert good_prime(curve, p)
    refusal = f"factor of degree 3 mod {p}, with roots outside F_{p}\\^1"
    with pytest.raises(LFunctionError, match=refusal):
        character_sum(curve, p, 1)
    with pytest.raises(LFunctionError, match="factor of degree 3"):
        _lfunction(curve, p, False)


def test_lfunction_17_matches_printed_factorization():
    L = lfunction(17)
    assert L.coeffs == PAPER_L17
    # expanded form of (17u-1)^2 (17u+1)^2 (83521u^4 + 34u^2 + 1)
    prod = rational_poly(-1, 17) ** 2 * rational_poly(1, 17) ** 2 * rational_poly(
        1, 0, 34, 0, 83521
    )
    assert tuple(int(c) for c in prod.coeffs) == PAPER_L17


def test_lfunction_5_direct_agrees_with_functional_equation_path():
    assert lfunction(5).coeffs == lfunction(5, direct=True).coeffs


def test_lfunction_11_direct_agrees_with_functional_equation_path():
    assert lfunction(11, direct=True).coeffs == lfunction(11).coeffs


def test_lfunction_13_direct_counts_to_f13_4():
    """At p = 1 mod 3 direct counts S_1..S_4 over F_{13}..F_{13^4}, inside the
    budget, and checks S_3 and S_4 against the completion."""
    L = lfunction(13, direct=True)
    assert L.coeffs == lfunction(13).coeffs
    assert [n for n, _ in L.counted] == [1, 2, 3, 4]


@pytest.mark.parametrize("p, coeffs, bounds", [
    (19, (1, -68, 2071, -46208, 932824, -16681088, 269894791, -3199119908, 16983563041), (4, 6)),
    (23, (1, 0, -2116, 0, 1679046, 0, -592143556, 0, 78310985281), (4, 8)),
])
def test_lfunction_at_the_largest_counted_primes(p, coeffs, bounds):
    """23 is the largest good p = 2 mod 3 whose F_{p^6} fits the counting
    cap, and its odd c_n are 0 without counting.  At 19 = 1 mod 3 S_1..S_3
    come from F_19, F_{19^2} and F_{19^3}; c_1..c_3 are listed as counted."""
    L = lfunction(p)
    assert L.coeffs == coeffs
    assert rank_bounds(L) == bounds
    assert [n for n, _ in L.counted] == ([1, 2, 3] if p % 3 == 1 else [1, 2, 3, 4, 5, 6])


@pytest.mark.parametrize("p, bounds", [(31, (4, 4)), (37, (4, 4)), (43, (4, 4)), (79, (4, 6))])
def test_rank_bounds_at_primes_past_f_p6(family, p, bounds):
    """p = 1 mod 3 counts only up to F_{p^3}, so the primes past 23 are in
    reach (up to 787); their counted c_1..c_3 match the trace-table oracle."""
    L = lfunction(p)
    assert rank_bounds(L) == bounds
    assert L.counted == tuple((n, fiber_trace_sum(family, p, n)) for n in (1, 2, 3))


def test_lfunction_cache_ignores_spelling():
    assert lfunction(17) is lfunction(17, direct=False)
    assert lfunction(5, direct=0) is lfunction(5)


def test_typed_checks_survive_python_O():
    """The exactness and type checks raise their typed errors with asserts
    stripped: planted character sums trip the integrality check at p = 11 and
    the completion check at p = 13, and a planted generator of F_7 of order 3
    the order check of the norm sweep."""
    script = """
from twocubes.exact import FiniteField, Polynomial, RationalFunction
from twocubes.exact.zechlog import NormLog
from twocubes import function_field
from twocubes.function_field import FamilyError, FunctionFieldCurve, LFunctionError, build_family
from twocubes.twists import SpecializationError, specialize
fam = build_family()
try:
    FunctionFieldCurve(fam.k * __import__("fractions").Fraction(1, 8), fam.p1, fam.p2)
except FamilyError:
    print("FamilyError")
counted = function_field.character_sum
for p, m, step in ((11, 2, 1), (13, 3, 13)):  # S_2 + 1: b_2 is not integral; S_3 + 13: b_3 is off
    def planted(curve, q, j, m=m, step=step):
        a, b = counted(curve, q, j)
        return a + step * (j == m), b
    function_field.character_sum = planted
    try:
        function_field.lfunction(p)
    except LFunctionError as err:
        print("LFunctionError:", err)
function_field.character_sum = counted
F = FiniteField(7)
F._generator = F.generator() ** 2  # h of order 3, not Q - 1 = 6
try:
    NormLog(F)
except ArithmeticError:
    print("ArithmeticError")
try:
    specialize(3, FunctionFieldCurve(2 * fam.k, fam.p1, fam.p2))
except SpecializationError:
    print("SpecializationError")
try:
    RationalFunction(Polynomial((1, FiniteField(17)(3))))
except TypeError:
    print("TypeError")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, check=True,
        timeout=60,
    )
    want = ["FamilyError", "LFunctionError: counted coefficients are not integral",
            "LFunctionError: functional-equation completion contradicts counted S_3",
            "ArithmeticError", "SpecializationError", "TypeError"]
    assert out.stdout.splitlines() == want


def test_lfunction_rejects_bad_primes():
    with pytest.raises(LFunctionError):
        lfunction(7)
    with pytest.raises(LFunctionError):
        lfunction(9)


@pytest.mark.parametrize(
    "p, plant, message",
    [
        (11, lambda m, s, p: (s[0] + (m == 2), s[1]), "counted coefficients are not integral"),
        (13, lambda m, s, p: (s[0] + p * (m == 3), s[1]), "completion contradicts counted S_3"),
        (13, lambda m, s, p: (0, 0), "sign ambiguous after S_1..S_3: b_2 = 0"),
    ],
)
def test_lfunction_refuses_inconsistent_counts(monkeypatch, p, plant, message):
    """Planted character sums: S_2 + 1 makes b_2 half-integral; S_3 + p makes
    the counted b_3 disagree with the completion; all S_n = 0 leave b_2 = 0,
    which does not fix b_4."""
    from twocubes import function_field

    def planted(curve, q, m):
        return plant(m, character_sum(curve, q, m), q)

    monkeypatch.setattr(function_field, "character_sum", planted)
    _lfunction.cache_clear()
    try:
        with pytest.raises(LFunctionError, match=message):
            lfunction(p)
    finally:
        _lfunction.cache_clear()


@pytest.mark.parametrize("k, p, direct, n, counted", [
    (None, 5, True, 3, "S_3..S_4"),  # the family, d = 4: direct counts S_1..S_4
    (None, 5, True, 4, "S_3..S_4"),
    ((-1, 0, 1), 7, False, 2, "S_2"),  # d = 1: b_2 = 0
    ((0, 1), 7, False, 1, "S_1"),  # d = 0: L_chi = 1
])
def test_completion_refuses_a_planted_last_count(family, monkeypatch, k, p, direct, n, counted):
    """The completion from S_1..S_{ceil(d/2)} fixes every later count, the
    last one and those above the degree d of L_chi included."""
    from twocubes import function_field

    def planted(curve, q, m):
        a, b = character_sum(curve, q, m)
        return a + 5 * (m == n), b

    curve = family if k is None else FunctionFieldCurve(rational_poly(*k), family.p1, family.p2)
    monkeypatch.setattr(function_field, "character_sum", planted)
    _lfunction.cache_clear()
    try:
        with pytest.raises(LFunctionError, match=f"completion contradicts counted {counted}"):
            _lfunction(curve, p, direct)
    finally:
        _lfunction.cache_clear()


def test_exp_log_roundtrip():
    for p in (5, 13, 17):
        L = lfunction(p)
        assert power_sums(L.coeffs, len(L.counted)) == [c for _, c in L.counted]


def test_functional_equation_closure():
    for p in (5, 17):
        L = lfunction(p)
        sign = L.functional_equation_sign()
        assert sign in (1, -1)
        for i in range(9):
            assert L.coeffs[8 - i] == sign * p ** (8 - 2 * i) * L.coeffs[i]


def test_weil_absolute_values():
    import numpy as np

    L = lfunction(17)
    roots = np.roots(list(reversed(L.coeffs)))
    for u in roots:
        assert abs(abs(1 / u) - 17) < 1e-9 * 17


def test_rank_bounds_paper_l():
    L = lfunction(17)
    arith, geom = rank_bounds(L)
    assert (arith, geom) == (2, 4)


def test_rank_bounds_trivial():
    L = LPolynomial(17, (1,), ())
    assert rank_bounds(L) == (0, 0)


def test_rank_chain_and_report():
    rep = rank_report(17)
    assert rep.z_rank_rational <= rep.arith_bound
    assert rep.z_rank_cm <= rep.geom_bound
    assert rep.rank == 2
    assert rep.geometric_rank == 4
