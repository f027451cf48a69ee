"""Tests for the exact arithmetic substrate.

Derived expected values are recomputed by independent oracles (sympy
factorization, direct enumeration) rather than trusted
from the implementation under test.
"""

import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from class_oracle import power_walk_classes
from cube_oracle import cubefree_oracle
from reduction import embed_fraction
from twocubes.budget import BudgetError
from twocubes.elliptic import primary_prime
from twocubes.exact import (
    FiniteField,
    Polynomial,
    RationalFunction,
    cubefree_part,
    factorize,
    poly_gcd,
    prime_field,
    rational_poly,
    smallest_irreducible,
)
from twocubes.exact.ffield import _is_irreducible
from twocubes.exact.poly import _int_cyclotomic, _int_exact_div
from twocubes.exact.zechlog import NormLog
from twocubes.identities import NEARMISS_DENOMINATOR, NEARMISS_FAMILIES, nearmiss_stream
from zech_oracle import ZERO, ZechLog, over_extension


# -- cubefree decomposition ----------------------------------------------------


@pytest.mark.parametrize("n,expected", [(189, (7, 3)), (46683, (1729, 3)), (1, (1, 1))])
def test_cubefree_examples(n, expected):
    assert cubefree_oracle(n) == expected  # oracle agrees with the frozen value
    assert cubefree_part(n) == expected


def test_cubefree_sign_and_zero():
    assert cubefree_part(-189) == (-7, 3)
    assert cubefree_part(-8) == (-1, 2)
    with pytest.raises(ValueError):
        cubefree_part(0)


def test_cubefree_random_reconstruction():
    rng = random.Random(20260809)
    for _ in range(200):
        a = rng.randint(1, 10**6)
        b = rng.randint(1, 10**6)
        n = a * b**3
        d, c = cubefree_part(n)
        assert d * c**3 == n
        assert all(e < 3 for e in sympy.factorint(d).values())


def test_cubefree_of_a_product_matches_whole():
    rng = random.Random(71)
    for _ in range(100):
        parts = [rng.choice((-1, 1)) * rng.randint(1, 10**4) for _ in range(rng.randint(1, 4))]
        n = 1
        for x in parts:
            n *= x
        assert cubefree_part(*parts) == cubefree_oracle(n)
    with pytest.raises(ValueError):
        cubefree_part(3, 0)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.lists(st.integers(-(10**6), 10**6).filter(bool), min_size=1, max_size=4),
    st.integers(-40, 40).filter(bool),
)
def test_cubefree_part_reconstructs_signed_products(parts, cube):
    """n = d c^3 with c >= 1, no p^3 dividing d and d of the sign of n, for a
    product of signed integers with a planted cube factor."""
    parts = parts + [cube] * 3
    n = math.prod(parts)
    d, c = cubefree_part(*parts)
    assert d * c**3 == n and c >= 1
    assert (d < 0) == (n < 0)
    primes_of_n = set().union(*(sympy.factorint(abs(x)) for x in parts))
    assert all(d % p**3 for p in primes_of_n)


# Primes above the cube root of every cofactor below: P and Q near 10^6
# and R = 2^61 - 1, far above 2^48.
_P, _Q, _R = 1000003, 1000033, 2**61 - 1


@pytest.mark.parametrize("parts", [
    (_P,), (_P**2,), (_P * _Q,),  # the cofactor left at the cube root: P, P^2, PQ
    (8 * _P,), (27 * _P**2,), (5**3 * 7 * _P * _Q,),
    (_P, 9 * _P), (_P, _P, 4 * _P), (_P * _Q, _P**2), (_P * _Q, _Q * 11, 13 * _P),  # shared
    (63, 7**2 * _P), (143, 11**2 * _P), (7 * 11 * 13, 11**2 * 2**9), (63, 7**2 * 1000),  # table primes
    (_R,), (_R * _P,), (_R, _R**2 * 5), (_P * _Q * 1000037,), (_P**3 * _Q,),  # above 2^48
    (-_P, -_P**2), (-1, _P * _Q), (1, -1, -8), (-1,), (1,), (1, -_R * 7, 49),  # signs, +-1
])
def test_cubefree_part_cofactors_match_sympy(parts):
    """Cofactors above the cube root, large primes shared by two and by three
    parts, a table prime split between a large part and a small one (63
    leaves the cofactor 7 once 5^3 > 7 stops its trial division), cofactors
    above 2^48 and signed parts, against sympy's factorization of the product."""
    assert cubefree_part(*parts) == cubefree_oracle(math.prod(parts))


def test_cubefree_part_splits_only_above_2_48(monkeypatch):
    """Miller-Rabin and rho run on a cofactor above 2^48 and on nothing below."""
    from twocubes.exact import numbers

    calls = []
    rough = numbers._factor_rough
    monkeypatch.setattr(numbers, "_factor_rough", lambda n, out: calls.append(n) or rough(n, out))
    # 2^48 - 59 and 65537 * 4294901753 are primes and a product of two primes
    # above 65521^3: trial division runs through the whole table and leaves
    # them whole, yet no prime divides them three times
    for parts in ((_P * _Q,), (_P**2, 63 * _Q), (2**48 - 59, 65521**3), (65537 * 4294901753,)):
        assert cubefree_part(*parts) == cubefree_oracle(math.prod(parts))
    assert calls == []
    cubefree_part(9, _R * _P)
    assert calls == [_R * _P]


def test_primary_prime():
    for p in sympy.primerange(5, 3000):
        if p % 3 == 1:
            a, b = primary_prime(p)  # a + b*omega
            assert a * a - a * b + b * b == p and a % 3 == 2 and b % 3 == 0
        else:
            with pytest.raises(ValueError):
                primary_prime(p)


def test_cubefree_large_rough_inputs():
    # primes above the trial-division bound force the rho/perfect-power paths
    p1, p2, p3 = 2147483647, 1048583, 4294967311
    assert all(sympy.isprime(p) for p in (p1, p2, p3))
    n = (65537 * 97) * p1**3
    assert cubefree_part(n) == (65537 * 97, p1)
    n = p1 * p2**3
    assert cubefree_part(n) == (p1, p2)
    n = p3**2 * 5**4
    assert cubefree_part(n) == (p3**2 * 5, 5)


def test_factorize_matches_sympy():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 10**9)
        assert factorize(n) == dict(sympy.factorint(n))


def test_primes_match_a_plain_sieve_across_the_trial_bound():
    from twocubes.exact import primes
    from twocubes.exact.numbers import TRIAL_BOUND

    limit = TRIAL_BOUND + 5000
    sieve = [True] * limit
    sieve[:2] = [False, False]
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = [False] * len(range(p * p, limit, p))
    expected = [p for p in range(limit) if sieve[p]]
    gen = primes()
    assert [next(gen) for _ in expected] == expected


def test_factorize_splits_primes_above_the_trial_bound():
    """A product of two primes in (2^16, 2^20) has no factor for trial
    division to find, so Miller-Rabin and rho must split it."""
    rng = random.Random(5)
    for _ in range(10):
        p, q = (sympy.nextprime(rng.randrange(2**16, 2**20 - 100)) for _ in range(2))
        for n in (p * q, rng.randrange(1, 1000) * p * q * q):
            assert factorize(n) == dict(sympy.factorint(n))


# -- polynomials ----------------------------------------------------------------


def test_polynomial_ring_laws():
    rng = random.Random(13)

    def rand_poly():
        return Polynomial(
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 6)))
        )

    for _ in range(60):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        if not f.is_zero() and not g.is_zero():
            assert (f * g).degree == f.degree + g.degree


def test_zero_polynomial_degree_sentinel():
    assert Polynomial().degree is None
    assert rational_poly(0, 0).degree is None
    assert rational_poly(3).degree == 0


def test_divmod_and_gcd():
    # division over Q is exact division over Z on the integer kernel
    assert _int_exact_div([-1, 0, 1], [1, 1]) == [-1, 1]  # T^2 - 1 = (T - 1)(T + 1)
    with pytest.raises(ArithmeticError):
        _int_exact_div([-1, 0, 1], [2, 1])
    f = rational_poly(-1, 0, 1)
    assert poly_gcd(f, rational_poly(1, 1)) == rational_poly(1, 1)
    assert poly_gcd(f, rational_poly("1/2", "1/2")) == rational_poly(1, 1)
    assert poly_gcd(Polynomial(), rational_poly(2, 4)) == rational_poly("1/2", 1)


def test_cyclotomic_polys():
    assert _int_cyclotomic(1) == (-1, 1)
    assert _int_cyclotomic(2) == (1, 1)
    assert _int_cyclotomic(6) == (1, -1, 1)
    assert _int_cyclotomic(12) == (1, 0, -1, 0, 1)


# -- rational functions ---------------------------------------------------------


def test_series_examples():
    # the near-miss tuples are the Taylor coefficients of num / den at 0:
    # checked by exact polynomial products, den * (a_0 + ... + a_{n-1} x^{n-1}) = num mod x^n
    n = 8
    den = rational_poly(*NEARMISS_DENOMINATOR)
    tuples = nearmiss_stream("zero", n)
    for i, num in enumerate(NEARMISS_FAMILIES["zero"][0]):
        truncated = rational_poly(*(t[1 + i] for t in tuples))
        residue = den * truncated - rational_poly(*num)
        assert all(residue.coeff(k) == 0 for k in range(n))
        assert residue.coeff(n) != 0
    # oracle: run the recurrence a_n = 82 a_{n-1} + 82 a_{n-2} - a_{n-3} by hand
    a0 = 1
    a1 = 82 * a0 + 53
    a2 = 82 * a1 + 82 * a0 + 9
    assert [a0, a1, a2] == [1, 135, 11161]
    assert [t[1] for t in tuples[:3]] == [a0, a1, a2]


def test_ratfunc_evaluation_homomorphism():
    """The normal form takes the values of num/den, and the normal forms of
    a product and a sum, built from polynomial products, take f(t) g(t)
    and f(t) + g(t)."""
    rng = random.Random(19)

    def rand_pair():
        num = Polynomial(tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))))
        den = Polynomial(
            tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(0, 3)))
            + (Fraction(rng.randint(1, 5)),)
        )
        return num, den

    checked = 0
    for _ in range(30):
        (a, b), (c, d) = rand_pair(), rand_pair()
        f, g = RationalFunction(a, b), RationalFunction(c, d)
        t = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        if b(t) == 0 or d(t) == 0:
            continue
        assert f(t) == a(t) / b(t) and g(t) == c(t) / d(t)
        assert RationalFunction(a * c, b * d)(t) == f(t) * g(t)
        assert RationalFunction(a * d + c * b, b * d)(t) == f(t) + g(t)
        checked += 1
    assert checked >= 20
    with pytest.raises(ZeroDivisionError, match="pole"):
        RationalFunction(rational_poly(1), rational_poly(-2, 1))(Fraction(2))


def test_ratfunc_normalization():
    f = RationalFunction(rational_poly(0, 2, 2), rational_poly(2, 2))  # 2T(T+1) / 2(T+1)
    assert (f.num, f.den) == (rational_poly(0, 1), rational_poly(1))
    assert f == RationalFunction(rational_poly(0, 1))
    g = RationalFunction(rational_poly(1, 1), rational_poly(4, 2))  # (T+1) / 2(T+2)
    assert (g.num, g.den) == (rational_poly("1/2", "1/2"), rational_poly(2, 1))
    assert g.format() == "(1/2*T + 1/2) / (T + 2)"
    assert f.as_polynomial() == rational_poly(0, 1)
    with pytest.raises(ValueError, match="not a polynomial"):
        g.as_polynomial()
    with pytest.raises(ZeroDivisionError):
        RationalFunction(rational_poly(1), Polynomial())


# -- finite fields ----------------------------------------------------------------


def test_deterministic_moduli():
    assert smallest_irreducible(2, 3) == (1, 0, 1, 1)  # x^3 + x + 1
    assert smallest_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert smallest_irreducible(17, 2) == (1, 1, 1)
    # the moduli behind the golden values of the L-function stay fixed
    assert smallest_irreducible(17, 6) == (1, 0, 0, 0, 0, 5, 1)
    assert smallest_irreducible(5, 4) == (1, 0, 1, 1, 1)


def _has_monic_divisor(f, p):
    """Brute force: some monic g of degree 1..deg f // 2 divides the monic f
    over F_p, by schoolbook long division."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            g, r = list(tail) + [1], list(f)
            for top in range(n, d - 1, -1):
                c = r[top]
                for i in range(d + 1):
                    r[top - d + i] = (r[top - d + i] - c * g[i]) % p
            if not any(r[:d]):
                return True
    return False


def _first_irreducible_in_product_order(p, n):
    """The modulus search over itertools.product, constant term slowest, with
    irreducibility decided by brute force."""
    for tail in itertools.product(range(1, p), *[range(p)] * (n - 1)):
        if not _has_monic_divisor(list(tail) + [1], p):
            return tuple(tail) + (1,)


def test_modulus_search_keeps_the_product_order():
    for p, n in ((5, 2), (5, 3), (7, 4), (17, 6), (13, 5), (3, 7), (2, 5)):
        assert smallest_irreducible.__wrapped__(p, n) == _first_irreducible_in_product_order(p, n)


@pytest.mark.parametrize("p, n", [(2, 6), (3, 5), (5, 4), (7, 3)])
def test_irreducibility_agrees_with_brute_force_on_every_monic(p, n):
    """Every monic f of degree n, non-squarefree ones and x | f included."""
    for tail in itertools.product(range(p), repeat=n):
        f = list(tail) + [1]
        assert _is_irreducible(f, p) == (not _has_monic_divisor(f, p)), f


def test_modulus_search_is_lazy_for_large_p():
    # a table of the p - 1 constant terms alone would take hundreds of MB
    tracemalloc.start()
    try:
        modulus = smallest_irreducible.__wrapped__(10000019, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert modulus == (1, 0, 1)  # p = 3 mod 4, so -1 is not a square
    assert peak < 1 << 20
    # p = 2^64 - 59 is 1 mod 4 and 2 mod 3: x^2 + 1 splits, x^2 + x + 1 does not
    assert smallest_irreducible.__wrapped__(2**64 - 59, 2) == (1, 1, 1)
    assert smallest_irreducible.__wrapped__(2**127 - 1, 2) == (1, 0, 1)


def test_f7_ops():
    F7 = FiniteField(7)
    assert F7(3) * F7(5) == F7(1)
    assert F7.sextic_residue_symbol(F7(1)) == F7(1)
    with pytest.raises(ZeroDivisionError):
        F7(0).inverse()


def test_sextic_symbol_requires_q_1_mod_6():
    for p, n in ((5, 1), (11, 1), (2, 2)):
        F = FiniteField(p, n)
        with pytest.raises(ValueError):
            F.sextic_residue_symbol(F(1))


def test_sextic_symbol_is_sixth_root():
    F = FiniteField(13)
    for a in range(1, 13):
        s = F.sextic_residue_symbol(F(a))
        assert s**6 == F.one()


def test_f289_group_order():
    F = FiniteField(17, 2)
    assert F.q - 1 == 288
    g = F.generator()
    assert g**288 == F.one()
    assert g**144 != F.one()


def test_frobenius_identity():
    rng = random.Random(29)
    for (p, n) in ((7, 1), (13, 1), (17, 2), (5, 3), (2, 4)):
        F = FiniteField(p, n)
        for _ in range(200):
            x = F.from_index(rng.randrange(F.q))
            assert x**F.q == x


def test_field_inverse_random():
    rng = random.Random(31)
    F = FiniteField(17, 4)
    for _ in range(50):
        x = F.from_index(rng.randrange(1, F.q))
        assert x * x.inverse() == F.one()


def test_embed_fraction():
    F = FiniteField(11)
    assert embed_fraction(F, Fraction(1, 2)) == F(6)  # 2*6 = 12 = 1
    with pytest.raises(ZeroDivisionError):
        embed_fraction(F, Fraction(3, 11))


def test_prime_field_is_built_once():
    assert prime_field(101) is prime_field(101)
    assert prime_field(101) == FiniteField(101)


# -- the class table of the oracle and its cube-class sweep ------------------------


@pytest.mark.parametrize("p,n", [(13, 2), (5, 4), (7, 3), (19, 3)])
def test_class_table_matches_sextic_symbol(p, n):
    """cls[x] = log_g(x) mod 6: x^((q-1)/6) = zeta^cls[x], zeta = g^((q-1)/6)."""
    F = FiniteField(p, n)
    z = ZechLog(F)
    zeta = z.g ** ((F.q - 1) // 6)
    power_of = {(zeta**k).coeffs: k for k in range(6)}
    assert len(power_of) == 6
    assert z.cls.nbytes == F.q and z.cls[0] == ZERO
    for idx in range(1, F.q):
        x = F.from_index(idx)
        assert z.cls[idx] == power_of[F.sextic_residue_symbol(x).coeffs], idx
        assert z.sextic_class(x) == z.cls[idx]
    with pytest.raises(ValueError):
        z.sextic_class(F.zero())


def test_class_table_rejects_unsuitable_fields():
    with pytest.raises(ValueError):
        ZechLog(FiniteField(17))  # 17 = 5 mod 6


@pytest.mark.parametrize(
    "p,n",
    [(7, 1), (13, 1), (10009, 1)]  # n = 1: the F_p^* walk is the whole build
    + [(5, 2), (17, 2), (5, 4), (11, 4), (5, 8)]  # p = 5 mod 6
    + [(13, 2), (7, 3), (19, 3)]  # p = 1 mod 6
    + [(13, 6)],  # p^(n-1) = 371293 exceeds a block: the slab fill is chunked
)
def test_class_table_equals_the_power_walk(p, n):
    """The build folded over F_p^* against a walk over every power of g."""
    F = FiniteField(p, n)
    assert np.array_equal(ZechLog(F).cls, power_walk_classes(F))


PLANTED_GENERATORS = """
from twocubes.exact import FiniteField
from zech_oracle import ZechLog
for k in (2, 3):
    F = FiniteField(17, 2)
    F._generator = F.generator() ** k
    try:
        ZechLog(F)
        print(k, "built")
    except ArithmeticError as exc:
        print(k, exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_class_table_rejects_planted_generators(flags):
    """Over F_{17^2}, e = 288/16 = 18.  g^2 fails on F_p^*: (g^2)^18 has
    order 8.  g^3 passes there, (g^3)^18 has order 16, but g^(3i), i < 18,
    meet only 6 of the 18 cosets of F_p^*.  Both raise, also under -O."""
    out = subprocess.run(
        [sys.executable, *flags, "-c", PLANTED_GENERATORS],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            str(Path(__file__).resolve().parents[i] / d) for i, d in ((1, "src"), (0, "")))},
    )
    assert out.stdout.splitlines() == [
        "2 g^((q-1)/(p-1)) does not enumerate F_p^*",
        "3 g^0..g^((q-1)/(p-1)-1) miss a coset of F_p^*",
    ]


@lru_cache(maxsize=None)
def _cube_roots_of_unity(g):
    e = (g.field.q - 1) // 3
    return [(g ** (e * k)).coeffs for k in range(3)]


@lru_cache(maxsize=None)
def _cube_class(v, g):
    """k with v^((q-1)/3) = (g^((q-1)/3))^k."""
    return _cube_roots_of_unity(g).index((v ** ((v.field.q - 1) // 3)).coeffs)


def _counts_by_evaluation(F, g, unit, roots):
    """([N_0, N_1, N_2], zeros) by evaluating f(t) = unit * prod (t - r) one t
    at a time, the class of f(t) read off f(t)^((q-1)/3)."""
    direct, zeros = [0, 0, 0], 0
    for t in F.elements():
        v = unit
        for r in roots:
            v = v * (t - r)
        if v.is_zero():
            zeros += 1
        else:
            direct[_cube_class(v, g)] += 1
    return direct, zeros


def _counts_by_characters(F, g, unit, roots):
    """The same counts one t at a time through the cubic character, which is
    multiplicative: f(t) = 0 at a root, and otherwise its class is the sum of
    the classes of unit and of each t - r.  Cheaper than the products over
    F_{p^n}, so the fold can be checked on many root sets."""
    counts, zeros = [0, 0, 0], 0
    for t in F.elements():
        diffs = [t - r for r in roots]
        if any(d.is_zero() for d in diffs):
            zeros += 1
        else:
            counts[sum(_cube_class(d, g) for d in diffs + [unit]) % 3] += 1
    return counts, zeros


@pytest.mark.parametrize("p,n,with_zero", [(13, 3, True), (13, 3, False), (5, 4, True)])
def test_cube_class_counts_vs_per_t_evaluation(p, n, with_zero):
    """The sweep over all of F_q, t = 0 and t = root included, against
    evaluating f(t) = unit * prod (t - r) one t at a time."""
    F = FiniteField(p, n)
    z = ZechLog(F)
    rng = random.Random(p * 100 + n)
    idx = rng.sample(range(1, F.q), 5 if with_zero else 6)
    roots = [F.from_index(i) for i in idx] + ([F.zero()] if with_zero else [])
    unit = F.from_index(rng.randrange(1, F.q))
    direct, zeros = _counts_by_evaluation(F, z.g, unit, roots)
    assert z.cube_class_counts(unit, roots) == (direct, zeros)
    assert zeros == 6


FOLD_FIELDS = [(7, 1), (13, 1), (7, 2), (13, 2), (13, 3), (5, 4), (7, 4)]


def _root_set(F, case, rng):
    """A root set of the named shape, with c the centre of its symmetry."""
    p, q = F.p, F.q
    c = F.from_index(rng.randrange(p, q) if case == "c outside F_p" else rng.randrange(1, p))
    pairs = []
    for _ in range(4):
        r = F.from_index(rng.randrange(q))
        pairs.append((r, c - r))
    if case in ("c in F_p", "c outside F_p"):
        return [x for pair in pairs[:3] for x in pair]
    if case == "c/2 a root":  # m = 9, prime to p
        return [x for pair in pairs for x in pair] + [c / 2]
    if case == "repeated pair":
        return [*pairs[0], *pairs[0], *pairs[1]]
    if case == "not symmetric":
        return [*pairs[0], *pairs[1], pairs[2][0], pairs[2][1] + 1]
    # case "p | m": (p - 1)/2 pairs and c/2, symmetric about c != 0, but the
    # mean is 0/0, so the sweep takes them about 0, where they are not
    return [x for pair in pairs[: (p - 1) // 2] for x in pair] + [c / 2]


FOLD_CASES = [
    (p, n, case)
    for p, n in FOLD_FIELDS
    for case in ("c in F_p", "c outside F_p", "c/2 a root", "repeated pair", "not symmetric",
                 "p | m")
    if (case != "c outside F_p" or n > 1) and (case != "p | m" or p < 13)
]


@pytest.mark.parametrize("p,n,case", FOLD_CASES)
def test_folded_sweep_vs_per_t_evaluation(p, n, case):
    """The fold of s = t - mean with -s against the per-t evaluation, on root
    sets that fold (symmetric, c in or outside F_p, c/2 a root, a repeated
    pair) and on sets that must be swept in full (not symmetric, p | m)."""
    F = FiniteField(p, n)
    z = ZechLog(F)
    rng = random.Random(f"{p} {n} {case}")
    roots = _root_set(F, case, rng)
    c = roots[0] + roots[1]
    assert (Counter(c - r for r in roots) == Counter(roots)) == (case != "not symmetric")
    assert (len(roots) % p == 0) == (case == "p | m")
    unit = F.from_index(rng.randrange(1, F.q))
    assert z.cube_class_counts(unit, roots) == _counts_by_characters(F, z.g, unit, roots)


@pytest.mark.parametrize("p,n", [(7, 2), (7, 3), (7, 4)])
def test_symmetric_roots_sweep_half_the_rows(p, n, monkeypatch):
    """Row 0 and the rows of leading high digit <= (p - 1)/2, 1 + (H - 1)/2 rows
    per distinct root, H = p^(n - n//2); all H rows for a set that is not
    symmetric or whose mean is 0/0."""
    F = FiniteField(p, n)
    z = ZechLog(F)
    rng = random.Random(p + n)
    lo_size, hi_size = p ** (n // 2), p ** (n - n // 2)
    shifted = ZechLog._shifted
    swept = []

    def spy(self, index, r):
        swept.append(len(index))
        return shifted(self, index, r)

    monkeypatch.setattr(ZechLog, "_shifted", spy)
    cases = [("c in F_p", 1 + (hi_size - 1) // 2), ("not symmetric", hi_size), ("p | m", hi_size)]
    for case, rows in cases:
        roots = _root_set(F, case, rng)
        swept.clear()
        z.cube_class_counts(F(1), roots)
        assert sum(swept) == len(set(roots)) * (lo_size + rows), case


@pytest.mark.parametrize("p,n", [(13, 1), (7, 2), (5, 4)])
@pytest.mark.parametrize("k", [3, 4, 6])
def test_cube_class_counts_with_root_multiplicity(p, n, k):
    """A root of multiplicity k enters each class sum once, as k times its
    class: k ZERO in one uint8 sum would wrap to a cube class at k = 4."""
    F = FiniteField(p, n)
    z = ZechLog(F)
    rng = random.Random(p * k + n)
    r, other = (F.from_index(i) for i in rng.sample(range(F.q), 2))
    unit = F.from_index(rng.randrange(1, F.q))
    for roots in ([r] * k, [r] * k + [other]):
        assert z.cube_class_counts(unit, roots) == _counts_by_evaluation(F, z.g, unit, roots)


def test_cube_class_counts_repeated_root_shows_in_zero_count():
    F = FiniteField(13)
    z = ZechLog(F)
    counts, zeros = z.cube_class_counts(F(2), [F(3), F(3), F(5)])
    assert zeros == 2 and sum(counts) == 11


def test_class_table_memory_is_q_bytes_plus_one_block():
    """The oracle's budget: table q bytes, temporaries one block.  With n = 1
    and int64 digits every block array is full size."""
    from zech_oracle import BLOCK_BYTES

    F = FiniteField(1_000_003)
    F.generator()  # its factorization caches a prime sieve, which is not the table's
    tracemalloc.start()
    try:
        z = ZechLog(F)
        z.cube_class_counts(F(7), [F(1), F(2), F(3), F(5), F(8), F(13)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert F.q < peak <= F.q + BLOCK_BYTES


def test_class_table_memory_for_n_above_1_is_q_bytes_plus_one_block():
    """The same budget for the build folded over F_p^*: over F_{13^6} and
    F_{17^6} the coset walk takes several blocks and a slab, p^5, is filled
    in chunks, with the normalized slab written in place in the table.  The
    temporaries measure 2.5 MiB for the build and 1.1-1.2 MiB for the sweep,
    so they are held to 4 MiB, well inside the block of BLOCK_BYTES."""
    from zech_oracle import BLOCK_BYTES

    temporaries = 4 * 2**20
    assert temporaries <= BLOCK_BYTES
    for p in (13, 17):
        F = FiniteField(p, 6)
        F.generator()
        tracemalloc.start()
        try:
            z = ZechLog(F)
            z.cube_class_counts(F(7), [F.from_index(i) for i in (1, 2, 3, 5, 8, 13)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del z
        assert F.q < peak <= F.q + temporaries, p


# -- cube classes over F_{Q^m} through the norm to F_Q -------------------------------

NORM_FIELDS = [(7, 3), (13, 3), (5, 6), (7, 6), (11, 6), (13, 6)]  # F_{Q^3}, Q = p^(n/3)
ROOT_CASES = ["symmetric", "not symmetric", "repeated", "frobenius-stable"]


def _subfield_roots(FQ, case, rng):
    """Roots in F_Q: three pairs symmetric about a centre c, with c/2 added;
    the same with one root moved off the symmetry; with multiplicities; or
    closed under Frobenius x -> x^p with multiplicities, 0 and F_p included."""
    sub = list(FQ.elements())
    c = rng.choice(sub)
    roots = [x for r in rng.sample(sub, 3) for x in (r, c - r)]
    if case == "symmetric":
        return roots + [c / 2]
    if case == "not symmetric":
        return roots[:-1] + [roots[-1] + 1]
    if case == "frobenius-stable":
        p = FQ.p
        r, s = rng.sample(sub[1:], 2)
        return [r, r**p, s, s**p, s, s**p, FQ.zero(), FQ(2)]
    return roots[:1] * 2 + roots[1:2] * 3 + roots[2:3] * 4  # case "repeated"


def _norm_against_table(FQ, m, unit, roots):
    """The norm sweep over F_{Q^m} against the class table of F_{Q^m}, the
    classes matched by over_extension, and against the per-t cubic
    characters where F_{Q^m} is small; the classes of the unit and of -432
    agree too.  Returns the norm sweep's counts."""
    nl = NormLog(FQ)
    z, embed, swapped = over_extension(FQ, m)

    def as_table(j):
        return (3 - j) % 3 if swapped else j

    counts, zeros = nl.cube_class_counts(m, unit, roots)
    big_unit, big_roots = embed(unit), [embed(r) for r in roots]
    table = z.cube_class_counts(big_unit, big_roots)
    assert ([counts[as_table(j)] for j in range(3)], zeros) == table
    if z.q < 20_000:
        assert table == _counts_by_characters(z.field, z.g, big_unit, big_roots)
    for x in (unit, FQ(-432)):
        assert as_table(nl.cube_class(x, m)) == z.sextic_class(embed(x)) % 3
    return counts, zeros


@pytest.mark.parametrize("p,n", NORM_FIELDS)
@pytest.mark.parametrize("case", ROOT_CASES)
def test_norm_counts_equal_the_table_sweep(p, n, case, monkeypatch):
    """m = 3: the count through the norm to F_Q, Q = p^(n/3), against the
    class-table sweep of F_{p^n} (_norm_against_table), with a random unit of
    F_Q.

    A Frobenius-stable root multiset sweeps one sigma of F_Q per orbit of
    x -> x^p, and any other set every sigma.  Over F_Q = F_{p^2}, p = 2 mod 3,
    the stable sets have paired slices whose N_1 - N_2 do not cancel, so a
    dropped class swap at the second member would change the counts."""
    FQ = FiniteField(p, n // 3)
    rng = random.Random(f"{p} {n} {case}")
    roots = _subfield_roots(FQ, case, rng)
    unit = FQ.from_index(rng.randrange(1, FQ.q))
    slices, sweep = [], NormLog._cubic_slice

    def spy(self, sigma, rows):
        out = sweep(self, sigma, rows)
        slices.append((sigma, out))
        return out

    monkeypatch.setattr(NormLog, "_cubic_slice", spy)
    _norm_against_table(FQ, 3, unit, roots)
    sub, a = list(FQ.elements()), n // 3
    stable = Counter(r**p for r in roots) == Counter(roots)
    assert stable == (case == "frobenius-stable" or a == 1)
    orbits = {frozenset(x ** (p**j) for j in range(a)) for x in sub}
    assert len(slices) == (len(orbits) if stable else FQ.q)
    if stable and a == 2 and p % 3 == 2:
        paired = [c for sigma, c in slices if sigma % (p + 1) and sigma != FQ.q - 1]
        assert sum(c[1] - c[2] for c in paired) != 0


@pytest.mark.parametrize("p,n,m", [
    (7, 1, 1), (13, 1, 1), (7, 2, 1), (5, 2, 1),  # F_Q itself
    (7, 1, 2), (13, 1, 2), (11, 2, 2), (13, 2, 2), (17, 2, 2), (5, 4, 2),  # F_{Q^2}
])
@pytest.mark.parametrize("case", ROOT_CASES)
def test_norm_counts_over_f_q_and_f_q2_equal_the_table_sweep(p, n, m, case):
    """m = 1: the Q points of F_Q alone; m = 2: those with the classes doubled,
    plus one slice over the non-squares delta, N(a + u - r) = (a - r)^2 - delta
    with u^2 = delta; each against the class table of F_{Q^m}, Q = p^n.  The
    m = 2 fields F_{13^2}, F_{11^4}, F_{13^4}, F_{17^4} and F_{5^8} are those
    that --direct counts at p = 13, 11 and 5, or S_2 at 13 and 17."""
    FQ = FiniteField(p, n)
    rng = random.Random(f"{p} {n} {m} {case}")
    roots = _subfield_roots(FQ, case, rng)
    unit = FQ.from_index(rng.randrange(1, FQ.q))
    counts, zeros = _norm_against_table(FQ, m, unit, roots)
    assert sum(counts) + zeros == FQ.q**m and zeros == len(set(roots))


@pytest.mark.parametrize("p,n", NORM_FIELDS)
def test_norm_log_rows_from_zech_logarithms(p, n):
    """code(r - a) over every a in F_Q, read off the Zech logarithms, against
    the element subtraction, for every r in F_Q, 0 included."""
    nl = NormLog(FiniteField(p, n // 3))
    sub = [nl.h**i for i in range(nl.Q - 1)] + [nl.field.zero()]  # in code order
    for r in sub:
        row = nl._row(nl._code(r))
        assert row.tolist() == [nl._code(r - a) for a in sub]


@pytest.mark.parametrize("p,n", [(7, 1), (31, 1), (5, 2), (13, 2), (7, 3), (5, 4)])
def test_norm_log_doubling_walk_equals_the_product_walk(p, n):
    """code and zm, read off the powers of h filled by doubling, against the
    powers h^0..h^(Q-2) taken one field product at a time."""
    nl = NormLog(FiniteField(p, n))
    powers = [nl.field.one()]
    while len(powers) < nl.Q - 1:
        powers.append(powers[-1] * nl.h)
    code = {x.to_index(): k for k, x in enumerate(powers)}
    assert len(code) == nl.Q - 1 and powers[-1] * nl.h == nl.field.one()
    assert nl.code.tolist() == [code.get(i, nl.Q - 1) for i in range(nl.Q)]
    assert nl.zm.tolist() == [code.get((1 - x).to_index(), nl.Q - 1) for x in powers]


def test_norm_log_refuses_fields_and_roots_it_cannot_count():
    with pytest.raises(ValueError, match="not 1 mod 6"):
        NormLog(FiniteField(5, 3))  # Q = 2 mod 3
    with pytest.raises(ValueError, match="not 1 mod 6"):
        NormLog(FiniteField(17))
    F = FiniteField(7)
    nl = NormLog(F)
    with pytest.raises(ValueError, match="m = 4"):
        nl.cube_class_counts(4, F(1), [F(2)])
    with pytest.raises(ValueError, match="different field"):
        nl.cube_class_counts(1, F(1), [F(2), FiniteField(7, 3).x()])
    with pytest.raises(ValueError, match="at most 12 roots"):
        nl.cube_class_counts(1, F(1), [F(2)] * 13)
    with pytest.raises(ValueError, match="class of zero"):
        nl.cube_class_counts(1, F(0), [F(2)])
    F = FiniteField(811)
    with pytest.raises(BudgetError, match="q = 533411731 exceeds the cap 526385152"):
        NormLog(F).cube_class_counts(3, F(1), [F(2)])


PLANTED_NORM_GENERATOR = """
from twocubes.exact import FiniteField
from twocubes.exact.zechlog import NormLog
F = FiniteField(7)
F._generator = F.generator() ** 2
try:
    NormLog(F)
    print("built")
except ArithmeticError as exc:
    print(exc)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_norm_log_rejects_a_planted_generator(flags):
    """Over F_7, h = g^2 has order 3, not Q - 1 = 6: refused, also under -O."""
    out = subprocess.run(
        [sys.executable, *flags, "-c", PLANTED_NORM_GENERATOR],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
    )
    assert out.stdout.splitlines() == ["h does not have order Q - 1"]
