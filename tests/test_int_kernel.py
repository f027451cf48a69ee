"""Property tests for the integer polynomial kernel behind Q(T) arithmetic.

Kronecker products are checked against schoolbook products, exact division
against multiplication, and the fraction-free normal form of
RationalFunction against sympy's Q(T), on random inputs with planted common
factors.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qt_oracle import normal_form, qt
from twocubes.exact import Polynomial, RationalFunction
from twocubes.exact.poly import (
    _KRONECKER_MIN,
    _int_exact_div,
    _int_gcd,
    _int_mul,
)

# Derandomized and without an example database: the same examples on every
# run, and nothing written to the working tree.
FAST = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _schoolbook(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _strip(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


small = st.integers(-5, 5)
big = st.integers(-(2**300), 2**300)
# Lengths on both sides of the Kronecker threshold; zeros and signs mixed in.
int_polys = st.lists(st.one_of(small, big), min_size=0, max_size=2 * _KRONECKER_MIN + 3).map(_strip)
nonzero_polys = int_polys.filter(bool)


@FAST
@given(int_polys, int_polys)
def test_kronecker_product_equals_schoolbook(a, b):
    assert _int_mul(a, b) == _schoolbook(a, b)


def test_kronecker_product_edge_digits():
    # every product coefficient at or next to the digit bound, both signs
    n = _KRONECKER_MIN + 2
    for x, y in ((2**64 - 1, 2**64 - 1), (-(2**64), 2**64 - 1), (1, -1), (-7, -7)):
        a, b = [x] * n, [y] * n
        assert _int_mul(a, b) == _schoolbook(a, b)
    alternating = [(-1) ** i * (2**80 + i) for i in range(2 * _KRONECKER_MIN)]
    assert _int_mul(alternating, alternating[::-1]) == _schoolbook(alternating, alternating[::-1])
    sparse, ones = [0, 0, 0, 5], [1] * _KRONECKER_MIN
    assert _int_mul(sparse, ones) == _schoolbook(sparse, ones)


@FAST
@given(int_polys, nonzero_polys)
def test_exact_division_round_trips(q, b):
    assert _int_exact_div(_int_mul(q, b), b) == q


@FAST
@given(nonzero_polys, nonzero_polys, st.integers(1, 2**40))
def test_exact_division_rejects_inexact_divisors(q, b, r):
    a = _int_mul(q, b)
    if len(b) > 1:  # a + r leaves the remainder r over Q
        with pytest.raises(ArithmeticError):
            _int_exact_div(_strip([a[0] + r] + a[1:]), b)
    if any(c % 2 for c in q):  # a / 2b = q/2 is exact over Q but not over Z
        with pytest.raises(ArithmeticError):
            _int_exact_div(a, [2 * c for c in b])


@FAST
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_primitive_gcd_divides_and_contains_planted_factor(a, b, g):
    x, y = _int_mul(a, g), _int_mul(b, g)
    h = _int_gcd(x, y)
    assert h[-1] > 0 and gcd(*h) == 1
    _int_exact_div(x, h)
    _int_exact_div(y, h)
    _int_exact_div(h, [c // gcd(*g) for c in g])  # the primitive part of g divides h
    assert _int_gcd([], x) == _int_gcd(x, []) == _int_gcd(x, x)  # gcd(0, x) = gcd(x, x)


fractions = st.fractions(min_value=-50, max_value=50, max_denominator=12)
frac_polys = st.lists(fractions, min_size=1, max_size=7).map(_strip).filter(bool)


@settings(FAST, max_examples=25)
@given(frac_polys, frac_polys, frac_polys)
def test_integer_normal_form_equals_fraction_normal_form(n, d, g):
    num = Polynomial(n) * Polynomial(g)
    den = Polynomial(d) * Polynomial(g)
    f = RationalFunction(num, den)
    want_num, want_den = normal_form(qt(num) / qt(den))
    assert (list(f.num.coeffs), list(f.den.coeffs)) == (want_num, want_den)
    assert all(type(c) is Fraction for c in f.num.coeffs + f.den.coeffs)
    assert f.den.lc == 1
    assert repr(f) == repr(RationalFunction(f.num, f.den))
    zero = RationalFunction(Polynomial(()), den)  # 0/den by the general path: gcd(0, den)
    assert (zero.num.coeffs, zero.den.coeffs) == ((), (1,))
