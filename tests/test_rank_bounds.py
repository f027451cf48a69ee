"""Rank bounds over Z against the sympy oracle in `rank_oracle`.

Phi_m over Z is checked against sympy's cyclotomic polynomials and against
x^m - 1 = prod_{d | m} Phi_d; `rank_bounds` is checked against the oracle
and against the multiplicities planted in L = c * prod Phi_m(pu)^e * R(u).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rank_oracle import fraction_cyclotomic, fraction_rank_bounds
from twocubes.exact import Polynomial
from twocubes.exact.poly import _int_cyclotomic, _int_mul
from twocubes.function_field import LPolynomial, _verify_weil, lfunction, rank_bounds

# Derandomized and without an example database: the same examples on every
# run, and nothing written to the working tree.
FAST = settings(max_examples=40, deadline=None, derandomize=True, database=None)

PUBLISHED = {5: (4, 8), 11: (4, 8), 13: (4, 6), 17: (2, 4)}


def _phi_pu(p, m):
    return [c * p**j for j, c in enumerate(_int_cyclotomic(m))]


def _totient(m):
    return len(_int_cyclotomic(m)) - 1


@pytest.fixture(scope="module")
def published_l():
    return {p: lfunction(p) for p in PUBLISHED}


def test_cyclotomic_equals_fraction_oracle():
    for m in range(1, 61):
        assert list(_int_cyclotomic(m)) == fraction_cyclotomic(m).all_coeffs()[::-1], m


@FAST
@given(st.integers(1, 200))
def test_cyclotomic_product_over_divisors(m):
    factors = [list(_int_cyclotomic(d)) for d in range(1, m + 1) if m % d == 0]
    product = [1]
    for f in factors:
        product = _int_mul(product, f)
    assert product == [-1] + [0] * (m - 1) + [1]


ORDERS = [m for m in range(1, 31) if _totient(m) <= 8]  # every m with phi(m) <= 8


@st.composite
def planted_l(draw):
    """(p, coefficients of c * prod Phi_m(pu)^e * R(u), {m: e}) of degree <= 8.

    R's constant term exceeds the sum of the other coefficients' absolute
    values, so R has no root with |u| <= 1/p and no factor Phi_m(pu).
    """
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17]))
    coeffs = [draw(st.integers(1, 10**6)) * draw(st.sampled_from([1, -1]))]
    planted = {}
    room = 8
    for m in draw(st.lists(st.sampled_from(ORDERS), max_size=5)):
        if _totient(m) <= room:
            room -= _totient(m)
            planted[m] = planted.get(m, 0) + 1
            coeffs = _int_mul(coeffs, _phi_pu(p, m))
    tail = draw(st.lists(st.integers(-5, 5), max_size=room))
    while tail and not tail[-1]:
        tail.pop()
    r0 = sum(map(abs, tail)) + draw(st.integers(1, 5))
    coeffs = _int_mul(coeffs, [r0 * draw(st.sampled_from([1, -1]))] + tail)
    return p, coeffs, planted


@FAST
@given(planted_l())
def test_rank_bounds_match_oracle_and_planted_factors(case):
    p, coeffs, planted = case
    got = rank_bounds(LPolynomial(p, tuple(coeffs), ()))
    assert got == fraction_rank_bounds(p, coeffs)
    assert got == (planted.get(1, 0), sum(e * _totient(m) for m, e in planted.items()))


def test_rank_bounds_find_each_order_alone():
    for m in ORDERS:
        assert rank_bounds(LPolynomial(17, tuple(_phi_pu(17, m)), ())) == (int(m == 1), _totient(m))


def test_rank_bounds_have_no_order_cap():
    # phi(61) = 60: beyond the old search over orders up to 60
    coeffs = _phi_pu(17, 61)
    assert rank_bounds(LPolynomial(17, tuple(coeffs), ())) == (0, 60)
    assert rank_bounds(LPolynomial(17, tuple(_int_mul(coeffs, _phi_pu(17, 1))), ())) == (1, 61)


@pytest.mark.parametrize("p", sorted(PUBLISHED))
def test_rank_bounds_of_published_l(published_l, p):
    L = published_l[p]
    assert rank_bounds(L) == PUBLISHED[p] == fraction_rank_bounds(p, L.coeffs)


def test_rank_bounds_and_weil_check_divide_over_z_only(published_l, monkeypatch):
    def refuse(self, coeffs=()):
        raise AssertionError("a Polynomial was built")

    monkeypatch.setattr(Polynomial, "__init__", refuse)  # int lists only
    _int_cyclotomic.cache_clear()
    for p, L in published_l.items():
        assert rank_bounds(L) == PUBLISHED[p]
        _verify_weil(L)
