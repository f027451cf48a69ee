"""Field axioms of FFElement arithmetic over F_17, F_{13^2}, F_{7^3} and F_{5^4}.

Ring laws and Fermat's little theorem on derandomized samples; inverses
for every nonzero element.  Products in every field the L-functions count
over are checked against the plain-int reduction of tests/enumeration.py.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enumeration import _mulmod, _reducer
from twocubes.exact import FiniteField

FIELDS = [FiniteField(17), FiniteField(13, 2), FiniteField(7, 3), FiniteField(5, 4)]
FAST = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def elements(draw, k):
    """A field from FIELDS and k of its elements."""
    F = draw(st.sampled_from(FIELDS))
    return F, [F.from_index(draw(st.integers(0, F.q - 1))) for _ in range(k)]


@FAST
@given(elements(3))
def test_ring_laws(case):
    F, (a, b, c) = case
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a + F.zero() == a and a * F.one() == a and a - a == F.zero()


@FAST
@given(elements(1))
def test_fermat(case):
    F, (x,) = case
    assert x**F.q == x
    if not x.is_zero():
        assert x ** (F.q - 1) == F.one()


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: f"{F.p}^{F.n}")
def test_every_nonzero_element_is_invertible(F):
    one = F.one()
    for i in range(1, F.q):
        x = F.from_index(i)
        assert x * x.inverse() == one
    with pytest.raises(ZeroDivisionError):
        F.zero().inverse()


# (p, n) of every field counted for L mod 5 (with --direct), 11 and 17, and by the c_n oracle at 13
COUNTED = [(5, n) for n in range(1, 9)] + [(p, n) for p in (11, 13, 17) for n in range(1, 7)]


def test_products_match_the_enumeration_oracle():
    rng = random.Random(5)
    for p, n in COUNTED:
        F = FiniteField(p, n)
        rows = _reducer(F.modulus, p)
        extremes = [F.zero(), F.one(), F.from_index(F.q - 1)]  # the last has all digits p - 1
        pairs = [(a, b) for a in extremes for b in extremes]
        pairs += [(F.from_index(rng.randrange(F.q)), F.from_index(rng.randrange(F.q)))
                  for _ in range(20)]
        for a, b in pairs:
            assert (a * b).coeffs == _mulmod(a.coeffs, b.coeffs, rows, p), (p, n, a, b)
