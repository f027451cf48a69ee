"""Property tests for Polynomial over coefficient fields other than Q.

F_17, F_{5^2} and Q(omega) coefficients take the generic branches of
divmod and poly_gcd.  They serve only the Q(omega) oracle and these tests
(the finite fields compute gcds with the int-list `_pgcd` of exact.ffield):
division with remainder reassembles its input, and the gcd divides both
inputs and contains a planted common factor.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from twocubes.exact import Eisenstein, FiniteField, Polynomial, poly_gcd

FAST = settings(max_examples=30, deadline=None, derandomize=True, database=None)

F17, F25 = FiniteField(17), FiniteField(5, 2)


def _ff(F):
    return st.integers(0, F.q - 1).map(F.from_index)


_small = st.integers(-4, 4)
_eisenstein = st.builds(
    lambda a, b, d: Eisenstein(Fraction(a, d), Fraction(b, d)), _small, _small, st.integers(1, 3)
)
RINGS = {"F17": _ff(F17), "F25": _ff(F25), "Q(omega)": _eisenstein}


@st.composite
def polys(draw, k):
    """A coefficient field and k nonzero polynomials over it, of degree 0..4."""
    coeff = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    out = []
    for _ in range(k):
        cs = draw(st.lists(coeff, max_size=4))
        lc = draw(coeff.filter(lambda c: c != 0))
        out.append(Polynomial(cs + [lc]))
    return out


@FAST
@given(polys(3))
def test_divmod_reassembles(case):
    a, c, b = case
    a = a * c  # up to degree 8
    q, r = divmod(a, b)
    assert a == q * b + r
    assert r.is_zero() or r.degree < b.degree


@FAST
@given(polys(3))
def test_gcd_divides_both_and_contains_a_planted_factor(case):
    c, u, v = case
    a, b = c * u, c * v
    g = poly_gcd(a, b)
    assert g.lc == 1
    assert (a % g).is_zero() and (b % g).is_zero()
    assert (g % c).is_zero()
