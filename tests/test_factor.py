"""factor_over_z against sympy's factor_list, the oracle: planted products of
random irreducibles, polynomials that split mod every prime (so the lifted
factors must be recombined), and rational inputs as `surface analyze --k`
takes them."""

import random
from fractions import Fraction

import sympy

from twocubes.exact import factor_over_z, rational_poly
from twocubes.exact import poly as poly_module
from twocubes.exact.ffield import _pmonic
from twocubes.exact.poly import _factor_mod_p, _int_mul
from twocubes.surface import _factor_over_q

X = sympy.Symbol("x")


def _sympy_poly(f):
    return sympy.Poly(list(reversed(f)), X)


def _oracle(f):
    content, factors = _sympy_poly(f).factor_list()
    return int(content), sorted(
        (([int(c) for c in reversed(g.all_coeffs())], m) for g, m in factors),
        key=lambda gm: (len(gm[0]), gm[0]),
    )


def _rebuild(content, factors):
    out = [content]
    for g, m in factors:
        for _ in range(m):
            out = _int_mul(out, g)
    return out


def _check(f):
    got = factor_over_z(f)
    assert got == _oracle(f)
    assert _rebuild(*got) == f
    assert all(_sympy_poly(g).is_irreducible for g, _ in got[1])
    return got


def _random_irreducible(rng, degree, bits):
    while True:
        f = [rng.randint(-(1 << bits), 1 << bits) for _ in range(degree)]
        f.append(rng.choice((1, -1)) * rng.randint(1, 1 << bits))
        if _sympy_poly(f).is_irreducible:
            return f


def test_planted_products_match_sympy():
    """Two or three irreducibles of degree <= 8 with coefficients up to 2^64,
    one of them repeated, times a negative content."""
    rng = random.Random(20151002)
    for _ in range(16):
        f = [rng.randint(1, 10**6)]
        for j in range(rng.randint(2, 3)):
            g = _random_irreducible(rng, rng.randint(1, 4 if j == 1 else 8), rng.choice((4, 64)))
            for _ in range(2 if j == 1 else 1):
                f = _int_mul(f, g)
        if f[-1] > 0:
            f = [-c for c in f]
        content, factors = _check(f)
        assert content < 0 and any(m == 2 for _, m in factors)


def test_polynomials_that_split_mod_every_prime():
    """x^4 + 1 and x^4 - 10x^2 + 1 are irreducible over Z but have no
    irreducible factor of degree 4 mod any prime; their product and the
    degree-8 Swinnerton-Dyer polynomial of sqrt 2, sqrt 3, sqrt 5 need
    recombination across several lifted factors."""
    cases = [
        [1, 0, 0, 0, 1],
        [1, 0, -10, 0, 1],
        _int_mul([1, 0, 0, 0, 1], [1, 0, -10, 0, 1]),
        [576, 0, -960, 0, 352, 0, -40, 0, 1],
    ]
    for f in cases:
        for p in (5, 7, 11, 13):
            assert len(_factor_mod_p(_pmonic([c % p for c in f], p), p, random.Random(0))) >= 2
        _check(f)


def test_no_factor_without_exact_division(monkeypatch):
    """With no Hensel lifting at all the recombination sees only residues mod
    p: it may miss factors, but what it returns still rebuilds f exactly."""
    monkeypatch.setattr(poly_module, "_mignotte", lambda f: 0)
    for f in ([1, 0, -10, 0, 1], _int_mul([-2, 0, 1], [576, 0, -960, 0, 352, 0, -40, 0, 1]),
              _int_mul([1, 0, 0, 0, 1], [1, 0, -10, 0, 1])):
        content, factors = factor_over_z(f)
        assert _rebuild(content, factors) == f
        assert all(g[-1] > 0 for g, _ in factors)


def test_rational_k_matches_sympy_over_q():
    k = rational_poly(Fraction(-3, 14), Fraction(1, 7), 0, Fraction(5, 2), Fraction(-2, 3), 1,
                      Fraction(1, 6)) * rational_poly(Fraction(1, 2), 1)
    expr = sum(sympy.Rational(c.numerator, c.denominator) * X**i for i, c in enumerate(k.coeffs))
    _, factors = sympy.Poly(expr, X, domain="QQ").factor_list()
    want = sorted(
        (tuple(Fraction(str(c)) for c in reversed(sympy.Poly(g, X).monic().all_coeffs())), m)
        for g, m in factors
    )
    got = _factor_over_q(k)
    assert [(f.coeffs, m) for f, m in got] == sorted(want, key=lambda fm: (len(fm[0]), fm[0]))


def test_content_and_trivial_inputs():
    assert factor_over_z([-6]) == (-6, [])
    assert factor_over_z([0, 0, 4, 0]) == (4, [([0, 1], 2)])
    assert factor_over_z([6, -6]) == (-6, [([-1, 1], 1)])
