"""Tests for fiber classification, the K3 criterion, and Shioda-Tate."""

import random
from fractions import Fraction

import pytest
import sympy

from twocubes.exact import Polynomial, rational_poly
from twocubes.function_field import FunctionFieldCurve, build_family, good_prime, lfunction
from twocubes.surface import (
    KodairaFiber,
    Place,
    SurfaceError,
    analyze,
    classify_fibers,
    euler_and_k3,
    shioda_tate,
)


@pytest.fixture(scope="module")
def family_fibers():
    return classify_fibers(build_family().k)


def test_family_fibers_three_quadratic_places(family_fibers):
    assert len(family_fibers) == 3
    assert all(f.place.degree == 2 for f in family_fibers)
    assert all(f.type == "IV" for f in family_fibers)
    assert all((f.components, f.euler, f.conductor_exponent) == (3, 4, 2) for f in family_fibers)
    assert sum(f.place.degree for f in family_fibers) == 6  # six geometric fibers
    # places are the monic forms of 3T^2-3T+1, T^2+T+1, T^2-3T+3
    places = sorted(p.place.poly.coeffs for p in family_fibers)
    assert places == sorted(
        [
            (Fraction(1, 3), Fraction(-1), Fraction(1)),
            (Fraction(1), Fraction(1), Fraction(1)),
            (Fraction(3), Fraction(-3), Fraction(1)),
        ]
    )


def test_family_euler_and_k3(family_fibers):
    e, is_k3 = euler_and_k3(family_fibers)
    assert e == 24 and is_k3
    # oracle: e equals the degree of the discriminant locus, deg(k^4) = 24
    assert 4 * build_family().k.degree == 24


def test_t6_minus_1_fibers():
    fibers = classify_fibers(rational_poly(-1, 0, 0, 0, 0, 0, 1))
    degrees = sorted(f.place.degree for f in fibers)
    assert degrees == [1, 1, 2, 2]
    assert all(f.type == "IV" for f in fibers)
    assert euler_and_k3(fibers) == (24, True)


def test_cubic_k_gives_rational_surface():
    fibers = classify_fibers(rational_poly(-2, 0, 0, 1))  # T^3 - 2
    e, is_k3 = euler_and_k3(fibers)
    assert e == 12 and not is_k3


def test_degree5_k_adds_fiber_at_infinity():
    # deg 5 squarefree: infinity becomes a type IV place of degree 1
    fibers = classify_fibers(rational_poly(1, 1, 0, 0, 0, 1))  # T^5 + T + 1 (squarefree)
    inf = [f for f in fibers if f.place.poly is None]
    assert len(inf) == 1 and inf[0].type == "IV"
    assert euler_and_k3(fibers)[0] == 24


def test_classify_rejects_non_squarefree():
    k = rational_poly(0, 0, 1) * rational_poly(1, 0, 0, 0, 1)  # T^2 (T^4 + 1)
    with pytest.raises(ValueError, match="squarefree"):
        classify_fibers(k)


def _random_k(rng, x):
    """Integer coefficients (low first) of a random k of degree 1..6; about a
    third of those of degree >= 2 carry a planted square factor."""

    def rand(deg):
        return sum(rng.randint(-9, 9) * x**i for i in range(deg)) + rng.randint(1, 9) * x**deg

    deg = rng.randint(1, 6)
    if deg >= 2 and rng.random() < 1 / 3:
        s = rng.randint(1, deg // 2)
        expr = rand(s) ** 2 * rand(deg - 2 * s)
    else:
        expr = rand(deg)
    return [int(c) for c in reversed(sympy.Poly(expr, x).all_coeffs())]


def test_squarefree_decisions_match_sympy_discriminant():
    """classify_fibers refuses exactly the k with disc(k) = 0, naming the monic
    gcd(k, k') as sympy computes it, and good_prime(p) is p not dividing
    6 lc(k) disc(k) for every prime p < 500."""
    rng, x = random.Random(11), sympy.Symbol("x")
    family = build_family()
    small = list(sympy.primerange(2, 500))
    cases = [_random_k(rng, x) for _ in range(60)] + [[int(c) for c in family.k.coeffs]]
    refused = 0
    for coeffs in cases:
        expr = sum(c * x**i for i, c in enumerate(coeffs))
        disc = int(sympy.discriminant(expr, x))
        k = Polynomial(tuple(Fraction(c) for c in coeffs))
        if disc == 0:
            rep = sympy.Poly(sympy.gcd(expr, sympy.diff(expr, x)), x).monic()
            rep = Polynomial(tuple(Fraction(str(c)) for c in reversed(rep.all_coeffs())))
            with pytest.raises(ValueError) as err:
                classify_fibers(k)
            assert str(err.value) == f"k is not squarefree; repeated factor {rep.format()}"
            refused += 1
        else:
            classify_fibers(k)
        curve = FunctionFieldCurve(k, family.p1, family.p2)
        bad = 6 * coeffs[-1] * disc
        assert [good_prime(curve, p) for p in small] == [bad % p != 0 for p in small]
    assert 10 <= refused <= 30, refused


def test_classify_rejects_bad_degrees():
    with pytest.raises(ValueError):
        classify_fibers(rational_poly(5))
    with pytest.raises(ValueError):
        classify_fibers(rational_poly(*([1] + [0] * 6 + [1])))


def test_euler_rejects_empty():
    with pytest.raises(ValueError):
        euler_and_k3([])


@pytest.mark.parametrize("r,expected", [(4, 18), (2, 16), (0, 14)])
def test_shioda_tate_family(family_fibers, r, expected):
    # rho = r + 2 + 6 * 2 for the six geometric type-IV fibers
    assert shioda_tate(r, family_fibers) == expected


def test_shioda_tate_base_case():
    assert shioda_tate(0, []) == 2


def test_shioda_tate_random_multisets():
    rng = random.Random(73)
    symbols = {"II": (1, 2), "IV": (3, 4), "I0*": (5, 6), "IV*": (7, 8), "II*": (9, 10)}
    va = {"II": 1, "IV": 2, "I0*": 3, "IV*": 4, "II*": 5}
    for _ in range(10):
        fibers = []
        total = 0
        for _ in range(rng.randint(1, 5)):
            sym = rng.choice(list(symbols))
            m, e = symbols[sym]
            deg = rng.randint(1, 3)
            fibers.append(
                KodairaFiber(Place(rational_poly(*([1] * deg + [1])).monic()), va[sym], sym, m, e, 2)
            )
            total += (m - 1) * fibers[-1].place.degree
        r = rng.randint(0, 6)
        assert shioda_tate(r, fibers) == r + 2 + total  # hand arithmetic oracle


def test_classification_invariant_under_translation():
    fam = build_family()
    k = fam.k
    base = classify_fibers(k)
    for c in (1, -2, 5):
        shifted = k(rational_poly(c, 1))  # T -> T + c
        assert isinstance(shifted, Polynomial)
        fibers = classify_fibers(shifted)
        assert sorted(f.place.degree for f in fibers) == sorted(
            f.place.degree for f in base
        )
        assert sorted(f.type for f in fibers) == sorted(f.type for f in base)


def test_analyze_full_pipeline():
    report = analyze(lfunction(17))
    assert report.picard == 18
    assert report.is_k3
    assert report.euler_number == 24
    assert report.chi == 2
    assert report.rank_input == 4
    assert report.picard <= 20
    assert len(report.fibers) == 3


def test_analyze_stage_errors_carry_stage_name():
    from twocubes.function_field import LPolynomial

    with pytest.raises(SurfaceError, match="lfunction"):
        analyze(LPolynomial(17, (1,), ()))
