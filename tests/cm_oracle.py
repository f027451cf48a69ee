"""Differentials over Q(omega) by the generic chain: the slow oracle for z_rank_cm.

Sections are lifted to Q(omega) coefficients, twisted by the CM map
(x, y) -> (omega x, omega y), and their Wronskians x'y - xy' formed by the
generic RationalFunction Euclid chain; the rank flattens each Q(omega)
coefficient to a pair of rationals.  This is how the CM-extended rank was
computed before it moved to rational rows through
lambda([omega]P) = omega^2 lambda(P).
"""

from fractions import Fraction

from twocubes.exact import OMEGA, Eisenstein, Polynomial, RationalFunction, poly_gcd
from twocubes.function_field import HolDifferential, SectionPoint, _rank


def _to_eisenstein_poly(f: Polynomial) -> Polynomial:
    return Polynomial(tuple(c if isinstance(c, Eisenstein) else Eisenstein(c) for c in f.coeffs))


def _to_eisenstein_rf(f: RationalFunction) -> RationalFunction:
    return RationalFunction(_to_eisenstein_poly(f.num), _to_eisenstein_poly(f.den))


def cm_twist(P: SectionPoint) -> SectionPoint:
    """(x, y) -> (omega x, omega y), the extra endomorphism over Q(omega)."""
    return SectionPoint(_to_eisenstein_rf(P.x) * OMEGA, _to_eisenstein_rf(P.y) * OMEGA)


def chain_differential(P: SectionPoint) -> HolDifferential:
    """lambda(P) = x'y - xy' by RationalFunction arithmetic over any coefficient field."""
    return HolDifferential(P.x.derivative() * P.y - P.x * P.y.derivative())


def flat_rank(diffs: list[HolDifferential]) -> int:
    """Rank over Q of the coefficient vectors, Q(omega) entries flattened to (a, b)."""
    if not diffs:
        return 0
    ws = [_to_eisenstein_rf(d.w) for d in diffs]
    den = ws[0].den
    for w in ws[1:]:
        den = den * (w.den // poly_gcd(den, w.den))
    numerators = [(w * RationalFunction(den)).as_polynomial() for w in ws]
    width = max((n.degree + 1 if not n.is_zero() else 1) for n in numerators)
    rows = []
    for n in numerators:
        row: list[Fraction] = []
        for i in range(width):
            c = Eisenstein._coerce(n.coeff(i))
            row.extend((c.a, c.b))
        rows.append(row)
    return _rank(rows)
