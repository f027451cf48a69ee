"""Rational functions num/den over Q, in lowest terms: the printed
coordinates of sections and the pullback differentials over Q(T).

A value type: it holds the normal form, evaluates at t, prints, and reads
back as a Polynomial when its denominator is 1; the
arithmetic of Q(T) runs on the integer kernel of `exact.poly`.  The
denominator is kept monic and coprime to the numerator.  The normal form
is reached fraction-free: denominators are cleared once, one primitive gcd
over Z[T] is divided out exactly, and only the final division by the
denominator's leading coefficient makes Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Polynomial, _cleared, _int_exact_div, _int_gcd, _is_rational_poly


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        """num/den in lowest terms; TypeError for a coefficient outside Q."""
        if not isinstance(num, Polynomial):
            num = Polynomial((num,))
        if den is None:
            den = Polynomial((1,))
        elif not isinstance(den, Polynomial):
            den = Polynomial((den,))
        if not (_is_rational_poly(num) and _is_rational_poly(den)):
            raise TypeError("RationalFunction needs coefficients in Q")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        a, b = _cleared(num, den)
        g = _int_gcd(a, b)
        if len(g) > 1:
            a, b = _int_exact_div(a, g), _int_exact_div(b, g)
        self.num, self.den = (Polynomial(tuple(Fraction(c, b[-1]) for c in f)) for f in (a, b))

    @classmethod
    def coprime(cls, a, b) -> RationalFunction:
        """a/b for coprime a and b over Z[T], b nonzero: the normal form with no gcd."""
        f = cls.__new__(cls)
        f.num, f.den = (Polynomial(tuple(Fraction(c, b[-1]) for c in g)) for g in (a, b))
        return f

    def __call__(self, t):
        d = self.den(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at {t}")
        return self.num(t) / d

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def as_polynomial(self) -> Polynomial:
        if self.den.degree:
            raise ValueError("not a polynomial")
        return self.num  # the normal form's denominator is the constant 1

    def format(self, var: str = "T") -> str:
        if self.den.degree == 0:
            return self.num.format(var)
        return f"({self.num.format(var)}) / ({self.den.format(var)})"
