"""Rational functions num/den over a coefficient field, in lowest terms: the
coordinates of sections and the pullback differentials over Q(T).

The denominator is kept monic and coprime to the numerator.  Over Q the
normal form is reached fraction-free: denominators are cleared once, one
primitive gcd over Z[T] is divided out exactly, and only the final division
by the denominator's leading coefficient makes Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import Polynomial, _cleared, _int_exact_div, _int_gcd, _is_rational_poly, poly_gcd


class RationalFunction:
    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, Polynomial):
            num = Polynomial((num,))
        if den is None:
            den = Polynomial((Fraction(1),)) if not num.is_zero() else Polynomial((1,))
        elif not isinstance(den, Polynomial):
            den = Polynomial((den,))
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            self.num = num
            self.den = Polynomial((1,))
            return
        if _is_rational_poly(num) and _is_rational_poly(den):
            a, b = _cleared(num, den)
            g = _int_gcd(a, b)
            if len(g) > 1:
                a, b = _int_exact_div(a, g), _int_exact_div(b, g)
            self.num = Polynomial(tuple(Fraction(c, b[-1]) for c in a))
            self.den = Polynomial(tuple(Fraction(c, b[-1]) for c in b))
            return
        g = poly_gcd(num, den)
        if g.degree and g.degree > 0:
            num, den = num // g, den // g
        lead = den.lc
        self.num = Polynomial(tuple(c / lead for c in num.coeffs))
        self.den = Polynomial(tuple(c / lead for c in den.coeffs))

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return other
        if isinstance(other, Polynomial):
            return RationalFunction(other)
        return RationalFunction(Polynomial((other,)))

    def __add__(self, other):
        o = self._coerce(other)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, e: int):
        if e < 0:
            return (RationalFunction(Polynomial((1,))) / self) ** (-e)
        return RationalFunction(self.num**e, self.den**e)

    def derivative(self) -> "RationalFunction":
        return RationalFunction(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, t):
        d = self.den(t)
        if d == 0:
            raise ZeroDivisionError(f"pole at {t}")
        return self.num(t) / d

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_polynomial(self) -> Polynomial:
        if not self.is_polynomial():
            raise ValueError("not a polynomial")
        return self.num  # den is the constant 1 after normalization

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, Polynomial):
            return self.is_polynomial() and self.num == other
        if other == 0:
            return self.num.is_zero()
        return self.is_polynomial() and self.num == other

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"

    def format(self, var: str = "T") -> str:
        if self.den.degree == 0:
            return self.num.format(var)
        return f"({self.num.format(var)}) / ({self.den.format(var)})"

