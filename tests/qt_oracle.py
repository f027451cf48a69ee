"""Q(T) by sympy: the independent oracle for the RationalFunction normal
form and for section arithmetic over Q(T).

`qt` carries a Polynomial or RationalFunction over Q into sympy's field
Q(T), and `normal_form` reads an element back as the (numerator,
denominator) coefficient lists, low degree first, with a monic
denominator.  Neither touches the integer kernel of `exact.poly`.
"""

from fractions import Fraction

import sympy

from twocubes.exact import RationalFunction

QT, T = sympy.field("T", sympy.QQ)


def qt(f):
    """A Polynomial or RationalFunction with coefficients in Q, as an element of QT."""
    if isinstance(f, RationalFunction):
        return qt(f.num) / qt(f.den)
    return sum((sympy.QQ(c.numerator, c.denominator) * T**i for i, c in enumerate(f.coeffs)),
               QT(0))


def normal_form(f) -> tuple[list[Fraction], list[Fraction]]:
    """(num, den) of an element of QT in lowest terms, den monic, low degree first."""
    lead = f.denom.LC
    return tuple(
        [Fraction(int(c.numerator), int(c.denominator)) for c in reversed((p / lead).to_dense())]
        for p in (f.numer, f.denom)
    )
