"""A point (x, y) cleared to the triple (X, Y, Z), x = X/Z and y = Y/Z, the
one form in which the library holds points: planted and off-curve points
for the tests are built here.

Over Q the triple is over Z with Z = lcm of the two denominators.  Over Q(T)
(Polynomials or RationalFunctions) x = a/b and y = c/e give the coefficient
tuples of (ae : cb : be) over Z[T], not made primitive.
"""

import math
from fractions import Fraction

from twocubes.exact import Polynomial, RationalFunction
from twocubes.exact.poly import _cleared, _int_mul


def triple(x, y):
    if not isinstance(x, (Polynomial, RationalFunction)):
        x, y = Fraction(x), Fraction(y)
        Z = math.lcm(x.denominator, y.denominator)
        return int(x * Z), int(y * Z), Z
    x, y = (f if isinstance(f, RationalFunction) else RationalFunction(f) for f in (x, y))
    (a, b), (c, e) = _cleared(x.num, x.den), _cleared(y.num, y.den)
    return tuple(tuple(_int_mul(f, g)) for f, g in ((a, e), (c, b), (b, e)))
