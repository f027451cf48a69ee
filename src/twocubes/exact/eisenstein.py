"""The field Q(omega), omega a primitive cube root of unity (omega^2 = -1 - omega).

Elements are a + b*omega with rational a, b.  This is Q(sqrt(-3)):
sqrt(-3) = 1 + 2*omega.  The closed-form point counts need only its ring
operations and the norm, so there is no division.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Eisenstein:
    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def _coerce(x) -> "Eisenstein":
        if isinstance(x, Eisenstein):
            return x
        return Eisenstein(x)

    def __add__(self, other):
        o = self._coerce(other)
        return Eisenstein(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Eisenstein(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        # (a + b*w)(c + d*w) with w^2 = -1 - w
        a, b, c, d = self.a, self.b, o.a, o.b
        return Eisenstein(a * c - b * d, a * d + b * c - b * d)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        return self.a * self.a - self.a * self.b + self.b * self.b

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative Eisenstein power")
        result = Eisenstein(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Eisenstein):
            return self.a == other.a and self.b == other.b
        try:
            return self.b == 0 and self.a == other
        except TypeError:
            return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        if self.b == 0:
            return f"Eisenstein({self.a})"
        return f"Eisenstein({self.a}, {self.b})"


OMEGA = Eisenstein(0, 1)


def primary_prime(p: int) -> Eisenstein:
    """The primary (a = 2, b = 0 mod 3) pi = a + b*omega of norm p = 1 mod 3.

    Cornacchia (Cohen, Algorithm 1.5.2) writes p = x^2 + 3y^2 from
    sqrt(-3) = 1 + 2w, w a cube root of unity != 1 mod p; one of the six
    associates of (x + y) + 2y*omega = x + y*sqrt(-3) is primary.
    """
    if p % 3 != 1:
        raise ValueError(f"{p} is not 1 mod 3")
    c = 2
    while pow(c, (p - 1) // 3, p) == 1:
        c += 1
    r = (1 + 2 * pow(c, (p - 1) // 3, p)) % p
    a, x = p, max(r, p - r)
    while x * x > p:
        a, x = x, a % x
    y = math.isqrt((p - x * x) // 3)
    pi = Eisenstein(x + y, 2 * y)
    if pi.norm() != p:
        raise ArithmeticError(f"Cornacchia found no x^2 + 3y^2 = {p}")
    unit = Eisenstein(1)
    for _ in range(6):
        cand = unit * pi
        if cand.a % 3 == 2 and cand.b % 3 == 0:
            return cand
        unit = unit * -OMEGA
    raise ArithmeticError(f"no primary associate of norm {p}")  # unreachable
