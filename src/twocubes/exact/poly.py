"""Dense univariate polynomials over an arbitrary commutative coefficient ring.

Coefficients are stored lowest degree first.  Any coefficient type works as
long as it supports +, -, * with itself and with small Python ints; divmod
and gcd additionally need / (field coefficients).  Nesting is allowed: a
Polynomial over Polynomial coefficients is a bivariate polynomial.  The zero
polynomial has an empty coefficient tuple and degree ``None`` (a real
sentinel, never -1).

Over Q the work is done by the integer kernel below, on int lists over
Z[T]: products, exact division and the primitive gcd; squarefreeness of k
is decided on it as gcd(k, k') = 1.  Polynomials over F_p are the plain int
lists of ``exact.ffield``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "Polynomial":
        return cls((c,))

    @classmethod
    def monomial(cls, c, k: int) -> "Polynomial":
        return cls((0,) * k + (c,))

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int | None:
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self):
        """Leading coefficient; raises on the zero polynomial."""
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return self + Polynomial((other,))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other if isinstance(other, Polynomial) else Polynomial((-other,)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            return Polynomial(tuple(c * other for c in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Polynomial(out)

    def __rmul__(self, other):
        return Polynomial(tuple(other * c for c in self.coeffs))

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Polynomial((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, t):
        """Evaluate by Horner; t may live in any ring containing the coefficients."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def reversed(self, degree: int | None = None) -> "Polynomial":
        """Coefficients reversed, treating self as having the given degree."""
        d = self.degree if degree is None else degree
        if d is None:
            return Polynomial()
        cs = [self.coeff(i) for i in range(d + 1)]
        return Polynomial(tuple(reversed(cs)))

    # -- field-coefficient operations --------------------------------------

    def __divmod__(self, other: "Polynomial"):
        if not isinstance(other, Polynomial) or other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = Polynomial()
        r = self
        db, lb = other.degree, other.lc
        while not r.is_zero() and r.degree >= db:
            shift = r.degree - db
            factor = r.lc / lb
            term = Polynomial.monomial(factor, shift)
            q = q + term
            r = r - term * other
        return q, r

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        inv = self.lc
        return Polynomial(tuple(c / inv for c in self.coeffs))

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.coeffs == other.coeffs
        if other == 0:
            return not self.coeffs
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"

    def format(self, var: str = "T") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeff(i)
            if c == 0:
                continue
            if i == 0:
                term = f"{c}"
            elif i == 1:
                term = f"{var}" if c == 1 else f"-{var}" if c == -1 else f"{c}*{var}"
            else:
                term = (
                    f"{var}^{i}" if c == 1 else f"-{var}^{i}" if c == -1 else f"{c}*{var}^{i}"
                )
            parts.append(term)
        out = " + ".join(parts).replace("+ -", "- ")
        return out


def rational_poly(*coeffs) -> Polynomial:
    """Polynomial over Q from low-to-high coefficients (ints, Fractions, strings)."""
    return Polynomial(tuple(Fraction(c) for c in coeffs))


def _is_rational_poly(f: Polynomial) -> bool:
    return all(isinstance(c, (Fraction, int)) for c in f.coeffs)


# -- the integer kernel: polynomials over Z as int lists, low degree first, ----
# -- with no trailing zeros ----------------------------------------------------


def _cleared(*polys: Polynomial) -> list[list[int]]:
    """Integer coefficient lists of rational polys times the lcm of all their denominators."""
    from math import lcm

    den = lcm(*(c.denominator for f in polys for c in f.coeffs))
    return [[c.numerator * (den // c.denominator) for c in f.coeffs] for f in polys]


def _int_add(a: list[int], b: list[int], sign: int = 1) -> list[int]:
    """a + sign*b."""
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    out = [x + sign * y for x, y in zip(a, b)] + a[len(b):]
    while out and not out[-1]:
        out.pop()
    return out


# Shorter factor length from which one packed big-int product beats schoolbook.
_KRONECKER_MIN = 10


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    """Product over Z; long factors by Kronecker substitution.

    Each factor is packed as its value at 2^w, with w wide enough that every
    product coefficient c has |c| < 2^(w-1); one big-int multiply then
    carries the whole convolution, and the product is read back as signed
    base-2^w digits.
    """
    if not a or not b:
        return []
    if min(len(a), len(b)) < _KRONECKER_MIN:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return out
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = bound.bit_length() // 8 + 1  # bytes per digit
    n = len(a) + len(b) - 1
    # Adding 2^(w-1) to every digit makes all digits nonnegative: no carries.
    half = 1 << (8 * width - 1)
    offset = int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")
    raw = (_pack(a, width) * _pack(b, width) + offset).to_bytes(width * n, "little")
    return [int.from_bytes(raw[i:i + width], "little") - half for i in range(0, width * n, width)]


def _pack(a: list[int], width: int) -> int:
    """a evaluated at 2^(8 width)."""
    acc = 0
    for c in reversed(a):
        acc = (acc << 8 * width) + c
    return acc


def _int_exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b over Z (b nonzero); ArithmeticError unless the quotient is in Z[x]."""
    db, lb = len(b) - 1, b[-1]
    a = list(a)
    q = [0] * max(len(a) - db, 0)
    for s in range(len(q) - 1, -1, -1):
        c, r = divmod(a[s + db], lb)
        if r:
            raise ArithmeticError("polynomial division over Z is not exact")
        q[s] = c
        if c:
            for i in range(db):
                a[s + i] -= c * b[i]
    if any(a[:db]):
        raise ArithmeticError("polynomial division over Z is not exact")
    return q


def _int_divide_out(a: list[int], f: list[int]) -> tuple[list[int], int]:
    """(a / f^k, k) for the largest k with f^k dividing a over Z."""
    if not a:
        raise ValueError("the zero polynomial has no finite multiplicity")
    k = 0
    while True:
        try:
            a = _int_exact_div(a, f)
        except ArithmeticError:
            return a, k
        k += 1


def _int_prem(a: list[int], b: list[int]) -> list[int]:
    """A nonzero integer multiple of the remainder of a by b over Q (b nonzero).

    Each step is a*(lb/g) - (c/g)*x^s*b with g = gcd(c, lb), a scaled-down
    pseudo-remainder step.
    """
    from math import gcd

    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and a:
        c = a[-1]
        if c:
            g = gcd(c, lb)
            m, c = lb // g, c // g
            shift = len(a) - 1 - db
            if m != 1:
                a = [x * m for x in a]
            for i in range(db + 1):
                a[shift + i] -= c * b[i]
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    return a


def _primitive(a: list[int]) -> list[int]:
    from math import gcd

    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z of two nonzero polynomials, leading coefficient > 0.

    A primitive pseudo-remainder sequence: the content is stripped at every
    step, which keeps coefficient growth tame.
    """
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_int_prem(a, b))
    return a if a[-1] > 0 else [-c for c in a]


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over a coefficient field.

    Rational-coefficient inputs run the primitive gcd over Z (denominators
    cleared); other coefficient fields use plain Euclid.
    """
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    if _is_rational_poly(f) and _is_rational_poly(g):
        return Polynomial(tuple(Fraction(c) for c in _int_gcd(*_cleared(f, g)))).monic()
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


@lru_cache(maxsize=None)
def _int_cyclotomic(m: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_m: x^m - 1 divided exactly over Z by Phi_d, d | m, d < m."""
    if m < 1:
        raise ValueError("m >= 1 required")
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num = _int_exact_div(num, _int_cyclotomic(d))
    return tuple(num)


def cyclotomic(m: int) -> Polynomial:
    """The m-th cyclotomic polynomial over Q."""
    return Polynomial(tuple(Fraction(c) for c in _int_cyclotomic(m)))
