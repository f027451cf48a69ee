"""Finite fields F_{p^n} with a deterministic modulus choice.

Elements are coefficient tuples over F_p modulo the lexicographically
smallest monic irreducible of degree n (coefficients compared low-to-high).
That makes every field construction, generator choice and golden value
reproducible.
"""

from __future__ import annotations

from functools import lru_cache

from .numbers import factorize, is_probable_prime

# -- the one mod-p core, on bare int lists: FFElement products and powers, the ------
# -- distinct-degree loop and the steps of factor_over_z --------------------------


def _ptrim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _pmul(a, b, p: int) -> list[int]:
    """a * b over Z for coefficients in [0, p), to be reduced by _pmod.

    Kronecker substitution: each factor is packed as its value at 2^w, w
    wide enough for every coefficient of the product, and one big-int
    multiply carries the whole convolution.
    """
    if not a or not b:
        return []
    w = (min(len(a), len(b)) * (p - 1) ** 2).bit_length()
    x = y = 0
    for c in reversed(a):
        x = x << w | c
    for c in reversed(b):
        y = y << w | c
    z, mask = x * y, (1 << w) - 1
    return [z >> w * k & mask for k in range(len(a) + len(b) - 1)]


def _ptail(m) -> list[tuple[int, int]]:
    """The nonzero lower coefficients of a monic m as (i, m_i) pairs: all that
    a reduction by m reads of it."""
    return [(i, c) for i, c in enumerate(m[:-1]) if c]


def _pmod(a, m, p: int, tail=None) -> list[int]:
    """a mod the monic m over F_p, for any integer coefficients of a.

    Only the nonzero lower coefficients of m are subtracted, and each
    coefficient is reduced mod p once, at the end.  A caller that reduces by
    one m many times passes its _ptail once computed.  Like _pmul it never
    inverts, so it also works mod a prime power (the Hensel lifting of
    exact.poly runs on both).
    """
    a = list(a)
    dm = len(m) - 1
    low = tail if tail is not None else _ptail(m)
    for top in range(len(a) - 1, dm - 1, -1):
        c = a[top] % p
        if c:
            for i, cm in low:
                a[top - dm + i] -= c * cm
    return _ptrim([c % p for c in a[:dm]])


def _pquo(a, m, p: int) -> list[int]:
    """The quotient of a by the monic m over F_p."""
    a = list(a)
    dm = len(m) - 1
    q = [0] * max(len(a) - dm, 0)
    for top in range(len(a) - 1, dm - 1, -1):
        c = q[top - dm] = a[top] % p
        if c:
            for i in range(dm):
                a[top - dm + i] -= c * m[i]
    return q


def _pmonic(a: list[int], p: int) -> list[int]:
    """The nonzero a scaled to leading coefficient 1 over F_p."""
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p of trimmed a and b."""
    while b:
        a, b = b, _pmod(a, _pmonic(b, p), p)
    return _pmonic(a, p) if a else a


def _ppow(a: list[int], e: int, m, p: int) -> list[int]:
    """a**e mod the monic m over F_p."""
    tail = _ptail(m)
    result = [1]
    base = _pmod(a, m, p, tail)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), m, p, tail)
        base = _pmod(_pmul(base, base, p), m, p, tail)
        e >>= 1
    return result


def _distinct_degree(f: list[int], p: int):
    """Lazily, for d = 1, 2, ...: (d, g) with g = gcd(f, x^(p^d) - x) != 1,
    divided out of the monic f over F_p, and what is left last, as (its
    degree, it).  For a squarefree f each g is the product of the degree-d
    irreducible factors and the last piece is irreducible.  A reducible f
    has a factor of degree <= deg f / 2, so its first piece has d < deg f."""
    h, d = [0, 1], 0
    while 2 * (d + 1) < len(f):  # an f of degree < 2(d + 1) is irreducible
        d += 1
        h = _ppow(h, p, f, p)  # x^(p^d) mod f
        hx = h + [0] * (2 - len(h))
        hx[1] -= 1
        g = _pgcd(f, _ptrim([c % p for c in hx]), p)
        if len(g) > 1:
            yield d, g
            f = _pquo(f, g, p)
            h = _pmod(h, f, p)
    if len(f) > 1:
        yield len(f) - 1, f


def _is_irreducible(f: list[int], p: int) -> bool:
    """Whether the monic f is irreducible over F_p: its first distinct-degree
    piece is f itself, of degree deg f."""
    return len(f) > 1 and next(_distinct_degree(f, p))[0] == len(f) - 1


def _good_reduction(f: list[int], p: int) -> bool:
    """f over Z keeps its degree and stays squarefree mod p: p does not divide
    lc(f), and gcd(f, f') = 1 over F_p."""
    f = [c % p for c in f]
    return f[-1] != 0 and len(_pgcd(f, _ptrim([i * c % p for i, c in enumerate(f)][1:]), p)) == 1


@lru_cache(maxsize=None)
def smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree n over F_p."""
    if n == 1:
        return (0, 1)
    # a zero constant term makes x a factor, so candidates start at 1.  Each
    # tail is read off the base-p digits of m, constant term most significant,
    # so nothing of length p is stored and p may exceed 2^63.
    weights = [p**i for i in range(n - 1, -1, -1)]
    for m in range(weights[0], p * weights[0]):
        f = [m // w % p for w in weights] + [1]
        if _is_irreducible(f, p):
            return tuple(f)
    raise ArithmeticError("no irreducible found")  # unreachable


class FiniteField:
    """F_{p^n} = F_p[x]/(m) with m = smallest_irreducible(p, n), always; construct
    elements with field(value) or field.from_index(i).  Products for n > 1 are
    _pmul followed by _pmod, with the tail of the modulus computed once per
    field, and powers are _ppow."""

    def __init__(self, p: int, n: int = 1):
        if not is_probable_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be >= 1")
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = smallest_irreducible(p, n)
        self._tail = _ptail(self.modulus)  # read by every product
        self._generator = None

    # -- element construction ---------------------------------------------

    def element(self, value) -> "FFElement":
        if isinstance(value, FFElement):
            if value.field != self:
                raise ValueError("element from a different field")
            return value
        if isinstance(value, int):
            return FFElement(self, (value % self.p,) + (0,) * (self.n - 1))
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.n:
            raise ValueError("too many coefficients")
        return FFElement(self, coeffs + (0,) * (self.n - len(coeffs)))

    __call__ = element

    def zero(self) -> "FFElement":
        return self.element(0)

    def one(self) -> "FFElement":
        return self.element(1)

    def x(self) -> "FFElement":
        return self.element((0, 1)) if self.n > 1 else self.element(0)

    def from_index(self, k: int) -> "FFElement":
        """Element number k in base-p digit order (0 <= k < q)."""
        if not 0 <= k < self.q:
            raise ValueError("index out of range")
        digits = []
        for _ in range(self.n):
            digits.append(k % self.p)
            k //= self.p
        return FFElement(self, tuple(digits))

    def elements(self):
        return (self.from_index(k) for k in range(self.q))

    # -- field-level operations ---------------------------------------------

    def generator(self) -> "FFElement":
        """Smallest (in index order) generator of the multiplicative group.  For
        n > 1 the search starts at index p: the indices below are F_p."""
        if self._generator is not None:
            return self._generator
        cofactors = [(self.q - 1) // r for r in factorize(self.q - 1)]
        one = self.one()
        for k in range(self.p if self.n > 1 else 1, self.q):
            g = self.from_index(k)
            if all(g**c != one for c in cofactors):
                self._generator = g
                return g
        raise ArithmeticError("no generator found")  # unreachable

    def sextic_residue_symbol(self, a: "FFElement") -> "FFElement":
        """a^((q-1)/6), one of the six sixth roots of unity; needs q = 1 mod 6."""
        if self.q % 6 != 1:
            raise ValueError(f"q = {self.q} is not 1 mod 6")
        a = self.element(a)
        if a.is_zero():
            raise ValueError("sextic symbol of zero")
        return a ** ((self.q - 1) // 6)

    def __eq__(self, other):
        # the modulus is a function of (p, n)
        return isinstance(other, FiniteField) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    def __repr__(self):
        return f"FiniteField({self.p}, {self.n})" if self.n > 1 else f"FiniteField({self.p})"


@lru_cache(maxsize=None)
def prime_field(p: int) -> FiniteField:
    """F_p, built once per process for the callers that count over many primes."""
    return FiniteField(p)


class FFElement:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other) -> "FFElement":
        if isinstance(other, FFElement):
            if other.field != self.field:
                raise ValueError("mixed fields")
            return other
        if isinstance(other, int):
            return self.field.element(other)
        raise TypeError(f"cannot coerce {other!r} into {self.field!r}")

    def __add__(self, other):
        o = self._coerce(other)
        p = self.field.p
        return FFElement(self.field, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.field.p
        return FFElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        f = self.field
        p, n = f.p, f.n
        if n == 1:
            return FFElement(f, (self.coeffs[0] * o.coeffs[0] % p,))
        prod = _pmod(_pmul(self.coeffs, o.coeffs, p), f.modulus, p, f._tail)
        return FFElement(f, tuple(prod) + (0,) * (n - len(prod)))

    __rmul__ = __mul__

    def inverse(self) -> "FFElement":
        """self^(q-2), by Fermat; n = 1 takes the int pow fast path of __pow__."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self ** (self.field.q - 2)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        f = self.field
        if f.n == 1:
            return FFElement(f, (pow(self.coeffs[0], e, f.p),))
        power = _ppow(self.coeffs, e, f.modulus, f.p)
        return FFElement(f, tuple(power) + (0,) * (f.n - len(power)))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def to_index(self) -> int:
        out = 0
        for c in reversed(self.coeffs):
            out = out * self.field.p + c
        return out

    def __eq__(self, other):
        if isinstance(other, FFElement):
            return self.field == other.field and self.coeffs == other.coeffs
        if isinstance(other, int):
            return self.coeffs == self.field.element(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.coeffs))

    def __repr__(self):
        return f"FF({self.field.p}^{self.field.n}:{list(self.coeffs)})"
