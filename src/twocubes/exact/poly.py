"""Dense univariate polynomials, and the integer kernel that computes over Q.

``Polynomial`` stores coefficients lowest degree first and does ring
arithmetic (+, -, *, powers, evaluation, derivative) for any coefficient
type that supports +, -, * with itself and with small Python ints.  The
zero polynomial has an empty coefficient tuple and degree ``None`` (a real
sentinel, never -1).

Division and gcd are over Q only, and run on the integer kernel below, on
int lists over Z[T]: products, exact division and the primitive gcd;
squarefreeness of k is decided on it as gcd(k, k') = 1, and
``factor_over_z`` factors on it by Zassenhaus.  Polynomials over F_p are
the plain int lists of ``exact.ffield``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, count
from math import gcd, isqrt, lcm
from random import Random

from .ffield import _distinct_degree, _good_reduction, _pgcd, _pmod, _pmonic, _pmul, _ppow, _pquo
from .ffield import _ptrim
from .numbers import is_probable_prime


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

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
            e >>= 1
            if e:
                base = base * base
        return result

    def __call__(self, t):
        """Evaluate by Horner; t may live in any ring containing the coefficients."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i))

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


def _int_deriv(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


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
    g = gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd over Z of two polynomials, not both zero, leading coefficient > 0.

    A primitive pseudo-remainder sequence: the content is stripped at every
    step, which keeps coefficient growth tame; gcd(0, b) is b's primitive part.
    """
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_int_prem(a, b))
    return a if a[-1] > 0 else [-c for c in a]


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Monic gcd over Q: the primitive gcd over Z, with denominators cleared."""
    if f.is_zero():
        return g.monic()
    if g.is_zero():
        return f.monic()
    return Polynomial(tuple(Fraction(c) for c in _int_gcd(*_cleared(f, g)))).monic()


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


# -- factorization over Z: Zassenhaus (Cohen, GTM 138, 3.5; Knuth, TAOCP 2, 4.6.2) --


def factor_over_z(f: list[int]) -> tuple[int, list[tuple[list[int], int]]]:
    """(c, [(g, m), ...]) with f = c * prod g^m over Z, every g primitive and
    irreducible with a positive leading coefficient, sorted by (degree, coefficients).

    c is the content of f with the sign of its leading coefficient.  Each
    part of the squarefree decomposition is factored mod a small prime p,
    lifted mod p^k and recombined; a factor is accepted only when it divides
    exactly over Z, so a wrong lift can never yield a wrong factor.
    """
    f = _ptrim(list(f))
    if not f:
        raise ValueError("the zero polynomial has no factorization")
    c = gcd(*f) if f[-1] > 0 else -gcd(*f)
    out = []
    for part, m in _yun([x // c for x in f]):
        out += [(g, m) for g in _zassenhaus(part)]
    return c, sorted(out, key=lambda gm: (len(gm[0]), gm[0]))


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's squarefree decomposition of a primitive f with lc > 0: the
    nonconstant a_i with f = prod a_i^i, each primitive and squarefree.

    Every divisor is a primitive gcd, so by Gauss's lemma every division is
    exact over Z.
    """
    df = _int_deriv(f)
    if not df:
        return []
    b = _int_gcd(f, df)
    c, d = _int_exact_div(f, b), _int_exact_div(df, b)
    out, i = [], 1
    while len(c) > 1:
        d = _int_add(d, _int_deriv(c), -1)
        a = _int_gcd(c, d)
        if len(a) > 1:
            out.append((a, i))
        c, d, i = _int_exact_div(c, a), _int_exact_div(d, a), i + 1
    return out


def _zassenhaus(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of a primitive squarefree f with lc > 0."""
    if len(f) <= 2:
        return [f]
    p = 5  # the smallest prime >= 5 keeping the degree and squarefreeness of f
    while not _good_reduction(f, p):
        p = next(q for q in count(p + 2, 2) if is_probable_prime(q))
    gs = _factor_mod_p(_pmonic([c % p for c in f], p), p, Random(0))
    if len(gs) == 1:
        return [f]
    lifted, pk = _hensel_lift(f, gs, p, 2 * _mignotte(f))
    return _recombine(f, lifted, pk)


def _factor_mod_p(f: list[int], p: int, rng: Random) -> list[list[int]]:
    """Monic irreducible factors of a monic squarefree f over F_p, p odd:
    Cantor-Zassenhaus equal-degree factorization of each distinct-degree piece."""
    return [h for d, g in _distinct_degree(f, p) for h in _equal_degree(g, d, p, rng)]


def _equal_degree(g: list[int], d: int, p: int, rng: Random) -> list[list[int]]:
    """Split a monic g whose irreducible factors all have degree d."""
    if len(g) - 1 == d:
        return [g]
    while True:
        r = _ptrim([rng.randrange(p) for _ in range(len(g) - 1)])
        s = _ppow(r, (p**d - 1) // 2, g, p)
        h = _pgcd(g, [c % p for c in _int_add(s, [-1])], p)
        if 1 < len(h) < len(g):
            return _equal_degree(h, d, p, rng) + _equal_degree(_pquo(g, h, p), d, p, rng)


def _mignotte(f: list[int]) -> int:
    """A bound on the coefficients of (lc f / lc g) g for every factor g of f over Z:
    2^deg f times the Euclidean norm of f (Mignotte)."""
    return (isqrt(sum(c * c for c in f)) + 1) << (len(f) - 1)


def _hensel_lift(f: list[int], gs: list[list[int]], p: int, bound: int):
    """Monic G_i = g_i mod p with f = lc(f) prod G_i mod m, and m = p^(2^j) > bound.

    Quadratic lifting of all factors at once.  With F = prod G_j and s_i the
    inverse of F/G_i mod G_i, sum s_i F/G_i = 1 mod m, so the error
    e = (f - lc(f) F)/m is spread as G_i += m (s_i e / lc(f) mod G_i); each
    s_i then follows to m^2 by Newton's step s_i (2 - s_i F/G_i).
    """
    s = [_ppow(h, p ** (len(g) - 1) - 2, g, p) for g, h in zip(gs, _cofactors(gs, p))]
    G, m = gs, p
    while m <= bound:
        prod = [f[-1]]
        for g in G:
            prod = _int_mul(prod, g)
        lc_inv = pow(f[-1], -1, m)
        e = [(a - b) // m * lc_inv % m for a, b in zip(f, prod)]
        G = [_int_add(g, [m * c for c in _pmod(_pmul(si, e, m), g, m)]) for g, si in zip(G, s)]
        m *= m
        if m <= bound:  # Newton's step: s_i = 2 s_i - s_i (s_i F/G_i) mod G_i
            for i, h in enumerate(_cofactors(G, m)):
                sh = _pmod(_pmul(s[i], h, m), G[i], m)
                s[i] = _pmod(_int_add([2 * c for c in s[i]], _pmul(s[i], sh, m), -1), G[i], m)
    return G, m


def _cofactors(G: list[list[int]], m: int) -> list[list[int]]:
    """F/G_i mod (G_i, m) for each i, with F the product of all G_j."""
    out = []
    for i, g in enumerate(G):
        h = [1]
        for j, gj in enumerate(G):
            if j != i:
                h = _pmod(_pmul(h, gj, m), g, m)
        out.append(h)
    return out


def _recombine(f: list[int], G: list[list[int]], pk: int) -> list[list[int]]:
    """Zassenhaus recombination: products of subsets of the lifted G, in
    increasing size, taken in the symmetric range mod p^k and made primitive,
    each accepted only by exact division of f over Z."""
    out, size = [], 1
    while 2 * size <= len(G):
        for S in combinations(range(len(G)), size):
            h = [f[-1]]
            for i in S:
                h = [(c + pk // 2) % pk - pk // 2 for c in _int_mul(h, G[i])]
            h = _primitive(h)
            try:
                q = _int_exact_div(f, h)
            except ArithmeticError:
                continue
            out.append(h)
            f, G = q, [g for i, g in enumerate(G) if i not in S]
            break
        else:
            size += 1
    return out + [f]
