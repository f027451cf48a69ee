"""Elliptic curve models and point counting.

Two models of the same j = 0 curves: the Hesse cubic X^3 + Y^3 = d and the
short Weierstrass form v^2 = u^3 - 432 d^2, with the point map from the
first to the second.  The chord-tangent group law runs over a prime field
only, on plain int pairs, where the certificate search needs it; sections
over Q(T) are added on the Hesse cubic itself (`function_field`).
Counting over F_q is closed-form: the trace of v^2 = u^3 + A is Gauss's
sextic-character formula, lifted from F_p to F_q by Hasse-Davenport, so it
costs one sextic residue symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Any

from .exact import OMEGA, Eisenstein, FiniteField, prime_field, primes
from .exact.eisenstein import primary_prime
from .exact.numbers import factorize


@dataclass(frozen=True)
class Point:
    x: Any = None
    y: Any = None
    at_infinity: bool = False

    @classmethod
    def infinity(cls) -> "Point":
        return cls(None, None, True)

    def __repr__(self):
        return "O" if self.at_infinity else f"({self.x}, {self.y})"


INFINITY = Point.infinity()


@dataclass(frozen=True)
class WeierstrassCurve:
    """v^2 = u^3 + A with A != 0 (discriminant -432 A^2 nonzero)."""

    A: Any

    def __post_init__(self):
        if self.A == 0:
            raise ValueError("A = 0 is singular")

    def contains(self, P: Point) -> bool:
        if P.at_infinity:
            return True
        return P.y * P.y == P.x * P.x * P.x + self.A


@dataclass(frozen=True)
class CubicTwistCurve:
    """X^3 + Y^3 = d with d != 0; group identity at the flex at infinity."""

    d: Fraction

    def __post_init__(self):
        if self.d == 0:
            raise ValueError("d must be nonzero")

    def contains(self, P: Point) -> bool:
        if P.at_infinity:
            return True
        return P.x**3 + P.y**3 == self.d


@dataclass(frozen=True)
class HesseWeierstrassMap:
    """The map from X^3 + Y^3 = d to v^2 = u^3 - 432 d^2, a bijection.

    (x, y) -> (12d/(x+y), 36d(x-y)/(x+y)); the flex x + y = 0 direction maps
    to the point at infinity.
    """

    hesse: CubicTwistCurve
    weierstrass: WeierstrassCurve

    def to_weierstrass(self, P: Point) -> Point:
        if P.at_infinity:
            return INFINITY
        s = P.x + P.y
        if s == 0:
            return INFINITY
        d = self.hesse.d
        return Point(12 * d / s, 36 * d * (P.x - P.y) / s)


def hesse_to_weierstrass(curve: CubicTwistCurve) -> HesseWeierstrassMap:
    return HesseWeierstrassMap(curve, WeierstrassCurve(-432 * curve.d * curve.d))


# -- point counting over finite fields ----------------------------------------


@lru_cache(maxsize=256)
def _sextic_traces(field: FiniteField) -> dict[tuple[int, ...], int]:
    """Trace of v^2 = u^3 + A over F_q, q = 1 mod 6, keyed by s = (4A)^((q-1)/6).

    Gauss (Ireland & Rosen ch. 18 §3) lifted to F_q by Hasse-Davenport:
    a = -2 Re(chi-bar(4A) pi_q), pi_q = -(-pi)^n, and s = zeta^k gives
    chi-bar(4A) = (-omega)^k with zeta = -w^2, w = -a/b mod p the image of
    omega that kills the primary pi = a + b*omega.  For p = 2 mod 3, pi_q =
    -(-p)^(n/2) is rational, so either primitive sixth root serves as zeta.
    """
    p, n = field.p, field.n
    if p % 3 == 1:
        pi = primary_prime(p)
        pi_q = -((-pi) ** n)
        w = -int(pi.a) * pow(int(pi.b), -1, p)
        zeta = field(-w * w)
    else:
        pi_q = Eisenstein(-((-p) ** (n // 2)))
        roots = (field.from_index(i) ** ((field.q - 1) // 6) for i in range(p, field.q))
        zeta = next(z for z in roots if z**2 != 1 and z**3 != 1)
    traces = {}
    for k in range(6):
        x = (-OMEGA) ** k * pi_q
        traces[(zeta**k).coeffs] = int(x.b - 2 * x.a)  # -2 Re(x + y*omega) = y - 2x
    return traces


def count_points(field: FiniteField, A) -> int:
    """#{(u,v): v^2 = u^3 + A} + 1 over F_q, in closed form.

    Needs characteristic >= 5 and A != 0 (additive fibers are the caller's
    business).  For q = 2 mod 3 the curve is supersingular and the count is
    q + 1; otherwise the trace depends only on the sextic residue symbol of
    4A (see _sextic_traces), so a count costs one exponentiation.
    """
    if field.p < 5:
        raise ValueError("need characteristic >= 5")
    A = field.element(A)
    if A.is_zero():
        raise ValueError("singular curve (A = 0)")
    q = field.q
    a = 0
    if q % 3 == 1:
        a = _sextic_traces(field)[field.sextic_residue_symbol(4 * A).coeffs]
    if a * a > 4 * q:
        raise ArithmeticError("Hasse bound violated")
    return q + 1 - a


def trace(field: FiniteField, A) -> int:
    return field.q + 1 - count_points(field, A)


# -- torsion bound over Q ------------------------------------------------------


def _has_rational_2_torsion(d: int) -> bool:
    # v = 0 forces u^3 = 432 d^2
    from .exact import icbrt

    m = 432 * d * d
    return icbrt(m) ** 3 == m


def _has_rational_3_torsion(d: int) -> bool:
    # u = 0 needs -432 d^2 square (negative, never); else u^3 = 1728 d^2,
    # and then v^2 = 1296 d^2 = (36 d)^2 holds automatically.
    from .exact import icbrt

    m = 1728 * d * d
    return icbrt(m) ** 3 == m


# good primes whose point counts torsion_order_bound takes the gcd of
TORSION_PRIMES = 8


def torsion_order_bound(d: int) -> int:
    """Upper bound for the torsion order of X^3 + Y^3 = d over Q.

    Torsion injects into E(F_p) for every good p >= 5, so the order divides
    the gcd of #E(F_p) over the first TORSION_PRIMES good primes.  That gcd
    always carries a factor 3 for this family (the flex 3-torsion becomes
    rational whenever p = 1 mod 3, and supersingular counts p + 1 are
    divisible by 3 when p = 2 mod 3), so primes ell in {2, 3} are removed
    from the gcd when the exact ell-division equations have no rational
    solution.  A return of 1 certifies that the curve is torsion-free.
    """
    if d == 0:
        raise ValueError("d must be nonzero")
    g = 0
    used = 0
    A_int = -432 * d * d
    for p in primes():
        if p < 5 or (6 * d) % p == 0:
            continue
        field = prime_field(p)
        g_new = count_points(field, field.element(A_int % p))
        g = math.gcd(g, g_new)
        used += 1
        if g == 1 or used >= TORSION_PRIMES:
            break
    for ell, present in ((2, _has_rational_2_torsion), (3, _has_rational_3_torsion)):
        if g % ell == 0 and not present(d):
            while g % ell == 0:
                g //= ell
    return g


# -- the group law over F_p on plain ints ---------------------------------------
# Points are int pairs (u, v) with 0 <= u, v < p, and None is O.  The
# certificate search runs here.


def add_mod_p(p: int, A: int, P, Q):
    """Chord-tangent addition on v^2 = u^3 + A over F_p; off-curve inputs are rejected."""
    for X in (P, Q):
        if X is not None and not (0 <= X[0] < p and 0 <= X[1] < p):
            raise ValueError("point not reduced mod p")
        if X is not None and (X[1] * X[1] - X[0] ** 3 - A) % p:
            raise ValueError("point not on curve")
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = 3 * x1 * x1 * pow(2 * y1, -1, p)
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p)
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def mul_mod_p(p: int, A: int, k: int, P):
    """k * P over F_p for k >= 0, by double-and-add."""
    R = None
    while k:
        if k & 1:
            R = add_mod_p(p, A, R, P)
        k >>= 1
        if k:
            P = add_mod_p(p, A, P, P)
    return R


def point_order(p: int, A: int, P, group_order: int) -> int:
    """Exact order of P in E(F_p) given a multiple of it (the group order)."""
    if P is None:
        return 1
    if mul_mod_p(p, A, group_order, P) is not None:
        raise ValueError("group_order is not a multiple of the point order")
    o = group_order
    for ell in factorize(group_order):
        while o % ell == 0 and mul_mod_p(p, A, o // ell, P) is None:
            o //= ell
    return o


def subgroup_is_cyclic(p: int, A: int, P, Q, group_order: int) -> bool:
    """Whether <P, Q> in E(F_p) is cyclic, one prime at a time.

    For each prime ell dividing both orders, reduce to the ell-primary parts
    P', Q' with ord(P') >= ord(Q'); the span is cyclic at ell iff Q' lies in
    <P'>, tested by direct enumeration of the (small) cyclic group.
    """
    oP = point_order(p, A, P, group_order)
    oQ = point_order(p, A, Q, group_order)
    fP, fQ = factorize(oP), factorize(oQ)
    for ell in sorted(fP.keys() & fQ.keys()):
        a, b = fP[ell], fQ[ell]
        Pp = mul_mod_p(p, A, oP // ell**a, P)
        Qp = mul_mod_p(p, A, oQ // ell**b, Q)
        if a < b:
            Pp, Qp = Qp, Pp
            a, b = b, a
        R = None
        for _ in range(ell**a):
            if R == Qp:
                break
            R = add_mod_p(p, A, R, Pp)
        else:
            return False
    return True

