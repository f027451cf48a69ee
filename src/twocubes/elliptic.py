"""Elliptic curve models and point counting.

Two models of the same j = 0 curves: the Hesse cubic X^3 + Y^3 = d and the
short Weierstrass form v^2 = u^3 - 432 d^2.  The point map from the first
to the second is one formula, over Q on coordinate pairs (`to_weierstrass`)
and from a primitive integer triple straight to F_p (`weierstrass_mod_p`);
x + y never vanishes on the curve, so neither needs a point at infinity.
The chord-tangent group law runs over a prime field only, on plain int
pairs, where the certificate search needs it; sections over Q(T) are added
on the Hesse cubic itself (`function_field`).  The law reads no curve
coefficient: the tangent slope on v^2 = u^3 + A is 3u^2/2v.  The search
(`twists.rank2_certificate`) is its one caller, and it checks its two
points exactly on the Hesse cubic where they enter; the map keeps them on
the curve mod p, and a chord-tangent step keeps a point on it, so the
steps here (`_add_mod_p`, `_mul_mod_p`, `_is_cyclic`) run unchecked.
E(F_p) = Z/n1 x Z/n2, n1 | n2, is read off the Frobenius: n1 = 1 at p = 2 mod 3,
and `group_n1` reads n1 off E(F_p) = Z[omega]/(pi - 1) at p = 1 mod 3 (Lenstra,
J. Number Theory 56, 1996), so only the primes of n1 can break cyclicity.
The one check left on that path, that #E(F_p) kills both points, rides on
the bounded walk to each ell-primary order (`_is_cyclic`, `_ell_order`).
Counting over F_q is closed-form: the trace of v^2 = u^3 + A is Gauss's
sextic-character formula, lifted from F_p to F_q by Hasse-Davenport, so it
costs one sextic residue symbol; the Frobenius pi_q and its rotations are
int pairs (a, b) = a + b*omega in Z[omega].
"""

from __future__ import annotations

import math
from functools import lru_cache

from .exact import FiniteField


def to_weierstrass(d, x, y):
    """(x, y) on X^3 + Y^3 = d to (u, v) = (12d/(x + y), 36d(x - y)/(x + y))
    on v^2 = u^3 - 432 d^2.

    There is no point at infinity to handle: (x + y)(x^2 - xy + y^2) = d != 0,
    so x + y != 0 at every affine point of the curve.
    """
    s = x + y
    return 12 * d / s, 36 * d * (x - y) / s


def weierstrass_mod_p(d: int, P: tuple[int, int, int], p: int):
    """to_weierstrass of (X : Y : Z) on X^3 + Y^3 = dZ^3, reduced mod p.

    With P primitive and p >= 5 prime to 6d, the image over Q,
    (12dZ, 36d(X - Y)) / (X + Y), has a denominator divisible by p exactly
    when p | X + Y, and then the return is None; otherwise it is the int
    pair (12dZ, 36d(X - Y)) (X + Y)^-1 mod p, on v^2 = u^3 - 432 d^2 over
    F_p because that identity holds over Z[1/(X + Y)].
    """
    X, Y, Z = P
    s = (X + Y) % p
    if not s:
        return None
    s = pow(s, -1, p)
    return 12 * d * Z * s % p, 36 * d * (X - Y) * s % p


# -- point counting over finite fields ----------------------------------------


def _zw_mul(x, y):
    """(a + b*omega)(c + d*omega) in Z[omega], omega^2 = -1 - omega, on int pairs."""
    (a, b), (c, d) = x, y
    return a * c - b * d, a * d + b * c - b * d


def primary_prime(p: int) -> tuple[int, int]:
    """The primary (a = 2, b = 0 mod 3) pi = a + b*omega of norm p = 1 mod 3,
    as the pair (a, b).

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
    a, b = x + y, 2 * y
    if a * a - a * b + b * b != p:
        raise ArithmeticError(f"Cornacchia found no x^2 + 3y^2 = {p}")
    for _ in range(6):
        if a % 3 == 2 and b % 3 == 0:
            return a, b
        a, b = _zw_mul((a, b), (0, -1))  # times the unit -omega
    raise ArithmeticError(f"no primary associate of norm {p}")  # unreachable


def _frobenius(p: int) -> tuple[tuple[int, int], int]:
    """(alpha, w) for a prime p >= 5, alpha = -pi for the primary pi of norm
    B (B = p or p^2, whichever is 1 mod 3): the family's fiber trace sums are
    c_{e n} = 2 Re(alpha^n S_n) (function_field.character_sum), and
    _sextic_traces reads pi_q and zeta = -w^2 off alpha and w.

    The fiber over t has trace -2 Re(psi(4A) pi_q) (_sextic_traces),
    with pi_q = -(-pi)^n over F_{p^n}, psi(x) = (-omega)^j for
    x^((q-1)/6) = zeta^j, zeta = -w^2, and w in F_p the image of omega that
    kills pi.  psi is psi_p o N, and 4A = -1728 k(t)^2 with -1728 =
    2^6 (-3)^3 a sixth power, as -3 is a square mod p; so the trace is
    2 Re((-pi)^n chi(k(t))) with chi = psi^2 the cubic character
    chi(x) = omega^(2j) for x^((q-1)/3) = w^j.  At p = 2 mod 3 the counted
    fields are F_{B^n}, B = p^2, pi_q = -(-p)^n with p itself primary, and
    w = 0: Frobenius maps chi to its conjugate, and either gives the same
    real S_n.
    """
    if p % 3 == 2:
        return (-p, 0), 0
    a, b = primary_prime(p)
    return (-a, -b), -a * pow(b, -1, p) % p


@lru_cache(maxsize=None)
def _sextic_traces(field: FiniteField) -> dict[tuple[int, ...], int]:
    """Trace of v^2 = u^3 + A over F_q, q = 1 mod 6, keyed by s = (4A)^((q-1)/6).

    Gauss (Ireland & Rosen ch. 18 §3) lifted to F_q by Hasse-Davenport:
    a = -2 Re(chi-bar(4A) pi_q), pi_q = -(-pi)^n, and s = zeta^k gives
    chi-bar(4A) = (-omega)^k with zeta = -w^2, for the alpha = -pi and w of
    _frobenius.  For p = 2 mod 3, pi_q = -(-p)^(n/2) is rational, so either
    primitive sixth root serves as zeta.  Elements of Z[omega] are int pairs
    (a, b) = a + b*omega.
    """
    p, n = field.p, field.n
    alpha, w = _frobenius(p)
    x = (-1, 0)
    for _ in range(n if p % 3 == 1 else n // 2):  # x = pi_q = -alpha^n, or -alpha^(n/2)
        x = _zw_mul(x, alpha)
    if p % 3 == 1:
        zeta = field(-w * w)
    else:
        roots = (field.from_index(i) ** ((field.q - 1) // 6) for i in range(p, field.q))
        zeta = next(z for z in roots if z**2 != 1 and z**3 != 1)
    traces = {}
    for k in range(6):  # x = (-omega)^k pi_q
        traces[(zeta**k).coeffs] = x[1] - 2 * x[0]  # -2 Re(a + b*omega) = b - 2a
        x = _zw_mul(x, (0, -1))
    return traces


def count_points(field: FiniteField, A) -> int:
    """#{(u,v): v^2 = u^3 + A} + 1 over F_q, in closed form.

    Needs characteristic >= 5 and A != 0 (additive fibers are the caller's
    business).  For q = 2 mod 3 the curve is supersingular and the count is
    q + 1; otherwise the trace depends only on the sextic residue symbol of
    4A (see _sextic_traces), so a count costs one exponentiation: over a
    prime field one int pow mod p on A's single coefficient, over F_{p^n}
    with n > 1 an FFElement power.
    """
    if field.p < 5:
        raise ValueError("need characteristic >= 5")
    A = field.element(A)
    if A.is_zero():
        raise ValueError("singular curve (A = 0)")
    q = field.q
    a = 0
    if q % 3 == 1:
        if field.n == 1:
            symbol = (pow(4 * A.coeffs[0], (q - 1) // 6, q),)
        else:
            symbol = field.sextic_residue_symbol(4 * A).coeffs
        a = _sextic_traces(field)[symbol]
    if a * a > 4 * q:
        raise ArithmeticError("Hasse bound violated")
    return q + 1 - a


# -- the group law over F_p on plain ints ---------------------------------------
# Points are int pairs (u, v) with 0 <= u, v < p, and None is O.  The steps
# run unchecked: a chord-tangent step keeps a point on the curve.


def _add_mod_p(p: int, P, Q):
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


def _mul_mod_p(p: int, k: int, P):
    R = None
    while k:
        if k & 1:
            R = _add_mod_p(p, R, P)
        k >>= 1
        if k:
            P = _add_mod_p(p, P, P)
    return R


def group_n1(p: int, order: int) -> int:
    """n1 in E(F_p) = Z/n1 x Z/n2, n1 | n2, for v^2 = u^3 + A with #E(F_p) = order, p = 1 mod 3.

    At p = 2 mod 3 there is nothing to read: u^3 = -A has one root, so
    E(F_p)[2] = Z/2, and the Weil pairing gives n1 | gcd(p - 1, p + 1) = 2,
    so n1 = 1.  At p = 1 mod 3, End(E) = Z[omega] and E(F_p) = Z[omega]/(pi - 1)
    (Lenstra, J. Number Theory 56, 1996); with trace t and t^2 + 3f^2 = 4p,
    pi - 1 = (t - 2 + f)/2 + f omega, so n1 = gcd((t - 2 + f)/2, f), by one isqrt.
    """
    t = p + 1 - order
    f = math.isqrt((4 * p - t * t) // 3)
    return math.gcd((t - 2 + f) // 2, f)


def _is_cyclic(p: int, P, Q, n: int, ells) -> bool:
    """Whether <P, Q> in E(F_p) is cyclic at each prime ell of `ells`; at the
    primes of n1 (`group_n1`), whether it is cyclic.

    n must kill both points (a ValueError otherwise); the caller passes
    #E(F_p).  At each ell, with ell^e exactly dividing n, the ell-primary
    parts are P' = (n / ell^e) P and Q' = (n / ell^e) Q; order them so that
    ord(P') >= ord(Q').  The span is cyclic at ell iff Q' lies in <P'>,
    tested by direct enumeration of the (small) cyclic group.  n P = O is
    ell^e P' = O, which the walk to the order of P' (`_ell_order`) checks,
    at the first ell before any answer; with no ell, n P = O is checked
    directly.
    """
    if not ells and any(_mul_mod_p(p, n, X) is not None for X in (P, Q)):
        raise ValueError("group_order is not a multiple of the point order")
    for ell in ells:
        ell_e = math.gcd(n, ell ** n.bit_length())
        Pp, Qp = _mul_mod_p(p, n // ell_e, P), _mul_mod_p(p, n // ell_e, Q)
        oP, oQ = _ell_order(p, Pp, ell, ell_e), _ell_order(p, Qp, ell, ell_e)
        if oP < oQ:
            Pp, Qp, oP = Qp, Pp, oQ
        R = None
        for _ in range(oP):
            if R == Qp:
                break
            R = _add_mod_p(p, R, Pp)
        else:
            return False
    return True


def _ell_order(p: int, P, ell: int, ell_e: int) -> int:
    """The order of P, a power of ell that divides ell_e; a ValueError if
    ell_e P != O, so the walk takes at most e steps."""
    o = 1
    while P is not None:
        if o == ell_e:
            raise ValueError("group_order is not a multiple of the point order")
        P = _mul_mod_p(p, ell, P)
        o *= ell
    return o
