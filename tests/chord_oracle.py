"""The affine chord-tangent group law on v^2 = u^3 + A over any field of
characteristic != 2, 3: the generic oracle for the group laws in `src`.

Coordinates may be Fractions, `FFElement`s or elements of a sympy field such
as Q(T).  The oracle owns its types: its points with the point at infinity
O, its curve and its on-curve check are defined here, not taken from the
code it checks.  Through the Hesse-Weierstrass map and its inverse
`to_hesse`, it is the reference for the Hessian law on sections over Z[T]
and for the F_p law on int pairs that the certificate search runs; from
`src` it imports only that int law, for `order_by_enumeration`.
"""

from dataclasses import dataclass
from typing import Any

from twocubes.elliptic import _add_mod_p


@dataclass(frozen=True)
class Point:
    x: Any = None
    y: Any = None
    at_infinity: bool = False

    def __repr__(self):
        return "O" if self.at_infinity else f"({self.x}, {self.y})"


O = Point(at_infinity=True)


@dataclass(frozen=True)
class WeierstrassCurve:
    """v^2 = u^3 + A."""

    A: Any

    def contains(self, P: Point) -> bool:
        return P.at_infinity or P.y * P.y == P.x * P.x * P.x + self.A


def neg_point(P: Point) -> Point:
    if P.at_infinity:
        return P
    return Point(P.x, -P.y)


def add_points(curve: WeierstrassCurve, P: Point, Q: Point) -> Point:
    """Chord-tangent addition; off-curve inputs are rejected."""
    if not curve.contains(P) or not curve.contains(Q):
        raise ValueError("point not on curve")
    if P.at_infinity:
        return Q
    if Q.at_infinity:
        return P
    if P.x == Q.x:
        if P.y == -Q.y:
            return O
        lam = (3 * (P.x * P.x)) / (2 * P.y)  # doubling (P == Q with y != 0)
    else:
        lam = (Q.y - P.y) / (Q.x - P.x)
    x3 = lam * lam - P.x - Q.x
    return Point(x3, lam * (P.x - x3) - P.y)


def scalar_mul(curve: WeierstrassCurve, k: int, P: Point) -> Point:
    """k * P by double-and-add, doubling only while bits of k remain."""
    if k < 0:
        return scalar_mul(curve, -k, neg_point(P))
    R, Q = O, P
    while k:
        if k & 1:
            R = add_points(curve, R, Q)
        k >>= 1
        if k:
            Q = add_points(curve, Q, Q)
    return R


def to_hesse(d, P: Point) -> Point:
    """The inverse of the map from X^3 + Y^3 = d to v^2 = u^3 - 432 d^2:
    (u, v) -> ((36d + v)/6u, (36d - v)/6u)."""
    if P.at_infinity:
        return O
    if P.x == 0:
        raise ValueError("u = 0 has no affine Hesse preimage")
    return Point((36 * d + P.y) / (6 * P.x), (36 * d - P.y) / (6 * P.x))


def order_by_enumeration(p: int, P) -> int:
    """The order of an int pair P on v^2 = u^3 + A over F_p (None is O), by
    adding P until O comes back, on the int law that
    test_int_group_law_matches_generic checks against add_points."""
    o, R = 1, P
    while R is not None:
        R = _add_mod_p(p, R, P)
        o += 1
    return o
