"""Differentials over Q(omega)(T) by sympy: the slow oracle for z_rank_cm.

An element a + b*omega of Q(omega)(T) is a pair (a, b) over sympy's Q(T),
multiplied with omega^2 = -1 - omega.  (sympy's own fields over
QQ.algebraic_field(sqrt(-3)) are not used: there `w**3 == 1` compares
False and `diff` fails.)  Sections are twisted by the CM map
(x, y) -> (omega x, omega y), their Wronskians x'y - xy' are formed by the
chain rule, and the rank flattens each Q(omega) coefficient to a pair of
rationals.  The library computes none of this: lambda([omega]P) =
omega^2 lambda(P) makes the CM-extended rank twice the rank of the rational
w, and this oracle pins that theorem.
"""

import sympy

from qt_oracle import QT, T, qt

OMEGA = (QT(0), QT(1))
OMEGA2 = (QT(-1), QT(-1))


def lift(f):
    """A Polynomial or RationalFunction over Q as the pair (f, 0)."""
    return qt(f), QT(0)


def mul(u, v):
    (a, b), (c, d) = u, v
    return a * c - b * d, a * d + b * c - b * d


def cm_twist(P):
    """(x, y) -> (omega x, omega y), the extra endomorphism over Q(omega)."""
    return mul(OMEGA, lift(P.x)), mul(OMEGA, lift(P.y))


def chain_differential(x, y):
    """lambda(P) = x'y - xy' for P = (x, y) over Q(omega)(T)."""
    dx, dy = tuple(c.diff(T) for c in x), tuple(c.diff(T) for c in y)
    (a, b), (c, d) = mul(dx, y), mul(x, dy)
    return a - c, b - d


def flat_rank(ws) -> int:
    """Rank over Q of the coefficient vectors of the pairs ws, each a + b*omega
    flattened to (a_0, b_0, a_1, b_1, ...) over one common denominator."""
    if not ws:
        return 0
    den = QT(1).numer
    for w in ws:
        for c in w:
            den = den.lcm(c.denom)
    nums = [[list(reversed((c.numer * den).exquo(c.denom).to_dense())) for c in w] for w in ws]
    width = max(len(cs) for n in nums for cs in n)
    rows = [[sympy.QQ.to_sympy(cs[i]) if i < len(cs) else 0 for i in range(width) for cs in n]
            for n in nums]
    return sympy.Matrix(rows).rank()
