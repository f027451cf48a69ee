"""Rank bounds by Fraction long division: the slow oracle for the integer path.

Phi_m is built by dividing x^m - 1 by Phi_d over Q for every proper
divisor d, and L(x/p) is divided over Q by Phi_1 .. Phi_bound, the way
the rank bounds were computed before they moved to exact division over Z.
"""

from fractions import Fraction
from functools import lru_cache

from twocubes.exact import Polynomial


@lru_cache(maxsize=None)
def fraction_cyclotomic(m: int) -> Polynomial:
    """The m-th cyclotomic polynomial over Q, by long division of Fractions."""
    num = Polynomial((Fraction(-1),) + (Fraction(0),) * (m - 1) + (Fraction(1),))
    for d in range(1, m):
        if m % d == 0:
            num = num // fraction_cyclotomic(d)
    return num


def fraction_rank_bounds(p: int, coeffs, unity_order_bound: int = 60) -> tuple[int, int]:
    """(arith, geom) of L(u) = sum coeffs[i] u^i: multiplicities of Phi_1 and
    of Phi_1 .. Phi_bound (weighted by degree) in L(x/p) over Q."""
    scaled = Polynomial(tuple(Fraction(c, p**i) for i, c in enumerate(coeffs)))
    arith = 0
    rem = scaled
    while True:
        q, r = divmod(rem, fraction_cyclotomic(1))
        if not r.is_zero():
            break
        rem = q
        arith += 1
    geom = 0
    rem = scaled
    for m in range(1, unity_order_bound + 1):
        phi = fraction_cyclotomic(m)
        if phi.degree > (rem.degree or 0):
            continue
        while True:
            q, r = divmod(rem, phi)
            if not r.is_zero():
                break
            rem = q
            geom += phi.degree
        if rem.degree == 0:
            break
    return arith, geom
