"""Rank bounds by sympy's long division over Q: the slow oracle for the integer path.

Phi_m is sympy's cyclotomic polynomial, and L(x/p) is divided over Q by
Phi_1 .. Phi_bound, the way the rank bounds were computed before they
moved to exact division over Z.
"""

from fractions import Fraction
from functools import lru_cache

import sympy

X = sympy.Symbol("x")


@lru_cache(maxsize=None)
def fraction_cyclotomic(m: int) -> sympy.Poly:
    """The m-th cyclotomic polynomial over Q."""
    return sympy.Poly(sympy.cyclotomic_poly(m, X, polys=True), X, domain=sympy.QQ)


def _multiplicity(f: sympy.Poly, phi: sympy.Poly) -> tuple[sympy.Poly, int]:
    """(f / phi^e, e) for the largest e with phi^e dividing f over Q."""
    e = 0
    while True:
        q, r = f.div(phi)
        if not r.is_zero:
            return f, e
        f, e = q, e + 1


def fraction_rank_bounds(p: int, coeffs, unity_order_bound: int = 60) -> tuple[int, int]:
    """(arith, geom) of L(u) = sum coeffs[i] u^i: multiplicities of Phi_1 and
    of Phi_1 .. Phi_bound (weighted by degree) in L(x/p) over Q."""
    scaled = sympy.Poly(
        [sympy.Rational(Fraction(c, p**i)) for i, c in reversed(list(enumerate(coeffs)))],
        X, domain=sympy.QQ,
    )
    arith = _multiplicity(scaled, fraction_cyclotomic(1))[1]
    geom = 0
    rem = scaled
    for m in range(1, unity_order_bound + 1):
        phi = fraction_cyclotomic(m)
        if phi.degree() > rem.degree():
            continue
        rem, e = _multiplicity(rem, phi)
        geom += e * phi.degree()
        if rem.degree() == 0:
            break
    return arith, geom
