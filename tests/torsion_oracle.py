"""The torsion bound by point counts: the slow oracle for the torsion theorem.

`twists.rank2_certificate` takes the torsion of X^3 + Y^3 = d over Q from
Silverman's AEC, Exercise 10.19 (order 3 if d is a cube, 2 if d is twice a
cube, 1 otherwise).  This is how the bound was computed before that: a gcd
of point counts over good primes, with the primes 2 and 3 removed when the
exact division equations have no rational solution.
"""

import math

from twocubes.elliptic import count_points
from twocubes.exact import icbrt, prime_field, primes


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
        g = math.gcd(g, count_points(prime_field(p), A_int))
        used += 1
        if g == 1 or used >= TORSION_PRIMES:
            break
    # Rational ell-torsion needs a rational cube: for ell = 2, v = 0 forces
    # u^3 = 432 d^2; for ell = 3, u = 0 needs -432 d^2 square (negative,
    # never), else u^3 = 1728 d^2, and then v^2 = 1296 d^2 = (36 d)^2 holds
    # automatically.
    for ell, m in ((2, 432 * d * d), (3, 1728 * d * d)):
        if g % ell == 0 and icbrt(m) ** 3 != m:
            while g % ell == 0:
                g //= ell
    return g


