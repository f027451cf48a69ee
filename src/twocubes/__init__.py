"""Exact computations around sums of two cubes.

Subpackages and modules:

- ``exact``: arbitrary-precision rationals, polynomials, rational
  functions, finite fields, vectorized log tables.
- ``identities``: classical two-cube polynomial identities, taxicab
  search, near-miss families x^3 + y^3 = z^3 +/- 1.
- ``elliptic``: the map from X^3 + Y^3 = d to v^2 = u^3 - 432 d^2, the
  group law over F_p, closed-form point counting.
- ``function_field``: the rank-2 curve X^3 + Y^3 = k(T) over Q(T),
  pullback differentials, and its L-function over F_p(T).
- ``surface``: Kodaira fibers, Euler number, K3 criterion, Shioda-Tate.
- ``twists``: specialization to cubic twists with rank >= 2 certificates.
- ``cli``: the ``twocubes`` command-line interface.
"""

__version__ = "0.1.0"
