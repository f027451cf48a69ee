"""Exact arithmetic substrate: integers, rationals, polynomials, rational
functions over Q and finite fields.  The numpy counting sweep,
`exact.zechlog`, which counts cube classes over F_{Q^m} through the norm to
F_Q, is imported by its callers when they sweep."""

from .ffield import FFElement, FiniteField, prime_field, smallest_irreducible
from .numbers import cubefree_part, factorize, icbrt, is_probable_prime, primes
from .poly import Polynomial, factor_over_z, poly_gcd, rational_poly
from .ratfunc import RationalFunction

__all__ = [
    "FFElement",
    "FiniteField",
    "Polynomial",
    "RationalFunction",
    "cubefree_part",
    "factor_over_z",
    "factorize",
    "icbrt",
    "is_probable_prime",
    "poly_gcd",
    "prime_field",
    "primes",
    "rational_poly",
    "smallest_irreducible",
]
