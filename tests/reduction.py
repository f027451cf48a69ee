"""Reduction of rational numbers into a prime field, for tests that re-check
a reduction mod p by hand."""

from fractions import Fraction

from twocubes.exact import FFElement, FiniteField


def embed_fraction(field: FiniteField, fr: Fraction) -> FFElement:
    """fr mod p; raises ZeroDivisionError if p divides the denominator."""
    return field(fr.numerator) / field(fr.denominator)
