"""Power sums from an L-polynomial by Newton's identities: the inverse of
`function_field._exp_series`, the oracle for the c_n that `lfunction` counted."""

from fractions import Fraction


def power_sums(coeffs, upto: int) -> list[int]:
    """c_1..c_upto of L(u) = sum coeffs[i] u^i from n b_n = sum_{j<=n} c_j b_{n-j};
    ValueError unless they are integers."""
    b = [Fraction(c) for c in coeffs] + [Fraction(0)] * max(0, upto + 1 - len(coeffs))
    cs: list[Fraction] = []
    for n in range(1, upto + 1):
        acc = n * b[n]
        for j in range(1, n):
            acc -= cs[j - 1] * b[n - j]
        cs.append(acc)
    if any(c.denominator != 1 for c in cs):
        raise ValueError("power sums of L are not integral")
    return [int(c) for c in cs]
