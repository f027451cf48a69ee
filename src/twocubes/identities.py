"""Classical two-cube identities, taxicab search, and near-miss families.

Each identity is written once, as a function that returns its forms, and is
proved by evaluating the signed sum of their cubes in exact integers on the
grid {0..d_1} x ... x {0..d_k}, where d_i bounds the degree of every cube in
variable i: a polynomial of degree at most d_i in variable i that vanishes
there is zero (Alon, "Combinatorial Nullstellensatz", 1999, Lemma 2.1), so
the check is a proof, not a sample.  The near-miss streams are
integer recurrences; their first seven tuples are checked exactly before
anything is emitted, and a recurrence argument proves every later tuple
from those seven, so a mis-transcribed generating function cannot slip
through.  They run in exact decimal, so that printing them is linear.
"""

from __future__ import annotations

import bisect
import decimal
import itertools
import math
import operator
from fractions import Fraction
from typing import NamedTuple


class IdentityError(Exception):
    pass


class _Quadruple(NamedTuple):
    x: Fraction
    y: Fraction
    z: Fraction
    w: Fraction


class CubeQuadruple(_Quadruple):
    """x^3 + y^3 = z^3 + w^3, checked on construction."""

    __slots__ = ()

    def __new__(cls, x, y, z, w):
        self = super().__new__(cls, x, y, z, w)
        if x**3 + y**3 != z**3 + w**3:
            raise IdentityError(f"cube relation fails for {self}")
        return self

    def common_value(self) -> Fraction:
        return self.x**3 + self.y**3


class IdentityReport(NamedTuple):
    name: str
    zero_polynomial: bool
    offending_point: tuple | None
    specializations: list

    def to_json(self) -> dict:
        out = {"name": self.name, "zero_polynomial": self.zero_polynomial}
        if self.offending_point is not None:
            out["offending_point"] = [str(v) for v in self.offending_point]
        out["specializations"] = self.specializations
        return out


def _cube_sum(signs, values):
    return sum([s * v**3 for s, v in zip(signs, values)])


def _grid_failure(forms, signs, degrees) -> tuple | None:
    """The first point of {0..d_1} x ... x {0..d_k}, for degrees (d_1, ..., d_k),
    where sum(sign * form^3) is nonzero.  None proves that the sum is the zero
    polynomial, provided every cube has degree <= d_i in variable i."""
    for point in itertools.product(*(range(d + 1) for d in degrees)):
        if _cube_sum(signs, forms(*point)):
            return point
    return None


RAMANUJAN_1913_SIGNS, RAMANUJAN_1913_DEGREES = (1, -1, -1, -1), (6, 6)


def ramanujan_1913_forms(A, B):
    """(lhs, r1, r2, r3) of the 1913 identity lhs^3 = r1^3 + r2^3 + r3^3.

    The forms are quadratic, so every cube has degree 6 in A and in B:
    RAMANUJAN_1913_DEGREES, a 7 x 7 grid."""
    return (6 * A * A - 4 * A * B + 4 * B * B, 3 * A * A + 5 * A * B - 5 * B * B,
            4 * A * A - 4 * A * B + 6 * B * B, 5 * A * A - 5 * A * B - 3 * B * B)


def verify_ramanujan_1913() -> IdentityReport:
    """Prove the 1913 identity; the report carries three specializations of the
    same forms at Fractions, the last of which is 12^3 = (-1)^3 + 10^3 + 9^3."""
    point = _grid_failure(ramanujan_1913_forms, RAMANUJAN_1913_SIGNS, RAMANUJAN_1913_DEGREES)

    def special(a, b, scale=1):
        vals = [v / scale for v in ramanujan_1913_forms(Fraction(a), Fraction(b))]
        return {"A": str(a), "B": str(b), "scale": str(scale), "cubes": [str(v) for v in vals],
                "holds": _cube_sum(RAMANUJAN_1913_SIGNS, vals) == 0}

    specs = [special(1, 0), special(2, -1), special(2, -1, scale=3)] if point is None else []
    name = "two-squares-parametrized cube identity (1913)"
    return IdentityReport(name, point is None, point, specs)


ENTRY20_SIGNS, ENTRY20_DEGREES = (1, 1, 1, -1), (21, 6)


def entry20_forms(M, P):
    """(t1, t2, t3, rhs) of Entry 20(iii), t1^3 + t2^3 + t3^3 = rhs^3.

    Each form has degree <= 7 in M (t1 and rhs) and 2 in P, so every cube has
    degree <= 21 in M and <= 6 in P: ENTRY20_DEGREES, a 22 x 7 grid."""
    M3, Q = M * M * M, 1 + 3 * P + 3 * P * P
    return (M3 * M3 * M - 3 * M3 * M * (1 + P) + M * (3 * (1 + P) ** 2 - 1),
            2 * M3 * M3 - 3 * M3 * (1 + 2 * P) + Q,
            M3 * M3 - Q,
            M3 * M3 * M - 3 * M3 * M * P + M * (3 * P * P - 1))


def verify_entry20() -> IdentityReport:
    """Prove Entry 20(iii); the report carries two specializations of the
    same forms at Fractions."""
    point = _grid_failure(entry20_forms, ENTRY20_SIGNS, ENTRY20_DEGREES)

    def special(m, p):
        vals = entry20_forms(Fraction(m), Fraction(p))
        return {"M": str(m), "P": str(p), "terms": [str(v) for v in vals],
                "holds": _cube_sum(ENTRY20_SIGNS, vals) == 0}

    specs = [special(2, 0), special(1, 0)] if point is None else []
    return IdentityReport("second-notebook entry 20(iii) identity", point is None, point, specs)


# -- Euler-equivalent third-notebook family ----------------------------------

EULER_SIGNS, EULER_DEGREES = (1, 1, -1, -1), (12, 12, 15)


def euler_family_forms(a, b, c, d=3):
    """D^2 (a + L^2 c, L b + c, L a + c, b + L^2 c), with N = a^2 + ab + b^2,
    D = d c^2 and L = N/D: the third-notebook quadruple x, y, z, w with L cleared.

    N has degree 2 in a and in b, D degree 2 in c.  So the forms have degree
    <= 4 in a and in b and <= 5 in c (D^2 c), and for every d every cube has
    degree <= 12 in a and in b and <= 15 in c: EULER_DEGREES, a 13 x 13 x 16 grid."""
    N, D = a * a + a * b + b * b, d * c * c
    DD, NNc = D * D, N * N * c
    return (a * DD + NNc, D * (N * b + D * c), D * (N * a + D * c), b * DD + NNc)


def euler_family_symbolic_check(d: int = 3) -> bool:
    """euler_family_forms is a family of quadruples x^3 + y^3 = z^3 + w^3 in
    a, b, c.  D = d c^2 with d != 3 is a perturbed family, for which the
    check must fail; d = 0 leaves L = N/D undefined and is a ValueError."""
    if d == 0:
        raise ValueError("d = 0 makes D = 0, so L = N/D is undefined")
    return _grid_failure(lambda a, b, c: euler_family_forms(a, b, c, d),
                         EULER_SIGNS, EULER_DEGREES) is None


def verify_euler_family(alpha, beta, gamma) -> CubeQuadruple:
    """The quadruple (a + L^2 c, L b + c, L a + c, b + L^2 c), L = (a^2+ab+b^2)/(3c^2):
    euler_family_forms(alpha, beta, gamma) divided by D^2 = (3 gamma^2)^2.

    gamma = 0 is rejected.  The cube relation is enforced by the
    CubeQuadruple constructor, exactly.
    """
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    scale = (3 * gamma**2) ** 2
    return CubeQuadruple(*(v / scale for v in euler_family_forms(alpha, beta, gamma)))


# -- taxicab search -----------------------------------------------------------


# Sort this many (a, b) pairs at a time, so that memory stays flat at any bound.
_PAIRS_PER_WINDOW = 4096


def _equal_sum_runs(keys: list[int], s: int) -> list[tuple[int, list[int]]]:
    """Each n shared by two or more of the sorted keys (n << s) | a, with those keys."""
    ns = [k >> s for k in keys]
    runs: list[tuple[int, list[int]]] = []
    for j in itertools.compress(range(1, len(ns)), map(operator.eq, ns, ns[1:])):
        if not runs or runs[-1][0] != ns[j]:
            runs.append((ns[j], [keys[j - 1]]))
        runs[-1][1].append(keys[j])
    return runs


def taxicab_search(bound: int, reps: int = 2) -> list[tuple[int, list[tuple[int, int]]]]:
    """All n <= bound with at least `reps` representations n = a^3 + b^3, 1 <= a <= b.

    The sums are walked in windows (lo, hi] whose edges rise from 0 to bound,
    so every sum falls in exactly one window, together with all of its pairs.
    A window packs each of its pairs as the key ((a^3 + b^3) << s) | a, where
    s is the bit length of the largest smaller leg, and sorts the keys: equal
    sums become adjacent and ordered by a, and the output is ascending in n.
    About 0.44 x^(2/3) pairs have a sum below x, so edge i of W sits at
    bound * (i/W)^(3/2) and each window holds about _PAIRS_PER_WINDOW pairs.
    Each smaller leg a keeps the first b it has not emitted; its run in the
    window ends at the largest b with b^3 <= hi - a^3, which bisecting the
    integer cube table finds exactly, with no float at any bound.
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    if reps < 2:
        raise ValueError("reps must be >= 2")
    cubes = [0]  # b^3 for every b with 1 + b^3 <= bound
    while len(cubes) ** 3 < bound:
        cubes.append(len(cubes) ** 3)
    a_max = bisect.bisect_right(cubes, bound // 2) - 1  # the largest a with 2a^3 <= bound
    s = a_max.bit_length()
    mask = (1 << s) - 1
    shifted = [c << s for c in cubes]
    windows = 4 * len(cubes) ** 2 // (9 * _PAIRS_PER_WINDOW) + 1
    first_b = list(range(len(cubes)))  # per smaller leg a, the first b not yet emitted
    out: list[tuple[int, list[tuple[int, int]]]] = []
    for i in range(1, windows + 1):
        hi = math.isqrt(bound * bound * i**3 // windows**3)
        keys: list[int] = []
        for a in range(1, bisect.bisect_right(cubes, hi // 2)):  # 2a^3 <= hi
            b0 = first_b[a]
            b1 = first_b[a] = bisect.bisect_right(cubes, hi - cubes[a], b0)
            base = shifted[a] | a
            keys += [base + c for c in shifted[b0:b1]]
        keys.sort()
        for n, run in _equal_sum_runs(keys, s):
            if len(run) >= reps:
                legs = [k & mask for k in run]
                out.append((n, [(a, bisect.bisect_left(cubes, n - cubes[a])) for a in legs]))
    return out


# -- near-miss families x^3 + y^3 = z^3 +/- 1 ---------------------------------


class NearMissError(Exception):
    pass


# The lost-notebook generating functions: three numerators over one shared
# denominator, expanded at 0.  Expanding at infinity substitutes x -> 1/x and
# clears powers, which turns each numerator into x * reverse(numerator) and
# fixes the palindromic denominator; those series start with a zero, so that
# stream starts at n = 1.  Each family maps to (numerators, offset).
NEARMISS_DENOMINATOR = (1, -82, -82, 1)
_AT_ZERO = ((1, 53, 9), (2, -26, -12), (2, 8, -10))
NEARMISS_FAMILIES = {
    "zero": (_AT_ZERO, 0),
    "infinity": (tuple((0,) + num[::-1] for num in _AT_ZERO), 1),
}
# The order of the linear recurrence that a^3 + b^3 - c^3 - eps obeys (see
# nearmiss_stream): this many consecutive exact checks prove every term.
NEARMISS_RECURRENCE_ORDER = 7
# Integer Decimals held in base 10, so str() of a term is linear in its digits
# and has no int_max_str_digits limit.  Any rounding raises, also under -O.
NEARMISS_CONTEXT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.Overflow],
)


def nearmiss_stream(
    family: str, count: int
) -> list[tuple[int, decimal.Decimal, decimal.Decimal, decimal.Decimal, int]]:
    """First `count` tuples (n, a_n, b_n, c_n, eps_n) of a family in NEARMISS_FAMILIES.

    a_n, b_n, c_n are the x^n coefficients of num / NEARMISS_DENOMINATOR for
    the three numerators.  The denominator has constant term 1, so
    den * series = num is solved over Z term by term, in NEARMISS_CONTEXT.
    They are returned as integer Decimals (exponent 0): call int() on them
    before any arithmetic, because the default decimal context rounds to 28
    digits without raising.  Every tuple satisfies
    a^3 + b^3 - c^3 = eps = (-1)^(n - offset): the first
    min(count, NEARMISS_RECURRENCE_ORDER) are checked exactly, the first
    failure aborting with its index, and they prove the rest.

    Proof (Hirschhorn, Math. Mag. 68, 1995).  Each numerator has at most
    3 + offset coefficients (checked before any term), so from n = offset on
    a, b and c follow the recurrence of the denominator, whose reciprocal
    roots are -1, r and 1/r with r + 1/r = 83: each is a combination of the
    n-th powers of those three.  Then D_n = a_n^3 + b_n^3 - c_n^3 - eps_n is
    a combination of the n-th powers of products of three roots, which take
    only 7 distinct values: r^3, r^-3, r, 1/r, -r^2, -r^-2 and -1 (eps_n is
    a multiple of (-1)^n).  A combination of 7 distinct geometric sequences
    that vanishes at 7 consecutive n vanishes at every n (Vandermonde), so a
    failing term, if any, is among the first seven, and the index reported
    is the same as that of a check of every term.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    numerators, offset = NEARMISS_FAMILIES[family]
    if any(len(num) > 3 + offset for num in numerators):
        raise NearMissError(
            f"a numerator of {family!r} has more than {3 + offset} coefficients,"
            " so the recurrence proof does not apply"
        )
    tail = NEARMISS_DENOMINATOR[1:]
    total = offset + count
    series = []
    with decimal.localcontext(NEARMISS_CONTEXT):
        for num in numerators:
            s = []
            for n in range(total):
                acc = decimal.Decimal(num[n] if n < len(num) else 0)
                for j, d in enumerate(tail[:n], 1):
                    acc -= d * s[n - j]
                s.append(acc)
            series.append(s)
    out = [(n, *(s[n] for s in series), (-1) ** (n - offset)) for n in range(offset, total)]
    for n, *abc, want in out[:NEARMISS_RECURRENCE_ORDER]:
        a, b, c = map(int, abc)
        eps = a**3 + b**3 - c**3
        if eps != want:
            raise NearMissError(
                f"cube relation fails at n={n}: {a}^3+{b}^3-{c}^3 = {eps}, expected {want}"
            )
    return out
