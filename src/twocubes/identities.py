"""Classical two-cube identities, taxicab search, and near-miss families.

The symbolic checks expand everything as exact polynomials and demand the
zero polynomial; no identity is taken on faith.  The near-miss streams are
integer recurrences; their first seven tuples are checked exactly before
anything is emitted, and a recurrence argument proves every later tuple
from those seven, so a mis-transcribed generating function cannot slip
through.  They run in exact decimal, so that printing them is linear.
"""

from __future__ import annotations

import decimal
import heapq
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import Polynomial, rational_poly


class IdentityError(Exception):
    pass


@dataclass(frozen=True)
class CubeQuadruple:
    """x^3 + y^3 = z^3 + w^3, checked on construction."""

    x: Fraction
    y: Fraction
    z: Fraction
    w: Fraction

    def __post_init__(self):
        if self.x**3 + self.y**3 != self.z**3 + self.w**3:
            raise IdentityError(f"cube relation fails for {self}")

    def common_value(self) -> Fraction:
        return self.x**3 + self.y**3


@dataclass
class IdentityReport:
    name: str
    zero_polynomial: bool
    offending_monomial: tuple | None = None
    specializations: list = field(default_factory=list)

    def to_json(self) -> dict:
        out = {"name": self.name, "zero_polynomial": self.zero_polynomial}
        if self.offending_monomial is not None:
            out["offending_monomial"] = [str(v) for v in self.offending_monomial]
        out["specializations"] = self.specializations
        return out


# -- bivariate scaffolding: Polynomial in the outer variable over ------------
# -- Polynomial-in-the-inner-variable coefficients ---------------------------


def _inner(*coeffs) -> Polynomial:
    return rational_poly(*coeffs)


def _outer(*inner_polys) -> Polynomial:
    return Polynomial(tuple(inner_polys))


def _first_nonzero_monomial(f: Polynomial) -> tuple:
    for i, ci in enumerate(f.coeffs):
        if isinstance(ci, Polynomial):
            for j, cij in enumerate(ci.coeffs):
                if cij != 0:
                    return (i, j, cij)
        elif ci != 0:
            return (i, ci)
    raise ValueError("polynomial is zero")


def verify_ramanujan_1913() -> IdentityReport:
    """Check (6A^2-4AB+4B^2)^3 = (3A^2+5AB-5B^2)^3 + (4A^2-4AB+6B^2)^3 + (5A^2-5AB-3B^2)^3.

    Expanded as a polynomial in A over polynomials in B; the difference must
    be identically zero.  The report carries two integer specializations,
    including the one that reduces to 12^3 = (-1)^3 + 10^3 + 9^3 after
    division by 27.
    """
    # inner polynomials in B listed low-to-high, outer variable A
    lhs = _outer(_inner(0, 0, 4), _inner(0, -4), _inner(6))
    r1 = _outer(_inner(0, 0, -5), _inner(0, 5), _inner(3))
    r2 = _outer(_inner(0, 0, 6), _inner(0, -4), _inner(4))
    r3 = _outer(_inner(0, 0, -3), _inner(0, -5), _inner(5))
    diff = lhs**3 - (r1**3 + r2**3 + r3**3)
    report = IdentityReport("two-squares-parametrized cube identity (1913)", diff.is_zero())
    if not diff.is_zero():
        report.offending_monomial = _first_nonzero_monomial(diff)
        return report

    def special(a, b, scale=1):
        # outer variable A first, then the inner B
        vals = [p(Fraction(a))(Fraction(b)) / scale for p in (lhs, r1, r2, r3)]
        ok = vals[0] ** 3 == vals[1] ** 3 + vals[2] ** 3 + vals[3] ** 3
        return {
            "A": str(a),
            "B": str(b),
            "scale": str(scale),
            "cubes": [str(v) for v in vals],
            "holds": ok,
        }

    report.specializations = [special(1, 0), special(2, -1), special(2, -1, scale=3)]
    return report


def verify_entry20() -> IdentityReport:
    """Check the second-notebook Entry 20(iii) four-cube identity in M and P."""
    one_p = _inner(1, 1)  # 1 + P
    one_p2 = one_p * one_p
    t1 = _outer(
        _inner(0), _inner(-1) + 3 * one_p2, _inner(0), _inner(0), -3 * one_p,
        _inner(0), _inner(0), _inner(1),
    )  # M^7 - 3M^4(1+P) + M(3(1+P)^2 - 1)
    t2 = _outer(
        _inner(1, 3, 3), _inner(0), _inner(0), -3 * _inner(1, 2), _inner(0),
        _inner(0), _inner(2),
    )  # 2M^6 - 3M^3(1+2P) + (1+3P+3P^2)
    t3 = _outer(-_inner(1, 3, 3), _inner(0), _inner(0), _inner(0), _inner(0), _inner(0), _inner(1))
    rhs = _outer(
        _inner(0), _inner(-1, 0, 3), _inner(0), _inner(0), _inner(0, -3),
        _inner(0), _inner(0), _inner(1),
    )  # M^7 - 3M^4 P + M(3P^2 - 1)
    diff = t1**3 + t2**3 + t3**3 - rhs**3
    report = IdentityReport("second-notebook entry 20(iii) identity", diff.is_zero())
    if not diff.is_zero():
        report.offending_monomial = _first_nonzero_monomial(diff)
        return report

    def special(m, p):
        vals = [t(Fraction(m))(Fraction(p)) for t in (t1, t2, t3, rhs)]
        ok = vals[0] ** 3 + vals[1] ** 3 + vals[2] ** 3 == vals[3] ** 3
        return {"M": str(m), "P": str(p), "terms": [str(v) for v in vals], "holds": ok}

    report.specializations = [special(2, 0), special(1, 0)]
    return report


# -- Euler-equivalent third-notebook family ----------------------------------


def euler_family_symbolic_check(d: int = 3) -> bool:
    """The lambda-eliminated form of the third-notebook family is the zero polynomial.

    With N = a^2 + ab + b^2 and D = 3c^2 (so lambda = N/D), clearing D^6 from
    (a + lambda^2 c)^3 + (lambda b + c)^3 - (lambda a + c)^3 - (b + lambda^2 c)^3
    must leave the zero polynomial in a, b, c, expanded as a polynomial in a
    over polynomials in b over polynomials in c.  D = d c^2 with d != 3 is a
    perturbed family, for which the check must fail.
    """
    one, c_ = Polynomial((1,)), Polynomial((0, 1))  # over Z: nothing is divided
    a = _outer(Polynomial(), _outer(one))
    b = _outer(_outer(Polynomial(), one))
    c = _outer(_outer(c_))
    D = _outer(_outer(Polynomial((0, 0, d))))
    N = a * a + a * b + b * b
    DD, NNc = D * D, N * N * c
    D3 = DD * D
    t1 = a * DD + NNc
    t2 = N * b + D * c
    t3 = N * a + D * c
    t4 = b * DD + NNc
    diff = t1**3 + (t2**3 - t3**3) * D3 - t4**3
    return diff.is_zero()


def verify_euler_family(alpha, beta, gamma) -> CubeQuadruple:
    """Build the quadruple (a + L^2 c, L b + c, L a + c, b + L^2 c), L = (a^2+ab+b^2)/(3c^2).

    gamma = 0 is rejected.  The cube relation is enforced by the
    CubeQuadruple constructor, exactly.
    """
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    if gamma == 0:
        raise ValueError("gamma must be nonzero")
    lam = (alpha**2 + alpha * beta + beta**2) / (3 * gamma**2)
    return CubeQuadruple(
        alpha + lam**2 * gamma, lam * beta + gamma, lam * alpha + gamma, beta + lam**2 * gamma
    )


# -- taxicab search -----------------------------------------------------------


def taxicab_search(bound: int, reps: int = 2) -> list[tuple[int, list[tuple[int, int]]]]:
    """All n <= bound with at least `reps` representations n = a^3 + b^3, 1 <= a <= b.

    A heap walks the sums in increasing order, one entry (a^3 + b^3, a, b)
    per smaller leg a, so memory grows as bound^(1/3).  Equal sums leave the
    heap together, ordered by the smaller leg, and the output is ascending in n.
    """
    if bound < 2:
        raise ValueError("bound must be >= 2")
    if reps < 2:
        raise ValueError("reps must be >= 2")
    heap = []
    a = 1
    while 2 * a**3 <= bound:
        heap.append((2 * a**3, a, a))  # ascending, so already a heap
        a += 1
    out: list[tuple[int, list[tuple[int, int]]]] = []
    last, legs = 0, []
    while heap:
        n, a, b = heap[0]
        step = a**3 + (b + 1) ** 3
        if step <= bound:
            heapq.heapreplace(heap, (step, a, b + 1))
        else:
            heapq.heappop(heap)
        if n != last:
            if len(legs) >= reps:
                out.append((last, legs))
            last, legs = n, []
        legs.append((a, b))
    if len(legs) >= reps:
        out.append((last, legs))
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
