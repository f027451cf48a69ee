"""The curve X^3 + Y^3 = k(T) over Q(T) and its L-function over F_p(T).

k(T) = 63(3T^2 - 3T + 1)(T^2 + T + 1)(T^2 - 3T + 3) carries two polynomial
sections.  Mapping a section P to the pullback of the invariant
differential through (T, S) -> (x(T)/S, y(T)/S) on the cyclic cover
S^3 = k(T) collapses, after reduction by S^3 = k and x^3 + y^3 = k, to the
Wronskian x'y - xy' on the basis form dT/S^2; linear independence of the
resulting vectors bounds the rank from below.  The CM map
[omega](x, y) = (omega x, omega y) scales the Wronskian by
omega^2 = -1 - omega, so lambda([omega]P) = omega^2 lambda(P): the
CM-extended rank comes from rational rows alone, (w, 0) and (-w, -w) in the
basis (1, omega).  The upper bound comes from
the degree-8 L-polynomial of the reduction mod p, assembled from fiber
trace sums c_n and the functional-equation closure of its inverse roots
under g -> p^2/g, then re-verified against independently counted c_n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .elliptic import trace
from .exact import FiniteField, Polynomial, RationalFunction, poly_discriminant, rational_poly
from .exact.ffield import MAX_COUNTING_FIELD
from .exact.poly import _cleared, _int_add, _int_mul, _is_rational_poly
from .exact.poly import _int_cyclotomic, _int_divide_out


class FamilyError(Exception):
    pass


@dataclass(frozen=True)
class SectionPoint:
    """A point of X^3 + Y^3 = k with rational-function coordinates."""

    x: RationalFunction
    y: RationalFunction

    def on_curve(self, k: Polynomial) -> bool:
        return self.x**3 + self.y**3 == RationalFunction(k)


@dataclass(frozen=True)
class HolDifferential:
    """w(T) * dT/S^2 on the genus-4 cover S^3 = k(T)."""

    w: RationalFunction

    def as_polynomial(self) -> Polynomial:
        return self.w.as_polynomial()


@dataclass(frozen=True)
class FunctionFieldCurve:
    """X^3 + Y^3 = k(T) with deg k = 6 squarefree, plus its Weierstrass model."""

    k: Polynomial
    k_quadratics: tuple[tuple[int, int, int], ...]  # (a, b, c) per quadratic factor
    k_unit: int
    p1: SectionPoint
    p2: SectionPoint

    @property
    def weierstrass_A(self) -> Polynomial:
        return -432 * self.k * self.k


@lru_cache(maxsize=None)
def build_family() -> FunctionFieldCurve:
    """Construct k(T) = 63(3T^2-3T+1)(T^2+T+1)(T^2-3T+3) and both sections.

    Both on-curve identities are verified as exact polynomial identities;
    a transcription slip fails loudly here.  The family is a constant, so
    it is built and checked once per process.
    """
    quads = ((3, -3, 1), (1, 1, 1), (1, -3, 3))
    k = rational_poly(63)
    for (a, b, c) in quads:
        k = k * rational_poly(c, b, a)
    if k.degree != 6 or poly_discriminant(k) == 0:
        raise FamilyError("twist polynomial is not squarefree of degree 6")
    p1 = SectionPoint(
        RationalFunction(rational_poly(4, -4, 6)), RationalFunction(rational_poly(5, -5, -3))
    )
    p2 = SectionPoint(
        RationalFunction(rational_poly(6, -4, 4)), RationalFunction(rational_poly(-3, -5, 5))
    )
    for name, sec in (("P1", p1), ("P2", p2)):
        if not sec.on_curve(k):
            raise FamilyError(f"section {name} is not on the curve")
    return FunctionFieldCurve(k, quads, 63, p1, p2)


def pullback_differential(P: SectionPoint) -> HolDifferential:
    """lambda(P) = (x'y - xy') dT/S^2.

    Pulling the invariant differential back through (x/S, y/S) and reducing
    with S^3 = k, x^3 + y^3 = k leaves exactly the Wronskian coefficient;
    for quadratic polynomial sections its degree is <= 2 (holomorphy).
    Over Q, with x = a/b and y = c/e over Z[T], it is formed fraction-free
    as ((a'b - ab')ce - ab(c'e - ce')) / (b^2 e^2) and normalized once.
    Raises TypeError for a section with coefficients outside Q.
    """
    (a, b), (c, e) = _int_pair(P.x), _int_pair(P.y)
    wx = _int_add(_int_mul(_deriv(a), b), _int_mul(a, _deriv(b)), -1)
    wy = _int_add(_int_mul(_deriv(c), e), _int_mul(c, _deriv(e)), -1)
    num = _int_add(_int_mul(wx, _int_mul(c, e)), _int_mul(_int_mul(a, b), wy), -1)
    be = _int_mul(b, e)
    return HolDifferential(RationalFunction(Polynomial(num), Polynomial(_int_mul(be, be))))


def _deriv(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def _int_pair(f: RationalFunction) -> list[list[int]]:
    """f = a/b with a, b over Z[T]; TypeError unless f has rational coefficients."""
    if not (_is_rational_poly(f.num) and _is_rational_poly(f.den)):
        raise TypeError("section arithmetic needs rational coefficients")
    return _cleared(f.num, f.den)


def _int_rows(diffs: list[HolDifferential]) -> list[list[int]]:
    """Coefficient rows over Z of the w times one common denominator, padded to one width.

    The product of all denominators is a common multiple, which keeps every
    linear relation among the w.  TypeError unless every w lies in Q(T).
    """
    pairs = [_int_pair(d.w) for d in diffs]
    rows = []
    for i, (a, _) in enumerate(pairs):
        for j, (_, b) in enumerate(pairs):
            if j != i:
                a = _int_mul(a, b)
        rows.append(a)
    width = max(map(len, rows), default=0)
    return [r + [0] * (width - len(r)) for r in rows]


def z_rank(diffs: list[HolDifferential]) -> int:
    """Rank over Q of the span of the differentials' coefficient vectors."""
    return _rank(_int_rows(diffs))


def z_rank_cm(diffs: list[HolDifferential]) -> int:
    """Rank over Q of the given w = lambda(P) together with their CM images lambda([omega]P).

    lambda([omega]P) = omega^2 w = -w - omega w, so flattened in the basis
    (1, omega) each w gives the rows (w, 0) and (-w, -w).
    """
    rows = []
    for r in _int_rows(diffs):
        rows += [r + [0] * len(r), [-c for c in r] * 2]
    return _rank(rows)


def _rank(rows: list[list[int | Fraction]]) -> int:
    """Rank over Q by Gauss-Jordan elimination in exact Fractions."""
    rows = [list(r) for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = Fraction(rows[i][c], inv)
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


# -- group law on sections: Jacobian coordinates over Z[T] --------------------


class _JacobianModel:
    """v^2 = u^3 - 432k^2 with points (X : Y : Z) over Z[T], u = X/Z^2, v = Y/Z^3.

    A section (x, y) maps to u = 12k/(x+y), v = 36k(x-y)/(x+y), and back by
    x = (36k + v)/(6u), y = (36k - v)/(6u).  The chord-tangent law needs no
    division in these coordinates, so only the final point is put in lowest
    terms.  k must lie in Z[T]; every input of every step is checked
    against Y^2 = X^3 + A Z^6.  None is the identity.
    """

    def __init__(self, curve: FunctionFieldCurve):
        if not all(getattr(c, "denominator", None) == 1 for c in curve.k.coeffs):
            raise ValueError("section arithmetic needs k(T) in Z[T]")
        self.K = [int(c) for c in curve.k.coeffs]
        self.A = [-432 * c for c in _int_mul(self.K, self.K)]

    def check(self, *points):
        for P in points:
            if P is not None:
                X, Y, Z = P
                Z3 = _int_mul(_int_mul(Z, Z), Z)
                rhs = _int_add(_int_mul(_int_mul(X, X), X), _int_mul(self.A, _int_mul(Z3, Z3)))
                if _int_mul(Y, Y) != rhs:
                    raise ValueError("point not on curve")

    def from_section(self, P: SectionPoint | None):
        if P is None:
            return None
        (a, b), (c, e) = _int_pair(P.x), _int_pair(P.y)
        ae, cb = _int_mul(a, e), _int_mul(c, b)
        s = _int_add(ae, cb)
        if not s:
            return None  # x + y = 0: the flex, identity of the group
        Ks = _int_mul(self.K, s)
        X = [12 * c for c in _int_mul(_int_mul(b, e), Ks)]
        Y = [36 * c for c in _int_mul(_int_mul(_int_add(ae, cb, -1), s), Ks)]
        return X, Y, s

    def to_section(self, P) -> SectionPoint | None:
        if P is None:
            return None
        X, Y, Z = P
        kZ3 = [36 * c for c in _int_mul(self.K, _int_mul(_int_mul(Z, Z), Z))]
        den = Polynomial([6 * c for c in _int_mul(X, Z)])
        return SectionPoint(RationalFunction(Polynomial(_int_add(kZ3, Y)), den),
                            RationalFunction(Polynomial(_int_add(kZ3, Y, -1)), den))

    def double(self, P):
        self.check(P)
        if P is None or not P[1]:
            return None  # 2-torsion doubles to the identity
        X, Y, Z = P
        YY = _int_mul(Y, Y)
        S = [4 * c for c in _int_mul(X, YY)]
        M = [3 * c for c in _int_mul(X, X)]
        X3 = _int_add(_int_mul(M, M), S, -2)
        Y3 = _int_add(_int_mul(M, _int_add(S, X3, -1)), _int_mul(YY, YY), -8)
        return X3, Y3, [2 * c for c in _int_mul(Y, Z)]

    def add(self, P, Q):
        self.check(P, Q)
        if P is None or Q is None:
            return Q if P is None else P
        (X1, Y1, Z1), (X2, Y2, Z2) = P, Q
        Z1Z1, Z2Z2 = _int_mul(Z1, Z1), _int_mul(Z2, Z2)
        U1, U2 = _int_mul(X1, Z2Z2), _int_mul(X2, Z1Z1)
        S1, S2 = _int_mul(Y1, _int_mul(Z2, Z2Z2)), _int_mul(Y2, _int_mul(Z1, Z1Z1))
        H, R = _int_add(U2, U1, -1), _int_add(S2, S1, -1)
        if not H:
            return self.double(P) if not R else None
        HH = _int_mul(H, H)
        HHH, V = _int_mul(H, HH), _int_mul(U1, HH)
        X3 = _int_add(_int_add(_int_mul(R, R), HHH, -1), V, -2)
        Y3 = _int_add(_int_mul(R, _int_add(V, X3, -1)), _int_mul(S1, HHH), -1)
        return X3, Y3, _int_mul(_int_mul(Z1, Z2), H)


def section_add(
    curve: FunctionFieldCurve, P: SectionPoint | None, Q: SectionPoint | None
) -> SectionPoint | None:
    """P + Q in the Mordell-Weil group; None is the identity.

    Raises ValueError for a section off the curve and TypeError for one
    with coefficients outside Q.
    """
    J = _JacobianModel(curve)
    return J.to_section(J.add(J.from_section(P), J.from_section(Q)))


def section_mul(curve: FunctionFieldCurve, n: int, P: SectionPoint | None) -> SectionPoint | None:
    """n * P by double-and-add in Jacobian coordinates, normalized once; raises as section_add."""
    J = _JacobianModel(curve)
    pt = J.from_section(P)
    if n < 0 and pt is not None:
        n, pt = -n, (pt[0], [-c for c in pt[1]], pt[2])
    acc = None
    while n:
        if n & 1:
            acc = J.add(acc, pt)
        n >>= 1
        if n:
            pt = J.double(pt)
    return J.to_section(acc)


@dataclass
class LambdaReport:
    additive: bool
    w_left: RationalFunction
    w_right: RationalFunction
    degenerate: bool = False

    def to_json(self) -> dict:
        return {
            "additive": self.additive,
            "lambda_of_sum": self.w_left.format(),
            "sum_of_lambdas": self.w_right.format(),
            "degenerate": self.degenerate,
        }


def lambda_homomorphism_check(
    curve: FunctionFieldCurve, P: SectionPoint, Q: SectionPoint
) -> LambdaReport:
    """Verify lambda(P + Q) = lambda(P) + lambda(Q) exactly.

    The sum is computed by chord-tangent in the Weierstrass model, in
    Jacobian coordinates over Z[T], and mapped back.  A sum at the identity
    is the degenerate case lambda(O) = 0.
    """
    if P.x + P.y == 0 or Q.x + Q.y == 0:
        raise ValueError("sections at the flex are not supported here")
    w_sum = pullback_differential(P).w + pullback_differential(Q).w
    S = section_add(curve, P, Q)
    if S is None:
        return LambdaReport(w_sum == 0, RationalFunction(Polynomial()), w_sum, degenerate=True)
    w_left = pullback_differential(S).w
    return LambdaReport(w_left == w_sum, w_left, w_sum)


# -- the L-function over F_p(T) -------------------------------------------------


class LFunctionError(Exception):
    pass


@dataclass(frozen=True)
class LPolynomial:
    """L(u) = sum coeffs[i] u^i of degree 8, with the c_n actually counted."""

    p: int
    coeffs: tuple[int, ...]
    counted: tuple[tuple[int, int], ...]  # (n, c_n) pairs that were counted

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def power_sum_coefficients(self, upto: int) -> list[int]:
        """c_1..c_upto from log L; inverse of the exp construction."""
        b = [Fraction(c) for c in self.coeffs] + [Fraction(0)] * max(
            0, upto + 1 - len(self.coeffs)
        )
        cs: list[Fraction] = []
        for n in range(1, upto + 1):
            acc = n * b[n]
            for j in range(1, n):
                acc -= cs[j - 1] * b[n - j]
            cs.append(acc)
        if any(c.denominator != 1 for c in cs):
            raise LFunctionError("power sums of L are not integral")
        return [int(c) for c in cs]

    def functional_equation_sign(self) -> int:
        b = self.coeffs
        p = self.p
        for sign in (1, -1):
            if all(b[8 - i] == sign * p ** (8 - 2 * i) * b[i] for i in range(0, 4 + 1)):
                return sign
        raise LFunctionError("no functional-equation sign fits")


def _exp_series(cn: dict[int, int], upto: int) -> list[Fraction]:
    """b_0..b_upto with n b_n = sum_{j<=n} c_j b_{n-j}."""
    b = [Fraction(1)]
    for n in range(1, upto + 1):
        acc = Fraction(0)
        for j in range(1, n + 1):
            acc += cn.get(j, 0) * b[n - j]
        b.append(acc / n)
    return b


def good_prime(curve: FunctionFieldCurve, p: int) -> bool:
    from .exact import is_probable_prime

    if not is_probable_prime(p) or p in (2, 3):
        return False
    if curve.k.lc.numerator % p == 0:
        return False
    disc = poly_discriminant(curve.k)
    if disc.denominator % p == 0:
        raise LFunctionError("discriminant has p in its denominator")
    return disc.numerator % p != 0


def fiber_trace_sum(curve: FunctionFieldCurve, p: int, n: int) -> int:
    """c_n = sum of fiber traces over P^1(F_{p^n}); additive fibers give 0.

    Over fields with q = 2 mod 3 cubing is a bijection, every good fiber is
    supersingular, and the sum is 0 without any counting.  Otherwise the
    fiber over t has trace traces[log(-432 k(t)^2) mod 6], traces[j] =
    trace(field, g^j) in closed form, and one cubic-class sweep of k(t)
    over all of F_q counts the fibers of each class; the fiber at infinity
    comes from the reversed model (v^2 = u^3 - 432 lc(k)^2, good reduction
    here).  The class table costs q bytes, and fields above its budget are
    refused.
    """
    q = p**n
    if q % 3 == 2:
        return 0
    _check_counting_budget(p, n)
    from .exact import zechlog  # numpy is imported only by the sweeps

    field = FiniteField(p, n)
    engine = zechlog.ZechLog(field)
    traces = [trace(field, engine.g**j) for j in range(6)]
    roots = []
    for (a, b, c) in curve.k_quadratics:
        s = field.sqrt(field((b * b - 4 * a * c) % p))
        inv2a = field(2 * a).inverse()
        mb = field(-b % p)
        roots.append((mb + s) * inv2a)
        roots.append((mb - s) * inv2a)
    lc = curve.k_unit
    for (a, _, _) in curve.k_quadratics:
        lc *= a
    unit = field(lc % p)
    counts, n_bad = engine.cube_class_counts(unit, roots)
    if n_bad != len(roots):
        raise LFunctionError("repeated roots of k in the counting field")
    l432 = engine.sextic_class(field(-432 % p))
    c_n = 0
    for j in range(3):
        c_n += counts[j] * traces[(l432 + 2 * j) % 6]
    a_inf = field(-432 % p) * unit * unit
    c_n += traces[engine.sextic_class(a_inf)]
    return c_n


def _check_counting_budget(p: int, n: int) -> None:
    if p**n > MAX_COUNTING_FIELD:
        raise LFunctionError(f"counting over q = {p}^{n} exceeds the class-table budget")


def lfunction(p: int, direct: bool = False) -> LPolynomial:
    """The degree-8 L-polynomial of the family curve reduced mod p.

    Default path: count c_1..c_4, complete the coefficients through the
    functional equation (closure of inverse roots under g -> p^2/g), then
    re-verify against independently counted c_5 and c_6.  A sign ambiguity
    that c_5/c_6 cannot settle is an error, never a guess.  With
    direct=True all of c_1..c_8 are counted instead (small p only).
    Results are cached on (p, bool(direct)), however the call spells them.
    """
    return _lfunction(p, bool(direct))


@lru_cache(maxsize=8)
def _lfunction(p: int, direct: bool) -> LPolynomial:
    curve = build_family()
    if not good_prime(curve, p):
        raise LFunctionError(f"{p} is not a good prime for the family")
    _check_counting_budget(p, 8 if direct else 6)  # the largest field either path counts
    if direct:
        cn = {n: fiber_trace_sum(curve, p, n) for n in range(1, 9)}
        b = _exp_series(cn, 8)
        if any(x.denominator != 1 for x in b):
            raise LFunctionError("direct expansion is not integral")
        coeffs = tuple(int(x) for x in b)
        L = LPolynomial(p, coeffs, tuple(sorted(cn.items())))
        L.functional_equation_sign()  # closure must hold
        _verify_weil(L)
        return L

    cn = {n: fiber_trace_sum(curve, p, n) for n in range(1, 5)}
    b4 = _exp_series(cn, 4)
    if any(x.denominator != 1 for x in b4):
        raise LFunctionError("counted coefficients are not integral")
    b4 = [int(x) for x in b4]
    candidates = []
    for sign in (1, -1):
        if sign == -1 and b4[4] != 0:
            continue  # b4 = sign * b4 forces b4 = 0 for the minus sign
        coeffs = tuple(b4 + [sign * p ** (8 - 2 * i) * b4[i] for i in (3, 2, 1, 0)])
        candidates.append(LPolynomial(p, coeffs, tuple(sorted(cn.items()))))
    c5 = fiber_trace_sum(curve, p, 5)
    c6 = fiber_trace_sum(curve, p, 6)
    survivors = [
        L
        for L in candidates
        if L.power_sum_coefficients(6)[4] == c5 and L.power_sum_coefficients(6)[5] == c6
    ]
    if len(survivors) > 1:
        raise LFunctionError("functional-equation sign ambiguous after c_5, c_6")
    if not survivors:
        raise LFunctionError(
            "functional-equation completion contradicts counted c_5/c_6"
        )
    L = survivors[0]
    counted = dict(L.counted)
    counted[5] = c5
    counted[6] = c6
    L = LPolynomial(p, L.coeffs, tuple(sorted(counted.items())))
    _verify_weil(L)
    return L


def _verify_weil(L: LPolynomial) -> None:
    """Inverse roots have |g| = p (checked numerically after exact factor removal)."""
    import numpy as np

    rem = list(L.coeffs)
    # strip the exact unitary factors (1 -+ pu) first
    for root_factor in ([-1, L.p], [1, L.p]):
        rem, _ = _int_divide_out(rem, root_factor)
    cs = [float(c) for c in rem]
    if len(cs) > 1:
        inv_roots = np.roots(list(reversed(cs)))  # roots of sum c_i u^i
        for u in inv_roots:
            gamma = 1.0 / u
            if abs(abs(gamma) - L.p) > 1e-9 * L.p:
                raise LFunctionError(f"inverse root off the Weil circle: {gamma}")


def rank_bounds(L: LPolynomial) -> tuple[int, int]:
    """(arith, geom): multiplicity of (pu - 1), and of all inverse roots p*zeta.

    Both are exact, for L of any degree.  An inverse root p*zeta with zeta of
    order m is a root of Phi_m(pu) = sum c_j p^j u^j, where Phi_m = sum c_j x^j.
    Its constant term is Phi_m(0) = +-1, so it is primitive, and by Gauss's
    lemma it divides the integer polynomial L over Q exactly when the
    division over Z leaves no remainder; each factor is stripped by exact
    division over Z.  Only orders m with phi(m) = deg Phi_m at most the
    degree left can divide, and phi(m) >= sqrt(m/2) bounds those m by twice
    the degree squared.
    """

    def phi_pu(m):
        return [c * L.p**j for j, c in enumerate(_int_cyclotomic(m))]

    rem, arith = _int_divide_out(list(L.coeffs), phi_pu(1))
    geom, m = arith, 2
    while m <= 2 * (len(rem) - 1) ** 2:
        totient = sum(gcd(k, m) == 1 for k in range(1, m + 1))
        if totient < len(rem):
            rem, k = _int_divide_out(rem, phi_pu(m))
            geom += k * totient
        m += 1
    return arith, geom


# -- assembled rank report -------------------------------------------------------


@dataclass
class RankReport:
    z_rank_rational: int
    z_rank_cm: int
    arith_bound: int
    geom_bound: int
    p: int

    @property
    def rank(self) -> int | None:
        return self.z_rank_rational if self.z_rank_rational == self.arith_bound else None

    @property
    def geometric_rank(self) -> int | None:
        return self.z_rank_cm if self.z_rank_cm == self.geom_bound else None

    def to_json(self) -> dict:
        return {
            "rank_lower_bound": self.z_rank_rational,
            "rank_upper_bound": self.arith_bound,
            "rank": self.rank,
            "geometric_rank_lower_bound": self.z_rank_cm,
            "geometric_rank_upper_bound": self.geom_bound,
            "geometric_rank": self.geometric_rank,
            "reduction_prime": self.p,
        }


def rank_report(p: int = 17) -> RankReport:
    """Lower bounds from differentials, upper bounds from the mod-p L-function."""
    curve = build_family()
    diffs = [pullback_differential(curve.p1), pullback_differential(curve.p2)]
    zr, zr_cm = z_rank(diffs), z_rank_cm(diffs)
    L = lfunction(p)
    arith, geom = rank_bounds(L)
    return RankReport(zr, zr_cm, arith, geom, p)
