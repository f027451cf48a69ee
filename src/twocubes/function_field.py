"""The curve X^3 + Y^3 = k(T) over Q(T) and its L-function over F_p(T).

k(T) = 63(3T^2 - 3T + 1)(T^2 + T + 1)(T^2 - 3T + 3) carries two polynomial
sections.  Mapping a section P to the pullback of the invariant
differential through (T, S) -> (x(T)/S, y(T)/S) on the cyclic cover
S^3 = k(T) collapses, after reduction by S^3 = k and x^3 + y^3 = k, to the
Wronskian x'y - xy' on the basis form dT/S^2; linear independence of the
resulting vectors bounds the rank from below.  The CM map
[omega](x, y) = (omega x, omega y) scales the Wronskian by
omega^2 = -1 - omega, so lambda([omega]P) = omega^2 lambda(P): the
CM-extended rank is twice the rank of the rational w.  The upper bound
comes from the L-polynomial of the reduction mod p, of degree 2(number of
geometric bad fibers) - 4 (8 for the family), assembled from fiber trace
sums c_n and the functional-equation closure of its inverse roots under
g -> p^2/g, then re-verified against independently counted c_n.  Every
reader takes k itself: the sweep factors k mod p, so any squarefree k in
Z[T] whose factors mod p split in the counted fields has the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from random import Random
from typing import NamedTuple

from .elliptic import trace
from .exact import FiniteField, Polynomial, RationalFunction, factor_over_z, poly_gcd, rational_poly
from .exact.ffield import MAX_COUNTING_FIELD, _good_reduction, _pmonic
from .exact.poly import _cleared, _int_add, _int_deriv, _int_exact_div, _int_gcd, _int_mul
from .exact.poly import _factor_mod_p, _int_cyclotomic, _int_divide_out


class FamilyError(Exception):
    pass


class SectionPoint(NamedTuple):
    """A point (X : Y : Z) of X^3 + Y^3 = kZ^3 over Z[T], x = X/Z and y = Y/Z;
    coefficient tuples run low to high.

    A section is held primitive (content 1) with lc(Z) > 0.  On the curve
    gcd(X, Z) = gcd(X, Y, Z), because a prime dividing X and Z divides
    Y^3 = kZ^3 - X^3; so X/Z and Y/Z are in lowest terms, and x and y read
    off the normal form with no gcd.
    """

    X: tuple[int, ...]
    Y: tuple[int, ...]
    Z: tuple[int, ...]

    @property
    def x(self) -> RationalFunction:
        return RationalFunction.coprime(self.X, self.Z)

    @property
    def y(self) -> RationalFunction:
        return RationalFunction.coprime(self.Y, self.Z)

    def on_curve(self, k: Polynomial) -> bool:
        """k_d (X^3 + Y^3) = k_n Z^3 over Z[T] for k = k_n/k_d in Q[T]."""
        return _on_cubic(self, *_cleared(k, Polynomial((1,))))


@dataclass(frozen=True)
class IntegerForms:
    """A curve's k over Z and its factors; coefficient tuples run low to high."""

    k_z: tuple[int, ...]  # the coefficients of k
    content: int  # k_z = content * prod factors
    factors: tuple[tuple[int, ...], ...]  # each repeated by its multiplicity


@dataclass(frozen=True)
class FunctionFieldCurve:
    """X^3 + Y^3 = k(T) with two sections; k must lie in Z[T]."""

    k: Polynomial
    p1: SectionPoint
    p2: SectionPoint

    def __post_init__(self):
        if not all(getattr(c, "denominator", None) == 1 for c in self.k.coeffs):
            raise FamilyError("the curve needs k(T) in Z[T]")

    @cached_property
    def over_z(self) -> IntegerForms:
        """The curve over Z, factored once."""
        k_z = [int(c) for c in self.k.coeffs]
        content, factors = factor_over_z(k_z)
        factors = tuple(tuple(g) for g, m in factors for _ in range(m))
        return IntegerForms(tuple(k_z), content, factors)


@lru_cache(maxsize=None)
def build_family() -> FunctionFieldCurve:
    """Construct k(T) = 63(3T^2-3T+1)(T^2+T+1)(T^2-3T+3) and both sections.

    Both on-curve identities are verified as exact polynomial identities;
    a transcription slip fails loudly here.  The family is a constant, so
    it is built and checked once per process.
    """
    k = rational_poly(63)
    for (a, b, c) in ((3, -3, 1), (1, 1, 1), (1, -3, 3)):
        k = k * rational_poly(c, b, a)
    if k.degree != 6 or poly_gcd(k, k.derivative()).degree:
        raise FamilyError("twist polynomial is not squarefree of degree 6")
    p1 = SectionPoint((4, -4, 6), (5, -5, -3), (1,))
    p2 = SectionPoint((6, -4, 4), (-3, -5, 5), (1,))
    for name, sec in (("P1", p1), ("P2", p2)):
        if not sec.on_curve(k):
            raise FamilyError(f"section {name} is not on the curve")
    return FunctionFieldCurve(k, p1, p2)


def pullback_differential(P: SectionPoint) -> RationalFunction:
    """The w of lambda(P) = w dT/S^2 on the genus-4 cover S^3 = k(T): w = x'y - xy'.

    Pulling the invariant differential back through (x/S, y/S) and reducing
    with S^3 = k, x^3 + y^3 = k leaves exactly the Wronskian coefficient;
    for quadratic polynomial sections its degree is <= 2 (holomorphy).
    On the triple (X : Y : Z) of P, x = X/Z and y = Y/Z, the Z' terms
    cancel: x'y - xy' = (X'Y - XY')/Z^2 for any triple, on the curve or not.
    It is formed fraction-free and normalized once.
    """
    X, Y, Z = P
    num = _int_add(_int_mul(_int_deriv(X), Y), _int_mul(X, _int_deriv(Y)), -1)
    return RationalFunction(Polynomial(num), Polynomial(_int_mul(Z, Z)))


def _int_rows(ws: list[RationalFunction]) -> list[list[int]]:
    """Coefficient rows over Z of the w times one common denominator, padded to one width.

    The product of all denominators is a common multiple, which keeps every
    linear relation among the w.
    """
    pairs = [_cleared(w.num, w.den) for w in ws]
    rows = []
    for i, (a, _) in enumerate(pairs):
        for j, (_, b) in enumerate(pairs):
            if j != i:
                a = _int_mul(a, b)
        rows.append(a)
    width = max(map(len, rows), default=0)
    return [r + [0] * (width - len(r)) for r in rows]


def z_rank(ws: list[RationalFunction]) -> int:
    """Rank over Q of the span of the differentials' coefficient vectors."""
    return _rank(_int_rows(ws))


def z_rank_cm(ws: list[RationalFunction]) -> int:
    """Rank over Q of the given w = lambda(P) together with their CM images lambda([omega]P).

    lambda([omega]P) = omega^2 w = -w - omega w, so flattened in the basis
    (1, omega) each w gives the rows (w, 0) and (-w, -w).  Their sum is
    (0, -w), so with V the Q-span of the w the rows span
    {(v, 0), (0, v) : v in V}, of rank 2 dim V: twice z_rank.
    """
    return 2 * z_rank(ws)


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


# -- group law on sections: Hesse coordinates over Z[T] ------------------------


# Points (X : Y : Z) of X^3 + Y^3 = kZ^3 over Z[T], k in Z[T]; O = (1 : -1 : 0) and
# -(X : Y : Z) = (Y : X : Z).  Every input of every step is checked on the curve.
_O = ([1], [-1], [])


def _hesse_add(K, P, Q):
    """P + Q by the standard Hessian addition law, which does not involve k
    and needs no division.  It returns (0 : 0 : 0) exactly when P - Q is a
    3-torsion point at Z = 0, which over Q(T) means P = Q, and then the
    rotated law applies (Bernstein, Kohel and Lange, "Twisted Hessian curves")."""
    _check(K, P, Q)
    (X1, Y1, Z1), (X2, Y2, Z2) = P, Q

    def t(a, b, c):  # a^2 b c
        return _int_mul(_int_mul(a, a), _int_mul(b, c))

    X3 = _int_add(t(Y1, X2, Z2), t(Y2, X1, Z1), -1)
    Y3 = _int_add(t(X1, Y2, Z2), t(X2, Y1, Z1), -1)
    Z3 = _int_add(t(Z1, X2, Y2), t(Z2, X1, Y1), -1)
    if X3 or Y3 or Z3:
        return X3, Y3, Z3
    X3 = _int_add(t(X2, X1, Y1), _int_mul(K, t(Z1, Y2, Z2)))
    Y3 = _int_add(t(Y1, X2, Y2), _int_mul(K, t(Z2, X1, Z1)))
    return X3, [-c for c in Y3], _int_add(t(Y2, Y1, Z1), t(X1, X2, Z2), -1)


def _check(K, *points):
    for P in points:
        if not _on_cubic(P, K, [1]):
            raise ValueError("point not on curve")


def _to_section(P) -> SectionPoint | None:
    """The point P on the curve, made primitive with lc(Z) > 0; None at Z = 0.

    One gcd: g = gcd(X, Z) = gcd(X, Y, Z) on the curve, so X/g, Y/g and Z/g
    are exact, and only their integer content and sign remain.
    """
    X, Y, Z = P
    if not Z:
        return None
    g = _int_gcd(X, Z)
    X, Y, Z = (_int_exact_div(f, g) for f in P)
    c = gcd(*X, *Y, *Z) * (1 if Z[-1] > 0 else -1)
    return SectionPoint(*(tuple(v // c for v in f) for f in (X, Y, Z)))


def _on_cubic(P, kn: list[int], kd: list[int]) -> bool:
    """(X : Y : Z) over Z[T] satisfies kd (X^3 + Y^3) = kn Z^3."""
    X, Y, Z = P
    cubes = _int_add(_int_mul(_int_mul(X, X), X), _int_mul(_int_mul(Y, Y), Y))
    return _int_mul(kd, cubes) == _int_mul(kn, _int_mul(_int_mul(Z, Z), Z))


def section_add(
    curve: FunctionFieldCurve, P: SectionPoint | None, Q: SectionPoint | None
) -> SectionPoint | None:
    """P + Q in the Mordell-Weil group; None is the identity.  ValueError off the curve."""
    return _to_section(_hesse_add([int(c) for c in curve.k.coeffs], P or _O, Q or _O))


def section_mul(curve: FunctionFieldCurve, n: int, P: SectionPoint | None) -> SectionPoint | None:
    """n * P by double-and-add on the triples, normalized once; raises as section_add."""
    K, pt = [int(c) for c in curve.k.coeffs], P or _O
    _check(K, pt)
    if n < 0:
        n, pt = -n, (pt[1], pt[0], pt[2])
    acc = _O
    while n:
        if n & 1:
            acc = _hesse_add(K, acc, pt)
        n >>= 1
        if n:
            pt = _hesse_add(K, pt, pt)
    return _to_section(acc)


# -- the L-function over F_p(T) -------------------------------------------------


class LFunctionError(Exception):
    pass


@dataclass(frozen=True)
class LPolynomial:
    """L(u) = sum coeffs[i] u^i of degree D = 2(number of geometric bad fibers) - 4,
    with the c_n actually counted."""

    p: int
    coeffs: tuple[int, ...]
    counted: tuple[tuple[int, int], ...]  # (n, c_n) pairs that were counted

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def functional_equation_sign(self) -> int:
        b, p, D = self.coeffs, self.p, self.degree
        for sign in (1, -1):
            if all(b[D - i] == sign * p ** (D - 2 * i) * b[i] for i in range(D // 2 + 1)):
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
    """p does not divide 6 lc(k) disc(k): p >= 5 is prime, p does not divide
    lc(k), and gcd(k mod p, k' mod p) = 1."""
    from .exact import is_probable_prime

    k = [int(c) for c in curve.k.coeffs]
    return is_probable_prime(p) and p not in (2, 3) and _good_reduction(k, p)


def fiber_trace_sum(curve: FunctionFieldCurve, p: int, n: int) -> int:
    """c_n = sum of fiber traces over P^1(F_{p^n}); additive fibers give 0.

    Over fields with q = 2 mod 3 cubing is a bijection, every good fiber is
    supersingular, and the sum is 0 without any counting.  Otherwise the
    fiber over t has trace traces[log(-432 k(t)^2) mod 6], traces[j] =
    trace(field, g^j) in closed form, and one cubic-class sweep of k(t)
    over all of F_q counts the fibers of each class.  When the roots of k
    mod p are symmetric about their mean c/2, as the family's are about 1/2
    since k(1 - T) = k(T), the sweep visits one t of each pair t, c - t and
    counts it twice: k(c - t) = +-k(t) and -1 is a cube, so the pair has one
    class and the count is exact.  The sweep needs every root of k in F_q:
    the factors of k mod p must be linear, or quadratic with n even, and
    any other factor is refused.  A quadratic factor's discriminant lies in
    F_p^* = <h^2>, h = g^((q - 1)/(2(p - 1))) with g the generator of the
    class table and n even, so one of h^0..h^(p-2) is its square root.  The
    fiber at infinity is good exactly when 3 divides deg k, and then comes
    from the reversed model v^2 = u^3 - 432 lc(k)^2; otherwise it is
    additive.  A p that is not good is refused before any field is built.
    When 3 divides n every root lies in F_Q, Q = p^(n/3), since a factor of
    degree d <= 2 with d | n has d | n/3, and the classes are counted through
    the norm to F_Q (zechlog.NormLog, a Q x Q byte table); otherwise the class
    table costs q bytes.  Fields above MAX_COUNTING_FIELD are refused either way.
    """
    if not good_prime(curve, p):
        raise LFunctionError(f"{p} is not a good prime for the family")
    q = p**n
    if q % 3 == 2:
        return 0
    _check_counting_budget(p, n)
    from .exact import zechlog  # numpy is imported only by the sweeps

    field = FiniteField(p, n)
    k = [int(c) % p for c in curve.k.coeffs]  # p is good: lc(k) stays
    roots = []
    for f in _factor_mod_p(_pmonic(k, p), p, Random(0)):
        d = len(f) - 1
        if d > 2 or n % d:
            raise LFunctionError(
                f"k has a factor of degree {d} mod {p}, with roots outside F_{p}^{n}")
        if d == 1:
            roots.append(field(-f[0]))
        else:
            disc = field(f[1] * f[1] - 4 * f[0])
            s, h = field.one(), field.generator() ** ((q - 1) // (2 * p - 2))
            while s * s != disc:
                s *= h
            mb, half = field(-f[1]), field(2).inverse()
            roots += [(mb + s) * half, (mb - s) * half]
    engine = zechlog.NormLog(field) if n % 3 == 0 else zechlog.ZechLog(field)
    traces = [trace(field, engine.g**j) for j in range(6)]
    unit = field(k[-1])
    counts, n_bad = engine.cube_class_counts(unit, roots)
    if n_bad != len(roots):
        raise LFunctionError("repeated roots of k in the counting field")
    l432 = engine.sextic_class(field(-432 % p))
    c_n = 0
    for j in range(3):
        c_n += counts[j] * traces[(l432 + 2 * j) % 6]
    if (len(k) - 1) % 3 == 0:
        c_n += traces[engine.sextic_class(field(-432) * unit * unit)]
    return c_n


def _check_counting_budget(p: int, n: int) -> None:
    if p**n > MAX_COUNTING_FIELD:
        raise LFunctionError(f"counting over q = {p}^{n} exceeds the class-table budget")


def lfunction(p: int, direct: bool = False) -> LPolynomial:
    """The degree-8 L-polynomial of the family curve reduced mod p, as _lfunction
    computes it.  Results are cached on (p, bool(direct)), however the call
    spells them."""
    return _lfunction(build_family(), p, bool(direct))


@lru_cache(maxsize=8)
def _lfunction(curve: FunctionFieldCurve, p: int, direct: bool) -> LPolynomial:
    """The L-polynomial of X^3 + Y^3 = k(T) reduced mod p, for squarefree k in Z[T].

    Its degree is D = 2(number of geometric bad fibers) - 4 (Grothendieck-
    Ogg-Shafarevich; every bad fiber here has conductor exponent 2): the
    deg k roots of k, and infinity when 3 does not divide deg k.  Counts
    c_1..c_N, N = D/2 + 2 (N = D with direct=True, small p only), and one
    Newton pass turns them into b_0..b_N; b_0..b_h, h = D/2, must be
    integers.  The functional equation (inverse roots closed under
    g -> p^2/g) gives L_j = s p^(2j - D) L_{D-j} and L_j = 0 above D, and
    the sign s is kept when b_h..b_N obey it: Newton's identities map
    c_1..c_N to b_1..b_N one to one and triangularly, so that L reproduces
    every counted c_n, and at j = h, b_h != 0 forces s = +1.  A sign
    ambiguity is an error, never a guess; c_1..c_D determine L, so
    direct=True checks the completion against all of it.
    """
    if not good_prime(curve, p):
        raise LFunctionError(f"{p} is not a good prime for the family")
    deg = curve.k.degree
    D = 2 * (deg + (deg % 3 != 0)) - 4
    h = D // 2
    N = D if direct else h + 2
    _check_counting_budget(p, N)
    cn = {n: fiber_trace_sum(curve, p, n) for n in range(1, N + 1)}
    b = _exp_series(cn, N)
    if any(x.denominator != 1 for x in b[: h + 1]):
        raise LFunctionError("counted coefficients are not integral")
    signs = [s for s in (1, -1) if all(
        b[j] == (s * p ** (2 * j - D) * b[D - j] if j <= D else 0) for j in range(h, N + 1))]
    if len(signs) > 1:
        raise LFunctionError(f"functional-equation sign ambiguous after c_{h + 1}..c_{N}")
    if not signs:
        raise LFunctionError(f"functional-equation completion contradicts counted c_{h + 1}..c_{N}")
    low = [int(x) for x in b[: h + 1]]
    high = [signs[0] * p ** (D - 2 * i) * low[i] for i in reversed(range(h))]
    L = LPolynomial(p, tuple(low + high), tuple(sorted(cn.items())))
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
