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
geometric bad fibers) - 4 (8 for the family).  Its fiber trace sums are
c_n = 2 Re(alpha^n S_n) for cubic-character sums S_n of k over F_{B^n}
(B = p or p^2, whichever is 1 mod 3), which are the power sums of the
chi-part L_chi of the cover S^3 = k(T): L_chi is completed from S_1, S_2
by its functional equation, re-verified against a counted S_3, and L is
multiplied out from it.  Every reader takes k itself: the sweep factors k
mod p, so any squarefree k in Z[T] whose roots mod p lie in F_B has the same
path.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from random import Random
from typing import NamedTuple

from .budget import MAX_BASE_FIELD, MAX_COUNTING_FIELD, check_cap
from .elliptic import _frobenius, _zw_mul
from .exact import FiniteField, Polynomial, RationalFunction, factor_over_z, poly_gcd, rational_poly
from .exact.ffield import _good_reduction, _pmonic
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


class IntegerForms(NamedTuple):
    """A curve's k over Z and its factors; coefficient tuples run low to high."""

    k_z: tuple[int, ...]  # the coefficients of k
    content: int  # k_z = content * prod factors
    factors: tuple[tuple[int, ...], ...]  # each repeated by its multiplicity


class FunctionFieldCurve:
    """X^3 + Y^3 = k(T) with two sections; k must lie in Z[T].

    Curves are equal, and hash alike, by (k, p1, p2), so the caches keyed on
    a curve hit for an equal one; as a cache key a curve cannot be changed.
    `over_z` is factored once per instance.
    """

    def __init__(self, k: Polynomial, p1: SectionPoint, p2: SectionPoint):
        if not all(getattr(c, "denominator", None) == 1 for c in k.coeffs):
            raise FamilyError("the curve needs k(T) in Z[T]")
        self.__dict__.update(k=k, p1=p1, p2=p2)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name}: a FunctionFieldCurve is immutable")

    def __eq__(self, other):
        if not isinstance(other, FunctionFieldCurve):
            return NotImplemented
        return (self.k, self.p1, self.p2) == (other.k, other.p1, other.p2)

    def __hash__(self):
        return hash((self.k, self.p1, self.p2))

    def __repr__(self):
        return f"FunctionFieldCurve(k={self.k!r}, p1={self.p1!r}, p2={self.p2!r})"

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


class LPolynomial(NamedTuple):
    """L(u) = sum coeffs[i] u^i of degree D = 2(number of geometric bad fibers) - 4,
    with the c_n actually counted."""

    p: int
    coeffs: tuple[int, ...]
    counted: tuple[tuple[int, int], ...]  # (n, c_n) pairs from the counted sums

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def functional_equation_sign(self) -> int:
        b, p, D = self.coeffs, self.p, self.degree
        for sign in (1, -1):
            if all(b[D - i] == sign * p ** (D - 2 * i) * b[i] for i in range(D // 2 + 1)):
                return sign
        raise LFunctionError("no functional-equation sign fits")


# Elements of Q(omega) are pairs (a, b) = a + b*omega of ints or Fractions, as in elliptic.


def _conj(x):
    a, b = x
    return a - b, -b


def _zw_div(x, y):
    """x / y in Q(omega): x conj(y) / N(y)."""
    a, b = y
    norm = a * a - a * b + b * b
    re, im = _zw_mul(x, _conj(y))
    return Fraction(re, norm), Fraction(im, norm)


def _exp_series(sums: list, upto: int) -> list:
    """b_0..b_upto of exp(sum s_n u^n / n) over Q(omega), s_n = sums[n - 1]:
    n b_n = sum_{j<=n} s_j b_{n-j}."""
    b = [(Fraction(1), Fraction(0))]
    for n in range(1, upto + 1):
        terms = [_zw_mul(sums[j - 1], b[n - j]) for j in range(1, n + 1)]
        b.append((sum(x for x, _ in terms) / n, sum(y for _, y in terms) / n))
    return b


def good_prime(curve: FunctionFieldCurve, p: int) -> bool:
    """p does not divide 6 lc(k) disc(k): p >= 5 is prime, p does not divide
    lc(k), and gcd(k mod p, k' mod p) = 1."""
    from .exact import is_probable_prime

    k = [int(c) for c in curve.k.coeffs]
    return is_probable_prime(p) and p not in (2, 3) and _good_reduction(k, p)


_counting_field = lru_cache(maxsize=None)(FiniteField)  # one F_{p^n}, generator included


@lru_cache(maxsize=8)
def _counting_engine(p: int, n: int):
    """The norm sweep of F_Q = F_{p^n} (zechlog.NormLog), built once per field."""
    from .exact import zechlog  # numpy is imported only by the sweeps

    return zechlog.NormLog(_counting_field(p, n))


@lru_cache(maxsize=None)
def _counting_roots(k: tuple[int, ...], p: int, n: int) -> tuple:
    """The roots of k mod p in F_{p^n} (_roots_mod_p), found once per field."""
    return tuple(_roots_mod_p(k, _counting_field(p, n)))


def _roots_mod_p(k: list[int], field: FiniteField) -> list:
    """The roots of k mod p in the field F_{p^n}; lc(k) must be prime to p.

    Every factor of k mod p must be linear, or quadratic with n even, and
    any other factor is refused.  A quadratic factor's discriminant lies in
    F_p^* = <h^2>, h = g^((q - 1)/(2(p - 1))) with g the field's generator
    and n even, so it is (h^2)^j for some j < p - 1, found over the ints,
    and h^j is its square root.
    """
    p, n, q = field.p, field.n, field.q
    roots = []
    for f in _factor_mod_p(_pmonic(k, p), p, Random(0)):
        d = len(f) - 1
        if d > 2 or n % d:
            raise LFunctionError(
                f"k has a factor of degree {d} mod {p}, with roots outside F_{p}^{n}")
        if d == 1:
            roots.append(field(-f[0]))
        else:
            disc, h = (f[1] * f[1] - 4 * f[0]) % p, field.generator() ** ((q - 1) // (2 * p - 2))
            h2 = (h * h).coeffs[0]
            s = h ** next(j for j in range(p - 1) if pow(h2, j, p) == disc)
            mb, half = field(-f[1]), field(2).inverse()
            roots += [(mb + s) * half, (mb - s) * half]
    return roots


@lru_cache(maxsize=None)
def character_sum(curve: FunctionFieldCurve, p: int, m: int) -> tuple[int, int]:
    """S_m = sum over t in P^1(F_{B^m}) of chi(k(t)), as the pair (a, b) = a + b omega.

    B = p at p = 1 mod 3 and B = p^2 at p = 2 mod 3, so 3 divides B - 1;
    chi is the cubic character of _frobenius, chi_B o N on every F_{B^m},
    with chi(0) = 0.  The point at infinity adds chi(lc k) when 3 divides
    deg k; otherwise its fiber is additive.  One cube-class sweep of k(t)
    over F_{Q^j} = F_{B^m}, j the largest of 1, 2, 3 that divides m and
    Q = B^(m/j) (so Q = B up to m = 3 and Q = B^2 at m = 4), counts N_i, the
    t with log_h N(k(t)) = i mod 3 for the generator h of F_Q and the norm N
    to F_Q (zechlog.NormLog).  Only F_Q is built: F_{B^m} itself for an
    m > 1 prime to 6, so there within MAX_BASE_FIELD.  chi(x) = omega^c for
    N(x) = h, with c read off the class of h^((Q-1)/(p-1)) in F_p:
    S = N_0 + N_1 omega^c + N_2 omega^(2c).  The roots of k mod p come from
    _roots_mod_p and must lie in F_Q.  A p that is not good is refused
    before any field is built, and fields above MAX_COUNTING_FIELD or
    MAX_BASE_FIELD before any sweep.  Each S_m is counted once per process,
    and F_Q's engine and roots are built once for every m counted over it.
    """
    if not good_prime(curve, p):
        raise LFunctionError(f"{p} is not a good prime for the family")
    e = 1 if p % 3 == 1 else 2
    check_cap("counting q =", p ** (e * m), MAX_COUNTING_FIELD, f"{p}^{e * m}")
    j = next(j for j in (3, 2, 1) if m % j == 0)
    n = e * m // j
    check_cap(f"base field of S_{m}: Q =", p**n, MAX_BASE_FIELD, f"{p}^{n}")
    k = tuple(int(c) % p for c in curve.k.coeffs)  # p is good: lc(k) stays
    roots = _counting_roots(k, p, n)
    engine = _counting_engine(p, n)
    field = engine.field
    unit = field(k[-1])
    counts, n_bad = engine.cube_class_counts(j, unit, roots)
    if n_bad != len(roots):
        raise LFunctionError("repeated roots of k in the counting field")
    if (len(k) - 1) % 3 == 0:
        counts[engine.cube_class(unit, j)] += 1
    n0, n1, n2 = counts
    w = _frobenius(p)[1]
    if w and pow((engine.h ** ((field.q - 1) // (p - 1))).coeffs[0], (p - 1) // 3, p) == w:
        n1, n2 = n2, n1  # chi(x) = omega^2 for N(x) = h
    return n0 - n2, n1 - n2


def lfunction(p: int, direct: bool = False) -> LPolynomial:
    """The degree-8 L-polynomial of the family curve reduced mod p, as _lfunction
    computes it.  Results are cached on (p, bool(direct)), however the call
    spells them."""
    return _lfunction(build_family(), p, bool(direct))


@lru_cache(maxsize=8)
def _lfunction(curve: FunctionFieldCurve, p: int, direct: bool) -> LPolynomial:
    """The L-polynomial of X^3 + Y^3 = k(T) reduced mod p, for squarefree k in Z[T].

    Its degree is D = 2d, d = (number of geometric bad fibers) - 2
    (Grothendieck-Ogg-Shafarevich; every bad fiber here has conductor
    exponent 2): the deg k roots of k, and infinity when 3 does not divide
    deg k.  c_{e n} = 2 Re(alpha^n S_n) and the other c_n are 0 (_frobenius,
    e = 1 at p = 1 mod 3 and 2 at p = 2 mod 3), and S_n is minus the n-th
    power sum of the inverse roots of L_chi, of degree d over Z[omega]: the
    chi-part of the cover S^3 = k(T) (Weil 1949).  So L(u) =
    L_chi(alpha u) conj(L_chi)(conj(alpha) u) at e = 1, and L(u) =
    L_chi(alpha u^2) at e = 2, where S_n is real.

    S_1..S_N are counted, N = h + 1 with h = ceil(d/2) (N = max(d, h + 1)
    with direct=True), and one Newton pass turns them into b_0..b_N, of
    which b_0..b_h must lie in Z[omega].  The functional equation
    b_(d-j) = b_d conj(b_j) / Q^j, Q = p^e, where b_d / Q^(d/2) is its sign
    and b_d has norm Q^d, takes b_d from the pair j = floor(d/2), d - j = h,
    and then b_(h+1)..b_d.  b_j = 0 there leaves the sign open: an error,
    never a guess; so is a completion outside Z[omega].  The completion must
    reproduce the counted b_(h+1)..b_N; S_1..S_d determine L_chi, so
    direct=True checks it against all of them.
    """
    if not good_prime(curve, p):
        raise LFunctionError(f"{p} is not a good prime for the family")
    deg = curve.k.degree
    d = deg + (deg % 3 != 0) - 2
    e = 1 if p % 3 == 1 else 2
    h, i = (d + 1) // 2, d // 2
    N = max(d, h + 1) if direct else h + 1
    check_cap("counting q =", p ** (e * N), MAX_COUNTING_FIELD, f"{p}^{e * N}")
    sums = [character_sum(curve, p, m) for m in range(1, N + 1)]
    b = _exp_series(sums, N)
    if any(x.denominator != 1 for c in b[: h + 1] for x in c):
        raise LFunctionError("counted coefficients are not integral")
    if b[i] == (0, 0):
        raise LFunctionError(f"functional-equation sign ambiguous after S_1..S_{N}: b_{i} = 0")
    Q = p**e
    top = _zw_div(_zw_mul(b[h], (Q**i, 0)), _conj(b[i]))  # b_d
    chi = b[: h + 1] + [_zw_div(_zw_mul(top, _conj(b[d - j])), (Q ** (d - j), 0))
                        for j in range(h + 1, d + 1)]
    if _zw_mul(top, _conj(top))[0] != Q**d or any(x.denominator != 1 for c in chi for x in c):
        raise LFunctionError(f"no functional equation fits S_1..S_{h}")
    if b[h + 1 :] != (chi + [(0, 0)] * N)[h + 1 : N + 1]:
        span = f"S_{N}" if N == h + 1 else f"S_{h + 1}..S_{N}"
        raise LFunctionError(f"functional-equation completion contradicts counted {span}")
    alpha, powers = _frobenius(p)[0], [(1, 0)]
    while len(powers) <= max(d, N):
        powers.append(_zw_mul(powers[-1], alpha))
    # A(u) = L_chi(alpha u) = P(u) + omega R(u) over Z
    P, R = ([int(x) for x in col] for col in zip(*map(_zw_mul, chi, powers)))
    if e == 1:  # A(u) conj(A)(u) = P^2 - PR + R^2
        coeffs = _int_add(_int_add(_int_mul(P, P), _int_mul(P, R), -1), _int_mul(R, R))
    elif any(R):
        raise LFunctionError("S_n is not real at p = 2 mod 3")
    else:  # A(u^2)
        coeffs = [P[n // 2] if n % 2 == 0 else 0 for n in range(2 * d + 1)]
    counted = []
    for n in range(1, e * N + 1):
        re, im = _zw_mul(powers[n // e], sums[n // e - 1]) if n % e == 0 else (0, 0)
        counted.append((n, 2 * re - im))
    L = LPolynomial(p, tuple(coeffs), tuple(counted))
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


class RankReport(NamedTuple):
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
