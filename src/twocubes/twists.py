"""Specializing T -> t: cubic twists X^3 + Y^3 = d with rank certificates.

Every specialization is normalized to its cube-free twist d, its points
held as integer triples (X : Y : Z) on X^3 + Y^3 = dZ^3 that absorb the cube
factor; a rank >= 2 certificate is a good prime p where the two reduced
points generate a non-cyclic subgroup of E(F_p):
the image of a rank <= 1 torsion-free Mordell-Weil group under the
reduction homomorphism is cyclic, so a non-cyclic image of a curve with
trivial torsion proves rank >= 2 unconditionally.  The torsion is not
computed: a classical theorem gives it from d alone (`rank2_certificate`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .elliptic import _is_cyclic, count_points, group_n1, weierstrass_mod_p
from .exact import cubefree_part, factorize, icbrt, prime_field, primes
from .function_field import FunctionFieldCurve, build_family


class Point(NamedTuple):
    """(X : Y : Z) on X^3 + Y^3 = dZ^3 with Z > 0 and gcd(X, Z) = 1, so also
    gcd(Y, Z) = 1 (a prime dividing Y and Z divides X^3): X/Z and Y/Z are in
    lowest terms as written, and `coords` prints them with no Fraction."""

    X: int
    Y: int
    Z: int

    def coords(self) -> tuple[str, str]:
        """x and y as Fraction prints them: X/Z, or X when Z = 1."""
        if self.Z == 1:
            return str(self.X), str(self.Y)
        return f"{self.X}/{self.Z}", f"{self.Y}/{self.Z}"

    @property
    def x(self) -> Fraction:
        return Fraction(self.X, self.Z)

    @property
    def y(self) -> Fraction:
        return Fraction(self.Y, self.Z)


class RankCertificate(NamedTuple):
    """A good prime where the reduced points generate a non-cyclic group."""

    prime: int
    group_order: int


class CertificateOutcome(NamedTuple):
    certificate: RankCertificate | None
    primes_tried: int
    reason: str

    @property
    def exhausted(self) -> bool:
        return self.certificate is None


class TwistRecord:
    """A specialization at T = t: k(t), its cube-free twist d and the two
    points on X^3 + Y^3 = dZ^3; `outcome` is set by rank2_certificate."""

    __slots__ = ("t", "k_t", "d", "p1", "p2", "outcome")

    def __init__(self, t: Fraction, k_t: Fraction, d: int, p1: Point, p2: Point,
                 outcome: CertificateOutcome | None = None):
        self.t, self.k_t, self.d, self.p1, self.p2, self.outcome = t, k_t, d, p1, p2, outcome

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"TwistRecord({fields})"

    @property
    def certificate(self) -> RankCertificate | None:
        return self.outcome.certificate if self.outcome else None

    def to_json(self) -> dict:
        (x1, y1), (x2, y2) = self.p1.coords(), self.p2.coords()
        out = {
            "t": str(self.t),
            "k": str(self.k_t),
            "d": str(self.d),
            "x1": x1,
            "y1": y1,
            "x2": x2,
            "y2": y2,
        }
        out["cert_prime"] = self.certificate.prime if self.certificate else None
        out["cert_reason"] = self.outcome.reason if self.outcome else None
        out["primes_tried"] = self.outcome.primes_tried if self.outcome else None
        return out


class SpecializationError(Exception):
    pass


def specialize(t, family: FunctionFieldCurve | None = None) -> TwistRecord:
    """Evaluate the family at T = t and normalize to the cube-free twist.

    Rational t = a/b is cleared by b^6: points scale by b^2, then both
    coordinates are divided by the cube factor c of k(t) b^6, so the
    record's points sit exactly on X^3 + Y^3 = d with d cube-free.  All of
    it runs over Z, on the integer forms the curve holds (`over_z`): k is
    in Z[T] (the curve refuses any other), with k = c_0 prod g, so
    k(t) b^deg k is k^H(a, b) by Horner on (a, b), and the decomposition
    takes the parts c_0, g^H(a, b) and b^(6 - deg k) one by one, never their
    product.  k^H(a, b) does not read the factors, so the check
    d c^3 = k(t) b^6 cross-checks the factorization at every t.  Above
    degree 6 that needs b = 1; any other t is refused.  A section's forms
    (X, Y, Z), homogenized to one degree at (a, b), give (b^2 X^H : b^2 Y^H :
    c Z^H) on X^3 + Y^3 = dZ^3, checked in ints.  There gcd(X, Z) = gcd(X, Y, Z),
    as a prime dividing X and Z divides Y^3 = dZ^3 - X^3, so one gcd leaves
    x = X/Z and y = Y/Z in lowest terms.
    """
    family = family or build_family()
    z = family.over_z
    t = Fraction(t)
    a, b = t.numerator, t.denominator
    deg = len(z.k_z) - 1
    k_ab = _homogenized(z.k_z, a, b)  # k(t) b^deg
    if k_ab == 0:
        raise SpecializationError(f"k({t}) = 0 is not an elliptic curve")
    if deg > 6 and b > 1:
        raise SpecializationError(f"deg k = {deg} > 6: b^6 leaves a denominator in k({t})")
    b_part = b ** max(6 - deg, 0)
    d, c = cubefree_part(z.content, b_part, *(_homogenized(g, a, b) for g in z.factors))
    if d * c**3 != k_ab * b_part:
        raise SpecializationError(f"k({t}) b^6 is not the product of the factors of k over Z")
    pts = []
    for P in (family.p1, family.p2):
        top = max(map(len, P))
        X, Y, Z = (_homogenized(f + (0,) * (top - len(f)), a, b) for f in P)
        X, Y, Z = X * b * b, Y * b * b, Z * c
        if X**3 + Y**3 != d * Z**3 or not Z:
            raise SpecializationError(f"scaled point off the twist at t = {t}")
        g = gcd(X, Z) if Z > 0 else -gcd(X, Z)
        pts.append(Point(X // g, Y // g, Z // g))
    return TwistRecord(t, Fraction(k_ab, b**deg), d, pts[0], pts[1])


def _homogenized(g, a: int, b: int) -> int:
    """b^deg(g) g(a/b) for an integer coefficient list g, low to high, by Horner."""
    v, bk = 0, 1
    for gi in reversed(g):
        v = v * a + gi * bk
        bk *= b
    return v


def rank2_certificate(record: TwistRecord, prime_budget: int = 50) -> CertificateOutcome:
    """Search good primes for a non-cyclic reduction image of (P1, P2).

    Requires d > 2.  Exhausting the budget is a no-certificate outcome, not
    a disproof.  The outcome is also stored on the record.

    The torsion of X^3 + Y^3 = d over Q is a theorem, not a computation.
    The curve is y^2 = x^3 + D with D = -432 d^2, and for sixth-power-free
    D its torsion is Z/6 if D = 1, Z/3 if D = -432 or D is a square other
    than 1, Z/2 if D is a cube other than 1, and trivial otherwise
    (Silverman, AEC, 2nd ed., Exercise 10.19); dividing D by u^6 gives an
    isomorphic curve and keeps D a cube, or a square, if it was one.  Here
      - D < 0, so D is never a square;
      - D is a cube up to sixth powers only when d is twice a cube;
      - D/u^6 = -432 only when d is a cube.
    So the torsion has order 3 if d is a cube, 2 if d is twice a cube, and
    1 otherwise; a record with order 3 or 2 (never a cube-free d > 2 from
    `specialize`) gets the no-certificate outcome "torsion bound N != 1".

    Both triples are checked before any prime is tried: on X^3 + Y^3 = dZ^3,
    with Z > 0 and gcd(X, Z) = 1, which on the curve is gcd(X, Y, Z) = 1
    (a prime dividing Z and X divides Y^3 = dZ^3 - X^3); a failure is a
    ValueError.  A prime p >= 5 prime to 6d is skipped, and not counted as
    tried, exactly when p | X + Y for either point, tested on the triples;
    these are the primes that divide a denominator of the Weierstrass image
    over Q:
      - p | X + Y gives p | dZ^3, so p | Z and p does not divide X, and then
        X^2 - XY + Y^2 = 3X^2 is a unit mod p;
      - so v_p(X + Y) = 3 v_p(Z) > v_p(12dZ), and p divides the denominator
        of u = 12dZ/(X + Y), while both denominators divide X + Y;
      - at the other primes the image reduces onto E(F_p), since
        v^2 = u^3 - 432 d^2 holds over Z[1/(X + Y)].
    E(F_p) = Z/n1 x Z/n2 with n1 | n2 is read off the Frobenius
    (`elliptic.group_n1`): n1 = 1 at p = 2 mod 3, and E(F_p) = Z[omega]/(pi - 1)
    at p = 1 mod 3 (Lenstra 1996).  A prime with n1 = 1 is skipped (it still
    counts as tried), at p = 2 mod 3 before #E(F_p) is counted.  Only at a
    prime with n1 > 1 are the points reduced (`weierstrass_mod_p`), and the
    cyclicity test runs on the unchecked group law at the primes of n1 only.
    """
    d = record.d
    if d <= 2:
        raise ValueError("d <= 2: torsion-freeness hypothesis unavailable")
    points = (record.p1, record.p2)
    if any(X**3 + Y**3 != d * Z**3 or Z <= 0 or gcd(X, Z) != 1 for X, Y, Z in points):
        raise ValueError(f"point not on X^3 + Y^3 = {d} with Z > 0 and gcd(X, Z) = 1")
    tb = 3 if icbrt(d) ** 3 == d else 2 if d % 2 == 0 and icbrt(d // 2) ** 3 == d // 2 else 1
    if tb != 1:
        record.outcome = CertificateOutcome(None, 0, f"torsion bound {tb} != 1")
        return record.outcome
    tried = 0
    s1, s2 = (X + Y for X, Y, _ in points)
    for p in primes():
        if tried >= prime_budget:
            break
        if p < 5 or (6 * d) % p == 0 or s1 % p == 0 or s2 % p == 0:
            continue
        tried += 1
        if p % 3 == 2:
            continue
        order = count_points(prime_field(p), -432 * d * d % p)
        n1 = group_n1(p, order)
        if n1 == 1:
            continue
        r1, r2 = (weierstrass_mod_p(d, P, p) for P in points)
        if not _is_cyclic(p, r1, r2, order, factorize(n1)):
            record.outcome = CertificateOutcome(RankCertificate(p, order), tried,
                                                "non-cyclic image")
            return record.outcome
    record.outcome = CertificateOutcome(None, tried, "budget exhausted")
    return record.outcome


class TwistTable(NamedTuple):
    records: list[TwistRecord]
    distinct_d: int
    max_abs_d: int

    def to_json(self) -> dict:
        return {
            "records": [r.to_json() for r in self.records],
            "summary": {"distinct_d": self.distinct_d, "max_abs_d": str(self.max_abs_d)},
        }


def twist_table(
    t_from: int,
    t_to: int,
    certify: bool = False,
    prime_budget: int = 50,
) -> TwistTable:
    """One record per integer t in [t_from, t_to]; roots of k are skipped."""
    fam = build_family()
    records = []
    for t in range(t_from, t_to + 1):
        try:
            rec = specialize(t, fam)
        except SpecializationError:
            continue
        if certify and rec.d > 2:
            rank2_certificate(rec, prime_budget)
        records.append(rec)
    ds = {r.d for r in records}
    return TwistTable(records, len(ds), max((abs(d) for d in ds), default=0))
