"""Tests for specialization, twist tables, and rank certificates."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chord_oracle as oracle
from chord_oracle import (
    WeierstrassCurve,
    add_points,
    neg_point,
    order_by_enumeration,
    scalar_mul,
    to_hesse,
)
from cube_oracle import cubefree_oracle
from reduction import embed_fraction
from triples import triple
from twocubes.elliptic import (
    _add_mod_p,
    _is_cyclic,
    _mul_mod_p,
    _sextic_traces,
    count_points,
    group_n1,
    to_weierstrass,
    weierstrass_mod_p,
)
from twocubes.exact import FiniteField, prime_field, primes
from twocubes.exact.numbers import factorize
from twocubes.function_field import build_family
from twocubes.twists import (
    Point,
    SpecializationError,
    TwistRecord,
    rank2_certificate,
    specialize,
    twist_table,
)


@pytest.fixture(scope="module")
def family():
    return build_family()


def test_specialize_t3(family):
    r = specialize(3, family)
    assert r.k_t == 46683
    assert r.d == 1729
    assert (r.p1.x, r.p1.y) == (Fraction(46, 3), Fraction(-37, 3))
    assert (r.p2.x, r.p2.y) == (10, 9)
    assert r.p1.x**3 + r.p1.y**3 == 1729
    assert r.p2.x**3 + r.p2.y**3 == 1729


def test_specialize_t0(family):
    r = specialize(0, family)
    assert (r.k_t, r.d) == (189, 7)
    assert (r.p1.x, r.p1.y) == (Fraction(4, 3), Fraction(5, 3))
    assert (r.p2.x, r.p2.y) == (2, -1)


def test_specialize_t2(family):
    r = specialize(2, family)
    assert r.k_t == 3087 == 3**2 * 7**3
    assert r.d == 9
    assert (r.p1.x, r.p1.y) == (Fraction(20, 7), Fraction(-17, 7))
    assert (r.p2.x, r.p2.y) == (2, 1)


def test_specialize_rational_t(family):
    r = specialize(Fraction(1, 2), family)
    assert r.k_t == Fraction(3087, 64)
    assert r.d == 9
    for P in (r.p1, r.p2):
        assert P.x**3 + P.y**3 == 9


def test_specialize_consistency_random(family):
    rng = random.Random(79)
    for _ in range(20):
        t = Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        assert family.p1.x(t) ** 3 + family.p1.y(t) ** 3 == family.k(t)
        r = specialize(t, family)
        assert r.k_t == family.k(t)
        d, c = cubefree_oracle(int(family.k(t) * t.denominator**6))
        assert r.d == d
        assert r.p1.x**3 + r.p1.y**3 == r.d


def test_factor_split_matches_cubefree_part(family):
    """(d, c) from the factored k(t) against sympy's cube-free part of the
    whole k(t) b^6, with the sections evaluated by Fraction arithmetic; each
    point is held as (X : Y : Z) with Z > 0 and gcd(X, Z) = 1."""
    ts = [Fraction(t) for t in range(-300, 301)]
    ts += [Fraction(a, b) for b in range(2, 8) for a in range(-40, 41) if math.gcd(a, b) == 1]
    for t in ts:
        r = specialize(t, family)
        b = t.denominator
        assert r.k_t == family.k(t)
        d, c = cubefree_oracle(int(family.k(t) * b**6))
        assert r.d == d
        assert r.p1.x == family.p1.x(t) * b * b / c
        assert r.p2.y == family.p2.y(t) * b * b / c
        for X, Y, Z in (r.p1, r.p2):
            assert math.gcd(X, Z) == 1 and Z > 0


def test_specialize_rejects_inconsistent_factors(family):
    # the factors come from k itself, so k(t) b^6 always matches them; what can
    # still disagree with k are the sections: the family's are off
    # X^3 + Y^3 = 2k, and so off the twist of 2k at every t
    from twocubes.function_field import FunctionFieldCurve

    fake = FunctionFieldCurve(2 * family.k, family.p1, family.p2)
    with pytest.raises(SpecializationError, match="off the twist"):
        specialize(3, fake)
    with pytest.raises(SpecializationError, match="off the twist"):
        specialize(Fraction(-2, 5), fake)


@pytest.mark.parametrize("wrong", ["content", "dropped factor"])
def test_specialize_checks_the_factors_against_k(family, monkeypatch, wrong):
    """k(t) b^6 is evaluated from k over Z by Horner, not from the factor
    list, so a factorization with a wrong content or a dropped factor is
    refused at an integer t and at a rational t."""
    from twocubes import function_field

    factor = function_field.factor_over_z

    def bad_factor(f):
        content, factors = factor(f)
        return (2 * content, factors) if wrong == "content" else (content, factors[1:])

    monkeypatch.setattr(function_field, "factor_over_z", bad_factor)
    curve = function_field.FunctionFieldCurve(family.k, family.p1, family.p2)
    for t in (3, Fraction(-2, 5)):
        with pytest.raises(SpecializationError, match="not the product of the factors"):
            specialize(t, curve)


def test_specialize_refuses_non_integral_t_above_degree_6(family):
    """k (T + 1) has degree 7, so b^6 leaves a denominator b in k(a/b) b^6."""
    from twocubes.exact import rational_poly
    from twocubes.function_field import FunctionFieldCurve

    curve = FunctionFieldCurve(family.k * rational_poly(1, 1), family.p1, family.p2)
    with pytest.raises(SpecializationError, match="deg k = 7 > 6"):
        specialize(Fraction(1, 2), curve)
    with pytest.raises(SpecializationError, match="off the twist"):
        specialize(3, curve)  # an integral t gets past the degree; the sections are not on k (T + 1)


@pytest.mark.parametrize("x, y", [((0, 1), (1,)), ((0, 2), (2,)), ((1, 1), (1, 1))])
def test_specialize_takes_the_factors_from_k(x, y, monkeypatch):
    """Off the family: k = x^3 + y^3 with sections (x, y) and (y, x), of degree 3,
    with a content (8T^3 + 8) and with a repeated factor (2(T + 1)^3).  The
    twist comes from k(t) b^6 = c_0 prod g^H(a, b) b^(6 - deg k), and k is
    factored once for all t, when the curve first clears its integer forms."""
    from twocubes import function_field
    from twocubes.exact import rational_poly
    from twocubes.function_field import FunctionFieldCurve, SectionPoint

    calls = []
    factor = function_field.factor_over_z
    monkeypatch.setattr(function_field, "factor_over_z", lambda f: calls.append(f) or factor(f))
    px, py = rational_poly(*x), rational_poly(*y)
    k = px**3 + py**3
    curve = FunctionFieldCurve(k, SectionPoint(*triple(px, py)), SectionPoint(*triple(py, px)))
    for t in (Fraction(3), Fraction(-2, 5), Fraction(7, 4), Fraction(1, 9)):
        r = specialize(t, curve)
        assert r.k_t == k(t)
        assert r.d == cubefree_oracle(int(k(t) * t.denominator**6))[0]
        for P in (r.p1, r.p2):
            assert P.x**3 + P.y**3 == r.d
    assert len(calls) == 1


def test_twist_table_0_to_3(family):
    table = twist_table(0, 3)
    assert [r.d for r in table.records] == [7, 7, 9, 1729]
    assert table.distinct_d == 3
    assert table.max_abs_d == 1729
    for r in table.records:
        assert r.p1.x**3 + r.p1.y**3 == r.d
        assert r.p2.x**3 + r.p2.y**3 == r.d
        assert all(e < 3 for e in __import__("sympy").factorint(r.d).values())


def test_twist_table_single_and_empty():
    single = twist_table(3, 3)
    assert len(single.records) == 1 and single.records[0].d == 1729
    empty = twist_table(5, 4)
    assert empty.records == [] and empty.distinct_d == 0 and empty.max_abs_d == 0


def test_certificate_found_for_t3(family):
    rec = specialize(3, family)
    out = rank2_certificate(rec, prime_budget=50)
    assert out.certificate is not None
    cert = out.certificate
    assert rec.certificate is cert
    assert (out.reason, rec.outcome) == ("non-cyclic image", out)
    doc = rec.to_json()
    assert (doc["cert_prime"], doc["cert_reason"]) == (cert.prime, "non-cyclic image")
    assert doc["primes_tried"] == out.primes_tried
    # independently re-verify the witness: reduce and brute-force the subgroup
    p = cert.prime
    F = FiniteField(p)
    A = F.element((-432 * rec.d**2) % p)
    curve = WeierstrassCurve(A)
    r1, r2 = (oracle.Point(*(embed_fraction(F, c) for c in to_weierstrass(rec.d, P.x, P.y)))
              for P in (rec.p1, rec.p2))
    group = {None}
    frontier = [None]
    while frontier:
        new = []
        for X in frontier:
            Xp = oracle.O if X is None else oracle.Point(*X)
            for g in (r1, r2):
                Y = add_points(curve, Xp, g)
                key = None if Y.at_infinity else (Y.x, Y.y)
                if key not in group:
                    group.add(key)
                    new.append(key)
        frontier = new
    n = len(group)
    cyclic = False
    for key in group:
        if key is None:
            continue
        P = oracle.Point(*key)
        order = 1
        R = P
        while not R.at_infinity:
            R = add_points(curve, R, P)
            order += 1
        if order == n:
            cyclic = True
            break
    assert not cyclic
    assert cert.group_order == count_points(F, A)


def _cyclic_by_point_orders(p, P, Q):
    """<P, Q> cyclic, from both enumerated point orders: at each ell dividing
    both, the ell-part of smaller order must lie in the enumerated span of the other."""
    oP, oQ = order_by_enumeration(p, P), order_by_enumeration(p, Q)
    fP, fQ = factorize(oP), factorize(oQ)
    for ell in fP.keys() & fQ.keys():
        a, b = fP[ell], fQ[ell]
        Pp, Qp = _mul_mod_p(p, oP // ell**a, P), _mul_mod_p(p, oQ // ell**b, Q)
        if a < b:
            Pp, Qp, a = Qp, Pp, b
        span, R = {None}, None
        for _ in range(ell**a):
            R = _add_mod_p(p, R, Pp)
            span.add(R)
        if Qp not in span:
            return False
    return True


def test_weil_skip_never_hides_a_non_cyclic_image(family):
    """Over t in [-50, 50], a few rational t, and t = -345 and 346 (the
    first |t| where some p | X + Y, at p = 13), and the first 60 primes
    p >= 5 prime to 6d:
      - p divides a denominator of a point's Weierstrass image over Q
        exactly when p | X + Y for its primitive triple (X, Y, Z), and
        otherwise weierstrass_mod_p is that image reduced mod p;
      - where neither point is skipped, the reduced (P1, P2) span a cyclic
        group, by enumerated point orders, at every prime p = 2 mod 3 and
        every prime where group_n1 is 1, and _is_cyclic on the primes of n1
        agrees with the point orders at every other.
    On X^3 + Y^3 = d, x and y share their denominator Z (a prime dividing Z
    and X divides Y^3 = dZ^3 - X^3), so Z > 1 is the case to cover."""
    first_60 = list(itertools.islice(primes(), 60))
    rational = [Fraction(-3, 2), Fraction(-1, 12), Fraction(1, 3), Fraction(9, 11), Fraction(5, 12)]
    skipped = non_cyclic = denominator_skips = 0
    for t in [*range(-50, 51), *rational, -345, 346]:
        try:
            rec = specialize(t, family)
        except SpecializationError:
            continue
        points = []
        for P in (rec.p1, rec.p2):
            X, Y, Z = P
            assert math.gcd(X, Y, Z) == 1 and P.x.denominator == P.y.denominator == Z
            points.append(((X, Y, Z), to_weierstrass(rec.d, P.x, P.y)))
        for p in first_60:
            if p < 5 or (6 * rec.d) % p == 0:
                continue
            reduced = []
            for (X, Y, Z), (u, v) in points:
                in_denominator = (u.denominator * v.denominator) % p == 0
                assert in_denominator == ((X + Y) % p == 0), (t, p)
                image = None if in_denominator else tuple(
                    c.numerator * pow(c.denominator, -1, p) % p for c in (u, v))
                assert weierstrass_mod_p(rec.d, (X, Y, Z), p) == image, (t, p)
                reduced.append(image)
            r1, r2 = reduced
            if r1 is None or r2 is None:
                denominator_skips += 1
                continue
            A = (-432 * rec.d * rec.d) % p
            n = count_points(FiniteField(p), A)
            cyclic = _cyclic_by_point_orders(p, r1, r2)
            n1 = 1 if p % 3 == 2 else group_n1(p, n)
            if n1 == 1:
                skipped += 1
                assert cyclic, (t, p)
            else:
                assert _is_cyclic(p, r1, r2, n, factorize(n1)) == cyclic, (t, p)
                non_cyclic += not cyclic
    assert skipped > 1000 and non_cyclic > 100 and denominator_skips > 0


# sha256 of the lines t|primes_tried|cert_reason of twist_table(-300, 300,
# certify=True), joined by newlines; the reference digests
# (d|x1|y1|x2|y2|cert_prime) cannot see a change that only moves primes_tried.
PRIMES_TRIED_DIGEST = "2c5da9428b591eae9661298a196562a80280bfa709ab21785c5f8d1a941f02a8"


def test_primes_tried_and_reasons_match_the_pinned_digest():
    docs = [r.to_json() for r in twist_table(-300, 300, certify=True).records]
    lines = "\n".join(f"{d['t']}|{d['primes_tried']}|{d['cert_reason']}" for d in docs)
    assert len(docs) == 601
    assert hashlib.sha256(lines.encode()).hexdigest() == PRIMES_TRIED_DIGEST


def test_a_repeated_search_builds_no_field_again():
    """t = 0, 1, 2 are exhausted, so each walks the same 1000 primes in the
    same order: an LRU cache bounded below that many primes would evict
    every field and trace table before its next use.  An identical second
    search must find all of them cached."""
    twist_table(0, 2, certify=True, prime_budget=1000)
    fields, traces = prime_field.cache_info().misses, _sextic_traces.cache_info().misses
    twist_table(0, 2, certify=True, prime_budget=1000)
    assert prime_field.cache_info().misses == fields
    assert _sextic_traces.cache_info().misses == traces


def test_dependent_points_never_certify(family):
    rec = specialize(3, family)
    w1 = oracle.Point(*to_weierstrass(rec.d, rec.p1.x, rec.p1.y))
    double = to_hesse(rec.d, add_points(WeierstrassCurve(-432 * rec.d**2), w1, w1))
    dep = TwistRecord(rec.t, rec.k_t, rec.d, rec.p1, Point(*triple(double.x, double.y)))
    assert dep.p2.x**3 + dep.p2.y**3 == rec.d
    out = rank2_certificate(dep, prime_budget=25)
    assert out.certificate is None
    assert out.exhausted


def test_certificate_rejects_small_d():
    # synthetic record on X^3 + Y^3 = 2 (d <= 2: torsion hypothesis unavailable)
    rec = TwistRecord(Fraction(0), Fraction(2), 2, Point(1, 1, 1), Point(1, 1, 1))
    with pytest.raises(ValueError, match="d <= 2"):
        rank2_certificate(rec)


@pytest.mark.parametrize("d,x,y,order", [(16, 2, 2, 2), (27, 3, 0, 3)])
def test_certificate_refuses_rational_torsion(d, x, y, order):
    # hand-made records on X^3 + Y^3 = d with d twice a cube or a cube, which
    # specialize never makes (its d are cube-free): no prime is tried
    P = Point(*triple(x, y))
    out = rank2_certificate(TwistRecord(Fraction(0), Fraction(d), d, P, P))
    assert (out.reason, out.primes_tried, out.certificate) == (f"torsion bound {order} != 1", 0, None)


def test_record_reprs_name_their_fields():
    rec = specialize(3)
    points = "p1=Point(X=46, Y=-37, Z=3), p2=Point(X=10, Y=9, Z=1)"
    head = f"TwistRecord(t=Fraction(3, 1), k_t=Fraction(46683, 1), d=1729, {points}"
    assert repr(rec) == head + ", outcome=None)"
    outcome = rank2_certificate(rec)
    assert repr(outcome) == ("CertificateOutcome(certificate=RankCertificate(prime=37, "
                             "group_order=27), primes_tried=7, reason='non-cyclic image')")
    assert repr(rec) == f"{head}, outcome={outcome!r})"


_OFF_CURVE_SCRIPT = """
import math
from twocubes.twists import Point, rank2_certificate, specialize
N = math.prod(p for p in range(5, 38) if all(p % q for q in range(2, p)))  # 5 * 7 * ... * 37
for which in ("p1", "p2"):
    X, Y, Z = getattr(specialize(3), which)
    # (x + N, y) is off the curve and on it mod 5, ..., 37; the other two are
    # on the curve with Z < 0 and with gcd(X, Z) = 2
    for bad in (Point(X + N * Z, Y, Z), Point(-X, -Y, -Z), Point(2 * X, 2 * Y, 2 * Z)):
        rec = specialize(3)
        setattr(rec, which, bad)
        try:
            print(rank2_certificate(rec).reason.replace(" ", "_"))
        except ValueError as exc:
            print(str(exc).replace(" ", "_"), rec.outcome)
"""


def test_certificate_refuses_an_off_curve_point(monkeypatch):
    """A point off X^3 + Y^3 = d whose error every prime from 5 to 37 divides
    reduces onto E(F_p) there, and the mod-p check alone let (x1 + N, y1) at
    t = 3 certify at p = 37.  The exact check refuses either point before any
    prime is tried, with a typed error, so also under -O.  It refuses in
    the same way a triple on the curve with Z < 0 or gcd(X, Z) > 1."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for flags in ([], ["-O"]):
        argv = [sys.executable, *flags, "-c", _OFF_CURVE_SCRIPT]
        out = subprocess.run(argv, capture_output=True, text=True, env=env, check=True, timeout=120)
        refusal = "point_not_on_X^3_+_Y^3_=_1729_with_Z_>_0_and_gcd(X,_Z)_=_1"
        assert out.stdout.split() == [refusal, "None"] * 6, flags

    import twocubes.twists as tw

    def no_work(*args, **kwargs):
        raise AssertionError("an off-curve record started the search")

    monkeypatch.setattr(tw, "primes", no_work)
    rec = specialize(3)
    X, Y, Z = rec.p2
    rec.p2 = Point(X, Y + Z, Z)  # (x, y + 1)
    with pytest.raises(ValueError, match="not on X\\^3 \\+ Y\\^3 = 1729"):
        rank2_certificate(rec)


def test_exceptional_t0_is_exhausted(family):
    # P1(0) and P2(0) are dependent in E_7(Q) (P1 = -2 P2), so no prime can certify
    rec = specialize(0, family)
    w2 = oracle.Point(*to_weierstrass(rec.d, rec.p2.x, rec.p2.y))
    minus_2p2 = neg_point(scalar_mul(WeierstrassCurve(-432 * rec.d**2), 2, w2))
    P1 = to_hesse(rec.d, minus_2p2)
    assert (P1.x, P1.y) == (rec.p1.x, rec.p1.y)
    out = rank2_certificate(rec, prime_budget=20)
    assert out.exhausted


def test_specialize_rejects_roots_of_k():
    # the family k has no rational roots, so fabricate the failure mode directly
    fam = build_family()
    with pytest.raises(SpecializationError):
        # force it through a synthetic curve whose k vanishes at 1
        from twocubes.function_field import FunctionFieldCurve
        from twocubes.exact import rational_poly

        k = rational_poly(-1, 0, 0, 0, 0, 0, 1)  # T^6 - 1, vanishes at 1
        fake = FunctionFieldCurve(k, fam.p1, fam.p2)
        specialize(1, fake)


def test_table_with_certificates(family):
    table = twist_table(2, 3, certify=True, prime_budget=40)
    by_t = {int(r.t): r for r in table.records}
    assert by_t[3].certificate is not None
    assert by_t[2].certificate is not None or by_t[2].d == 9
