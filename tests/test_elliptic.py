"""Tests for curve models, the group law, closed-form counting, and traces."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import chord_oracle
from chord_oracle import (
    O,
    Point,
    WeierstrassCurve,
    add_points,
    neg_point,
    order_by_enumeration,
    scalar_mul,
    to_hesse,
)
from enumeration import count_by_enumeration
from torsion_oracle import torsion_order_bound
from trace_oracle import trace
from twocubes.elliptic import (
    _add_mod_p,
    _is_cyclic,
    _mul_mod_p,
    count_points,
    group_n1,
    to_weierstrass,
)
from twocubes.exact import FiniteField, is_probable_prime, prime_field
from twocubes.exact.numbers import factorize


# -- model conversion -----------------------------------------------------------


def _to_w(d, P: Point) -> Point:
    """The image of an affine Hesse point as an oracle point."""
    return Point(*to_weierstrass(d, P.x, P.y))


@pytest.mark.parametrize(
    "d,pt,expected",
    [
        (1729, (9, 10), (1092, -3276)),
        (7, (2, -1), (84, 756)),
        (1, (1, 0), (12, 36)),
    ],
)
def test_hesse_map_examples(d, pt, expected):
    W = _to_w(Fraction(d), Point(Fraction(pt[0]), Fraction(pt[1])))
    assert (W.x, W.y) == expected
    # substitution oracle: both sides of v^2 = u^3 - 432 d^2 agree
    assert W.y**2 == W.x**3 - 432 * d**2
    assert WeierstrassCurve(-432 * d * d).contains(W)
    back = to_hesse(d, W)
    assert (back.x, back.y) == (pt[0], pt[1])


def _hesse_points(d: int, n: int = 6) -> list[Point]:
    """Sample rational points of X^3+Y^3=d by adding the known ones in Weierstrass."""
    curve = WeierstrassCurve(-432 * d * d)
    seeds = {
        1729: [Point(Fraction(9), Fraction(10)), Point(Fraction(1), Fraction(12))],
        7: [Point(Fraction(2), Fraction(-1))],
    }[d]
    ws = [_to_w(d, P) for P in seeds]
    out = list(seeds)
    cur = ws[0]
    for i in range(1, n):
        cur = add_points(curve, cur, ws[i % len(ws)])
        if cur.at_infinity or cur.x == 0:
            continue
        H = to_hesse(d, cur)
        assert H.x**3 + H.y**3 == d
        out.append(H)
    return out


def _hesse_chord_add(d: Fraction, P: Point, Q: Point) -> Point:
    """Independent chord construction on X^3 + Y^3 = d (generic positions only).

    The line through P and Q meets the cubic in a third point (x3, y3) found
    by Vieta; the group sum is its inverse (y3, x3) for identity at the flex.
    """
    assert P.x != Q.x
    mslope = (Q.y - P.y) / (Q.x - P.x)
    c = P.y - mslope * P.x
    assert 1 + mslope**3 != 0
    # x^3 + (mx+c)^3 = d has roots x_P, x_Q, x_3
    s = -3 * mslope**2 * c / (1 + mslope**3)
    x3 = s - P.x - Q.x
    y3 = mslope * x3 + c
    return Point(y3, x3)


def test_group_law_transport_via_chords():
    for d in (1729, 7):
        curve = WeierstrassCurve(-432 * d * d)
        pts = _hesse_points(d)
        pairs = [(a, b) for i, a in enumerate(pts) for b in pts[i + 1 :]]
        checked = 0
        for P, Q in pairs:
            if P.x == Q.x:
                continue
            mslope = (Q.y - P.y) / (Q.x - P.x)
            if 1 + mslope**3 == 0:
                continue
            chord = _hesse_chord_add(Fraction(d), P, Q)
            assert chord.x**3 + chord.y**3 == d
            transported = add_points(curve, _to_w(d, P), _to_w(d, Q))
            assert _to_w(d, chord) == transported
            checked += 1
        assert checked >= 5


def test_hesse_map_bijective_on_samples():
    pts = _hesse_points(1729, 8)
    images = {to_weierstrass(1729, P.x, P.y) for P in pts}
    assert len(images) == len(pts)


# -- group law axioms -------------------------------------------------------------


def test_group_law_axioms_over_q():
    d = Fraction(1729)
    c = WeierstrassCurve(-432 * d * d)
    pts = [_to_w(d, P) for P in _hesse_points(1729, 6)]
    for P in pts:
        assert add_points(c, P, O) == P
        assert add_points(c, P, neg_point(P)).at_infinity
    for P in pts[:3]:
        for Q in pts[:3]:
            assert add_points(c, P, Q) == add_points(c, Q, P)
    for P in pts[:3]:
        for Q in pts[:3]:
            for R in pts[:3]:
                lhs = add_points(c, add_points(c, P, Q), R)
                rhs = add_points(c, P, add_points(c, Q, R))
                assert lhs == rhs


def test_group_law_axioms_over_fp():
    rng = random.Random(43)
    F = FiniteField(101)
    A = F(37)
    c = WeierstrassCurve(A)
    pts = []
    for idx in range(F.q):
        u = F.from_index(idx)
        rhs = u * u * u + A
        for jdx in range(F.q):
            v = F.from_index(jdx)
            if v * v == rhs:
                pts.append(Point(u, v))
        if len(pts) > 40:
            break
    for _ in range(100):
        P, Q, R = (rng.choice(pts) for _ in range(3))
        assert add_points(c, P, Q) == add_points(c, Q, P)
        assert add_points(c, add_points(c, P, Q), R) == add_points(c, P, add_points(c, Q, R))
        assert add_points(c, P, neg_point(P)).at_infinity


def test_doubling_on_432_curve():
    c = WeierstrassCurve(Fraction(-432))
    P = Point(Fraction(12), Fraction(36))
    D = add_points(c, P, P)
    assert c.contains(D)
    assert D == Point(Fraction(12), Fraction(-36))  # (12,36) has order 3
    assert add_points(c, D, P).at_infinity


def test_add_points_rejects_off_curve():
    c = WeierstrassCurve(Fraction(-432))
    with pytest.raises(ValueError):
        add_points(c, Point(Fraction(1), Fraction(1)), O)


# -- point counting ----------------------------------------------------------------


def test_count_examples():
    F7 = FiniteField(7)
    assert count_by_enumeration(F7, 1) == 12  # oracle for the frozen value
    assert count_points(F7, 1) == 12
    assert trace(F7, 1) == -4
    F5 = FiniteField(5)
    for a in range(1, 5):
        assert count_points(F5, a) == 6
    F17 = FiniteField(17)
    A = (-432 * 189 * 189) % 17
    n = count_points(F17, A)
    assert (17 + 1 - n) ** 2 <= 4 * 17
    assert n == count_by_enumeration(F17, A)


def test_count_rejects_singular_and_small_char():
    with pytest.raises(ValueError):
        count_points(FiniteField(7), 0)
    with pytest.raises(ValueError):
        count_points(FiniteField(3), 1)
    with pytest.raises(ValueError, match="different field"):
        count_points(FiniteField(7), FiniteField(13)(1))


def test_prime_field_count_on_ints_matches_enumeration():
    """Over F_p, p < 100, every A in F_p^* counts as enumeration does, given as
    an int in [1, p), a negative int, an int above p and an FFElement, for
    p = 1 and p = 2 mod 3."""
    ps = [p for p in range(5, 100) if is_probable_prime(p)]
    assert {p % 3 for p in ps} == {1, 2}
    for p in ps:
        F = prime_field(p)
        for A in range(1, p):
            n = count_by_enumeration(F, A)
            for a in (A, A - p, A + 2 * p, F(A)):
                assert count_points(F, a) == n, (p, a)


def test_count_refuses_a_zero_mod_p_under_O():
    """A = 0 mod p is refused as an int, a negative int and an FFElement, with
    and without -O."""
    script = """
from twocubes.elliptic import count_points
from twocubes.exact import prime_field
for p in (7, 11):
    F = prime_field(p)
    for A in (0, p, -p, 3 * p, F(0)):
        try:
            count_points(F, A)
            print("accepted")
        except ValueError:
            print("refused")
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    for flags in ([], ["-O"]):
        argv = [sys.executable, *flags, "-c", script]
        out = subprocess.run(argv, capture_output=True, text=True, env=env, check=True, timeout=120)
        assert out.stdout.split() == ["refused"] * 10, flags


def test_supersingular_law():
    # q = 2 mod 3 makes cubing a bijection: count is q + 1 for every A != 0
    for (p, n) in ((5, 1), (11, 1), (17, 1), (23, 1), (5, 3)):
        F = FiniteField(p, n)
        assert F.q % 3 == 2
        rng = random.Random(47)
        for _ in range(6):
            A = F.from_index(rng.randrange(1, F.q))
            assert count_points(F, A) == F.q + 1
            assert count_by_enumeration(F, A) == F.q + 1


def test_hasse_bound_over_extension():
    F = FiniteField(7, 2)
    rng = random.Random(53)
    for _ in range(20):
        A = F.from_index(rng.randrange(1, F.q))
        a = trace(F, A)
        assert a * a <= 4 * F.q


def test_closed_form_every_sextic_class_prime_fields():
    """Every sextic class of A on every prime p = 1 mod 6 below 2000."""
    checked = 0
    for p in range(7, 2000, 6):
        if not is_probable_prime(p):
            continue
        F = FiniteField(p)
        classes = set()
        A = 1
        while len(classes) < 6:
            s = pow(A, (p - 1) // 6, p)
            if s not in classes:
                classes.add(s)
                assert count_points(F, A) == count_by_enumeration(F, A), (p, A)
                checked += 1
            A += 1
    assert checked == 6 * 148


@pytest.mark.parametrize("p,n", [(7, 2), (7, 3), (11, 2), (13, 2)])
def test_closed_form_all_a_extension_fields(p, n):
    F = FiniteField(p, n)
    for i in range(1, F.q):
        A = F.from_index(i)
        assert count_points(F, A) == count_by_enumeration(F, A), A


@pytest.mark.parametrize("p,n", [(5, 4), (17, 2), (17, 4)])
def test_closed_form_generator_classes(p, n):
    F = FiniteField(p, n)
    g = F.generator()
    for j in range(6):
        assert count_points(F, g**j) == count_by_enumeration(F, g**j), j


# -- traces by sextic class ----------------------------------------------------------
# The trace of v^2 = u^3 + A depends only on the sextic class of A; these
# pin that down against the enumeration oracle.


def test_trace_table_f7():
    F = FiniteField(7)
    assert all(trace(F, a) ** 2 <= 4 * 7 for a in range(1, 7))
    assert trace(F, 1) == -4


def test_trace_table_f13_exhaustive():
    F = FiniteField(13)
    for a in range(1, 13):
        assert trace(F, a) == F.q + 1 - count_by_enumeration(F, a)
        assert count_points(F, a) == count_by_enumeration(F, a)


def test_trace_table_f289_random():
    F = FiniteField(17, 2)
    by_class = {}
    rng = random.Random(59)
    for _ in range(288):
        A = F.from_index(rng.randrange(1, F.q))
        a = trace(F, A)
        assert a == F.q + 1 - count_by_enumeration(F, A)
        assert by_class.setdefault(F.sextic_residue_symbol(A), a) == a
    assert len(by_class) == 6


def test_trace_table_rejects_wrong_q():
    with pytest.raises(ValueError):
        FiniteField(5).sextic_residue_symbol(1)
    assert count_points(FiniteField(5), 1) == 6  # q = 2 mod 3 needs no symbol


# -- torsion bound -------------------------------------------------------------------


@pytest.mark.parametrize("d,expected", [(1729, 1), (7, 1), (1, 3)])
def test_torsion_bound_examples(d, expected):
    assert torsion_order_bound(d) == expected


def test_torsion_bound_detects_2_torsion():
    # d = 2: (1,1) maps to (12, 0), a rational 2-torsion point
    assert torsion_order_bound(2) % 2 == 0


def test_torsion_oracle_is_the_theorem():
    """The point-count bound is 3 at the cubes, 2 at twice the cubes and 1
    elsewhere, as Silverman's Exercise 10.19 gives for X^3 + Y^3 = d; cube-free
    or not.  d = 2: (1, 1) maps to (12, 0), a rational 2-torsion point."""
    cubes = {c**3 for c in range(1, 28)}
    for d in range(1, 20001):
        expected = 3 if d in cubes else 2 if d % 2 == 0 and d // 2 in cubes else 1
        assert torsion_order_bound(d) == expected, d


# -- the group law over F_p on ints ---------------------------------------------------


def _points_mod_p(p, a):
    return [(u, v) for u in range(p) for v in range(p) if (v * v - u**3 - a) % p == 0]


def _as_ff(F, P):
    return O if P is None else Point(F(P[0]), F(P[1]))


def test_int_group_law_matches_generic():
    rng = random.Random(67)
    for p in (5, 7, 13, 31, 101, 211):
        F = FiniteField(p)
        for _ in range(3):
            a = rng.randrange(1, p)
            curve = WeierstrassCurve(F(a))
            pts = [None] + _points_mod_p(p, a)
            for _ in range(30):
                P, Q = rng.choice(pts), rng.choice(pts)
                assert _as_ff(F, _add_mod_p(p, P, Q)) == add_points(
                    curve, _as_ff(F, P), _as_ff(F, Q)
                )
                k = rng.randrange(0, 3 * p)
                assert _as_ff(F, _mul_mod_p(p, k, P)) == scalar_mul(curve, k, _as_ff(F, P))


def _curves_mod_p(p):
    """(A, affine points of v^2 = u^3 + A over F_p) for every A != 0 mod p."""
    roots = {}
    for v in range(p):
        roots.setdefault(v * v % p, []).append(v)
    for A in range(1, p):
        yield A, [(u, v) for u in range(p) for v in roots.get((u**3 + A) % p, ())]


def test_weil_skip_only_where_the_group_is_cyclic():
    """E(F_p) = Z/n1 x Z/n2 has exponent n2 = #E(F_p)/n1, with n1 = 1 at
    p = 2 mod 3 and n1 = group_n1 at p = 1 mod 3.  Over every A != 0 mod p
    and every prime 5 <= p < 200, n2 kills every enumerated point and is the
    order of one of them; so wherever n1 is 1, E(F_p) is cyclic.  The
    2028 curves at p = 1 mod 3 are all checked."""
    skipped = kept = curves_1_mod_3 = 0
    for p in range(5, 200):
        if not is_probable_prime(p):
            continue
        for A, pts in _curves_mod_p(p):
            n = len(pts) + 1
            assert n == count_points(FiniteField(p), A)
            n1 = 1 if p % 3 == 2 else group_n1(p, n)
            curves_1_mod_3 += p % 3 == 1
            n2 = n // n1
            assert n1 * n2 == n, (p, A)
            if n2 < n:  # n kills every point by Lagrange
                kept += 1
                assert all(_mul_mod_p(p, n2, P) is None for P in pts), (p, A)
            else:
                skipped += 1
            assert any(order_by_enumeration(p, P) == n2 for P in pts), (p, A)
    assert skipped > 1000 and kept > 1000 and curves_1_mod_3 == 2028


def _subgroup_bruteforce(curve, gens):
    group = {O}
    frontier = [O]
    while frontier:
        new = []
        for X in frontier:
            for g in gens:
                Y = add_points(curve, X, g)
                if Y not in group:
                    group.add(Y)
                    new.append(Y)
        frontier = new
    return group


def test_subgroup_cyclicity_vs_enumeration():
    """The int path against subgroups enumerated with the generic group law."""
    rng = random.Random(61)
    checked_noncyclic = 0
    for p in (7, 13, 31, 43, 61, 103, 151, 199):
        F = FiniteField(p)
        for a in (1, 2, 5):
            curve = WeierstrassCurve(F(a))
            pts = _points_mod_p(p, a)
            order = count_points(F, a)
            assert order == len(pts) + 1
            for _ in range(4):
                P, Q = rng.choice(pts), rng.choice(pts)
                H = _subgroup_bruteforce(curve, [_as_ff(F, P), _as_ff(F, Q)])
                oP = order_by_enumeration(p, P)
                oQ = order_by_enumeration(p, Q)
                ints = [None if X.at_infinity else (X.x.coeffs[0], X.y.coeffs[0]) for X in H]
                brute_cyclic = any(order_by_enumeration(p, X) == len(H) for X in ints)
                got = _is_cyclic(p, P, Q, order, factorize(order))
                assert got == brute_cyclic, (p, a, P, Q)
                assert len(H) % oP == 0 and len(H) % oQ == 0
                if not got:
                    checked_noncyclic += 1
    assert checked_noncyclic >= 1  # the sample must include genuine non-cyclic cases
    # two 2-torsion points of v^2 = u^3 + 1 over F_7 (#E = 12) span Z/2 x Z/2,
    # seen from #E and from a multiple of it
    for n in (12, 24):
        assert not _is_cyclic(7, (3, 0), (5, 0), n, factorize(n))


# E: v^2 = u^3 + 1 over F_7 is Z/2 x Z/6; (1, 3) has order 6 and (3, 0) order 2.
# Each n below is not a multiple of an order: with an ell of n, with an ell
# prime to n, with no ell, and n = 1; the last refusal is of Q's order alone.
NOT_MULTIPLES = [
    ((1, 3), (3, 0), 3, [3]),
    ((1, 3), (3, 0), 2, [2]),
    ((1, 3), (3, 0), 4, [2, 3]),
    ((1, 3), (3, 0), 3, [2]),
    ((1, 3), (3, 0), 4, []),
    ((1, 3), (3, 0), 1, []),
    ((1, 3), (3, 0), 1, [2]),
    ((0, 1), (3, 0), 3, [3]),
]


def test_is_cyclic_refuses_an_n_that_is_not_a_multiple_of_a_point_order():
    """n P = O is checked in the walk to each ell-order, and directly with no
    ell; the walk stops at ell^e, so it cannot spin.  With n = 1, O and O span
    the trivial group."""
    from twocubes.elliptic import _ell_order

    for P, Q, n, ells in NOT_MULTIPLES:
        with pytest.raises(ValueError, match="^group_order is not a multiple of the point order$"):
            _is_cyclic(7, P, Q, n, ells)
    with pytest.raises(ValueError, match="not a multiple"):
        _ell_order(7, (1, 3), 2, 4)  # order 6 is not a power of 2
    assert _ell_order(7, (3, 0), 2, 4) == 2
    for ells in ([], [2]):
        assert _is_cyclic(7, None, None, 1, ells)
    for n in (6, 12):  # 3 (1, 3) = (3, 0), and (5, 0) is the other 2-torsion
        assert _is_cyclic(7, (1, 3), (3, 0), n, factorize(n))
        assert not _is_cyclic(7, (1, 3), (5, 0), n, factorize(n))


def test_is_cyclic_refusal_survives_python_O():
    script = f"""
from twocubes.elliptic import _is_cyclic
for P, Q, n, ells in {NOT_MULTIPLES!r}:
    try:
        _is_cyclic(7, P, Q, n, ells)
        print("accepted")
    except ValueError as err:
        print(err)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    want = ["group_order is not a multiple of the point order"] * len(NOT_MULTIPLES)
    for flags in ([], ["-O"]):
        argv = [sys.executable, *flags, "-c", script]
        out = subprocess.run(argv, capture_output=True, text=True, env=env, check=True, timeout=120)
        assert out.stdout.splitlines() == want, flags


def test_scalar_mul_orders():
    p, a = 13, 5
    order = count_points(FiniteField(p), a)
    for P in _points_mod_p(p, a):
        assert _mul_mod_p(p, order, P) is None
        o = order_by_enumeration(p, P)
        assert _mul_mod_p(p, o, P) is None
        assert all(_mul_mod_p(p, k, P) is not None for k in range(1, o))


def test_scalar_mul_doubles_only_while_bits_remain(monkeypatch):
    d = Fraction(1729)
    c, P = WeierstrassCurve(-432 * d * d), _to_w(d, Point(Fraction(9), Fraction(10)))
    calls = []

    def counted(curve, A, B):
        calls.append(1)
        return add_points(curve, A, B)

    monkeypatch.setattr(chord_oracle, "add_points", counted)
    # k: (add_points calls, kP as computed before doubling stopped at the last bit)
    want = {
        1: (1, ("1092", "-3276")),
        2: (2, ("295932", "160985916")),
        4: (3, ("178657031073612/2414837881", "2387973353618578205844/118667548310221")),
        5: (4, ("415539191599757775732/356411219649455881",
                "-3644589419973089076579319432476/212778160699182489295482779")),
    }
    for k, (n_calls, xy) in want.items():
        calls.clear()
        R = scalar_mul(c, k, P)
        assert len(calls) == n_calls, k
        assert R == Point(*map(Fraction, xy)), k
    assert scalar_mul(c, -3, P) == Point(Fraction("2260441/2025"), Fraction("908918011/91125"))
    assert scalar_mul(c, 0, P).at_infinity


def test_mul_mod_p_doubles_only_while_bits_remain(monkeypatch):
    import twocubes.elliptic as elliptic

    p, A, P = 1009, 5, (1, 174)
    assert (P[1] ** 2 - P[0] ** 3 - A) % p == 0  # P on v^2 = u^3 + 5 over F_1009
    calls = []
    add = elliptic._add_mod_p

    def counted(p_, X, Y):
        calls.append(1)
        return add(p_, X, Y)

    monkeypatch.setattr(elliptic, "_add_mod_p", counted)
    # k: (_add_mod_p calls, kP as computed before doubling stopped at the last bit)
    want = {1: (1, (1, 174)), 2: (2, (629, 760)), 4: (3, (256, 609)), 5: (4, (315, 240))}
    for k, (n_calls, kP) in want.items():
        calls.clear()
        assert _mul_mod_p(p, k, P) == kP, k
        assert len(calls) == n_calls, k
    assert _mul_mod_p(p, 3, P) == (668, 595)
    assert _mul_mod_p(p, 0, P) is None
