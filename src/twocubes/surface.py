"""Elliptic-surface invariants of v^2 = u^3 - 432 k(T)^2.

Since j = 0 everywhere, Tate's algorithm collapses to a table on the
valuation of A = -432 k^2 mod 6: at a simple root of k the valuation is 2,
fiber type IV with 3 components.  The Euler numbers decide K3-ness
(e = 24) versus a rational elliptic surface (e = 12), and Shioda-Tate
turns the geometric Mordell-Weil rank into the Picard number.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .exact import Polynomial, factor_over_z, poly_gcd
from .exact.poly import _cleared
from .function_field import (
    build_family,
    lfunction,
    pullback_differential,
    rank_bounds,
    z_rank_cm,
)

# vA mod 6 -> (Kodaira symbol, components m, Euler number e, conductor exponent f)
KODAIRA_J0 = {
    1: ("II", 1, 2, 2),
    2: ("IV", 3, 4, 2),
    3: ("I0*", 5, 6, 2),
    4: ("IV*", 7, 8, 2),
    5: ("II*", 9, 10, 2),
}

INFINITE_PLACE = "infinity"


class SurfaceError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


class Place(NamedTuple):
    """A closed point of the base line: a monic irreducible factor, or infinity."""

    poly: Polynomial | None  # None encodes the place at infinity

    @property
    def degree(self) -> int:
        return 1 if self.poly is None else self.poly.degree

    def label(self) -> str:
        return INFINITE_PLACE if self.poly is None else self.poly.format()


class KodairaFiber(NamedTuple):
    place: Place
    vA: int
    type: str
    components: int
    euler: int
    conductor_exponent: int

    def to_json(self) -> dict:
        return {
            "place": self.place.label(),
            "degree": self.place.degree,
            "vA": self.vA,
            "type": self.type,
            "components": self.components,
            "euler": self.euler,
            "conductor_exponent": self.conductor_exponent,
        }


class SurfaceReport(NamedTuple):
    fibers: list[KodairaFiber]
    euler_number: int
    chi: int
    is_k3: bool
    picard: int
    rank_input: int

    def to_json(self) -> dict:
        return {
            "fibers": [f.to_json() for f in self.fibers],
            "euler_number": self.euler_number,
            "chi": self.chi,
            "is_k3": self.is_k3,
            "picard": self.picard,
            "rank_input": self.rank_input,
        }


def _factor_over_q(k: Polynomial) -> list[tuple[Polynomial, int]]:
    """Monic irreducible factors of k over Q with multiplicities, sorted by
    (degree, coefficients): the factors over Z of k with its denominators cleared."""
    _, factors = factor_over_z(_cleared(k)[0])
    out = [(Polynomial(tuple(map(Fraction, f))).monic(), m) for f, m in factors]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def classify_fibers(k: Polynomial) -> list[KodairaFiber]:
    """Kodaira fibers of v^2 = u^3 - 432 k^2 at every bad place.

    k must be squarefree of degree 1..6, tested as gcd(k, k') = 1 over Z[T].
    Each irreducible factor gives vA = 2, type IV; the place at infinity is
    read off the reversed model with the minimal sextic twist,
    vA = 2(6 - deg k) mod 6.
    """
    d = k.degree
    if d is None or d < 1 or d > 6:
        raise ValueError("need 1 <= deg k <= 6")
    rep = poly_gcd(k, k.derivative())
    if rep.degree:
        raise ValueError(f"k is not squarefree; repeated factor {rep.format()}")
    fibers = []
    sym, m, e, cond = KODAIRA_J0[2]
    for f, _ in _factor_over_q(k):  # every multiplicity is 1
        if f.degree:
            fibers.append(KodairaFiber(Place(f), 2, sym, m, e, cond))
    v_inf = (2 * (6 - d)) % 6
    if v_inf:
        sym, m, e, cond = KODAIRA_J0[v_inf]
        fibers.append(KodairaFiber(Place(None), v_inf, sym, m, e, cond))
    return fibers


def euler_and_k3(fibers: list[KodairaFiber]) -> tuple[int, bool]:
    """Degree-weighted Euler number and the K3 flag (e = 24 on a minimal model)."""
    if not fibers:
        raise ValueError("no bad fibers: not an elliptic surface over the line")
    for f in fibers:
        if f.vA >= 6:
            raise ValueError(f"non-minimal model at {f.place.label()} (vA = {f.vA})")
    e = sum(f.euler * f.place.degree for f in fibers)
    if e % 12 != 0 or e == 0:
        raise ValueError(f"Euler number {e} is not a positive multiple of 12")
    return e, e == 24


def shioda_tate(r: int, fibers: list[KodairaFiber]) -> int:
    """Picard number rho = r + 2 + sum over geometric fibers of (m - 1)."""
    if r < 0:
        raise ValueError("rank must be >= 0")
    return r + 2 + sum((f.components - 1) * f.place.degree for f in fibers)


def analyze(lpoly=None) -> SurfaceReport:
    """Full pipeline on the family surface.

    Geometric rank 4 from the differentials of P1, P2 and their CM images
    (lambda([omega]P) = omega^2 lambda(P)), confirmed against the mod-17
    L-function bound; six type-IV geometric fibers; e = 24 so the surface is
    K3; Shioda-Tate gives Picard number 18 <= 20.  Any stage that disagrees
    aborts with the stage name.
    """
    curve = build_family()
    r_geom = z_rank_cm([pullback_differential(curve.p1), pullback_differential(curve.p2)])
    if r_geom != 4:
        raise SurfaceError("differentials", f"CM-extended rank is {r_geom}, expected 4")
    L = lpoly if lpoly is not None else lfunction(17)
    _, geom_bound = rank_bounds(L)
    if r_geom > geom_bound:
        raise SurfaceError("lfunction", f"rank {r_geom} exceeds L-bound {geom_bound}")
    if geom_bound != 4:
        raise SurfaceError("lfunction", f"geometric bound is {geom_bound}, expected 4")
    fibers = classify_fibers(curve.k)
    geo_count = sum(f.place.degree for f in fibers)
    if geo_count != 6 or any(f.type != "IV" for f in fibers):
        raise SurfaceError("fibers", "expected six geometric type-IV fibers")
    e, is_k3 = euler_and_k3(fibers)
    if not is_k3:
        raise SurfaceError("euler", f"e = {e}, not a K3 surface")
    rho = shioda_tate(r_geom, fibers)
    if rho > 20:
        raise SurfaceError("picard", f"rho = {rho} exceeds the K3 bound 20")
    return SurfaceReport(fibers, e, e // 12, is_k3, rho, r_geom)
