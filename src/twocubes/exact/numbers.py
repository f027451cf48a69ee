"""Integer utilities: primality, factorization, cube-free decomposition.

Everything is exact and deterministic.  Factorization is trial division by
the primes below 2**16 (one small sieve, built once), deterministic
Miller-Rabin on what remains, perfect-power extraction, and a seeded
Brent-rho splitter for stubborn composites: what trial division leaves has
no prime factor below 2**16.  The cube-free part needs less: trial division
stops at the cube root of what is left, a gcd refinement across the parts
settles the exponents of what remains, and Miller-Rabin and rho run only on
a cofactor above 2**48.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

TRIAL_BOUND = 1 << 16

# Deterministic Miller-Rabin witness set, valid for all n < 3.317e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    sieve = bytearray(b"\x01") * TRIAL_BOUND
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(TRIAL_BOUND) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return tuple(i for i, v in enumerate(sieve) if v)


def primes() -> Iterator[int]:
    """Yield primes in increasing order (unbounded)."""
    for p in _small_primes():
        yield p
    n = TRIAL_BOUND + 1
    while True:
        if is_probable_prime(n):
            yield n
        n += 2


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic up to ~3.3e24, 12 fixed witnesses above."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 2:
        return n
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def icbrt(n: int) -> int:
    return _iroot(n, 3)


def _perfect_power(n: int) -> tuple[int, int] | None:
    """Return (r, k) with r**k == n and k >= 2, or None."""
    for k in range(2, n.bit_length() + 1):
        r = _iroot(n, k)
        if r < 2:
            break
        if r**k == n:
            return r, k
    return None


def _brent_rho(n: int) -> int:
    """A nontrivial factor of odd composite n (deterministic parameter sweep)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        _factor_rough(n, out)
    return out


def _factor_rough(n: int, out: dict[int, int]) -> None:
    """Add the factorization of n > 1 to out: Miller-Rabin, perfect powers, rho."""
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        pk = _perfect_power(m)
        if pk is not None:
            r, k = pk
            for q, e in factorize(r).items():
                out[q] = out.get(q, 0) + e * k
            continue
        d = _brent_rho(m)
        stack.append(d)
        stack.append(m // d)


def cubefree_part(*factors: int) -> tuple[int, int]:
    """Write n = d * c**3 with c >= 1 and d cube-free; d keeps the sign of n.

    n is the product of the arguments and is never formed.  Each part is
    trial-divided only while p^3 <= what is left of it.  A cofactor m <= 2**48
    left there has every prime factor above its cube root, so it is 1, P,
    P^2 (found by isqrt) or PQ; only a cofactor above 2**48 is split by
    Miller-Rabin and rho.  The trial primes and the cofactors of all parts
    are refined into pairwise coprime squarefree bases by gcds (Bernstein,
    "Factoring into coprimes in essentially linear time", 2005), so a prime
    found in one part and left in another's cofactor has one exponent, and d
    and c are read off the bases without knowing whether P or PQ is prime.
    Raises ValueError when n == 0.
    """
    if 0 in factors:
        raise ValueError("0 has no cube-free decomposition")
    trial: dict[int, int] = {}
    rests: list[tuple[int, int]] = []
    for n in factors:
        n = abs(n)
        for p in _small_primes():
            if p * p * p > n:
                break
            while n % p == 0:
                trial[p] = trial.get(p, 0) + 1
                n //= p
        if n > TRIAL_BOUND**3:
            rough: dict[int, int] = {}
            _factor_rough(n, rough)
            rests.extend(rough.items())
        elif n > 1:
            r = math.isqrt(n)
            rests.append((r, 2) if r * r == n else (n, 1))
    bases = list(trial.items())
    for m, e in rests:
        bases = _refine(bases, m, e)
    d, c = (-1) ** sum(n < 0 for n in factors), 1
    for b, e in bases:
        c *= b ** (e // 3)
        d *= b ** (e % 3)
    return d, c


def _refine(bases: list[tuple[int, int]], m: int, e: int) -> list[tuple[int, int]]:
    """Pairwise coprime squarefree (base, exponent) pairs times m^e, m squarefree.

    A base b sharing g = gcd(m, b) > 1 with m splits into g, with the two
    exponents added, and b / g; b / g is coprime to m because b is
    squarefree, and m / g goes on to the other bases.
    """
    out = []
    for b, f in bases:
        g = math.gcd(m, b)
        if g == 1:
            out.append((b, f))
            continue
        out.append((g, f + e))
        if b != g:
            out.append((b // g, f))
        m //= g
    if m > 1:
        out.append((m, e))
    return out
