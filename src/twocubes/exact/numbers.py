"""Integer utilities: primality, factorization, cube-free decomposition.

Everything is exact and deterministic.  Factorization is trial division by
the primes below 2**16 (one small sieve, built once), deterministic
Miller-Rabin on what remains, perfect-power extraction, and a seeded
Brent-rho splitter for stubborn composites: what trial division leaves has
no prime factor below 2**16.
"""

from __future__ import annotations

import math
from collections import Counter
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
    if n == 1:
        return out
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
    return out


def cubefree_part(*factors: int) -> tuple[int, int]:
    """Write n = d * c**3 with c >= 1 and d cube-free; d keeps the sign of n.

    n is the product of the arguments, each factored on its own, so a
    caller who knows a factorization of n into small parts never factors
    the (much larger) product.  Raises ValueError when n == 0.
    """
    if 0 in factors:
        raise ValueError("0 has no cube-free decomposition")
    exponents: Counter[int] = Counter()
    for n in factors:
        exponents.update(factorize(abs(n)))
    d, c = (-1) ** sum(n < 0 for n in factors), 1
    for p, e in exponents.items():
        c *= p ** (e // 3)
        d *= p ** (e % 3)
    return d, c
