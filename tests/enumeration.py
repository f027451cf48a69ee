"""Point counting by enumeration: the slow oracle for the closed-form count.

Elements of F_{p^n} are coefficient tuples (low degree first) reduced by
the field's modulus.  Only the field's p and modulus are read; all
arithmetic here is on plain ints, so no library arithmetic vouches for
itself.
"""

import itertools
from collections import Counter
from functools import lru_cache


def _reducer(modulus, p):
    """x^k mod the (monic) modulus for k = n .. 2n - 2, as coefficient lists."""
    n = len(modulus) - 1
    rows = []
    cur = [-c % p for c in modulus[:-1]]  # x^n
    for _ in range(n - 1):
        rows.append(cur)
        top = cur[-1]
        cur = [0] + cur[:-1]
        cur = [(c + top * r) % p for c, r in zip(cur, rows[0])]
    return rows


def _mulmod(a, b, rows, p):
    n = len(a)
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    out = prod[:n]
    for c, row in zip(prod[n:], rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return tuple(c % p for c in out)


@lru_cache(maxsize=16)
def _tables(p, modulus):
    """(multiplicity of each square, multiplicity of each cube) over F_q."""
    if len(modulus) == 2:
        return Counter(u * u % p for u in range(p)), Counter(u**3 % p for u in range(p))
    rows = _reducer(modulus, p)
    squares = Counter()
    cubes = Counter()
    for u in itertools.product(range(p), repeat=len(modulus) - 1):
        u2 = _mulmod(u, u, rows, p)
        squares[u2] += 1
        cubes[_mulmod(u2, u, rows, p)] += 1
    return squares, cubes


def count_by_enumeration(field, A) -> int:
    """#{(u, v) in F_q^2 : v^2 = u^3 + A} + 1, enumerating u and looking v up.

    A is an int, a coefficient tuple or a field element (its coeffs are read).
    """
    p, modulus = field.p, tuple(field.modulus)
    n = len(modulus) - 1
    A = getattr(A, "coeffs", A)
    A = (A,) if isinstance(A, int) else tuple(A)
    A = tuple(c % p for c in A) + (0,) * (n - len(A))
    squares, cubes = _tables(p, modulus)
    if n == 1:
        a = A[0]
        return 1 + sum(m * squares[(c + a) % p] for c, m in cubes.items())
    return 1 + sum(
        m * squares[tuple((c + a) % p for c, a in zip(u3, A))] for u3, m in cubes.items()
    )
