"""The cube-free part n = d c^3 by sympy's factorint: the oracle for
exact.numbers.cubefree_part, sharing no code with it."""

import sympy


def cubefree_oracle(n: int) -> tuple[int, int]:
    sign = -1 if n < 0 else 1
    d, c = 1, 1
    for p, e in sympy.factorint(abs(n)).items():
        c *= p ** (e // 3)
        d *= p ** (e % 3)
    return sign * d, c
