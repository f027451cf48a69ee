"""The class table by a walk over every power of g: the slow oracle for the
folded build of `zech_oracle.ZechLog`.

cls[packed(g^i)] = i mod 6 for all i < q - 1, ZERO at packed(0) = 0.  The
digits of g^0..g^(B-1) are computed once; block s holds g^(s+i) = g^s g^i,
one digit-matrix product mod p, scattered into the table.  No step uses the
F_p^* fold or the slab structure of the index.
"""

import numpy as np

from zech_oracle import BLOCK, ZERO


def _times(field, h, cols):
    """Digit columns of h * y for the elements y with digit columns cols."""
    p, n = field.p, field.n
    rows, cur = [], h
    for _ in range(n):
        rows.append(cur.coeffs)  # h * x^i
        cur = cur * field.x() if n > 1 else cur
    out = np.empty_like(cols)
    for j in range(n):
        acc = cols[0] * rows[0][j]
        for i in range(1, n):
            acc += cols[i] * rows[i][j]
        np.remainder(acc, p, out=out[j])
    return out


def power_walk_classes(field):
    p, n, q = field.p, field.n, field.q
    g = field.generator()
    dtype = np.int32 if n * (p - 1) ** 2 < 1 << 31 else np.int64
    span = min(BLOCK // n // 6 * 6, q - 1)  # a multiple of 6 unless it is q - 1
    digits = np.zeros((n, span), dtype=dtype)  # digit columns of g^0..g^(span-1)
    digits[0, 0] = 1
    size = 1
    while size < span:
        m = min(size, span - size)
        digits[:, size : size + m] = _times(field, g**size, digits[:, :m])
        size += m
    classes = (np.arange(span) % 6).astype(np.uint8)
    cls = np.full(q, 255, dtype=np.uint8)
    step, h = g**span, field.one()
    for start in range(0, q - 1, span):
        m = min(span, q - 1 - start)
        cols = _times(field, h, digits[:, :m])
        packed = cols[n - 1]
        for j in range(n - 2, -1, -1):
            packed *= p
            packed += cols[j]
        cls[packed] = classes[:m]
        h = h * step
    if cls[0] != 255 or int(np.count_nonzero(cls == 255)) != 1:
        raise ArithmeticError("generator does not enumerate the whole group")
    cls[0] = ZERO
    return cls
