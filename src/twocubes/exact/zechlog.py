"""Vectorized discrete-log tables for the fiber sweeps over F_q.

Every quantity a sweep needs per fiber reduces to discrete logarithms:
the sextic/cubic class of z is log z mod 6 or mod 3.  Addition in log
coordinates is a Zech-logarithm table lookup:

    g^Z(k) = 1 + g^k         (Z(k) = -1 when 1 + g^k = 0).

Tables are built once per field with numpy (O(q) memory, int32), after
which whole-field sweeps cost a handful of vectorized passes instead of
q individual extension-field multiplications.
"""

from __future__ import annotations

import numpy as np

from .ffield import FFElement, FiniteField

_CHUNK = 1 << 22


class ZechLog:
    """log/Zech tables for F_q*, q = p^n, with a fixed generator."""

    def __init__(self, field: FiniteField):
        if field.q >= 1 << 31:
            raise ValueError("field too large for int32 log tables")
        self.field = field
        self.p = field.p
        self.n = field.n
        self.q = field.q
        self.g = field.generator()
        self._build()

    def _build(self) -> None:
        p, n, q = self.p, self.n, self.q
        digit_dtype = np.int8 if p < 128 else np.int16
        digits = np.zeros((q - 1, n), dtype=digit_dtype)
        digits[0, 0] = 1  # g^0
        size = 1
        while size < q - 1:
            m = min(size, q - 1 - size)
            # multiplication by g^size is linear over F_p; columns are g^size * x^j
            h = self.field.from_index(int(self._pack_row(digits[size - 1])))  # g^(size-1)
            h = h * self.g
            x = self.field.x() if n > 1 else None
            cols = []
            cur = h
            for _ in range(n):
                cols.append(cur.coeffs)
                if n > 1:
                    cur = cur * x
            mat = np.array(cols, dtype=np.int64)  # row j = coeffs of g^size * x^j
            for start in range(0, m, _CHUNK):
                end = min(start + _CHUNK, m)
                block = digits[start:end].astype(np.int64) @ mat
                digits[size + start : size + end] = (block % p).astype(digit_dtype)
            size += m
        weights = np.array([p**i for i in range(n)], dtype=np.int64)
        pow_packed = np.empty(q - 1, dtype=np.int32)
        for start in range(0, q - 1, _CHUNK):
            end = min(start + _CHUNK, q - 1)
            pow_packed[start:end] = (digits[start:end].astype(np.int64) @ weights).astype(
                np.int32
            )
        del digits
        log = np.full(q, -1, dtype=np.int32)
        log[pow_packed] = np.arange(q - 1, dtype=np.int32)
        if int(np.count_nonzero(log == -1)) != 1:
            raise ArithmeticError("generator does not enumerate the whole group")
        self.log_packed = log
        zech = np.empty(q - 1, dtype=np.int32)
        for start in range(0, q - 1, _CHUNK):
            end = min(start + _CHUNK, q - 1)
            pp = pow_packed[start:end]
            d0 = pp % p
            plus = np.where(d0 == p - 1, pp - (p - 1), pp + 1)
            zech[start:end] = log[plus]
        self.zech = zech

    def _pack_row(self, row) -> int:
        out = 0
        for c in reversed(list(row)):
            out = out * self.p + int(c)
        return out

    # -- scalar helpers ------------------------------------------------------

    def log(self, a: FFElement | int) -> int:
        """Discrete log base g; -1 for the zero element."""
        if isinstance(a, FFElement):
            a = a.to_index()
        return int(self.log_packed[a])

    def pow_g(self, e: int) -> FFElement:
        return self.g ** (e % (self.q - 1))

    def sqrt(self, a: FFElement) -> FFElement:
        """A square root of a (a must be a nonzero square)."""
        l = self.log(a)
        if l < 0 or l % 2:
            raise ValueError("not a nonzero square")
        return self.pow_g(l // 2)

    # -- bulk sweeps ----------------------------------------------------------

    def cube_class_counts(self, unit: FFElement, roots: list[FFElement]) -> tuple[list[int], int]:
        """Histogram of log(f(t)) mod 3 over t in F_q* for f = unit * prod (t - root).

        Returns ([N_0, N_1, N_2], number of t with f(t) = 0).  The t = 0
        fiber is not included; callers handle it directly.
        """
        q = self.q
        l_unit = self.log(unit)
        if l_unit < 0:
            raise ValueError("unit must be nonzero")
        shifts = []
        zero_root = False
        for rho in roots:
            if rho.is_zero():
                zero_root = True
                continue
            l = self.log(-rho)
            shifts.append(l)
        counts = np.zeros(3, dtype=np.int64)
        n_bad = 0
        for start in range(0, q - 1, _CHUNK):
            end = min(start + _CHUNK, q - 1)
            e = np.arange(start, end, dtype=np.int64)
            acc = np.full(end - start, l_unit, dtype=np.int64)
            bad = np.zeros(end - start, dtype=bool)
            if zero_root:
                acc += e
            for l in shifts:
                w = self.zech[(e - l) % (q - 1)]
                bad |= w < 0
                acc += w + l
            good = ~bad
            n_bad += int(np.count_nonzero(bad))
            cls = acc[good] % 3
            counts += np.bincount(cls, minlength=3)
        return [int(c) for c in counts], n_bad
