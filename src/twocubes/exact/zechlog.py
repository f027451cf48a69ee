"""A uint8 class table of discrete logarithms mod 6 for the fiber sweeps.

Every quantity a c_n sweep needs per fiber is a discrete logarithm mod 6:
the fiber over t has trace traces[log(-432 k(t)^2) mod 6], and log k(t)
mod 3 is the sum of log(t - r) mod 6 over the roots r of k, plus the
unit's.  So one table, cls[packed(x)] = log_g(x) mod 6 with packed(x) the
base-p digit index of x and ZERO marking x = 0, holds everything: q bytes
per field, where full log tables took four times that.

The table is built block by block.  The base-p digits of g^0..g^(B-1) are
computed once; block s holds g^(s+i) = g^s g^i, and multiplication by g^s
is an F_p-linear map of the digits, so each block costs one small integer
matrix product, a reduction mod p and a scatter.  The sweep covers all t
in F_q through a low/high digit split: packed(t - r) = hi_r[h] + lo_r[l],
so each block of t is a broadcast add, a gather and a uint8 add per root.
"""

from __future__ import annotations

import numpy as np

from .ffield import FFElement, FiniteField

ZERO = 64  # class of 0: any class sum >= ZERO has a zero factor
MAX_ROOTS = 12  # 12 * 5 < ZERO: a sum with no zero factor stays below ZERO
BLOCK = 1 << 18  # int64 words in one block array of the build or the sweep
BLOCK_BYTES = 5 * 8 * BLOCK  # no more than five such arrays live at once
MEMORY_BUDGET = 512 << 20  # bytes for one table plus one block
MAX_COUNTING_FIELD = MEMORY_BUDGET - BLOCK_BYTES


class ZechLog:
    """The class table cls of F_q, q = p^n = 1 mod 6, for a fixed generator g."""

    def __init__(self, field: FiniteField):
        if field.q % 6 != 1:
            raise ValueError(f"q = {field.q} is not 1 mod 6")
        if field.q > MAX_COUNTING_FIELD:
            raise ValueError(f"q = {field.q} exceeds the class-table budget")
        self.field = field
        self.p = field.p
        self.n = field.n
        self.q = field.q
        self.g = field.generator()
        self.cls = self._build()

    def _times(self, h: FFElement, cols: np.ndarray) -> np.ndarray:
        """Digit columns of h * y for the elements y whose digit columns
        (cols[i] = digit i) are given: an F_p-linear map of the digits."""
        rows, cur = [], h
        for _ in range(self.n):
            rows.append(cur.coeffs)  # h * x^i
            cur = cur * self.field.x() if self.n > 1 else cur
        out = np.empty_like(cols)
        for j in range(self.n):
            acc = cols[0] * rows[0][j]
            for i in range(1, self.n):
                acc += cols[i] * rows[i][j]
            np.remainder(acc, self.p, out=out[j])
        return out

    def _build(self) -> np.ndarray:
        p, n, q = self.p, self.n, self.q
        dtype = np.int32 if n * (p - 1) ** 2 < 1 << 31 else np.int64
        span = min(BLOCK // n // 6 * 6, q - 1)  # a multiple of 6 unless it is q - 1
        digits = np.zeros((n, span), dtype=dtype)  # digit columns of g^0..g^(span-1)
        digits[0, 0] = 1
        size = 1
        while size < span:
            m = min(size, span - size)
            digits[:, size : size + m] = self._times(self.g**size, digits[:, :m])
            size += m
        classes = (np.arange(span) % 6).astype(np.uint8)
        cls = np.full(q, 255, dtype=np.uint8)
        step, h = self.g**span, self.field.one()
        for start in range(0, q - 1, span):
            m = min(span, q - 1 - start)
            cols = self._times(h, digits[:, :m])
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

    def sextic_class(self, a: FFElement) -> int:
        """log_g(a) mod 6 for nonzero a."""
        c = int(self.cls[self.field.element(a).to_index()])
        if c == ZERO:
            raise ValueError("class of zero")
        return c

    def _shifted(self, index: np.ndarray, r: tuple[int, ...]) -> np.ndarray:
        """packed(t - r) for the elements t with packed index `index`, over the
        digits that r lists (the rest of t and r are taken as 0)."""
        p = self.p
        out = np.zeros(len(index), dtype=np.int64)
        for i, d in enumerate(r):
            digit = index // p**i
            digit -= d
            digit %= p
            digit *= p**i
            out += digit
        return out

    def cube_class_counts(self, unit: FFElement, roots: list[FFElement]) -> tuple[list[int], int]:
        """Histogram of log(f(t)) mod 3 over all t in F_q for f = unit * prod (t - root).

        Returns ([N_0, N_1, N_2], number of t with f(t) = 0).
        """
        if len(roots) > MAX_ROOTS:
            raise ValueError(f"at most {MAX_ROOTS} roots")
        l_unit = self.sextic_class(unit)
        p, half = self.p, self.n // 2
        lo_size, hi_size = p**half, p ** (self.n - half)
        digits = [self.field.element(r).coeffs for r in roots]
        lo = [self._shifted(np.arange(lo_size), r[:half]) for r in digits]
        rows = max(1, BLOCK // lo_size)
        hist = np.zeros(256, dtype=np.int64)
        for start in range(0, hi_size, rows):
            h = np.arange(start, min(start + rows, hi_size))
            acc = np.zeros((len(h), lo_size), dtype=np.uint8)
            for r, lo_r in zip(digits, lo):
                hi_r = self._shifted(h, r[half:])
                hi_r *= lo_size
                acc += self.cls[hi_r[:, None] + lo_r]
            hist += np.bincount(acc.ravel(), minlength=256)
        counts = [0, 0, 0]
        for s in range(ZERO):
            counts[(s + l_unit) % 3] += int(hist[s])
        return counts, int(hist[ZERO:].sum())
