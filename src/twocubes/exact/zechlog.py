"""Cube classes over F_{Q^m}, m = 1, 2, 3, counted through the norm to F_Q.

The sweeps count f(t) = unit prod (t - r)^k over every t in F_q, q = Q^m,
with every root r and the unit in F_Q and Q = 1 mod 6.  The class of x in
F_q^* is log_h N(x) mod 3, h the generator of F_Q^* and N(x) = x^E,
E = (q - 1)/(Q - 1), the norm: it is log_g x mod 3 for any generator g of
F_q^* with N(g) = h, since N(g^k) = h^k (Ireland-Rosen ch. 8 and 11).  So
only F_Q is built, and only F_Q's logarithms are read.  An element of F_q
has degree 1 or m over F_Q (m is 1, 2 or 3), which splits the sweep:

- The Q points t = a of F_Q: N(a - r) = (a - r)^m, of class m code(a - r).
- For m = 2, t = a + u with a = Tr(t)/2 and u^2 = delta a non-square of F_Q:
  N(t - r) = (a - r)^2 - delta, two t per (a, delta).
- For m = 3, t = a + u with a = Tr(t)/3 and X^3 + sigma X - nu the
  characteristic polynomial of u, irreducible: N(t - r) = -(v^3 + sigma v
  - nu) with v = r - a, three t per (a, sigma, nu).

Each case of degree m is a sum over slices: for m = 2 one slice, for m = 3
one per sigma.  A slice maps the code of v = r - a to the code w of
v^2 or v^3 + sigma v, and its free columns are the nu that t can reach: the
non-squares, or the nu outside the image of v -> v^3 + sigma v.

Elements of F_Q are coded by their h-logs, and 0 by Q - 1.  The Zech
logarithm zm[k] = code(1 - h^k) gives every class a slice reads:
log_h(h^w - h^nu) = w + zm[nu - w] for w, nu < Q - 1, and log_h(0 - h^nu) =
nu + (Q - 1)/2, where 3 divides (Q - 1)/2.  So the Q x Q table of
log_h(w - nu) mod 3 is circulant: its rows are cyclic shifts of zm mod 3.  A
sliding window over that row laid out twice holds every shift with no
table.  Each slice selects its free columns once: for m = 3 a copy of those
columns of the window (Q^3 within MAX_COUNTING_FIELD keeps it below Q^2 <
0.7 MB), for m = 2 the window over the odd half of the row, the
non-squares, with no copy.  Each root then gathers one row of that
table per a.  A free nu never equals w (it is a non-square, or outside the
image), so no slice meets a zero; the zeros of f are the roots.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..budget import MAX_COUNTING_FIELD, check_cap
from .ffield import FFElement, FiniteField

__all__ = ["NormLog"]

BLOCK = 1 << 18  # uint8 class sums in one block of the sweep
MAX_ROOTS = 12  # 12 distinct roots * 2 * 2 + 2 < 96: a class sum stays within _add_class_counts


def _add_class_counts(acc: np.ndarray, counts: list[int]) -> None:
    """Add the number of class sums in acc that are j mod 3 to counts[j].  The
    uint8 acc, all below 96, is reduced in place: each wrap takes w off the
    sums >= w, so every sum ends below 3."""
    for w in (48, 24, 12, 6, 3):
        np.minimum(acc, acc - w, out=acc)
    n1, n2 = int(np.count_nonzero(acc == 1)), int(np.count_nonzero(acc == 2))
    counts[0] += acc.size - n1 - n2
    counts[1] += n1
    counts[2] += n2


class NormLog:
    """The Zech logarithms of F_Q, Q = 1 mod 6, for its generator h, and the
    cube-class sweep over F_{Q^m} that reads them."""

    def __init__(self, field: FiniteField):
        if field.q % 6 != 1:
            raise ValueError(f"Q = {field.q} is not 1 mod 6")
        self.field = field
        self.Q = Q = field.q
        self.h = h = field.generator()
        digits = np.zeros((Q - 1, field.n), dtype=np.int64)  # h^0..h^(Q-2) by base-p digit
        digits[0, 0] = 1
        size, x = 1, field.x()
        while size < Q - 1:  # block [s, 2s) is block [0, s) times h^s; row i of times is h^s x^i
            m, hs = min(size, Q - 1 - size), h**size
            times = np.array([(hs * x**i).coeffs for i in range(field.n)], dtype=np.int64)
            digits[size : size + m] = digits[:m] @ times % field.p
            size += m
        weights = field.p ** np.arange(field.n, dtype=np.int64)
        code = np.full(Q, -1, dtype=np.int64)
        code[digits @ weights] = np.arange(Q - 1)
        if np.count_nonzero(code < 0) != 1:  # Q - 1 distinct powers, so none is 0
            raise ArithmeticError("h does not have order Q - 1")
        code[0] = Q - 1
        self.code = code  # code by the base-p index of an element
        digits = -digits % field.p
        digits[:, 0] = (digits[:, 0] + 1) % field.p  # 1 - h^k
        self.zm = code[digits @ weights]
        row = (self.zm % 3).astype(np.uint8)
        self.windows = sliding_window_view(np.concatenate([row, row]), Q - 1)[: Q - 1]

    def _code(self, x: FFElement) -> int:
        """log_h x for x in F_Q^*, and Q - 1 for x = 0."""
        return int(self.code[self.field.element(x).to_index()])

    def cube_class(self, a: FFElement, m: int) -> int:
        """The class of a in F_{Q^m}^* for a in F_Q^*: log_h N(a) = m log_h a mod 3."""
        c = self._code(a)
        if c == self.Q - 1:
            raise ValueError("class of zero")
        return m * c % 3

    def cube_class_counts(self, m: int, unit: FFElement, roots: list[FFElement]) -> tuple[list[int], int]:
        """Histogram of the class of f(t) over all t in F_{Q^m} for f = unit *
        prod (t - root), the unit and every root in F_Q.

        For m = 3, Frobenius sigma -> sigma^p is code -> p code mod Q - 1, and
        t -> t^p maps the t of sigma onto those of sigma^p.  When the roots are
        Frobenius-stable as a multiset, P = prod (t - r)^k has coefficients in
        F_p, so P(t^p) = P(t)^p has p times the class of P(t).  Then one sigma
        per orbit is swept, and member i of the orbit adds its histogram
        with the classes multiplied by p^i mod 3.

        Returns ([N_0, N_1, N_2], number of t with f(t) = 0).
        """
        if m not in (1, 2, 3):
            raise ValueError(f"m = {m}: only F_Q, F_Q^2 and F_Q^3 are counted")
        check_cap("counting q =", self.Q**m, MAX_COUNTING_FIELD)
        if len(roots) > MAX_ROOTS:
            raise ValueError(f"at most {MAX_ROOTS} roots")
        Q1, p = self.Q - 1, self.field.p
        mult = Counter(self._code(r) for r in roots)
        rows = [(self._row(c), k % 3) for c, k in mult.items()]
        at_root = np.zeros(self.Q, dtype=bool)
        classes = np.zeros(self.Q, dtype=np.int64)  # of prod (a - r)^k by the code of a
        for row, k in rows:
            at_root |= row == Q1
            classes += k * row
        hist = np.bincount(m * classes[~at_root] % 3, minlength=3).tolist()
        if m == 2:
            for j, n in enumerate(self._square_slice(rows)):
                hist[j] += 2 * n
        elif m == 3:

            def frob(c: int) -> int:
                return c if c == Q1 else c * p % Q1

            stable = Counter({frob(c): k for c, k in mult.items()}) == mult
            for sigma in range(self.Q):
                orbit = [sigma]
                while stable and frob(orbit[-1]) != sigma:
                    orbit.append(frob(orbit[-1]))
                if min(orbit) < sigma:
                    continue
                n0, n1, n2 = self._cubic_slice(sigma, rows)
                swapped = sum(pow(p, j, 3) == 2 for j in range(len(orbit)))
                plain = len(orbit) - swapped
                hist[0] += 3 * len(orbit) * n0
                hist[1] += 3 * (plain * n1 + swapped * n2)
                hist[2] += 3 * (plain * n2 + swapped * n1)
        l_unit = self.cube_class(unit, m)
        return [hist[(j - l_unit) % 3] for j in range(3)], len(mult)

    def _row(self, c: int) -> np.ndarray:
        """code(r - a) by the code of a, for the r of code c, read off the Zech
        logarithms: r - h^i = h^c (1 - h^(i - c)), of code c + zm[i - c] or
        Q - 1 at i = c; r - 0 = r; and for r = 0, -h^i = h^(i + (Q-1)/2)."""
        Q1 = self.Q - 1
        i = np.arange(Q1)
        if c == Q1:
            row = (i + Q1 // 2) % Q1
        else:
            z = self.zm[(i - c) % Q1]
            row = np.where(z == Q1, Q1, (c + z) % Q1)
        return np.append(row, c)

    def _cubic_slice(self, sigma: int, rows) -> list[int]:
        """The slice of m = 3 for sigma, by code: w = code(v^3 + sigma v) =
        3v + zm[sigma - 2v + (Q-1)/2] by the code of v (0 at v = 0), and the
        free nu, those with no root v of X^3 + sigma X - nu, whose columns of
        the window are copied once."""
        Q1 = self.Q - 1
        w = np.full(self.Q, Q1)
        v = np.arange(Q1)
        if sigma == Q1:
            w[:Q1] = 3 * v % Q1
        else:
            z = self.zm[(Q1 // 2 - 2 * v + sigma) % Q1]
            w[:Q1] = np.where(z == Q1, Q1, (3 * v + z) % Q1)
        free = np.ones(self.Q, dtype=bool)
        free[w] = False  # nu = 0 is the image of v = 0, so never free
        nu = np.flatnonzero(free)
        table = np.ascontiguousarray(self.windows[:, nu])  # row s: zm[s + nu] mod 3
        return self._slice_counts(table, nu, w, -w % Q1, rows)

    def _square_slice(self, rows) -> list[int]:
        """The slice of m = 2: w = code(v^2) = 2v mod Q - 1 by the code of v, and
        the free nu = 2j + 1, the non-squares.  Then zm[nu - w] = zm[2(j - v) + 1], so
        the table is the window over the odd half of the Zech row, shifted by
        -v: half the row, read with no copy."""
        Q1, half = self.Q - 1, (self.Q - 1) // 2
        v = np.arange(Q1)
        odd = self.windows[0, 1::2]  # zm[2j + 1] mod 3
        table = sliding_window_view(np.concatenate([odd, odd]), half)[:half]
        w, shift = np.append(2 * v % Q1, Q1), np.append(-v % half, 0)
        return self._slice_counts(table, 2 * np.arange(half) + 1, w, shift, rows)

    def _slice_counts(self, table: np.ndarray, nu: np.ndarray, w: np.ndarray, shift: np.ndarray,
                      rows) -> list[int]:
        """The histogram of prod (w_r(a) - nu)^k over every a in F_Q and every
        free nu, with w_r(a) = w[code(r - a)]: per root, row a of a block is
        row shift[code(r - a)] of the table, the zm[nu - w_r(a)] mod 3 of the
        free nu, or nu mod 3 where w_r(a) is the code of 0, and the
        w_r(a) mod 3 are added once per slice."""
        Q1 = self.Q - 1
        nu = (nu % 3).astype(np.uint8)
        offset = np.zeros(self.Q, dtype=np.int64)
        gathers = []
        for row, k in rows:
            if k:
                wr = w[row]
                gathers.append((shift[row], wr == Q1, k))
                offset += k * wr
        offset = (offset % 3).astype(np.uint8)
        counts = [0, 0, 0]
        step = max(1, BLOCK // len(nu))
        for lo in range(0, self.Q, step):
            a = slice(lo, lo + step)
            acc = np.repeat(offset[a, None], len(nu), axis=1)
            for s, zero, k in gathers:
                block = table[s[a]]
                block[zero[a]] = nu
                acc += block
                if k == 2:
                    acc += block
            _add_class_counts(acc, counts)
        return counts
