"""A uint8 class table of discrete logarithms mod 6 for the fiber sweeps.

Every quantity a c_n sweep needs per fiber is a discrete logarithm mod 6:
the fiber over t has trace traces[log(-432 k(t)^2) mod 6], and log k(t)
mod 3 is the sum of log(t - r) mod 6 over the roots r of k, plus the
unit's.  So one table, cls[packed(x)] = log_g(x) mod 6 with packed(x) the
base-p digit index of x and ZERO marking x = 0, holds everything: q bytes
per field, where full log tables took four times that.

The table is a homomorphism, cls(d u) = cls(d) + cls(u) mod 6, and it is
built by folding F_q^* over F_p^* = <g^e>, e = (q - 1)/(p - 1):

1. The classes of F_p^*: cls(g^(e k)) = e k mod 6 for the p - 1 powers of
   g^e.  For n = 1 this is the whole table.
2. The coset walk: g^0..g^(e-1) meet every coset of F_p^* once.  Dividing
   g^i by its top nonzero digit d, a digit-wise scaling by d^-1, lands it in
   the slab [p^j, 2 p^j) of the elements whose top digit is a 1 at
   position j, with class i - cls(d).  These slabs hold exactly e slots,
   and they are filled in place.
3. The other slabs: x in [d p^j, (d + 1) p^j) is d times the normalized
   element p^j + s(y), s the digit-wise scaling of the low digits y by
   d^-1, so cls[x] = cls[d] + cls[p^j + s(y)] mod 6.  s permutes the high
   and the low digits of y independently, so each chunk of a slab is a
   row gather and a column gather within one normalized slab, written
   sequentially.

Steps 1 and 2 walk powers block by block.  The base-p digits of h^0..h^(B-1)
are computed once; block s holds h^(s+i) = h^s h^i, and multiplication by
h^s is an F_p-linear map of the digits, so each block costs one small
integer matrix product, a reduction mod p and a scatter.  g generates F_q^*
exactly when the powers of g^e fill the p - 1 slots of F_p^* (so g^e lies
in F_p and generates F_p^*) and the coset walk sets every slot of the
normalized slabs; otherwise the build raises ArithmeticError.

The sweep counts f(t) = unit prod (t - r)^k over all t = s + mu in F_q,
mu the mean of the m roots (0 when p divides m).  Subtraction is digit-wise,
so with the table viewed as rows of high digits by columns of low digits,
the block of s - r over a run of rows is a row gather and a column gather.
Each distinct root is gathered once and its class times k taken from a
byte lookup that keeps ZERO, so a class sum holds at most one ZERO.

The sweep folds s and -s when the roots r - mu are symmetric, {-r} = {r}
as a multiset (the family's k(1 - T) = k(T) makes them so, mu = 1/2).  Then
f(mu - s) = (-1)^m f(mu + s), and -1 is a cube since q = 1 mod 6, so s and
-s have the same class mod 3.  Negation is digit-wise too: row h pairs with
row -h and (h, l) with (-h, -l).  So row 0 is swept once and, for each
position j, the rows [p^j, (p + 1)/2 p^j) of leading digit at most
(p - 1)/2 are swept and counted twice: half the gathers, the same counts.

For q = Q^3, NormLog counts the same histogram through the norm to F_Q, with
a Q x Q byte table in place of the q-byte one (its docstring gives the
identity), and folds the sweep over the Frobenius orbits of F_Q when the
roots allow it.  The table sweep serves the fields with n prime to 3, and is
the oracle of that count.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .ffield import BLOCK, BLOCK_BYTES, MAX_COUNTING_FIELD, FFElement, FiniteField, _pmod

__all__ = ["BLOCK", "BLOCK_BYTES", "MAX_COUNTING_FIELD", "ZERO", "NormLog", "ZechLog"]

ZERO = 64  # class of 0: any class sum >= ZERO has a zero factor
MAX_ROOTS = 12  # 12 * 5 < ZERO: a sum with no zero factor stays below ZERO
UNSET = 255  # a slot the build has not written


def _wrap6(x: np.ndarray) -> np.ndarray:
    """x mod 6 in place for uint8 x < 12: x - 6 wraps around to >= 250 for x < 6."""
    return np.minimum(x, x - 6, out=x)


def _add_class_counts(acc: np.ndarray, counts: list[int], weight: int) -> int:
    """Add weight times the number of class sums in acc that are j mod 3 to
    counts[j], and return weight times the number of sums >= ZERO, those with
    a zero factor.  The uint8 acc is reduced in place, with no wider copy:
    each wrap takes w off the sums >= w, so every sum below 96 ends below 3."""
    zero = acc >= ZERO
    n_zero = int(np.count_nonzero(zero))
    for w in (48, 24, 12, 6, 3):
        np.minimum(acc, acc - w, out=acc)
    if n_zero:
        acc[zero] = 3
    n1, n2 = int(np.count_nonzero(acc == 1)), int(np.count_nonzero(acc == 2))
    counts[0] += weight * (acc.size - n_zero - n1 - n2)
    counts[1] += weight * n1
    counts[2] += weight * n2
    return weight * n_zero


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
        n, p = self.n, self.p
        rows = [_pmod([0] * i + list(h.coeffs), self.field.modulus, p) for i in range(n)]
        rows = [r + [0] * (n - len(r)) for r in rows]  # h * x^i: a shift and a reduction
        out = np.empty_like(cols)
        for j in range(n):
            acc = cols[0] * rows[0][j]
            for i in range(1, n):
                acc += cols[i] * rows[i][j]
            # acc mod p as acc - (acc // p) p: numpy vectorizes a floor division
            # by a constant, several times faster than np.remainder
            np.floor_divide(acc, p, out=out[j])
            out[j] *= p
            np.subtract(acc, out[j], out=out[j])
        return out

    def _powers(self, h: FFElement, count: int, mult: int):
        """Yield (digit columns, classes) of h^0..h^(count-1) a block at a
        time, the classes being mult * k mod 6 for the power h^k."""
        n = self.n
        bound = n * (self.p - 1) ** 2  # of a digit-matrix product before reduction
        dtype = np.uint16 if bound < 1 << 16 else np.uint32 if bound < 1 << 32 else np.int64
        span = min(BLOCK // n // 6 * 6, count)  # a multiple of 6 unless it is count
        digits = np.zeros((n, span), dtype=dtype)  # digit columns of h^0..h^(span-1)
        digits[0, 0] = 1
        size = 1
        while size < span:
            m = min(size, span - size)
            digits[:, size : size + m] = self._times(h**size, digits[:, :m])
            size += m
        classes = (np.arange(span) * (mult % 6) % 6).astype(np.uint8)
        step, cur = h**span, self.field.one()
        for start in range(0, count, span):
            m = min(span, count - start)
            yield self._times(cur, digits[:, :m]), classes[:m]
            cur = cur * step

    def _build(self) -> np.ndarray:
        p, n, q = self.p, self.n, self.q
        e = (q - 1) // (p - 1)
        cls = np.full(q, UNSET, dtype=np.uint8)
        for cols, classes in self._powers(self.g**e, p - 1, e):
            cls[self._pack(cols)] = classes
        if cls[0] != UNSET or UNSET in cls[1:p]:
            raise ArithmeticError("g^((q-1)/(p-1)) does not enumerate F_p^*")
        if n > 1:
            inv = np.zeros(p, dtype=np.int64)
            inv[1:] = [pow(d, -1, p) for d in range(1, p)]
            self._walk_cosets(cls, inv, e)
            if any(UNSET in cls[p**j : 2 * p**j] for j in range(1, n)):
                raise ArithmeticError("g^0..g^((q-1)/(p-1)-1) miss a coset of F_p^*")
            for j in range(1, n):
                self._fill_slabs(cls, inv, j)
        cls[0] = ZERO
        return cls

    def _pack(self, cols: np.ndarray) -> np.ndarray:
        """Base-p indices of the elements with digit columns cols."""
        packed = cols[-1].astype(np.intp, copy=False)
        for j in range(self.n - 2, -1, -1):
            packed = packed * self.p  # a new array, so cols is left intact
            packed += cols[j]
        return packed

    def _walk_cosets(self, cls: np.ndarray, inv: np.ndarray, e: int) -> None:
        """Step 2: cls[packed(g^i / d)] = i - cls[d] for i < e, d the top
        nonzero digit of g^i."""
        p, n = self.p, self.n
        for cols, classes in self._powers(self.g, e, 1):
            top = cols[n - 1].copy()
            for j in range(n - 2, -1, -1):
                np.copyto(top, cols[j], where=top == 0)
            cols *= inv[top].astype(cols.dtype)
            cols -= cols // p * p
            packed = self._pack(cols)
            diff = cls[top]
            np.subtract(classes + 6, diff, out=diff)
            cls[packed] = _wrap6(diff)

    def _fill_slabs(self, cls: np.ndarray, inv: np.ndarray, j: int) -> None:
        """Step 3: cls[d p^j + y] = cls[d] + cls[p^j + s(y)] for 2 <= d < p,
        s the digit-wise scaling by d^-1; s maps the high and the low digits
        of y separately, so a chunk is a row gather and a column gather."""
        p, size = self.p, self.p**j
        lo = p ** ((j + 1) // 2)
        norm = cls[size : 2 * size].reshape(-1, lo)
        rows = max(1, BLOCK // lo)  # uint8 chunks of at most one block
        for d in range(2, p):
            c = int(inv[d])
            lo_map, hi_map = self._scaled(lo, c), self._scaled(size // lo, c)
            out = cls[d * size : (d + 1) * size].reshape(-1, lo)
            for r in range(0, len(hi_map), rows):
                chunk = norm[hi_map[r : r + rows]]
                chunk += cls[d]
                np.take(_wrap6(chunk), lo_map, axis=1, out=out[r : r + rows], mode="clip")

    def _scaled(self, count: int, c: int) -> np.ndarray:
        """packed(c * t) for the count = p^k elements t of index < count."""
        p = self.p
        t = np.arange(count)
        out = np.zeros(count, dtype=np.int64)
        w = 1
        while w < count:
            out += t // w % p * c % p * w
            w *= p
        return out

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
        field, p, n = self.field, self.p, self.n
        half = n // 2
        lo_size, hi_size = p**half, p ** (n - half)
        roots = [field.element(r) for r in roots]
        m = len(roots)
        mean = sum(roots, field.zero()) / m if m % p else field.zero()
        mult = Counter(r - mean for r in roots)  # the roots in s = t - mean
        if all(mult[-r] == k for r, k in mult.items()):
            # row 0, then each row h != 0 of leading digit <= (p - 1)/2 for itself and -h
            spans = [(0, 1, 1)] + [(p**j, (p + 1) // 2 * p**j, 2) for j in range(n - half)]
        else:
            spans = [(0, hi_size, 1)]
        times = np.full((MAX_ROOTS + 1, 256), ZERO, dtype=np.uint8)  # k * class mod 6
        times[:, :6] = np.arange(MAX_ROOTS + 1)[:, None] * np.arange(6) % 6
        gathers = [(r.coeffs[half:], self._shifted(np.arange(lo_size), r.coeffs[:half]), k)
                   for r, k in mult.items()]
        table = self.cls.reshape(hi_size, lo_size)
        rows = max(1, BLOCK // lo_size)
        hist, zeros = [0, 0, 0], 0  # by the class of prod (t - r)^k, then the unit's added
        for start, stop, weight in spans:
            for a in range(start, stop, rows):
                h = np.arange(a, min(a + rows, stop))
                acc = np.zeros((len(h), lo_size), dtype=np.uint8)
                for hi_r, lo_r, k in gathers:
                    block = np.take(table[self._shifted(h, hi_r)], lo_r, axis=1, mode="clip")
                    acc += block if k == 1 else np.take(times[k], block, out=block)
                zeros += _add_class_counts(acc, hist, weight)
        return [hist[(j - l_unit) % 3] for j in range(3)], zeros


class NormLog:
    """Cube and sextic classes over F_q, q = Q^3 = 1 mod 6, through the norm
    N(x) = x^E to F_Q, E = (q - 1)/(Q - 1): a Q x Q table in place of q bytes.

    With g the generator of F_q^* and h = g^E, N(g^k) = h^k, so log_g x =
    log_h N(x) mod Q - 1, and 6 divides Q - 1.  For t = a + u, a = Tr(t)/3
    in F_Q and Tr(u) = 0, and a root r in F_Q, N(t - r) = -(v^3 + sigma v -
    nu) with v = r - a and X^3 + sigma X - nu the characteristic polynomial
    of u over F_Q.  That polynomial is irreducible, and then has 3 roots u,
    or it is X^3 and u = 0: an element of F_q has degree 1 or 3 over F_Q.
    So the histogram of log f(t) mod 3 over F_q is a sum over (a, sigma, nu)
    in F_Q^3 with weight 3 where X^3 + sigma X - nu has no root in F_Q, and
    the Q points t = a in F_Q, where prod (a - r)^k lies in F_Q and is a cube,
    so f(a) has the unit's class or is 0.

    Elements of F_Q are coded by their h-logs, and 0 by Q - 1.  The Zech
    logarithm zm[k] = code(1 - h^k) gives D[w][nu] = log_h(w - nu) mod 3 =
    w + zm[nu - w] mod 3, ZERO on the diagonal (-1 = h^((Q-1)/2) is a cube),
    and code(v^3 + sigma v) = 3v + zm[sigma - 2v + (Q-1)/2].  For each sigma
    the sweep gathers the rows D[v_r^3 + sigma v_r], v_r = r - a, of the
    columns nu outside the image of v -> v^3 + sigma v.
    """

    def __init__(self, field: FiniteField):
        if field.q % 6 != 1 or field.n % 3:
            raise ValueError(f"q = {field.q} is not Q^3 with Q = 1 mod 6")
        if field.q > MAX_COUNTING_FIELD:
            raise ValueError(f"q = {field.q} exceeds the class-table budget")
        self.field = field
        self.q = field.q
        self.Q = Q = field.p ** (field.n // 3)
        self.g = field.generator()
        h, x = self.g ** ((self.q - 1) // (Q - 1)), field.one()
        self.powers = []  # h^0..h^(Q-2): F_Q^* in code order
        for _ in range(Q - 1):
            self.powers.append(x)
            x = x * h
        self.log = {y.coeffs: k for k, y in enumerate(self.powers)}
        if x != 1 or len(self.log) != Q - 1:
            raise ArithmeticError("g^((q-1)/(Q-1)) does not have order Q - 1")
        self.zm = np.array([self._code(1 - y) for y in self.powers], dtype=np.int32)
        k = np.arange(Q - 1, dtype=np.int32)
        D = np.empty((Q, Q), dtype=np.uint8)
        D[:-1, :-1] = (k[:, None] + self.zm[(k[None, :] - k[:, None]) % (Q - 1)]) % 3
        D[:-1, -1] = D[-1, :-1] = k % 3  # w - 0 = w, and 0 - nu = -nu
        np.fill_diagonal(D, ZERO)
        self.D = D

    def _code(self, x: FFElement) -> int:
        """log_h x for x in F_Q^*, and Q - 1 for x = 0."""
        if x.is_zero():
            return self.Q - 1
        k = self.log.get(self.field.element(x).coeffs)
        if k is None:
            raise ValueError(f"{x} has no h-log: it lies outside F_{self.Q}")
        return k

    def sextic_class(self, a: FFElement) -> int:
        """log_g(a) mod 6 for nonzero a: log_h N(a) mod 6, which is E log_h a
        for a in F_Q."""
        a = self.field.element(a)
        if a.is_zero():
            raise ValueError("class of zero")
        return self._code(a ** ((self.q - 1) // (self.Q - 1))) % 6

    def cube_class_counts(self, unit: FFElement, roots: list[FFElement]) -> tuple[list[int], int]:
        """Histogram of log(f(t)) mod 3 over all t in F_q for f = unit * prod (t - root),
        every root in F_Q.

        Frobenius sigma -> sigma^p is code -> p code mod Q - 1, and t -> t^p
        maps the t of sigma onto those of sigma^p.  When the roots are
        Frobenius-stable as a multiset, P = prod (t - r)^k has coefficients in
        F_p, so P(t^p) = P(t)^p has p times the class of P(t).  Then one sigma
        per orbit is swept, and member i of the orbit adds its histogram
        with the classes multiplied by p^i mod 3.

        Returns ([N_0, N_1, N_2], number of t with f(t) = 0).
        """
        if len(roots) > MAX_ROOTS:
            raise ValueError(f"at most {MAX_ROOTS} roots")
        Q1, p = self.Q - 1, self.field.p
        mult = Counter(self._code(self.field.element(r)) for r in roots)
        rows = [(self._row(c), k % 3) for c, k in mult.items()]

        def frob(c: int) -> int:
            return c if c == Q1 else c * p % Q1

        stable = Counter({frob(c): k for c, k in mult.items()}) == mult
        hist, zeros = [0, 0, 0], len(mult)
        for sigma in range(self.Q):
            orbit = [sigma]
            while stable and frob(orbit[-1]) != sigma:
                orbit.append(frob(orbit[-1]))
            if min(orbit) < sigma:
                continue
            (n0, n1, n2), n_zero = self._slice_counts(sigma, rows)
            swapped = sum(pow(p, j, 3) == 2 for j in range(len(orbit)))
            plain = len(orbit) - swapped
            hist[0] += len(orbit) * n0
            hist[1] += plain * n1 + swapped * n2
            hist[2] += plain * n2 + swapped * n1
            zeros += len(orbit) * n_zero
        hist[0] += self.Q - len(mult)  # t = a in F_Q, not a root
        l_unit = self.sextic_class(unit)
        return [hist[(j - l_unit) % 3] for j in range(3)], zeros

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

    def _slice_counts(self, sigma: int, rows) -> tuple[list[int], int]:
        """The histogram of prod (t - r)^k, weight 3, over the t = a + u whose
        u has X^3 + sigma X - nu as characteristic polynomial, for every a
        and every nu outside the image of v -> v^3 + sigma v; sigma by code."""
        Q1 = self.Q - 1
        w = np.full(self.Q, Q1)  # code(v^3 + sigma v) by the code of v; v = 0 gives 0
        v = np.arange(Q1)
        if sigma == Q1:
            w[:Q1] = 3 * v % Q1
        else:
            z = self.zm[(Q1 // 2 - 2 * v + sigma) % Q1]
            w[:Q1] = np.where(z == Q1, Q1, (3 * v + z) % Q1)
        free = np.ones(self.Q, dtype=bool)
        free[w] = False  # nu = v^3 + sigma v: X^3 + sigma X - nu has the root v
        cols = self.D[:, free]
        acc = np.zeros(cols.shape, dtype=np.uint8)
        for row, k in rows:
            if k:
                block = np.take(cols, w[row], axis=0)
                acc += block if k == 1 else block * 2
        counts = [0, 0, 0]
        return counts, _add_class_counts(acc, counts, 3)
