"""The class table of F_q: the oracle of the norm sweep of `exact.zechlog`.

cls[packed(x)] = log_g(x) mod 6 for a generator g of F_q^*, q = p^n = 1
mod 6, with packed(x) the base-p digit index of x and ZERO marking x = 0:
q bytes per field.  It shares nothing with the norm sweep but the field
arithmetic: it builds all of F_q with its own generator and reads no Zech
logarithm and no norm.

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
"""

from collections import Counter

import numpy as np

from twocubes.budget import MAX_COUNTING_FIELD
from twocubes.exact.ffield import FFElement, FiniteField, _pmod

BLOCK = 1 << 18  # int64 words in one block array of the build or the sweep
BLOCK_BYTES = 5 * 8 * BLOCK  # no more than five such arrays live at once

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


def over_extension(sub: FiniteField, m: int):
    """(z, embed, swapped): the class table z of F_{Q^m}, Q = sub.q, the
    embedding of F_Q = sub into that field, and whether the table's classes
    are those of the norm sweep over sub with 1 and 2 swapped.

    The norm sweep reads log_h N(x) mod 3 for sub's generator h, and the
    table log_g x = log_(g^E) N(x) mod 3, E = (Q^m - 1)/(Q - 1).  g^E = h'^j
    for the image h' of h, so the two agree or differ by the swap as j is
    1 or 2 mod 3.  The embedding sends sub's x to a root of sub's modulus,
    found among the powers of g^E, which are F_Q^*.
    """
    big = FiniteField(sub.p, sub.n * m)
    z = ZechLog(big)
    gE = z.g ** ((big.q - 1) // (sub.q - 1))
    if sub.n == 1:
        theta = big.zero()  # unused: the elements of F_p are constants
    else:
        theta, y = None, big.one()
        while theta is None:
            y = y * gE
            value = big.zero()
            for c in reversed(sub.modulus):
                value = value * y + c
            theta = y if value.is_zero() else None

    def embed(x: FFElement) -> FFElement:
        out = big.zero()
        for c in reversed(sub.element(x).coeffs):
            out = out * theta + c
        return out

    cube = (sub.q - 1) // 3
    swapped = embed(sub.generator()) ** cube != gE**cube
    return z, embed, swapped
