"""Every resource cap, and the one refusal of a value above its cap: check_cap
raises BudgetError once per call, before the work the cap bounds.  This module
imports nothing, so a refusal never loads numpy.  Times are from a 2-vCPU host.
"""


class BudgetError(ValueError):
    pass


def check_cap(what: str, value: int, cap: int, shown: object = None) -> None:
    """Refuse value > cap as "<what> <value> exceeds the cap <cap>", the value
    written as shown when that is given (a power such as 29^6)."""
    if value > cap:
        raise BudgetError(f"{what} {value if shown is None else shown} exceeds the cap {cap}")


# taxicab at the cap: about 0.2 s; it sorts the sums in windows of about 4096
# pairs, which keep its traced peak near 0.9 MiB and add 2 MB to 17 MB peak RSS
MAX_TAXICAB_BOUND = 10**9
MAX_NEARMISS_COUNT = 2000  # about 0.2 s, half of it start-up; term n has O(n) digits
MAX_TWIST_RANGE = 10**4  # t values in one twists table
MAX_PRIME_BUDGET = 1000  # primes tried per twist certificate
# ec count: the search for the modulus of F_{p^n} dominates; the slowest of 40
# fields found within both caps (n = 16, p just below 2^32) took about 0.5 s
MAX_EC_DEGREE = 16
MAX_EC_FIELD_BITS = 512

# Digits in one number read as text (--k, ec count --a, ec map --d/--x/--y),
# numerator and denominator together, checked before int() or Fraction().
# Every number ec map prints (-432 d^2, u, v) then has at most 3003 digits,
# within Python's 4300-digit limit on int-to-str.
MAX_LITERAL_DIGITS = 1000

MAX_PARSED_DEGREE = 64  # bounds the work a --k polynomial can ask for
MAX_PARSED_NESTING = 100  # parentheses; each level takes five Python frames
# Bits of the cleared numerators and the common denominator of every value
# formed while a --k is parsed.  A factor over Z of a k of degree at most 6
# has at most 6 bits more, so `surface analyze` prints at most 2470 digits
# per number, and classifies a k of degree 6 at the cap in about 0.3 s.
MAX_PARSED_HEIGHT = 8192
# Characters of the --k text, checked before it is parsed: each operator
# costs work of order degree x height, so the length bounds the parse.  The
# slowest --k found at the cap, "/3*3" repeated on a degree-64 value whose 65
# coefficients all have about 8000 bits, parses in about 0.9 s; at 16 KiB it
# took 1.9 s.  Seven coefficients at the digit cap take 7006 characters.
MAX_PARSED_LENGTH = 8192

# The sweep (exact.zechlog) counts F_q, q = Q^m, through the norm to F_Q and
# gathers about q bytes per root of k, so q bounds the work.  The L-function
# counts up to F_{p^3} at p = 1 mod 3 and up to F_{p^6} at p = 2 mod 3: the
# cap, 502 * 2^20, admits p = 787 (`ff lfunction --p 787`, about 0.8 s) and
# p = 23, and refuses p = 811 and p = 29.
MAX_COUNTING_FIELD = 502 << 20
# The sweep fills the Q - 1 powers of F_Q's generator by doubling, one n x n
# matrix product mod p per block.  For the L-function F_Q is F_B or F_{B^2},
# below 23000 elements under MAX_COUNTING_FIELD, but an S_m with m > 1 prime
# to 6 is counted over F_{B^m} itself.  This bound admits F_{13^5}, whose walk
# takes about 0.08 s (79 MB peak RSS), and F_524287, about 0.03 s, so the
# walk no longer sets it; the sweep's time and memory will.
MAX_BASE_FIELD = 1 << 19
