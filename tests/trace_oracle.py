"""c_n, the sum of the fiber traces over P^1(F_{p^n}), from a table of the six
closed-form traces: the oracle of `function_field.character_sum` through
c_{e n} = 2 Re(alpha^n S_n).

It shares the roots of k with the library, and nothing else: the classes
come from the class table of all of F_{p^n} (`zech_oracle.ZechLog`, with the
field's own generator, no norm and no Zech logarithm), and the traces from
`trace` (q + 1 - `elliptic.count_points`: Gauss's formula for the fiber's own
Weierstrass model), one per class of -432 k(t)^2 mod 6, with no cubic
character and no alpha.
"""

from twocubes.elliptic import count_points
from twocubes.exact import FiniteField
from twocubes.function_field import LFunctionError, _roots_mod_p, good_prime
from zech_oracle import ZechLog


def trace(field: FiniteField, A) -> int:
    """The trace of Frobenius on v^2 = u^3 + A over the field."""
    return field.q + 1 - count_points(field, A)


def fiber_trace_sum(curve, p: int, n: int) -> int:
    """c_n; additive fibers give 0, and over q = 2 mod 3 every good fiber is
    supersingular, so the sum is 0 without counting.  Otherwise the fiber over
    t has trace traces[log(-432 k(t)^2) mod 6], traces[j] = trace(field, g^j),
    and one cube-class sweep counts the fibers of each class.  The fiber at
    infinity is good exactly when 3 divides deg k, with A = -432 lc(k)^2."""
    if not good_prime(curve, p):
        raise LFunctionError(f"{p} is not a good prime for the family")
    field = FiniteField(p, n)
    if field.q % 3 == 2:
        return 0
    k = [int(c) % p for c in curve.k.coeffs]
    roots = _roots_mod_p(k, field)
    engine = ZechLog(field)
    traces = [trace(field, engine.g**j) for j in range(6)]
    unit = field(k[-1])
    counts, n_bad = engine.cube_class_counts(unit, roots)
    if n_bad != len(roots):
        raise LFunctionError("repeated roots of k in the counting field")
    l432 = engine.sextic_class(field(-432 % p))
    c_n = sum(counts[j] * traces[(l432 + 2 * j) % 6] for j in range(3))
    if (len(k) - 1) % 3 == 0:
        c_n += traces[engine.sextic_class(field(-432) * unit * unit)]
    return c_n
