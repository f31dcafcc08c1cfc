"""Classical post-processing of phase-estimation outcomes.

The continued-fraction convergents of x/N are the best rational
approximations of the second kind, so any fraction k/r with
|x/N - k/r| < 1/(2*r^2) and r below the caller's bound appears among them —
that is the uniqueness guarantee order finding leans on.  The Euclidean
expansion and the p/q recurrence run in plain ints, and the one result is a
fractions.Fraction; no floats cross this module's boundary.
"""

from __future__ import annotations

from fractions import Fraction


def best_denominator_bounded(x: int, n: int, bound: int) -> Fraction:
    """The convergent of x/N with the largest denominator <= bound.

    Any k/r with r <= bound and |x/N - k/r| < 1/(2*bound^2) is recovered
    uniquely this way.  The leading convergent has denominator 1, so the
    result always exists for bound >= 1.  Denominators strictly increase
    except when x/N > 1/2, where 0/1 is followed by 1/1, the better of the
    two; the walk stops at the first denominator above the bound.
    """
    if bound < 1:
        raise ValueError("denominator bound must be >= 1")
    x, n = int(x), int(n)
    if n < 1:
        raise ValueError("denominator must be >= 1")
    if not 0 <= x <= n:
        raise ValueError("need 0 <= x <= N")
    # p/q recurrence from p_{-2}/q_{-2} = 0/1 and p_{-1}/q_{-1} = 1/0, fed
    # the coefficients of Euclid's algorithm on x/N
    p_prev, q_prev, p, q = 0, 1, 1, 0
    a, b = x, n
    while b:
        c, a, b = a // b, b, a % b
        if c * q + q_prev > bound:
            break
        p, p_prev = c * p + p_prev, p
        q, q_prev = c * q + q_prev, q
    return Fraction(p, q)
