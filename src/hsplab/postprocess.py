"""Classical post-processing of phase-estimation outcomes.

Everything here is exact integer arithmetic (fractions.Fraction); no floats
cross this module's boundary.  The continued-fraction convergents of x/N
are the best rational approximations of the second kind, so any fraction
k/r with |x/N - k/r| < 1/(2*r^2) and r below the caller's bound appears
among them — that is the uniqueness guarantee order finding leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class ConvergentList:
    """Convergents of x/N, in order of (strictly increasing) denominator.

    Each entry is in lowest terms; the last one equals x/N exactly.  When
    x/N > 1/2 the degenerate leading 0/1 is dropped in favor of the equal-
    denominator convergent 1/1, keeping denominators strictly increasing.
    """

    x: int
    n: int
    convergents: tuple[Fraction, ...]


def continued_fractions(x: int, n: int) -> ConvergentList:
    """Convergents of x/N from the Euclidean coefficient expansion."""
    x, n = int(x), int(n)
    if n < 1:
        raise ValueError("denominator must be >= 1")
    if not 0 <= x <= n:
        raise ValueError("need 0 <= x <= N")
    coeffs = []
    a, b = x, n
    while b:
        coeffs.append(a // b)
        a, b = b, a % b
    # p/q recurrences; p_{-1}/q_{-1} = 1/0, p_0/q_0 = a_0/1.
    convergents: list[Fraction] = []
    p_prev, q_prev = 1, 0
    p, q = coeffs[0], 1
    convergents.append(Fraction(p, q))
    for c in coeffs[1:]:
        p, p_prev = c * p + p_prev, p
        q, q_prev = c * q + q_prev, q
        if q == q_prev:  # only at 0/1 followed by 1/1; keep the better one
            convergents.pop()
        convergents.append(Fraction(p, q))
    return ConvergentList(x=x, n=n, convergents=tuple(convergents))


def best_denominator_bounded(x: int, n: int, bound: int) -> Fraction:
    """The convergent of x/N with the largest denominator <= bound.

    Any k/r with r <= bound and |x/N - k/r| < 1/(2*bound^2) is recovered
    uniquely this way.  The leading convergent has denominator 1, so the
    result always exists for bound >= 1.
    """
    if bound < 1:
        raise ValueError("denominator bound must be >= 1")
    best = None
    for c in continued_fractions(x, n).convergents:
        if c.denominator <= bound:
            best = c
        else:
            break
    assert best is not None  # denominator-1 convergent always qualifies
    return best
