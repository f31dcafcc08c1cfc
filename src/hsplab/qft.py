"""The exact single-register phase-estimator distribution over Z_N for
arbitrary N, and the register size a phase-estimation guarantee needs.

Conventions:

    F_N |a> = (1/sqrt(N)) * sum_x exp(2*pi*i*a*x/N) |x>

so the matrix entry is F[x, a] = exp(2*pi*i*a*x/N)/sqrt(N) and the inverse
transform is the conjugate transpose.  Estimating a phase phi in [0, 1) with
an N-point transform yields outcome x with probability

    probs[x] = | (1/N) * sum_{y=0}^{N-1} exp(2*pi*i*(phi - x/N)*y) |^2

which this module evaluates in closed form (geometric series).  Two facts
about that distribution are load-bearing downstream: the outcome nearest phi
carries probability >= 4/pi^2, and the mass within circular distance k/N is
at least 1 - 1/(2k-1).  The dense transform the closed form is tested
against is in `tests/dense_reference.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class EstimatorDistribution:
    """Exact outcome distribution of N-point phase estimation at phase phi."""

    n: int
    phi: float
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.probs.shape != (self.n,):
            raise ValueError("probability vector must have length n")

    def to_json(self) -> dict:
        return {"n": self.n, "phi": self.phi, "probs": [float(p) for p in self.probs]}


def estimator_distribution(phi: float, n: int) -> EstimatorDistribution:
    """Closed-form estimator distribution; see the module docstring.

    The geometric series gives probs[x] = (sin(pi*n*d) / (n*sin(pi*d)))^2
    with d = phi - x/n, and the d == 0 term continues to 1.
    """
    n = int(n)
    if n < 1:
        raise ValueError("register size must be >= 1")
    phi = float(phi)
    if not 0.0 <= phi < 1.0:
        phi = phi % 1.0
    delta = phi - np.arange(n) / n
    s = np.sin(np.pi * delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.sin(np.pi * n * delta) / (n * s)
    probs = np.where(s == 0.0, 1.0, ratio**2)
    probs.setflags(write=False)
    return EstimatorDistribution(n=n, phi=phi, probs=probs)


def choose_register_size(m: int, epsilon: float) -> int:
    """Smallest register size N >= M*(1/epsilon + 1)/2 guaranteeing that a
    phase with denominator <= M is estimated within its neighborhood except
    with probability epsilon.

    The ceiling is computed exactly (epsilon converts to a binary rational);
    nothing here assumes powers of two.
    """
    m = int(m)
    if m < 1:
        raise ValueError("M must be >= 1")
    eps = Fraction(epsilon)
    if not 0 < eps < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    bound = Fraction(m) * (1 / eps + 1) / 2
    return int(math.ceil(bound))
