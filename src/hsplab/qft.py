"""Discrete Fourier transforms over Z_N for arbitrary N, and the exact
single-register phase-estimator distribution.

Conventions:

    F_N |a> = (1/sqrt(N)) * sum_x exp(2*pi*i*a*x/N) |x>

so the matrix entry is F[x, a] = exp(2*pi*i*a*x/N)/sqrt(N) and the inverse
transform is the conjugate transpose.  Estimating a phase phi in [0, 1) with
an N-point transform yields outcome x with probability

    probs[x] = | (1/N) * sum_{y=0}^{N-1} exp(2*pi*i*(phi - x/N)*y) |^2

which this module evaluates in closed form (geometric series).  Two facts
about that distribution are load-bearing downstream: the outcome nearest phi
carries probability >= 4/pi^2, and the mass within circular distance k/N is
at least 1 - 1/(2k-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .amplitudes import QuantumState, from_amplitudes

DISTRIBUTION_TOL = 1e-12
CLOSEST_LOWER_BOUND = 4.0 / math.pi**2


@lru_cache(maxsize=16)
def _fourier_cached(n: int) -> np.ndarray:
    grid = np.outer(np.arange(n), np.arange(n))
    mat = np.exp(2j * np.pi * grid / n) / np.sqrt(n)
    mat.setflags(write=False)
    return mat


def fourier(n: int) -> np.ndarray:
    """Dense N-point transform matrix (read-only; cached)."""
    n = int(n)
    if n < 1:
        raise ValueError("transform size must be >= 1")
    return _fourier_cached(n)


def inverse_fourier(n: int) -> np.ndarray:
    mat = fourier(n).conj().T.copy()
    mat.setflags(write=False)
    return mat


def apply_fourier(state: QuantumState, register: int, inverse: bool = False) -> QuantumState:
    """Apply F_N (or its inverse) to one register via an FFT fast path.

    Equivalent to apply_on_register with the dense matrix but O(N log N);
    numpy's "ortho" normalization matches the 1/sqrt(N) convention, with
    ifft carrying the +2*pi*i sign of the forward transform here.
    """
    dims = state.layout.dims
    if not 0 <= register < len(dims):
        raise ValueError(f"no register {register} in layout {dims}")
    tensor_view = state.amplitudes.reshape(dims)
    if inverse:
        out = np.fft.fft(tensor_view, axis=register, norm="ortho")
    else:
        out = np.fft.ifft(tensor_view, axis=register, norm="ortho")
    return from_amplitudes(state.layout, out.reshape(-1))


def circular_distance(a: float, b: float = 0.0) -> float:
    """Distance between a and b on the unit circle R/Z."""
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


@dataclass(frozen=True)
class EstimatorDistribution:
    """Exact outcome distribution of N-point phase estimation at phase phi."""

    n: int
    phi: float
    probs: np.ndarray

    def __post_init__(self) -> None:
        if self.probs.shape != (self.n,):
            raise ValueError("probability vector must have length n")

    def closest_outcome(self) -> int:
        """Outcome x minimizing circular |x/n - phi| (ties to smaller x)."""
        xs = np.arange(self.n)
        dist = np.abs((self.phi - xs / self.n + 0.5) % 1.0 - 0.5)
        return int(np.argmin(dist))  # argmin takes the first (smallest x) on ties

    def closest_probability(self) -> float:
        return float(self.probs[self.closest_outcome()])

    def mass_within(self, k: int) -> float:
        """Total probability of outcomes within circular distance k/n of phi."""
        if k < 1:
            raise ValueError("k must be >= 1")
        xs = np.arange(self.n)
        dist = np.abs((self.phi - xs / self.n + 0.5) % 1.0 - 0.5)
        return float(self.probs[dist * self.n <= k + 1e-9].sum())

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
