"""Fourier transforms over Z_N for arbitrary N (the dense reference in
`dense_reference`), and the package's estimator distributions.

Closed-form estimator probabilities are cross-checked against a literal
matrix-vector oracle: build the phase state, hit it with the dense inverse
transform, and square the amplitudes.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hsplab.amplitudes import RegisterLayout
from hsplab.qft import choose_register_size, estimator_distribution
from dense_reference import (
    CLOSEST_LOWER_BOUND,
    apply_fourier,
    basis_state,
    circular_distance,
    fourier,
    from_amplitudes,
    inverse_fourier,
)

FOUR_OVER_PI_SQ = 4 / math.pi**2


def brute_force_estimator(phi: float, n: int) -> np.ndarray:
    """Independent oracle: |<x| F_N^{-1} |phase(phi)>|^2 by dense algebra."""
    ys = np.arange(n)
    phase_state = np.exp(2j * np.pi * phi * ys) / np.sqrt(n)
    out = inverse_fourier(n) @ phase_state
    return np.abs(out) ** 2


def test_fourier_n2_is_hadamard():
    assert_allclose(fourier(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 100])
def test_fourier_zero_column_uniform(n):
    col = fourier(n)[:, 0]
    assert_allclose(col, np.full(n, 1 / np.sqrt(n)), atol=1e-12)


def test_fourier_n4_on_one():
    assert_allclose(fourier(4)[:, 1], np.array([1, 1j, -1, -1j]) / 2, atol=1e-12)


@pytest.mark.parametrize("n", list(range(1, 65)) + [100, 128, 257, 512])
def test_fourier_columns_orthonormal(n):
    mat = fourier(n)
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(n))) < 1e-9


def test_inverse_round_trip():
    s = basis_state(RegisterLayout.of([8]), [3])
    out = apply_fourier(apply_fourier(s, 0), 0, inverse=True)
    assert_allclose(out.amplitudes, s.amplitudes, atol=1e-12)


def test_inverse_recovers_frequency_label():
    n, a = 12, 5
    ys = np.arange(n)
    phase = np.exp(2j * np.pi * a * ys / n) / np.sqrt(n)
    s = from_amplitudes(RegisterLayout.of([n]), phase)
    out = apply_fourier(s, 0, inverse=True)
    assert_allclose(out.amplitudes, basis_state(RegisterLayout.of([n]), [a]).amplitudes, atol=1e-12)


def test_apply_fourier_matches_dense_matrix():
    rng = np.random.default_rng(0)
    for n in (3, 8, 10):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        v /= np.linalg.norm(v)
        s = from_amplitudes(RegisterLayout.of([n]), v)
        fast = apply_fourier(s, 0).amplitudes
        assert_allclose(fast, fourier(n) @ v, atol=1e-12)


def test_estimator_exact_phase_point_mass():
    dist = estimator_distribution(5 / 8, 8)
    expected = np.zeros(8)
    expected[5] = 1.0
    assert_allclose(dist.probs, expected, atol=1e-12)


def test_estimator_matches_brute_force_dft():
    for phi in (1 / 3, 0.123456, 0.9871):
        for n in (8, 13, 100):
            assert_allclose(
                estimator_distribution(phi, n).probs,
                brute_force_estimator(phi, n),
                atol=1e-10,
            )


def test_estimator_one_third_closest_bound():
    dist = estimator_distribution(1 / 3, 8)
    assert dist.probs[3] >= FOUR_OVER_PI_SQ
    # frozen value from the brute-force oracle above
    assert dist.probs[3] == pytest.approx(0.6878376625896, abs=1e-10)


def test_estimator_within_k_mass():
    dist = estimator_distribution(1 / 3, 16)
    mass = sum(p for x, p in enumerate(dist.probs) if circular_distance(x / 16, 1 / 3) <= 2 / 16)
    assert mass >= 2 / 3


def test_estimator_sums_to_one():
    for phi, n in ((0.37, 9), (0.0, 5), (0.999, 31)):
        assert estimator_distribution(phi, n).probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_estimator_argmax_minimizes_circular_distance():
    rng = np.random.default_rng(5)
    for _ in range(40):
        phi = float(rng.random())
        n = int(rng.integers(2, 50))
        dist = estimator_distribution(phi, n)
        best = int(np.argmax(dist.probs))
        dists = [circular_distance(x / n, phi) for x in range(n)]
        assert circular_distance(best / n, phi) <= min(dists) + 1e-12


@pytest.mark.parametrize("n", [8, 16, 64, 100, 128])
def test_closest_probability_bound_random_grid(n):
    rng = np.random.default_rng(17)
    for _ in range(20):
        phi = float(rng.random())
        probs = estimator_distribution(phi, n).probs
        closest = min(range(n), key=lambda x: circular_distance(x / n, phi))
        assert probs[closest] >= FOUR_OVER_PI_SQ - 1e-12


@pytest.mark.parametrize("k", [2, 3, 4])
def test_within_k_mass_bound_random_grid(k):
    rng = np.random.default_rng(23)
    for n in (8, 100):
        for _ in range(15):
            phi = float(rng.random())
            probs = estimator_distribution(phi, n).probs
            mass = sum(p for x, p in enumerate(probs) if circular_distance(x / n, phi) <= k / n)
            assert mass >= 1 - 1 / (2 * k - 1) - 1e-12


def test_point_mass_family():
    for n in (4, 9, 12):
        for k in range(n):
            probs = estimator_distribution(k / n, n).probs
            assert probs[k] == pytest.approx(1.0, abs=1e-9)


def test_closest_lower_bound_constant():
    assert CLOSEST_LOWER_BOUND == pytest.approx(FOUR_OVER_PI_SQ)


def test_choose_register_size_arithmetic():
    # M(1/eps + 1)/2 with M=16, eps=1/2 gives 24, not rounded to a power of two
    assert choose_register_size(16, 0.5) == 24
    # M=15, eps=1/8 gives 67.5, whose ceiling is 68
    assert choose_register_size(15, 0.125) == 68


@pytest.mark.parametrize("n,m", [(3, 2), (4, 4), (5, 1)])
def test_choose_register_size_dyadic(n, m):
    # precision scale 2^n with eps = 2^-m: 2^(n+m) is always admissible
    size = choose_register_size(2**n, 2.0**-m)
    assert size <= 2 ** (n + m)
    assert size >= 2**n * (2**m + 1) / 2


def test_choose_register_size_minimal_demand():
    for eps in (Fraction(1, 2), Fraction(3, 4), 0.25):
        expected = math.ceil(Fraction(1) * (1 / Fraction(eps) + 1) / 2)
        assert choose_register_size(1, eps) == expected


def test_choose_register_size_validation():
    with pytest.raises(ValueError):
        choose_register_size(0, 0.5)
    for epsilon in (1.0, 0.0, -0.25, 1.5, Fraction(0), Fraction(3, 2), float("nan")):
        with pytest.raises(ValueError):
            choose_register_size(4, epsilon)


@settings(max_examples=300)
@given(
    m=st.integers(1, 2**80),
    epsilon=st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.sampled_from((0.1, 0.25 / 9, 0.25, 1 / 3, 0.7, 5e-324, 1 - 2**-53)),
    ),
)
@example(m=2 * 899 * 899, epsilon=0.25)
@example(m=2 * 60 * 60, epsilon=0.25 / 9)
def test_register_size_is_the_exact_ceiling(m, epsilon):
    """ceil(M (1/epsilon + 1) / 2) in exact rationals, for epsilon as a
    float, as an np.float64 and as the Fraction of that float."""
    expected = math.ceil(Fraction(m) * (1 / Fraction(epsilon) + 1) / 2)
    for eps in (epsilon, np.float64(epsilon), Fraction(epsilon)):
        assert choose_register_size(m, eps) == expected


@given(m=st.integers(1, 2**80), epsilon=st.fractions(0, 1, max_denominator=10**12))
@example(m=3, epsilon=Fraction(1, 10))
def test_register_size_for_a_rational_epsilon(m, epsilon):
    assume(0 < epsilon < 1)
    assert choose_register_size(m, epsilon) == math.ceil(Fraction(m) * (1 / epsilon + 1) / 2)


def test_estimator_json_round_trip():
    dist = estimator_distribution(1 / 3, 8)
    blob = dist.to_json()
    assert blob["n"] == 8 and len(blob["probs"]) == 8
    assert blob["probs"][3] == pytest.approx(dist.probs[3])
