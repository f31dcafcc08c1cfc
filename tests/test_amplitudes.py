"""Dense state-vector layer: layouts, unitaries, measurement.

The interesting guarantees here are exactness ones — norms stay pinned to 1
through unitary pipelines, measurement marginals match the Born rule, and the
dimension cap actually refuses oversized allocations.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hsplab.amplitudes import (
    CapExceeded,
    RegisterLayout,
    apply_on_register,
    basis_state,
    dimension_cap,
    from_amplitudes,
    l2_distance,
    marginal_distribution,
    measure_register,
    set_dimension_cap,
    uniform_state,
)


def qubit(v: int):
    return basis_state(RegisterLayout.of([2]), [v])


def test_layout_total_dimension():
    layout = RegisterLayout.of([3, 4, 2])
    assert layout.total_dimension == 24
    assert layout.dims == (3, 4, 2)


def test_layout_rejects_empty_and_nonpositive():
    with pytest.raises(ValueError):
        RegisterLayout.of([])
    with pytest.raises(ValueError):
        RegisterLayout.of([4, 0])


def test_dimension_cap_enforced():
    old = dimension_cap()
    set_dimension_cap(64)
    try:
        RegisterLayout.of([8, 8])  # exactly at the cap: fine
        with pytest.raises(CapExceeded):
            RegisterLayout.of([8, 9])
    finally:
        set_dimension_cap(old)


def test_basis_state_places_single_amplitude():
    s = basis_state(RegisterLayout.of([3, 2]), [2, 1])
    expected = np.zeros(6)
    expected[2 * 2 + 1] = 1.0
    assert_allclose(s.amplitudes, expected)


def test_from_amplitudes_rejects_unnormalized():
    layout = RegisterLayout.of([4])
    with pytest.raises(ValueError):
        from_amplitudes(layout, np.array([1.0, 1.0, 0.0, 0.0]))


def test_apply_identity_is_noop():
    s = uniform_state(RegisterLayout.of([3, 2]))
    out = apply_on_register(s, 0, np.eye(3))
    assert l2_distance(s, out) < 1e-12


def test_apply_permutation_on_qutrit():
    s = basis_state(RegisterLayout.of([3]), [0])
    out = apply_on_register(s, 0, [1, 2, 0])  # x -> x+1 mod 3, as an index map
    assert_allclose(out.amplitudes, [0, 1, 0])


def test_apply_hadamard_matrix():
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    out = apply_on_register(qubit(0), 0, h)
    assert_allclose(out.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_apply_rejects_nonunitary():
    with pytest.raises(ValueError):
        apply_on_register(qubit(0), 0, np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_apply_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        apply_on_register(qubit(0), 0, np.eye(3))


def test_apply_acts_on_named_register_only():
    # permutation on the middle register of three
    layout = RegisterLayout.of([2, 3, 2])
    s = basis_state(layout, [1, 0, 1])
    out = apply_on_register(s, 1, [1, 2, 0])
    assert_allclose(out.amplitudes, basis_state(layout, [1, 1, 1]).amplitudes)


def test_norm_preserved_through_random_unitary_pipeline():
    rng = np.random.default_rng(3)
    layout = RegisterLayout.of([4, 3])
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    s = from_amplitudes(layout, v / np.linalg.norm(v))
    for _ in range(25):
        reg = int(rng.integers(2))
        d = layout.dims[reg]
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(g)
        s = apply_on_register(s, reg, q)
    assert abs(s.norm - 1.0) < 1e-9


def test_measure_deterministic_basis_state():
    s = basis_state(RegisterLayout.of([8]), [5])
    rec, post = measure_register(s, 0, seed=123)
    assert rec.outcome == 5
    assert rec.probability == pytest.approx(1.0, abs=1e-12)
    assert l2_distance(post, s) < 1e-12


def test_measure_uniform_probability_field():
    s = uniform_state(RegisterLayout.of([4]))
    for seed in range(6):
        rec, _ = measure_register(s, 0, seed=seed)
        assert rec.probability == pytest.approx(0.25, abs=1e-12)


def test_measure_seed_determinism():
    s = uniform_state(RegisterLayout.of([5]))
    a, _ = measure_register(s, 0, seed=42)
    b, _ = measure_register(s, 0, seed=42)
    assert a.outcome == b.outcome


def test_measure_collapse_renormalizes_other_register():
    # (|0>|0> + |1>|2>)/sqrt(2); measuring register 0 pins register 1
    layout = RegisterLayout.of([2, 3])
    amps = np.zeros(6)
    amps[0] = amps[1 * 3 + 2] = 1 / np.sqrt(2)
    s = from_amplitudes(layout, amps)
    rec, post = measure_register(s, 0, seed=1)
    target = basis_state(layout, [rec.outcome, 0 if rec.outcome == 0 else 2])
    assert l2_distance(post, target) < 1e-12
    assert rec.probability == pytest.approx(0.5, abs=1e-12)


def test_measure_frequencies_match_binomial():
    s = from_amplitudes(RegisterLayout.of([2]), np.array([1, 1j]) / np.sqrt(2))
    hits = sum(measure_register(s, 0, seed=k)[0].outcome for k in range(10_000))
    # 3 sigma around p = 1/2 at n = 1e4
    assert abs(hits - 5000) < 3 * np.sqrt(10_000 * 0.25)


def test_marginal_law_total_variation():
    rng = np.random.default_rng(11)
    layout = RegisterLayout.of([3, 4])
    v = rng.normal(size=12) + 1j * rng.normal(size=12)
    s = from_amplitudes(layout, v / np.linalg.norm(v))
    analytic = marginal_distribution(s, 1)
    counts = np.zeros(4)
    n = 100_000
    for seed in range(n):
        counts[measure_register(s, 1, seed=seed)[0].outcome] += 1
    tv = 0.5 * np.abs(counts / n - analytic).sum()
    assert tv < 0.02


def test_l2_distance_cases():
    assert l2_distance(qubit(0), qubit(0)) == 0.0
    assert l2_distance(qubit(0), qubit(1)) == pytest.approx(np.sqrt(2))
    u = uniform_state(RegisterLayout.of([2]))
    assert l2_distance(u, qubit(0)) == pytest.approx(np.sqrt(2 - np.sqrt(2)))


def test_l2_distance_layout_mismatch():
    with pytest.raises(ValueError):
        l2_distance(qubit(0), basis_state(RegisterLayout.of([3]), [0]))


def test_marginal_sums_to_one():
    s = uniform_state(RegisterLayout.of([5, 2]))
    assert marginal_distribution(s, 0).sum() == pytest.approx(1.0, abs=1e-12)
