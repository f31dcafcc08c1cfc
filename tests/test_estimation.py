"""Phase estimation: register circuit, recycled-single-qubit variant,
eigenvector bookkeeping, and the equality tying the oracle picture to the
shift picture.

The central cross-check: the exact control-register law must equal the
uniform mixture over k of the closed-form estimator distributions at phase
k/r — computed here from scratch, independent of the circuit code.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hsplab.amplitudes import CapExceeded
from hsplab.estimation import (
    control_distribution,
    eigenbasis_decompose,
    hsp_control_distribution,
    hsp_sample_batch,
    keep_target_after_measurement,
    phase_estimate_register,
    phase_estimate_semiclassical,
    sample_control,
    semiclassical_outcome_distribution,
    verify_main_equality,
)
from hsplab.groups import GroupSpec, orthogonality_holds
from hsplab.oracles import (
    make_deutsch_instance,
    make_dlog_instance,
    make_hidden_subgroup_instance,
    make_order_instance,
    make_period_instance,
    make_simon_instance,
)
from hsplab.qft import estimator_distribution


def mixture_law(instance, n: int) -> np.ndarray:
    """Independent oracle: (1/r) sum_k estimator_distribution(k/r, n)."""
    r = instance.truth.period
    acc = np.zeros(n)
    for k in range(r):
        acc += estimator_distribution(k / r, n).probs
    return acc / r


# --- eigenbasis --------------------------------------------------------------


def test_eigenbasis_trivial_period():
    inst = make_order_instance(15, 1)
    dec = eigenbasis_decompose(inst)
    assert dec.keys == [0]
    vec = dec.vector(0)
    expected = np.zeros(15)
    expected[1] = 1.0  # f(0) = 1
    assert_allclose(vec, expected, atol=1e-12)
    assert dec.phase(0) == Fraction(0)


def test_eigenbasis_period_two_sign_pattern():
    inst = make_order_instance(15, 4)  # r = 2: labels 1, 4
    dec = eigenbasis_decompose(inst)
    plus, minus = dec.vector(0), dec.vector(1)
    expected_plus = np.zeros(15)
    expected_plus[1] = expected_plus[4] = 0.5
    expected_minus = np.zeros(15)
    expected_minus[1], expected_minus[4] = 0.5, -0.5
    assert_allclose(plus, expected_plus, atol=1e-12)
    assert_allclose(minus, expected_minus, atol=1e-12)


def test_eigenbasis_order_four_shift_eigenvectors():
    inst = make_order_instance(15, 2)
    dec = eigenbasis_decompose(inst)
    assert sorted(dec.keys) == [0, 1, 2, 3]
    perm = inst.shift_permutation(1)  # multiply-by-2 label permutation
    mat = np.zeros((15, 15))
    for src, dst in enumerate(perm):
        mat[dst, src] = 1.0
    for k in dec.keys:
        v = dec.vector(k)
        assert dec.phase(k) == Fraction(k, 4)
        eig = np.exp(2j * np.pi * k / 4)
        assert np.linalg.norm(mat @ v - eig * v) < 1e-9
    # mutual orthogonality at multiplicity one
    for a in dec.keys:
        for b in dec.keys:
            if a != b:
                assert abs(np.vdot(dec.vector(a), dec.vector(b))) < 1e-9


def test_eigenbasis_sum_reassembles_identity_label():
    inst = make_order_instance(21, 2)
    dec = eigenbasis_decompose(inst)
    total = sum(dec.vector(k) for k in dec.keys)
    expected = np.zeros(21)
    expected[1] = 1.0
    assert np.linalg.norm(total - expected) < 1e-9


def test_eigenbasis_group_domain_reconstruction():
    inst = make_simon_instance(3, (1, 1, 0))
    dec = eigenbasis_decompose(inst)
    assert dec.max_reconstruction_residual(inst) < 1e-9
    # every key is orthogonal to the hidden subgroup
    for key in dec.keys:
        assert orthogonality_holds(inst.domain, key, inst.truth.subgroup)


def test_eigenbasis_group_shift_eigenvalues():
    inst = make_hidden_subgroup_instance(GroupSpec.of([2, 4]), [(0, 2)], relabel_seed=1)
    dec = eigenbasis_decompose(inst)
    for gen in range(2):
        g = inst.domain.generator(gen)
        perm = inst.shift_permutation(g)
        mat = np.zeros((inst.codomain_size, inst.codomain_size))
        for src, dst in enumerate(perm):
            mat[dst, src] = 1.0
        for key in dec.keys:
            v = dec.vector(key)
            eig = np.exp(2j * np.pi * float(dec.phase(key, gen)))
            assert np.linalg.norm(mat @ v - eig * v) < 1e-9


# --- the two-route equality ---------------------------------------------------


def test_main_equality_deutsch_constant():
    assert verify_main_equality(make_deutsch_instance(0, 0)) < 1e-12


def test_main_equality_order_instance():
    assert verify_main_equality(make_order_instance(15, 2), 64) < 1e-9


def test_main_equality_simon():
    assert verify_main_equality(make_simon_instance(2, (1, 1))) < 1e-9


# --- register estimation -------------------------------------------------------


def test_register_trivial_period_always_zero():
    inst = make_order_instance(15, 1)
    for seed in range(5):
        run = phase_estimate_register(inst, 8, seed=seed)
        assert run.sample.observed == 0


def test_register_exact_phase_half():
    inst = make_order_instance(15, 4)  # r = 2
    law = control_distribution(inst, 8)
    expected = np.zeros(8)
    expected[0] = expected[4] = 0.5
    assert_allclose(law, expected, atol=1e-12)
    outcomes = {phase_estimate_register(inst, 8, seed=s).sample.observed for s in range(12)}
    assert outcomes <= {0, 4}


def test_register_exact_phase_quarters():
    inst = make_order_instance(15, 2)  # r = 4
    law = control_distribution(inst, 8)
    expected = np.zeros(8)
    expected[[0, 2, 4, 6]] = 0.25
    assert_allclose(law, expected, atol=1e-12)


@pytest.mark.parametrize("n", [8, 13, 21])
def test_register_law_is_uniform_eigenvector_mixture(n):
    for inst in (make_order_instance(15, 2), make_order_instance(7, 3)):
        for route in ("oracle", "shift"):
            law = control_distribution(inst, n, route=route)
            assert_allclose(law, mixture_law(inst, n), atol=1e-10)


def test_register_oracle_route_for_period_instance():
    inst = make_period_instance(6, relabel_seed=3)
    law = control_distribution(inst, 16)
    assert_allclose(law, mixture_law(inst, 16), atol=1e-10)


def test_register_law_checks_cap_before_building_its_table():
    # a 2^40-point table would need 8 TiB; the cap must stop it first
    inst = make_order_instance(15, 2)
    for route in ("oracle", "shift"):
        with pytest.raises(CapExceeded):
            control_distribution(inst, 1 << 40, route=route)


def test_register_routes_match_per_seed():
    inst = make_order_instance(15, 2)
    for seed in range(6):
        a = phase_estimate_register(inst, 11, seed=seed, route="oracle").sample
        b = phase_estimate_register(inst, 11, seed=seed, route="shift").sample
        assert a.observed == b.observed


def test_sampler_law_total_variation():
    inst = make_order_instance(15, 2)
    n = 8
    law = control_distribution(inst, n)
    counts = np.zeros(n)
    for s in sample_control(inst, n, 10_000, seed=99):
        counts[s.observed] += 1
    tv = 0.5 * np.abs(counts / 10_000 - law).sum()
    assert tv < 0.03


def test_sample_estimates_are_fractions():
    inst = make_order_instance(15, 2)
    (s,) = sample_control(inst, 8, 1, seed=0)
    assert s.estimate == Fraction(s.observed, 8)


def test_query_accounting_per_run():
    inst = make_order_instance(15, 2)
    before = inst.query_count
    phase_estimate_register(inst, 8, seed=1)
    assert inst.query_count - before == 2  # one circuit plus the default target
    before = inst.query_count
    sample_control(inst, 8, 7, seed=2)
    assert inst.query_count - before == 7
    before = inst.query_count
    control_distribution(inst, 16)
    assert inst.query_count == before  # exact laws bill nothing


# --- collapsed-target reuse -----------------------------------------------------


def test_keep_target_exact_phase_unit_fidelity():
    inst = make_order_instance(15, 2)  # r = 4 divides N = 8
    dec = eigenbasis_decompose(inst)
    run = phase_estimate_register(inst, 8, seed=3, route="shift")
    handle = keep_target_after_measurement(run, dec)
    assert handle.fidelity == pytest.approx(1.0, abs=1e-9)
    assert handle.best_index * 2 == run.sample.observed  # k/4 = x/8


def test_keep_target_inexact_phase_high_fidelity():
    inst = make_order_instance(7, 2)  # r = 3
    dec = eigenbasis_decompose(inst)
    seed = next(
        s for s in range(200)
        if phase_estimate_register(inst, 8, seed=s, route="shift").sample.observed == 3
    )
    run = phase_estimate_register(inst, 8, seed=seed, route="shift")
    handle = keep_target_after_measurement(run, dec)
    assert handle.best_index == 1  # 3/8 is the estimate of 1/3
    assert handle.fidelity >= 0.9


def test_keep_target_trivial_period():
    inst = make_order_instance(15, 1)
    run = phase_estimate_register(inst, 8, seed=0, route="shift")
    handle = keep_target_after_measurement(run)
    expected = np.zeros(15, dtype=complex)
    expected[1] = 1.0
    assert np.linalg.norm(handle.vector - expected) < 1e-9


# --- hidden-subgroup sampling ----------------------------------------------------


def test_hsp_samples_annihilate_planted_subgroup():
    inst = make_hidden_subgroup_instance(GroupSpec.of([2, 4]), [(1, 2)], relabel_seed=5)
    for t in hsp_sample_batch(inst, 60, seed=11):
        assert orthogonality_holds(inst.domain, t, inst.truth.subgroup)


def test_hsp_law_uniform_on_annihilator():
    inst = make_simon_instance(3, (1, 0, 1))
    law = hsp_control_distribution(inst)
    spec = inst.domain
    good = [
        spec.element_index(t)
        for t in spec.elements()
        if orthogonality_holds(spec, t, inst.truth.subgroup)
    ]
    expected = np.zeros(spec.order)
    expected[good] = 1.0 / len(good)
    assert_allclose(law, expected, atol=1e-10)


def test_hsp_batch_bills_queries():
    inst = make_simon_instance(2, (1, 0))
    before = inst.query_count
    hsp_sample_batch(inst, 9, seed=0)
    assert inst.query_count - before == 9


# --- semiclassical variant --------------------------------------------------------


def test_semiclassical_trivial_period_all_zero_bits():
    inst = make_order_instance(15, 1)
    run = phase_estimate_semiclassical(inst, 4, seed=5)
    assert run.sample.observed == 0
    assert all(step.bit == 0 for step in run.steps)


def test_semiclassical_matches_register_law_exactly():
    inst = make_order_instance(15, 4)  # r = 2
    reg = control_distribution(inst, 8, route="shift")
    semi = semiclassical_outcome_distribution(inst, 3)
    assert np.abs(reg - semi).sum() < 1e-9
    assert set(np.flatnonzero(semi > 1e-12)) == {0, 4}


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 6])
def test_semiclassical_equivalence_battery(bits):
    for inst in (
        make_order_instance(15, 2),
        make_order_instance(7, 3),
        make_order_instance(15, 4),
    ):
        reg = control_distribution(inst, 2**bits, route="shift")
        semi = semiclassical_outcome_distribution(inst, bits)
        assert np.abs(reg - semi).sum() < 1e-9


def test_semiclassical_eigenstate_deterministic_msb():
    inst = make_order_instance(15, 4)  # r = 2
    dec = eigenbasis_decompose(inst)
    target = dec.normalized(1)  # phase 1/2
    for seed in range(4):
        run = phase_estimate_semiclassical(inst, 4, seed=seed, target=target)
        assert run.sample.observed == 8  # x = 2^(n-1)


def test_semiclassical_transcript_conventions():
    inst = make_order_instance(15, 2)
    run = phase_estimate_semiclassical(inst, 4, seed=7)
    assert [s.qubit_index for s in run.steps] == [1, 2, 3, 4]
    assert [s.shift_power for s in run.steps] == [8, 4, 2, 1]
    acc = 0
    for i, step in enumerate(run.steps):
        assert step.rotation_turns == Fraction(-acc, 2 ** (i + 1))
        acc += step.bit << i
    assert run.sample.observed == acc
    assert run.sample.register_size == 16


def test_semiclassical_live_dimension_bound():
    inst = make_order_instance(15, 2)
    run = phase_estimate_semiclassical(inst, 5, seed=1)
    assert run.live_dimension <= 2 * 15


def test_semiclassical_requires_shift_maps():
    with pytest.raises(ValueError):
        phase_estimate_semiclassical(make_period_instance(6), 3, seed=0)


def test_semiclassical_seed_determinism():
    inst = make_dlog_instance(3, 4, modulus=7)
    a = phase_estimate_semiclassical(inst, 4, seed=21, generator=1)
    b = phase_estimate_semiclassical(inst, 4, seed=21, generator=1)
    assert a.sample.observed == b.sample.observed
    assert [s.bit for s in a.steps] == [s.bit for s in b.steps]
