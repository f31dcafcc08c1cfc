"""Phase estimation: register sampling, recycled-single-qubit variant,
collapsed-target reuse, and the equality tying the oracle picture to the
shift picture.

The central cross-checks: the exact control-register law must equal the
uniform mixture over k of the closed-form estimator distributions at phase
k/r, the one-qubit cascade's law must equal the branch-tree walk of that
cascade (`branch_tree_law`), and the dense two-stage chain
(`dense_chain_laws`), which measures the dense joint state and keeps the
collapsed target, must draw jointly from the coset law, as a discrete log's
one coset-sampler draw per trial does — each computed here from scratch,
independent of the law engine.

The one-register sampler's pointwise law is pinned to the n-point law and to
the single-phase mixture, its envelope and tail proposal are checked
exactly, and its draws face one fixed-seed chi-square test per path.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hsplab import algorithms, estimation
from hsplab.algorithms import BudgetExhausted, SolverParams, find_order, solve_dlog
from hsplab.amplitudes import CapExceeded, RegisterLayout, dimension_cap, set_dimension_cap
from hsplab.estimation import (
    _coset_proposals,
    _coset_sampler,
    _orbit_length,
    _periodic_law,
    _point_law,
    _reduced_cycle,
    _register_cycle,
    _tail_index,
    control_distribution,
    hsp_sample_batch,
    phase_estimate_semiclassical,
    sample_control,
)
from hsplab.groups import (
    GroupSpec,
    SubgroupGenerators,
    _coset_reduce,
    _dual_rows,
    _hermite_basis,
    subgroups_equal,
)
from hsplab.oracles import (
    OracleInstance,
    PlantedTruth,
    classical_invariance_subgroup,
    classical_order,
    make_deutsch_instance,
    make_dlog_instance,
    make_hidden_subgroup_instance,
    make_order_instance,
    make_period_instance,
    make_simon_instance,
    make_stabiliser_instance,
    wrap_many_to_one,
)
from hsplab.qft import estimator_distribution
from dense_reference import (
    _hsp_layout,
    _pre_measurement_state,
    apply_fourier,
    apply_oracle,
    basis_state,
    from_amplitudes,
    hsp_control_distribution,
    marginal_distribution,
    measure_register,
    orthogonality_holds,
    verify_main_equality,
)


def mixture_law(instance, n: int) -> np.ndarray:
    """Independent oracle: (1/r) sum_k estimator_distribution(k/r, n)."""
    r = instance.truth.period
    acc = np.zeros(n)
    for k in range(r):
        acc += estimator_distribution(k / r, n).probs
    return acc / r


def branch_tree_law(instance, bits: int, *, generator: int = 0) -> np.ndarray:
    """Independent oracle: the outcome law of the one-qubit cascade of
    `phase_estimate_semiclassical`, by walking all 2^bits measurement
    branches from the target |f(identity)>.  Each branch carries its
    unnormalised target vector, whose squared norm is the branch's
    probability; step s applies the shift by 2^(bits-1-s) generators on the
    |1> half, turns it back by the phase v / 2^(s+1) of the bits v measured
    so far, and splits on the Hadamard's two outcomes."""
    spec = instance.domain
    vec = np.zeros(instance.codomain_size, dtype=np.complex128)
    vec[instance._raw(0 if spec is None else spec.identity())] = 1.0
    branches = [(0, vec)]
    for s in range(bits):
        power = 1 << (bits - 1 - s)
        perm = instance.shift_permutation(
            power if spec is None else spec.scale(power, spec.generator(generator))
        )
        grown = []
        for v, w in branches:
            shifted = np.empty_like(w)
            shifted[perm] = w
            rotated = np.exp(-2j * np.pi * v / (1 << (s + 1))) * shifted
            grown += [(v, (w + rotated) / 2.0), (v + (1 << s), (w - rotated) / 2.0)]
        branches = grown
    law = np.zeros(1 << bits)
    for v, w in branches:
        law[v] = np.vdot(w, w).real
    return law


def order_eigenvector(modulus: int, base: int, k: int) -> np.ndarray:
    """The shift eigenvector of phase k/r of f(t) = base^t mod modulus,
    written out: r^(-1/2) sum_j exp(-2 pi i j k / r) |base^j mod modulus>."""
    orbit = [1]
    while pow(base, len(orbit), modulus) != 1:
        orbit.append(pow(base, len(orbit), modulus))
    r = len(orbit)
    vec = np.zeros(modulus, dtype=np.complex128)
    vec[orbit] = np.exp(-2j * np.pi * np.arange(r) * k / r) / np.sqrt(r)
    return vec


def test_order_eigenvector_is_a_shift_eigenvector():
    for modulus, base, r in ((15, 2, 4), (7, 2, 3), (15, 4, 2)):
        perm = make_order_instance(modulus, base).shift_permutation(1)
        for k in range(r):
            vec = order_eigenvector(modulus, base, k)
            shifted = np.empty_like(vec)
            shifted[perm] = vec
            assert_allclose(shifted, np.exp(2j * np.pi * k / r) * vec, atol=1e-12)


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
        (sample,) = sample_control(inst, 8, 1, seed=seed)
        assert sample.observed == 0


def test_register_exact_phase_half():
    inst = make_order_instance(15, 4)  # r = 2
    law = control_distribution(inst, 8)
    expected = np.zeros(8)
    expected[0] = expected[4] = 0.5
    assert_allclose(law, expected, atol=1e-12)
    outcomes = {s.observed for s in sample_control(inst, 8, 12, seed=0)}
    assert outcomes <= {0, 4}


def test_register_exact_phase_quarters():
    inst = make_order_instance(15, 2)  # r = 4
    law = control_distribution(inst, 8)
    expected = np.zeros(8)
    expected[[0, 2, 4, 6]] = 0.25
    assert_allclose(law, expected, atol=1e-12)


@pytest.mark.parametrize("n", [8, 13, 21])
def test_register_law_is_uniform_eigenvector_mixture(n):
    """One law, the mixture, and the marginal of the dense state that the
    query circuit and the shift ladder each prepare."""
    for inst in (make_order_instance(15, 2), make_order_instance(7, 3)):
        law = control_distribution(inst, n)
        assert_allclose(law, mixture_law(inst, n), atol=1e-10)
        for route in ("oracle", "shift"):
            dense = marginal_distribution(_pre_measurement_state(inst, n, route, 0, None), 0)
            assert_allclose(law, dense, atol=1e-10)


def test_register_oracle_route_for_period_instance():
    inst = make_period_instance(6, relabel_seed=3)
    law = control_distribution(inst, 16)
    assert_allclose(law, mixture_law(inst, 16), atol=1e-10)


def test_register_law_checks_cap_before_building_its_table():
    # a 2^40-point table would need 8 TiB; the cap must stop it first
    for inst in (make_order_instance(15, 2), make_period_instance(4)):
        with pytest.raises(CapExceeded):
            control_distribution(inst, 1 << 40)


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
    sample_control(inst, 8, 7, seed=2)
    assert inst.query_count - before == 7
    before = inst.query_count
    control_distribution(inst, 16)
    assert inst.query_count == before  # exact laws bill nothing


# --- the exact eigenphase sampler ---------------------------------------------


def merged_instance(period: int, multiplicity: int, seed: int) -> OracleInstance:
    """A period instance with its labels merged m-to-1 at random; m = 1
    keeps them distinct."""
    inner = make_period_instance(period, relabel_seed=seed)
    merge = np.random.default_rng(seed).permutation(period) // multiplicity
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return wrap_many_to_one(inner, merge, multiplicity)


@st.composite
def register_cycles(draw):
    """A period of L labels, distinct or an m-to-1 merge of distinct ones,
    and a register size n that L divides or does not, below or above L."""
    period = draw(st.integers(1, 40))
    inst = merged_instance(period, draw(st.integers(1, 3)), draw(st.integers(0, 1000)))
    shape = draw(st.sampled_from(["multiple", "remainder", "short", "large"]))
    if shape == "multiple":
        n = draw(st.integers(1, 6)) * period
    elif shape == "remainder":
        n = draw(st.integers(1, 6)) * period + draw(st.integers(0, period - 1))
    elif shape == "short":
        n = draw(st.integers(1, period))
    else:
        n = draw(st.integers(40_001, 45_000))
    return inst, n


@given(register_cycles(), st.integers(0, 2**32))
def test_point_law_matches_the_register_law(case, seed):
    """The sampler's pointwise law is `_periodic_law` at every outcome (at
    300 random outcomes of a large register), it is the single-phase
    mixture of its period for distinct labels, and at most m times that
    mixture for an m-to-1 merge."""
    inst, n = case
    period, labels, merged = _register_cycle(inst, n, 0, None)
    law = _periodic_law(*_reduced_cycle(inst.period_labels[:n]), n)
    points = range(n) if n <= 500 else np.random.default_rng(seed).integers(n, size=300).tolist()
    for x in points:
        at, mixture = _point_law(x, n, period, labels)
        assert abs(at - law[x]) < 1e-12
        assert at <= merged * mixture * (1 + 1e-12) + 1e-15
        if labels is None:
            assert merged == 1 and at == mixture


def single_phase_mixture(x: int, n: int, period: int) -> float:
    """Independent oracle: (1/L) sum_k F_n(k/L, x), each single-phase law
    F_n = sin^2(pi n d) / (n sin(pi d))^2 at d = k/L - x/n, reduced exactly
    as d = r / (L n) with r an integer."""
    total = 0.0
    for k in range(period):
        r = (k * n - x * period) % (period * n)
        if r == 0:
            total += 1.0
        else:
            r = min(r, period * n - r)  # sin(pi d)^2 is even in d and periodic
            total += (math.sin(math.pi * (r % period) / period) / (n * math.sin(math.pi * r / (period * n)))) ** 2
    return total / period


@pytest.mark.parametrize("period, n", [(7, 10**13 + 3), (12, 5 * 64507**2), (5, 2**62 + 1), (3, 3 * 10**15)])
def test_point_law_is_the_single_phase_mixture_at_any_size(period, n):
    """Registers far beyond int64 products: arguments are reduced in Python
    ints, so the closed form keeps its relative accuracy."""
    rng = np.random.default_rng(period)
    for x in [0, 1, n - 1, n // period, n // period + 1] + [int(v) for v in rng.integers(n, size=20)]:
        at, mixture = _point_law(x, n, period, None)
        assert at == mixture == pytest.approx(single_phase_mixture(x, n, period), rel=1e-9, abs=0.0)


def test_envelope_bounds_every_single_phase_law():
    """F_n(k/L, base + j) <= (pi^2 / 4) e(j), e(j) = sin^2(pi f) / (pi^2 (j -
    f)^2), on the window t = j - f in (-n/2, n/2], for every n < 33, L < 13
    and k with f = (n k mod L) / L nonzero."""
    for n in range(1, 33):
        for period in range(1, 13):
            for k in range(period):
                base, num = divmod(n * k, period)
                if num == 0:
                    continue
                f = num / period
                probs = estimator_distribution(k / period, n).probs
                for x in range(n):
                    j = (x - base) % n  # then the representative with t in (-n/2, n/2]
                    if 2 * (j * period - num) > n * period:
                        j -= n
                    if 2 * (j * period - num) <= -n * period:
                        j += n  # n = 1, f > 1/2
                    envelope = math.sin(math.pi * f) ** 2 / (math.pi * (j - f)) ** 2
                    assert probs[x] <= math.pi**2 / 4 * envelope * (1 + 1e-12)


def test_tail_proposal_law():
    """P(i > I) = g / (I + g) for i = `_tail_index`(g, V), V uniform on (0, 1]:
    i = I exactly on V in (g / (I + g), g / (I - 1 + g)].  Kept with
    probability (I + g - 1) / (I + g), i weighs g / (I + g)^2, and proposing
    the right side (j = 1 + i, g = 1 - f) with probability f and the left
    (j = -i, g = f) otherwise weighs both sides f (1 - f) / (j - f)^2, in
    proportion to the envelope's tails."""

    def kept(g, i):  # P(i = I) times the probability of keeping it
        return (g / (i - 1 + g) - g / (i + g)) * (i + g - 1) / (i + g)

    fractions = (Fraction(1, 8), Fraction(3, 10), Fraction(1, 2), Fraction(3, 4), Fraction(39, 40))
    for g in fractions:
        for i in range(1, 400):
            upper, lower = g / (i - 1 + g), g / (i + g)
            for v in (lower + (upper - lower) / 4, (lower + upper) / 2, upper - (upper - lower) / 4):
                assert _tail_index(float(g), float(v)) == i
            assert kept(g, i) == g / (i + g) ** 2
    for f in fractions:
        for i in range(1, 50):
            assert f * kept(1 - f, i) == f * (1 - f) / ((1 + i) - f) ** 2
            assert (1 - f) * kept(f, i) == f * (1 - f) / (-i - f) ** 2


def chi_square(observed: np.ndarray, law: np.ndarray, draws: int) -> tuple[float, int]:
    """Pearson's statistic with outcomes expected fewer than 5 times pooled
    into one bin, and its degrees of freedom."""
    expected = law * draws
    rare = expected < 5
    obs = np.append(observed[~rare], observed[rare].sum())
    exp = np.append(expected[~rare], expected[rare].sum())
    keep = exp > 0
    return float(((obs[keep] - exp[keep]) ** 2 / exp[keep]).sum()), int(keep.sum()) - 1


@pytest.mark.parametrize(
    "make, n, draws",
    [
        (lambda: make_order_instance(35, 2), 281, 60_000),  # distinct, r = 12
        (lambda: make_period_instance(10, relabel_seed=3), 257, 60_000),  # distinct, r = 10
        (lambda: merged_instance(12, 2, 1), 97, 20_000),  # merged, 6 labels
        (lambda: merged_instance(9, 3, 2), 64, 20_000),  # merged, 3 labels
    ],
    ids=["order-35", "period-10", "merged-12-by-2", "merged-9-by-3"],
)
def test_sampler_chi_square_smoke(make, n, draws):
    """Fixed-seed draws of each path against the exact law: the statistic
    stays within five standard deviations of its degrees of freedom."""
    inst = make()
    law = control_distribution(inst, n)
    observed = np.bincount([s.observed for s in sample_control(inst, n, draws, seed=2024)], minlength=n)
    statistic, dof = chi_square(observed, law, draws)
    assert statistic < dof + 5 * math.sqrt(2 * dof), (statistic, dof)


@pytest.mark.parametrize("modulus, base", [(1003, 3), (4087, 2), (64507, 3)])
def test_find_order_reaches_past_the_n_point_law(modulus, base):
    """n = 5 N^2 is 5e6 to 2e10 points here, above the default cap; the
    sampler reads the cycle of the target (464 to 32,000 labels) alone."""
    inst = make_order_instance(modulus, base)
    res = find_order(inst, SolverParams(seed=1, period_bound=modulus))
    assert res.verified and res.value == classical_order(base, modulus)


@st.composite
def shifted_integer_instances(draw):
    """An order instance, or a period of distinct labels tiled k times (so
    the period held is not the least one) with its shift maps."""
    if draw(st.booleans()):
        modulus = draw(st.integers(2, 200))
        return make_order_instance(modulus, draw(st.sampled_from([a for a in range(1, modulus) if gcd(a, modulus) == 1])))
    period = draw(st.integers(1, 20))
    relabel = np.array(draw(st.permutations(range(period))), dtype=np.int64)
    inverse = np.argsort(relabel)
    return OracleInstance(
        domain=None, codomain_size=period, period_labels=np.tile(relabel, draw(st.integers(1, 3))),
        shift_fn=lambda g: relabel[(inverse + g) % period],
    )


@given(shifted_integer_instances(), st.integers(1, 400), st.booleans())
def test_default_target_cycle_is_the_first_return_of_f0(inst, n, explicit):
    """On the integers the unit shift walks f(0)'s label through f(1),
    f(2), ..., so the first return of f(0) in one period is the cycle the
    walk of `_orbit_length` counts, cut at n points."""
    f0 = int(inst.period_labels[0])
    cycle = _register_cycle(inst, n, 0, f0 if explicit else None)
    assert cycle == (_orbit_length(inst, f0, 0, n), None, 1)


def test_find_order_reads_its_cycle_off_the_period():
    """N = 1,000,003: the default target's cycle is read off the period of
    labels the build holds, so no shift map of a million labels is built or
    walked."""
    inst = make_order_instance(1_000_003, 2)
    inst.shift_permutation = lambda g: pytest.fail("built a shift map")
    res = find_order(inst, SolverParams(seed=1, period_bound=1_000_003))
    assert res.verified and res.value == inst.truth.period and pow(2, res.value, 1_000_003) == 1


@st.composite
def shifted_finite_instances(draw):
    """A finite-domain instance with shift maps and a generator index: a
    hidden subgroup, Simon's problem, a discrete log in either form, or the
    stabiliser of a point under a translation action of Z_d1 x Z_d2 on
    Z_points, each weight a multiple of points / gcd(points, d_j)."""
    kind = draw(st.sampled_from(["hsp", "simon", "modulus", "order", "stabiliser"]))
    if kind == "hsp":
        moduli = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3).filter(lambda m: math.prod(m) <= 64))
        element = st.tuples(*(st.integers(0, d - 1) for d in moduli))
        inst = make_hidden_subgroup_instance(
            GroupSpec.of(moduli), draw(st.lists(element, max_size=2)), relabel_seed=draw(st.integers(0, 1000)),
        )
    elif kind == "simon":
        bits = draw(st.integers(1, 5))
        secret = draw(st.lists(st.integers(0, 1), min_size=bits, max_size=bits).filter(any))
        inst = make_simon_instance(bits, secret)
    elif kind in ("modulus", "order"):
        inst = draw(chain_instances((kind,)))
    else:
        moduli = draw(st.lists(st.integers(1, 6), min_size=1, max_size=2))
        points = draw(st.integers(1, 12))
        weights = [points // gcd(points, d) * draw(st.integers(0, 3)) for d in moduli]
        inst = make_stabiliser_instance(
            GroupSpec.of(moduli), lambda g, pt: (pt + sum(w * c for w, c in zip(weights, g))) % points,
            draw(st.integers(0, points - 1)), points,
        )
    return inst, draw(st.integers(0, inst.domain.rank - 1))


@given(shifted_finite_instances(), st.integers(1, 64), st.booleans())
def test_default_target_cycle_is_the_first_return_on_finite_domains(case, n, explicit):
    """Along every generator g, the unit shift walks f(0)'s label through
    f(g), f(2g), ..., so the first return of f(0) in f's row of labels is
    the cycle the walk of `_orbit_length` counts, cut at n points."""
    inst, generator = case
    f0 = inst._raw(inst.domain.identity())
    cycle = _register_cycle(inst, n, generator, f0 if explicit else None)
    assert cycle == (_orbit_length(inst, f0, generator, n), None, 1)


def test_finite_domain_register_law_needs_shift_maps():
    """A finite domain without shift maps has no period of labels to cut, so
    a single-register law there raises, as a merged coset table shows."""
    inst = bucket_merged_cosets([6, 6], [], 3, 1)
    with pytest.raises(ValueError, match="shift maps"):
        control_distribution(inst, 8)


def test_cascade_reads_its_default_cycle_off_the_period():
    """N = 1,000,003, eight bits: the one-qubit cascade takes the default
    target's cycle of 1,000,002 labels from the period of labels, so no
    shift map is built or walked, and it bills one query per step plus f(0)."""
    inst = make_order_instance(1_000_003, 2)
    inst.shift_permutation = lambda g: pytest.fail("built a shift map")
    run = phase_estimate_semiclassical(inst, 8, seed=3)
    assert run.live_dimension == inst.truth.period == 1_000_002
    assert inst.query_count == 9


def test_register_cycle_is_capped_on_its_labels():
    """With shift maps (order) and without (period), r = 12 labels.  The
    instances are built first: the order builder is itself capped."""
    instances = (make_order_instance(35, 2), make_period_instance(12))
    previous = dimension_cap()
    set_dimension_cap(11)
    try:
        for inst in instances:
            with pytest.raises(CapExceeded, match="register cycle"):
                sample_control(inst, 1 << 30, 1)
        set_dimension_cap(12)
        for inst in instances:
            assert sample_control(inst, 1 << 30, 1)[0].register_size == 1 << 30
    finally:
        set_dimension_cap(previous)


# --- collapsed-target reuse -----------------------------------------------------


def dense_register_run(instance, n: int, *, seed: int, generator: int = 0, target=None):
    """Independent oracle: one shift-route estimation on the dense joint
    state of `_pre_measurement_state`, measured by `measure_register`.
    Returns the measurement record and the collapsed target, renormalised,
    which a next estimation can keep as its target."""
    state = _pre_measurement_state(instance, n, "shift", generator, target)
    record, collapsed = measure_register(state, 0, seed)
    kept = collapsed.reshaped()[record.outcome]
    return record, kept / np.linalg.norm(kept)


def overlaps(vec: np.ndarray, modulus: int, base: int, r: int) -> np.ndarray:
    """|<u_k|vec>|^2 for every shift eigenvector u_k of base mod modulus."""
    return np.array([abs(np.vdot(order_eigenvector(modulus, base, k), vec)) ** 2 for k in range(r)])


def assert_sampler_shares_the_dense_law(inst, n: int, record, *, seed: int) -> None:
    """The dense run's outcome and the sampler's draw for the same seed
    each carry the probability the exact law gives them."""
    law = control_distribution(inst, n)
    assert record.probability == pytest.approx(law[record.outcome], abs=1e-12)
    (sample,) = sample_control(inst, n, 1, seed=seed)
    assert sample.probability == pytest.approx(law[sample.observed], abs=1e-12)


def test_keep_target_exact_phase_unit_fidelity():
    inst = make_order_instance(15, 2)  # r = 4 divides N = 8
    record, kept = dense_register_run(inst, 8, seed=3)
    assert record.outcome % 2 == 0
    assert_sampler_shares_the_dense_law(inst, 8, record, seed=3)
    fidelity = overlaps(kept, 15, 2, 4)
    assert fidelity[record.outcome // 2] == pytest.approx(1.0, abs=1e-9)  # k/4 = x/8


def test_keep_target_inexact_phase_high_fidelity():
    inst = make_order_instance(7, 2)  # r = 3
    seed = next(s for s in range(200) if dense_register_run(inst, 8, seed=s)[0].outcome == 3)
    record, kept = dense_register_run(inst, 8, seed=seed)
    assert_sampler_shares_the_dense_law(inst, 8, record, seed=seed)
    fidelity = overlaps(kept, 7, 2, 3)
    assert fidelity.argmax() == 1  # 3/8 is the estimate of 1/3
    assert fidelity[1] >= 0.9


def test_keep_target_trivial_period():
    inst = make_order_instance(15, 1)
    _, kept = dense_register_run(inst, 8, seed=0)
    expected = np.zeros(15, dtype=complex)
    expected[1] = 1.0
    assert np.linalg.norm(kept - expected) < 1e-9


def dense_chain_laws(instance):
    """Independent oracle for two estimations chained on one target of a
    two-coordinate instance: stage one's law along generator 1, and for
    every outcome k of nonzero probability stage two's law along generator
    0 on the collapsed, renormalised target.  With shift maps the target
    starts at |f(identity)> and each stage drives one shift ladder; without
    them, as for merged labels, both controls start uniform, one oracle
    application writes f, and each control is transformed back in turn."""
    d0, d1 = instance.domain.moduli
    second = {}
    if instance.homomorphism_available:
        state = _pre_measurement_state(instance, d1, "shift", 1, None)
        first = marginal_distribution(state, 0)
        for k in np.flatnonzero(first > 1e-9):
            kept = state.reshaped()[k]
            kept = kept / np.linalg.norm(kept)
            second[int(k)] = marginal_distribution(_pre_measurement_state(instance, d0, "shift", 0, kept), 0)
        return first, second
    state = basis_state(_hsp_layout(instance), (0, 0, 0))
    state = apply_fourier(apply_fourier(state, 0), 1)
    state = apply_fourier(apply_oracle(state, [0, 1], 2, instance), 1, inverse=True)
    first = marginal_distribution(state, 1)
    layout = RegisterLayout.of((d0, instance.codomain_size))
    for k in np.flatnonzero(first > 1e-9):
        kept = state.reshaped()[:, k]
        kept = from_amplitudes(layout, (kept / np.linalg.norm(kept)).reshape(-1))
        second[int(k)] = marginal_distribution(apply_fourier(kept, 0, inverse=True), 0)
    return first, second


@st.composite
def chain_instances(draw, kinds=("modulus", "order", "hsp")):
    """A discrete-log instance in either form (modulus or order up to 31),
    or a hidden subgroup of a two-coordinate group, with its shift maps."""
    kind = draw(st.sampled_from(kinds))
    if kind == "modulus":
        q = draw(st.integers(2, 31))
        a = draw(st.sampled_from([a for a in range(1, q) if gcd(a, q) == 1]))
        return make_dlog_instance(a, pow(a, draw(st.integers(0, q)), q), modulus=q)
    if kind == "order":
        r = draw(st.integers(1, 31))
        a = draw(st.sampled_from([a for a in range(r) if gcd(a, r) == 1]))
        return make_dlog_instance(a, draw(st.integers(0, r - 1)), order=r)
    moduli = draw(st.lists(st.integers(1, 8), min_size=2, max_size=2))
    element = st.tuples(*(st.integers(0, d - 1) for d in moduli))
    return make_hidden_subgroup_instance(
        GroupSpec.of(moduli), draw(st.lists(element, max_size=2)),
        relabel_seed=draw(st.integers(0, 1000)),
    )


@st.composite
def merged_dlog_instances(draw):
    """A discrete log mod a prime up to 31 whose labels are merged 2-to-1
    in seeded pairs: no shift maps, and a box with two points to a label."""
    q = draw(st.sampled_from([5, 7, 11, 13, 17, 19, 23, 29, 31]))
    a = draw(st.integers(2, q - 1))
    inner = make_dlog_instance(a, pow(a, draw(st.integers(0, q)), q), modulus=q)
    merge = np.empty(q, dtype=np.int64)
    merge[np.random.default_rng(draw(st.integers(0, 1000))).permutation(q)] = np.arange(q) // 2
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return wrap_many_to_one(inner, merge, 2)


@given(chain_instances() | merged_dlog_instances())
def test_one_coset_draw_is_the_dense_chain(inst):
    """The dense chain's joint law, stage one's marginal at k times stage
    two's conditional at t_0, is the coset law at (t_0, k): one coset-sampler
    draw is the two-stage circuit, which is how a discrete log runs it."""
    first, second = dense_chain_laws(inst)
    law = hsp_control_distribution(inst).reshape(inst.domain.moduli)
    joint = np.zeros_like(law)
    for k, conditional in second.items():
        joint[:, k] = first[k] * conditional
    assert_allclose(joint, law, rtol=0, atol=1e-12)


@given(chain_instances(("modulus", "order")) | merged_dlog_instances(), st.integers(0, 1000))
def test_dlog_stage_probabilities_are_the_dense_chain(inst, seed):
    """Each trial's stage-one probability is the dense chain's marginal at
    k and, when k != 0, stage two's is its conditional at t_0 = k m mod r:
    a point mass.  A merge that grows the stabiliser past <(1, -m)> pins m
    only modulo a proper divisor of r, so it may exhaust the budget."""
    first, second = dense_chain_laws(inst)
    try:
        res = solve_dlog(inst, SolverParams(seed=seed))
    except BudgetExhausted:
        assert not subgroups_equal(classical_invariance_subgroup(inst), inst.truth.subgroup)
        return
    assert res.verified
    samples = iter(res.samples)
    for stage_one in samples:
        k = stage_one.observed
        assert abs(stage_one.probability - first[k]) <= 1e-12
        if k:
            stage_two = next(samples)
            assert stage_two.probability == 1.0
            assert abs(second[k][stage_two.observed] - 1.0) <= 1e-12
            assert stage_two.observed == k * inst.truth.dlog_exponent % inst.domain.moduli[0]


def test_dlog_bills_each_draw_each_stage_two_and_the_checks():
    """f(0, 0), one query per trial's draw, one per stage two run on the
    collapsed target (only when k != 0), and the one verification."""
    zero_trials = 0
    for seed in range(40):
        inst = make_dlog_instance(3, 5, modulus=7)  # r = 6, m = 5
        res = solve_dlog(inst, SolverParams(seed=seed))
        assert res.verified and res.value == 5
        assert res.collapsed_reuses == len(res.samples) - res.trials_used >= 1
        assert inst.query_count == 1 + res.trials_used + res.collapsed_reuses + 1
        assert [s.seed for s in res.samples if s.probability != 1.0] == list(range(seed, seed + res.trials_used))
        zero_trials += res.trials_used - res.collapsed_reuses
    assert zero_trials  # some trial read k = 0 and ran no stage two


def test_dlog_reaches_past_the_coset_table():
    """p = 65,537: the |G|-point coset law would hold 2^32 points, far above
    the cap, and f's table over G is never read; the package has no
    |G|-point law to read at all."""
    assert not hasattr(estimation, "hsp_control_distribution")
    assert not hasattr(estimation, "level_set_law")
    inst = make_dlog_instance(3, pow(3, 40_000, 65_537), modulus=65_537)
    inst.label_table = lambda shape: pytest.fail("tabulated f over the group")
    res = solve_dlog(inst, SolverParams(seed=0))
    assert res.verified and res.value == 40_000


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


def bucket_merged_cosets(moduli, generators, multiplicity: int, seed: int) -> OracleInstance:
    """A hidden-subgroup instance with its coset labels merged in runs of m."""
    inner = make_hidden_subgroup_instance(GroupSpec.of(moduli), generators, relabel_seed=seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return wrap_many_to_one(inner, np.arange(inner.codomain_size) // multiplicity, multiplicity)


@pytest.mark.parametrize(
    "make, draws",
    [
        (lambda: make_hidden_subgroup_instance(GroupSpec.of([8, 9, 2]), [(2, 3, 1)], relabel_seed=3), 20_000),
        (lambda: bucket_merged_cosets([6, 6], [], 3, 1), 20_000),
    ],
    ids=["one-label-per-coset", "merged-3-to-1"],
)
def test_coset_sampler_chi_square_smoke(make, draws):
    """Fixed-seed coset-sampler draws against the exact coset law, with
    every proposal kept (m = 1) and with proposals kept by their law
    (m = 3): the statistic stays within five standard deviations of its
    degrees of freedom."""
    inst = make()
    spec = inst.domain
    law = hsp_control_distribution(inst)
    drawn = [spec.element_index(t) for t in hsp_sample_batch(inst, draws, seed=2024)]
    statistic, dof = chi_square(np.bincount(drawn, minlength=spec.order), law, draws)
    assert statistic < dof + 5 * math.sqrt(2 * dof), (statistic, dof)
    assert inst.query_count == draws


def test_hsp_solver_reaches_past_any_table_over_the_group():
    """Z_{2^b} x Z_{2^b} hiding <(1, 1), (0, 2)>, whose box {0} x {0, 1}
    holds two labels: the solver draws from the dual lattice and verifies by
    single evaluations, and f is never tabulated over G (2^60 points, and
    2^80, past int64, where each verification point is drawn one coordinate
    at a time, as the sampler draws x)."""
    for bits in (30, 40):
        spec = GroupSpec.of((1 << bits, 1 << bits))
        planted = SubgroupGenerators.of(spec, [(1, 1), (0, 2)])
        inst = OracleInstance(
            domain=spec, codomain_size=2, basis=_hermite_basis(planted.generators, spec.moduli),
            box_labels=[[0, 1]], truth=PlantedTruth(subgroup=planted),
        )
        inst.label_table = lambda shape: pytest.fail("tabulated f over the group")
        res = algorithms.solve_hsp_general(inst, SolverParams(seed=0))
        assert res.verified and subgroups_equal(res.value, planted)
        assert inst._raw((5, 7)) == inst._raw((0, 2)) == 0
        assert inst._raw((5, 6)) == 1


def test_coset_sampler_falls_back_to_python_ints_past_int64():
    """On Z_{2^40} x Z_{2^40} a product of two residues overflows int64, so
    M x and the coset reduction run in Python ints: the draws agree with
    M x computed in Python ints, and every draw annihilates K."""
    moduli = (1 << 40, 1 << 40)
    spec = GroupSpec.of(moduli)
    planted = SubgroupGenerators.of(spec, [(1, (1 << 40) - 3), (0, 4)])
    basis = _hermite_basis(planted.generators, moduli)
    inst = OracleInstance(
        domain=spec, codomain_size=4, basis=basis, box_labels=[[0, 1, 2, 3]], truth=PlantedTruth(subgroup=planted),
    )
    draws = hsp_sample_batch(inst, 50, seed=9)
    assert len(set(draws)) > 1
    assert all(orthogonality_holds(spec, t, planted) for t in draws)
    rows = _dual_rows(basis, moduli)
    x = [[(1 << 40) - 1, (1 << 40) - 2], [3, (1 << 39) + 1]]
    expected = [[sum(m * c for m, c in zip(row, point)) % d for row, d in zip(rows, moduli)] for point in x]
    dual = _coset_sampler(inst)[0]
    assert dual.dtype == object
    assert _coset_proposals(dual, np.array(x, dtype=np.int64), moduli).tolist() == expected
    point = [(1 << 40) - 1, 5]
    reduced = _coset_reduce(np.array([[c] for c in point], dtype=np.int64), basis, moduli)
    assert [int(c) for c in reduced[:, 0]] == _coset_reduce(list(point), basis, moduli) == [0, 2]
    assert inst._raw(point) == 2


# --- semiclassical variant --------------------------------------------------------


def test_semiclassical_trivial_period_all_zero_bits():
    inst = make_order_instance(15, 1)
    run = phase_estimate_semiclassical(inst, 4, seed=5)
    assert run.sample.observed == 0
    assert all(step.bit == 0 for step in run.steps)


def test_semiclassical_matches_register_law_exactly():
    inst = make_order_instance(15, 4)  # r = 2
    reg = control_distribution(inst, 8)
    semi = branch_tree_law(inst, 3)
    assert np.abs(reg - semi).sum() < 1e-9
    assert set(np.flatnonzero(semi > 1e-12)) == {0, 4}


@pytest.mark.parametrize("bits", [1, 2, 3, 4, 5, 6])
def test_semiclassical_equivalence_battery(bits):
    for inst in (
        make_order_instance(15, 2),
        make_order_instance(7, 3),
        make_order_instance(15, 4),
    ):
        reg = control_distribution(inst, 2**bits)
        semi = branch_tree_law(inst, bits)
        assert np.abs(reg - semi).sum() < 1e-9


@st.composite
def cascade_cases(draw):
    """An instance with shift maps and a generator index to estimate along:
    order finding, or a small hidden-subgroup or discrete-log group."""
    kind = draw(st.sampled_from(["order", "hsp", "dlog"]))
    if kind == "order":
        modulus = draw(st.integers(2, 60))
        base = draw(st.sampled_from([a for a in range(1, modulus) if gcd(a, modulus) == 1]))
        return make_order_instance(modulus, base), 0
    if kind == "hsp":
        moduli = draw(st.lists(st.integers(2, 6), min_size=1, max_size=2))
        element = st.tuples(*(st.integers(0, d - 1) for d in moduli))
        inst = make_hidden_subgroup_instance(
            GroupSpec.of(moduli), draw(st.lists(element, max_size=2)),
            relabel_seed=draw(st.integers(0, 1000)),
        )
    else:
        q = draw(st.sampled_from([3, 5, 7, 11, 13]))
        a = draw(st.integers(1, q - 1))
        inst = make_dlog_instance(a, pow(a, draw(st.integers(0, q - 2)), q), modulus=q)
    return inst, draw(st.integers(0, inst.domain.rank - 1))


@given(cascade_cases(), st.integers(1, 8))
def test_semiclassical_law_is_the_shift_register_law(case, bits):
    inst, generator = case
    law = control_distribution(inst, 2**bits, generator=generator)
    assert_allclose(law, branch_tree_law(inst, bits, generator=generator), rtol=0, atol=1e-12)


@given(cascade_cases(), st.integers(1, 8), st.integers(0, 2**32))
def test_semiclassical_run_draws_from_the_branch_tree_law(case, bits, seed):
    """The runner's reported probability of its outcome is the cascade's
    law there, and its transcript is that outcome's digits."""
    inst, generator = case
    run = phase_estimate_semiclassical(inst, bits, generator=generator, seed=seed)
    law = branch_tree_law(inst, bits, generator=generator)
    assert abs(run.sample.probability - law[run.sample.observed]) < 1e-12
    assert run.sample.observed == sum(step.bit << i for i, step in enumerate(run.steps))


def test_semiclassical_forty_bits_exact():
    # r = 4 divides 2^40, so the outcome is a multiple of 2^38, each with 1/4
    for seed in range(4):
        run = phase_estimate_semiclassical(make_order_instance(15, 2), 40, seed=seed)
        assert run.sample.observed % 2**38 == 0
        assert run.sample.probability == pytest.approx(0.25, abs=1e-12)
        assert run.live_dimension == 4


def test_semiclassical_rejects_a_vector_target():
    inst = make_order_instance(15, 4)
    target = np.zeros(15)
    target[[1, 4]] = np.array([1.0, -1.0]) / np.sqrt(2.0)
    with pytest.raises(ValueError, match="basis-label"):
        phase_estimate_semiclassical(inst, 4, seed=0, target=target)


def test_semiclassical_takes_the_target_cycle():
    # 3 is not a power of 2 mod 15, but its cycle {3, 6, 12, 9} under x2 has
    # the same length, while 5's cycle {5, 10} is half the period
    for target, cycle in ((3, 4), (5, 2), (1, 4)):
        inst = make_order_instance(15, 2)
        law = control_distribution(inst, 16, target=target)
        for seed in range(6):
            run = phase_estimate_semiclassical(inst, 4, seed=seed, target=target)
            assert run.live_dimension == cycle
            assert abs(run.sample.probability - law[run.sample.observed]) < 1e-12


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
