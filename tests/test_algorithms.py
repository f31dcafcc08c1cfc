"""End-to-end solvers: order/period finding, factoring, hidden subgroups,
discrete logs, and the many-to-1 robust variants.

Expected values come from the classical scan oracles, never from the
solvers' own bookkeeping: multiplicative orders by iteration, least periods
by window scan, subgroups by exhaustive invariance checks.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from hsplab import algorithms
from hsplab.algorithms import (
    BudgetExhausted,
    PromiseViolation,
    SolverParams,
    factor_via_order,
    find_order,
    find_period,
    robust_hsp,
    robust_period,
    solve_dlog,
    solve_hsp_general,
)
from hsplab.estimation import hsp_sample_batch, sample_control
from hsplab.groups import GroupSpec, SubgroupGenerators, all_subgroups, character_kernel, subgroups_equal
from hsplab.oracles import (
    OracleInstance,
    PlantedTruth,
    classical_invariance_subgroup,
    classical_least_period,
    classical_order,
    instance_from_json,
    make_deutsch_instance,
    make_dlog_instance,
    make_hidden_subgroup_instance,
    make_order_instance,
    make_period_instance,
    make_simon_instance,
    make_stabiliser_instance,
    wrap_many_to_one,
)
from dense_reference import (
    generation_probability,
    hsp_control_distribution,
    largest_p_rank,
    orthogonality_holds,
    quotient_p_ranks,
    subgroup_enumerate,
)

# chi-square critical value, df=3, significance 0.01
CHI2_CRIT_DF3_P01 = 11.345
# chi-square critical values at significance 0.001, by degrees of freedom
CHI2_CRIT_P001 = {
    1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467, 5: 20.515, 6: 22.458,
    7: 24.322, 8: 26.124, 9: 27.877, 10: 29.588, 11: 31.264, 12: 32.909,
}


def batch_size(moduli) -> int:
    """Draws per hidden-subgroup batch: d(G) + 2, d(G) the largest p-rank."""
    return largest_p_rank(moduli) + 2


def merge_table(size: int, m: int, seed: int) -> np.ndarray:
    """Random m-to-1 merge: bucket a permutation of the labels in runs of m."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(size)
    table = np.empty(size, dtype=np.int64)
    for bucket, start in enumerate(range(0, size, m)):
        table[perm[start : start + m]] = bucket
    return table


def merged_period_instance(r: int, m: int, *, relabel_seed: int, merge_seed: int):
    """Merge that provably keeps the least period at r (redraw otherwise)."""
    inner = make_period_instance(r, relabel_seed=relabel_seed)
    for attempt in range(100):
        with pytest.warns(UserWarning):
            cand = wrap_many_to_one(inner, merge_table(r, m, merge_seed + attempt), m)
        if classical_least_period(cand, 4 * r) == r:
            return cand
    raise AssertionError("could not build a period-preserving merge")


# --- order finding -----------------------------------------------------------


def test_find_order_identity_base():
    res = find_order(make_order_instance(15, 1), SolverParams(seed=0, period_bound=15))
    assert res.value == 1
    assert res.trials_used == 1
    assert res.verified


def test_find_order_fifteen_base_two():
    res = find_order(make_order_instance(15, 2), SolverParams(control_bits=8, seed=1, period_bound=15))
    assert res.value == 4
    assert res.verified


def test_find_order_twentyone():
    res = find_order(make_order_instance(21, 2), SolverParams(seed=2, period_bound=21))
    assert res.value == classical_order(2, 21) == 6


def test_find_order_verified_means_identity_holds():
    inst = make_order_instance(33, 2)
    res = find_order(inst, SolverParams(seed=3, period_bound=33))
    assert res.verified
    assert pow(2, res.value, 33) == 1
    assert all(pow(2, d, 33) != 1 for d in range(1, res.value))


def test_find_order_budget_exhaustion_distinct_from_promise():
    # a bound below the true order can never verify
    with pytest.raises(BudgetExhausted):
        find_order(make_order_instance(15, 2), SolverParams(seed=0, period_bound=2, trials=4))


def test_find_order_without_a_bound():
    res = find_order(make_order_instance(15, 2), SolverParams(seed=5))
    assert res.value == 4


@pytest.mark.parametrize("modulus, base", [(7, 3), (899, 2)])
def test_find_order_without_bound_runs_at_the_codomain_size(modulus, base):
    """An unbounded run is the run bounded at the codomain size: the same
    answer, the same draws and the same queries."""
    unbounded, bounded = make_order_instance(modulus, base), make_order_instance(modulus, base)
    res = find_order(unbounded, SolverParams(seed=0))
    ref = find_order(bounded, SolverParams(seed=0, period_bound=bounded.codomain_size))
    assert res.value == ref.value == classical_order(base, modulus)
    assert res.samples == ref.samples
    assert unbounded.query_count == bounded.query_count


@pytest.mark.parametrize("seed, observed", [
    (0, [3434854, 2568925]),
    (3, [3261668]),
    (6, [1789588, 2164824]),
])
def test_find_order_draw_i_is_the_ith_draw_of_one_stream(seed, observed):
    """The seed contract: every trial of `find_order` draws from one stream
    seeded by params.seed, so draw i is the i-th `sample_control` call on a
    fresh instance fed one `default_rng(params.seed)`, on the register its
    bound sizes (2 * 899^2 * (1/epsilon + 1) / 2 = 4,041,005 points).  The
    observed values are literals, so a change of register sizing,
    post-processing or seeding cannot move seeded draws unseen."""
    params = SolverParams(seed=seed)
    res = find_order(make_order_instance(899, 2), params)
    assert res.value == classical_order(2, 899)
    assert [s.observed for s in res.samples] == observed
    rng = np.random.default_rng(seed)
    for sample in res.samples:
        assert sample.register_size == 4_041_005
        assert sample == sample_control(make_order_instance(899, 2), 4_041_005, 1, seed=rng)[0]


def order_costs(make, seeds) -> np.ndarray:
    """query_count and trials_used of `find_order` on a fresh instance per
    seed, one row per seed; a run that exhausts its budget counts its
    whole budget."""
    costs = []
    for seed in seeds:
        inst, params = make(), SolverParams(seed=seed)
        try:
            trials = find_order(inst, params).trials_used
        except BudgetExhausted:
            trials = params.trials
        costs.append((inst.query_count, trials))
    return np.array(costs, dtype=float)


@pytest.mark.parametrize("make", [
    lambda: make_order_instance(899, 2),
    lambda: make_period_instance(40, relabel_seed=3),
], ids=["order-899", "period-40"])
def test_one_stream_keeps_the_cost_law_of_per_draw_seeds(make, monkeypatch):
    """Drawing every trial from one stream changes which outcomes a seed
    gives, not their law: over 3,000 seeds the mean query count and trials
    used agree (|z| < 4) with a reference that seeds draw i at seed + i, as
    order finding once did.  The two sides take disjoint seed ranges, since
    a shared seed makes their first draws equal."""
    draws = 3_000
    ours = order_costs(make, range(draws))

    def per_draw_seeded(instance, register_size, count, *, seed):
        return sample_control(instance, register_size, count, seed=next(trial_seeds))

    monkeypatch.setattr(algorithms, "sample_control", per_draw_seeded)
    reference = []
    for seed in range(draws, 2 * draws):
        trial_seeds = itertools.count(seed)
        reference.append(order_costs(make, [seed])[0])
    reference = np.array(reference)
    z = (ours.mean(0) - reference.mean(0)) / np.sqrt((ours.var(0, ddof=1) + reference.var(0, ddof=1)) / draws)
    assert np.abs(z).max() < 4, (ours.mean(0), reference.mean(0), z)


# --- period finding ----------------------------------------------------------


def test_find_period_constant():
    res = find_period(make_period_instance(1), SolverParams(seed=0, period_bound=8))
    assert res.value == 1


def test_find_period_six():
    inst = make_period_instance(6, relabel_seed=1)
    res = find_period(inst, SolverParams(control_bits=8, seed=1, period_bound=12))
    assert res.value == classical_least_period(inst, 48) == 6


def test_find_period_five():
    inst = make_period_instance(5, relabel_seed=2)
    res = find_period(inst, SolverParams(seed=2, period_bound=10))
    assert res.value == 5


def test_find_period_soundness_window():
    inst = make_period_instance(12, relabel_seed=3)
    res = find_period(inst, SolverParams(seed=3, period_bound=24))
    rng = np.random.default_rng(0)
    for t in rng.integers(0, 200, size=10):
        assert inst._raw(int(t) + res.value) == inst._raw(int(t))


@pytest.mark.parametrize("r", [2, 3, 7, 12, 30, 64])
def test_find_period_query_frugality(r):
    inst = make_period_instance(r, relabel_seed=r)
    res = find_period(inst, SolverParams(seed=r, period_bound=64))
    assert res.value == r
    assert inst.query_count <= 20


def test_find_period_without_a_bound():
    inst = make_period_instance(10, relabel_seed=4)
    res = find_period(inst, SolverParams(seed=4))
    assert res.value == 10


def test_stage_one_samples_uniform_over_k():
    # exact-phase case: N = 16 is a multiple of r = 4, so outcomes are k*N/r
    inst = make_order_instance(15, 2)
    from hsplab.estimation import sample_control

    counts = np.zeros(4)
    for s in sample_control(inst, 16, 10_000, seed=12):
        assert s.observed % 4 == 0
        counts[s.observed // 4] += 1
    chi2 = float((((counts - 2500.0) ** 2) / 2500.0).sum())
    assert chi2 < CHI2_CRIT_DF3_P01


# --- factoring ----------------------------------------------------------------


@pytest.mark.parametrize("n,factors", [(15, {3, 5}), (21, {3, 7}), (33, {3, 11}), (35, {5, 7})])
def test_factor_composites(n, factors):
    f = factor_via_order(n, SolverParams(seed=7)).value
    assert f in factors
    assert n % f == 0


def test_factor_rejects_bad_inputs():
    for bad in (14, 9, 27, 13, 8):
        with pytest.raises(ValueError):
            factor_via_order(bad, SolverParams(seed=0))


# --- hidden subgroup, exact promise ---------------------------------------------


def test_hsp_constant_function_full_group():
    spec = GroupSpec.of([2, 2])
    inst = make_hidden_subgroup_instance(spec, [(1, 0), (0, 1)], relabel_seed=0)
    res = solve_hsp_general(inst, SolverParams(seed=1))
    assert subgroups_equal(res.value, inst.truth.subgroup)
    assert all(t == (0, 0) for t in res.samples)


def test_hsp_simon_example():
    inst = make_simon_instance(3, (1, 0, 1))
    res = solve_hsp_general(inst, SolverParams(seed=2))
    assert subgroup_enumerate(res.value) == frozenset({(0, 0, 0), (1, 0, 1)})
    for t in res.samples:
        assert (t[0] * 1 + t[1] * 0 + t[2] * 1) % 2 == 0


def test_hsp_mixed_exponents_exact():
    spec = GroupSpec.of([2, 4])
    planted = [(0, 2), (1, 0)]
    inst = make_hidden_subgroup_instance(spec, planted, relabel_seed=5)
    res = solve_hsp_general(inst, SolverParams(seed=3))
    assert subgroups_equal(res.value, SubgroupGenerators.of(spec, planted))


def test_hsp_solves_descending_prime_power_form():
    # exponents need not ascend: the kernel pairing ignores coordinate order
    inst = make_hidden_subgroup_instance(GroupSpec.of([4, 2]), [(2, 0)], relabel_seed=0)
    res = solve_hsp_general(inst, SolverParams(seed=0))
    assert subgroups_equal(res.value, inst.truth.subgroup)


def test_hsp_oversampling_batch_size():
    """Every batch draws d(G) + 2 characters, and a trial is one batch."""
    cases = [
        make_simon_instance(3, (0, 1, 1)),
        make_hidden_subgroup_instance(GroupSpec.of([6, 10]), [(3, 5)], relabel_seed=1),
        make_hidden_subgroup_instance(GroupSpec.of([2, 2, 2, 2]), [], relabel_seed=2),
        make_hidden_subgroup_instance(GroupSpec.of([1]), [], relabel_seed=0),
    ]
    for seed, inst in enumerate(cases):
        res = solve_hsp_general(inst, SolverParams(seed=seed))
        assert subgroups_equal(res.value, inst.truth.subgroup)
        assert len(res.samples) == res.trials_used * batch_size(inst.domain.moduli)


def _check_queries(kernel: SubgroupGenerators, k: SubgroupGenerators) -> int:
    """What an honest solve bills to check one batch's kernel against f:
    nothing for {0}, else f at the check point and f(x + h) for each
    generator h up to the first outside K, which changes f at any x."""
    if not kernel.generators:
        return 0
    checked = 0
    for h in kernel.generators:
        checked += 1
        if SubgroupGenerators.of(k.spec, [*k.generators, h]) != k:
            break
    return 1 + checked


@pytest.mark.parametrize("moduli", [(4, 4), (2, 2, 2), (6, 10), (1,)])
def test_hsp_bills_draws_and_one_check_point_per_batch(moduli):
    """On every subgroup, an honest solve bills d(G) + 2 draws a batch plus,
    per batch, 1 + the kernel generators checked, with each batch's kernel
    read again from the returned samples.  A kernel of {0} bills its draws
    only."""
    spec = GroupSpec.of(moduli)
    size = batch_size(moduli)
    batches = Counter()
    for index, k in enumerate(all_subgroups(spec)):
        for seed in range(12):
            inst = make_hidden_subgroup_instance(spec, k, relabel_seed=index)
            res = solve_hsp_general(inst, SolverParams(seed=seed))
            assert subgroups_equal(res.value, k)
            kernels = [character_kernel(res.samples[: (i + 1) * size], spec) for i in range(res.trials_used)]
            assert kernels[-1] == res.value
            checks = sum(_check_queries(kernel, k) for kernel in kernels)
            assert inst.query_count == res.trials_used * size + checks
            if not k.generators and res.trials_used == 1:
                assert inst.query_count == size
            batches[res.trials_used] += 1
    if moduli != (1,):  # some solve failed a batch, so a failing check's bill is pinned too
        assert len(batches) > 1, batches


@pytest.mark.parametrize("seed", [0, 7, 123])
def test_hsp_sample_batch_takes_a_generator_or_its_seed(seed):
    one_to_one = make_hidden_subgroup_instance(GroupSpec.of([6, 10]), [(3, 5)], relabel_seed=1)
    inner = make_hidden_subgroup_instance(GroupSpec.of([4, 8]), [(2, 4)], relabel_seed=2)
    with pytest.warns(UserWarning):
        merged = wrap_many_to_one(inner, merge_table(inner.codomain_size, 2, seed), 2)
    for inst in (one_to_one, merged):
        assert hsp_sample_batch(inst, 9, seed=np.random.default_rng(seed)) == hsp_sample_batch(inst, 9, seed=seed)


def test_hsp_solve_draws_its_batches_from_one_stream():
    """The first batch is the one `params.seed` seeds, and a second batch
    continues that stream rather than repeating the first."""
    spec = GroupSpec.of([2, 2, 2, 2])
    size = batch_size(spec.moduli)
    second = 0
    for seed in range(40):
        inst = make_hidden_subgroup_instance(spec, [], relabel_seed=seed)
        res = solve_hsp_general(inst, SolverParams(seed=seed))
        assert res.samples[:size] == hsp_sample_batch(inst, size, seed=seed)
        if res.trials_used > 1:
            second += 1
            assert res.samples[size : 2 * size] != res.samples[:size]
    assert second > 0


@pytest.mark.parametrize(
    "moduli,gens",
    [((2, 2, 2), []), ((4, 2), [(2, 0)]), ((3, 9), []), ((6, 10), [(3, 5)]), ((2, 2, 2, 2), [(1, 1, 0, 0)])],
)
def test_first_spanning_draw_follows_the_generation_law(moduli, gens):
    """With one label per coset the draws are uniform on K^perp, so the
    least i at which the kernel of the first i draws is K has
    P(T <= i) = P(i uniform draws generate K^perp), the closed form on the
    p-ranks of G/K.  A chi-square test over seeded runs, and no run may
    stop where the law is 0."""
    spec = GroupSpec.of(moduli)
    inst = make_hidden_subgroup_instance(spec, gens, relabel_seed=0)
    k = inst.truth.subgroup
    runs, horizon = 4000, 16
    observed = Counter()
    for seed in range(runs):
        draws = hsp_sample_batch(inst, horizon, seed=seed)
        first = next((i for i in range(horizon + 1) if character_kernel(draws[:i], spec) == k), horizon + 1)
        observed[first] += 1
    cdf = [generation_probability(quotient_p_ranks(k), i) for i in range(horizon + 1)]
    law = [cdf[0]] + [b - a for a, b in zip(cdf, cdf[1:])] + [1 - cdf[-1]]
    assert all(observed[i] == 0 for i, p in enumerate(law) if p == 0)
    bins, seen, expected = [], 0, 0.0
    for i, p in enumerate(law):
        seen, expected = seen + observed[i], expected + runs * float(p)
        if expected >= 20:
            bins.append([seen, expected])
            seen, expected = 0, 0.0
    bins[-1][0] += seen
    bins[-1][1] += expected
    stat = sum((o - e) ** 2 / e for o, e in bins)
    assert stat < CHI2_CRIT_P001[len(bins) - 1], (bins, stat)


def test_hsp_detects_inconsistent_black_box():
    # a "function" that changes its answers violates the promise; the solver
    # must notice instead of returning garbage.  Here the sampler draws from
    # the honest table (hiding <(1,1)>), held as its own box over {0}, while
    # every classical query drifts to a fresh value, so the kernel's
    # generator never verifies.
    spec = GroupSpec.of([2, 2])
    inst = OracleInstance(
        domain=spec,
        codomain_size=8,
        box_labels=[[0, 1], [1, 0]],
        truth=PlantedTruth(subgroup=SubgroupGenerators.of(spec, [(1, 1)])),
        descriptor={"kind": "test-flaky"},
    )
    drift = itertools.count(3)
    inst.evaluate = lambda x: next(drift)
    with pytest.raises(PromiseViolation):
        solve_hsp_general(inst, SolverParams(seed=5, trials=3))


@pytest.mark.parametrize(
    "moduli",
    [(2,), (4,), (8,), (16,), (32,), (2, 2), (2, 4), (4, 4), (2, 2, 2), (2, 2, 4),
     (3,), (9,), (27,), (3, 3), (5,), (25,), (7,)],
)
def test_hsp_exactness_battery_scaled(moduli):
    """Every subgroup of each group, a few relabelings each; the full-size
    sweep (order <= 64, 10 relabelings) runs in the acceptance suite."""
    spec = GroupSpec.of(moduli)
    for k in all_subgroups(spec):
        for relabel_seed in (0, 1, 2):
            inst = make_hidden_subgroup_instance(spec, list(k.generators), relabel_seed=relabel_seed)
            res = solve_hsp_general(inst, SolverParams(seed=11 + relabel_seed))
            assert subgroups_equal(res.value, k), (moduli, k.generators, relabel_seed)


# --- hidden subgroup over composite groups ----------------------------------------


def test_hsp_general_trivial_in_z6():
    inst = make_hidden_subgroup_instance(GroupSpec.of([6]), [], relabel_seed=1)
    res = solve_hsp_general(inst, SolverParams(seed=1))
    assert subgroup_enumerate(res.value) == frozenset({(0,)})


def test_hsp_general_z6_even_subgroup():
    inst = make_hidden_subgroup_instance(GroupSpec.of([6]), [(2,)], relabel_seed=2)
    res = solve_hsp_general(inst, SolverParams(seed=2))
    assert subgroup_enumerate(res.value) == frozenset({(0,), (2,), (4,)})


def test_hsp_general_z12_multiples_of_three():
    inst = make_hidden_subgroup_instance(GroupSpec.of([12]), [(3,)], relabel_seed=3)
    res = solve_hsp_general(inst, SolverParams(seed=3))
    assert subgroup_enumerate(res.value) == frozenset({(0,), (3,), (6,), (9,)})


def test_hsp_general_delegates_prime_power():
    inst = make_simon_instance(2, (1, 1))
    res = solve_hsp_general(inst, SolverParams(seed=4))
    assert subgroups_equal(res.value, inst.truth.subgroup)


@pytest.mark.parametrize("moduli", [(6,), (12,), (10, 2), (6, 3)])
def test_hsp_general_battery(moduli):
    spec = GroupSpec.of(moduli)
    for k in all_subgroups(spec):
        inst = make_hidden_subgroup_instance(spec, list(k.generators), relabel_seed=7)
        res = solve_hsp_general(inst, SolverParams(seed=8))
        assert subgroups_equal(res.value, k), (moduli, k.generators)


# --- stabilisers ------------------------------------------------------------------------

STABILISER_CASES = {
    # translations of Z_12 by 3 g0 + 2 g1: stabiliser {3 g0 + 2 g1 = 0 mod 12}
    "translation": lambda: make_stabiliser_instance(
        GroupSpec.of([4, 6]), lambda g, pt: (pt + 3 * g[0] + 2 * g[1]) % 12, 5, 12),
    # XOR on the low two bits of 3-bit points; g2 acts trivially, the orbit is half the points
    "xor": lambda: make_stabiliser_instance(
        GroupSpec.of([2, 2, 2]), lambda g, pt: pt ^ (g[0] + 2 * g[1]), 6, 8),
    # Z_3 x Z_9 turning Z_9: stabiliser {3 g0 + g1 = 0 mod 9}
    "rotation": lambda: make_stabiliser_instance(
        GroupSpec.of([3, 9]), lambda g, pt: (pt + 3 * g[0] + g[1]) % 9, 0, 9),
    "from json": lambda: instance_from_json(
        {"kind": "stabiliser", "moduli": [8, 4], "weights": [2, 4], "points": 8, "x0": 3}),
}


@pytest.mark.parametrize("case", sorted(STABILISER_CASES))
def test_hsp_solver_recovers_stabilisers(case):
    """The stabiliser of a point under an Abelian group action is a hidden
    subgroup: f(g) = g(x0) is constant on its cosets and distinct across
    them, so the coset law is |K|/N on K^perp and the solver recovers it."""
    expected = classical_invariance_subgroup(STABILISER_CASES[case]())
    spec = expected.spec
    perp = [orthogonality_holds(spec, t, expected) for t in spec.elements()]
    for seed in range(3):
        inst = STABILISER_CASES[case]()
        assert subgroups_equal(inst.truth.subgroup, expected)
        law = np.where(perp, expected.order / spec.order, 0.0)
        assert np.array_equal(hsp_control_distribution(inst), law)
        res = solve_hsp_general(inst, SolverParams(seed=seed))
        assert res.verified and subgroups_equal(res.value, expected)


# --- discrete logarithm -------------------------------------------------------------


def test_dlog_unit_target():
    res = solve_dlog(make_dlog_instance(3, 1, modulus=7), SolverParams(seed=0))
    assert res.value == 0
    assert res.verified


def test_dlog_z7_example():
    res = solve_dlog(make_dlog_instance(3, 4, modulus=7), SolverParams(seed=1))
    assert res.value == 4
    assert pow(3, res.value, 7) == 4


def test_dlog_base_equals_target():
    res = solve_dlog(make_dlog_instance(2, 2, modulus=11), SolverParams(seed=2))
    assert res.value == 1


def test_dlog_reuses_collapsed_target():
    res = solve_dlog(make_dlog_instance(3, 5, modulus=7), SolverParams(seed=3))
    assert pow(3, res.value, 7) == 5
    assert res.collapsed_reuses >= 1


def test_dlog_all_pairs_z7():
    for a in range(1, 7):
        r = classical_order(a, 7)
        for m in range(r):
            b = pow(a, m, 7)
            res = solve_dlog(make_dlog_instance(a, b, modulus=7), SolverParams(seed=a * 10 + m))
            assert pow(a, res.value, 7) == b
            assert 0 <= res.value < r


def dlog_expected_queries(r: int) -> float:
    """Expected `solve_dlog` bill on an honest instance with r > 1:
    f(0, 0) and the verification, plus E[T] trials of 2 - 1/r queries each
    (the draw, and stage two unless k = 0).  A trial's k is uniform on Z_r
    and pins m modulo r / gcd(k, r), so m is known mod r once, for every
    prime p | r, some k is prime to p:
    E[T] = 1 + sum over nonempty S of the primes of r of
    (-1)^(|S| + 1) q_S / (1 - q_S), q_S = 1 / prod(S)."""
    primes = [p for p in range(2, r + 1) if r % p == 0 and all(p % d for d in range(2, math.isqrt(p) + 1))]
    trials = 1.0
    for size in range(1, len(primes) + 1):
        for subset in itertools.combinations(primes, size):
            q = 1.0 / math.prod(subset)
            trials += (-1) ** (size + 1) * q / (1.0 - q)
    return 2.0 + trials * (2.0 - 1.0 / r)


@pytest.mark.parametrize("modulus, base, expected", [(1009, 11, 6.7259), (65_537, 3, 6.0000)])
def test_dlog_mean_cost_is_the_closed_form(modulus, base, expected):
    """Over 3,000 seeds, the mean query count lies within |z| < 4 of the
    closed form, which holds only while trials draw independent outcomes."""
    r = classical_order(base, modulus)
    assert dlog_expected_queries(r) == pytest.approx(expected, abs=1e-4)
    inst = make_dlog_instance(base, pow(base, 500, modulus), modulus=modulus)
    costs = []
    for seed in range(3_000):
        before = inst.query_count
        assert solve_dlog(inst, SolverParams(seed=seed)).verified
        costs.append(inst.query_count - before)
    costs = np.array(costs, dtype=float)
    z = (costs.mean() - dlog_expected_queries(r)) / (costs.std(ddof=1) / np.sqrt(costs.size))
    assert abs(z) < 4, (costs.mean(), z)


# --- robust (many-to-1) period finding ------------------------------------------------


def test_robust_period_multiplicity_one_degenerates():
    inst = make_period_instance(6, relabel_seed=1)
    res = robust_period(inst, SolverParams(seed=0, period_bound=12))
    assert res.value == 6


def test_robust_period_two_to_one():
    inst = merged_period_instance(6, 2, relabel_seed=2, merge_seed=10)
    res = robust_period(inst, SolverParams(seed=9, period_bound=64))
    assert res.value == 6
    assert res.verified


def test_robust_period_three_to_one_scan_bound():
    inst = merged_period_instance(12, 3, relabel_seed=3, merge_seed=20)
    res = robust_period(inst, SolverParams(seed=10, period_bound=144))
    assert res.value == 12


def test_robust_period_translation_symmetric_merge_finds_true_period():
    # the pathological pairing that makes the merged map 3-periodic: the
    # only defensible answer is the merged function's actual least period
    inner = make_period_instance(6, relabel_seed=0)
    vals = [inner._raw(t) for t in range(6)]
    table = np.arange(6)
    for i in range(3):
        table[vals[i + 3]] = vals[i]
    with pytest.warns(UserWarning):
        merged = wrap_many_to_one(inner, table, 2)
    res = robust_period(merged, SolverParams(seed=11, period_bound=64))
    assert res.value == classical_least_period(merged, 64) == 3


def test_robust_period_result_is_always_the_least_period():
    for seed in range(12):
        inst = merged_period_instance(10, 2, relabel_seed=seed, merge_seed=seed * 31)
        res = robust_period(inst, SolverParams(seed=seed, period_bound=100))
        assert res.value == classical_least_period(inst, 100)
        assert all(inst._raw(t + res.value) == inst._raw(t) for t in range(25))


def test_robust_period_accepted_factors_divide_answer():
    inst = merged_period_instance(30, 2, relabel_seed=5, merge_seed=77)
    res = robust_period(inst, SolverParams(seed=12, period_bound=60))
    assert res.value == 30


def robust_period_costs(inst, seeds, bound: int) -> np.ndarray:
    """Queries and draws of `robust_period` per seed on one instance, one
    row per seed; a run that exhausts its budget counts its whole budget,
    trials times m² draws."""
    costs = []
    for seed in seeds:
        params, before = SolverParams(seed=seed, period_bound=bound), inst.query_count
        try:
            trials = robust_period(inst, params).trials_used
        except BudgetExhausted:
            trials = params.trials * inst.multiplicity_bound**2
        costs.append((inst.query_count - before, trials))
    return np.array(costs, dtype=float)


def test_robust_period_one_stream_keeps_the_cost_law_of_fresh_draws(monkeypatch):
    """Drawing every reading from one stream changes which outcomes a seed
    gives, not their law: over 1,000 seeds each side, on a merged
    (r, m) = (12, 2) instance, the mean queries and draws agree
    (|z| < 4) with a reference that takes each draw from a fresh seed, one
    no other draw shares."""
    inst = merged_period_instance(12, 2, relabel_seed=1, merge_seed=1)
    runs = 1_000
    ours = robust_period_costs(inst, range(runs), 24)
    fresh_seeds = itertools.count(10 * runs)

    def fresh_draw(instance, register_size, count, *, seed):
        return sample_control(instance, register_size, count, seed=next(fresh_seeds))

    monkeypatch.setattr(algorithms, "sample_control", fresh_draw)
    reference = robust_period_costs(inst, range(runs, 2 * runs), 24)
    spread = np.sqrt((ours.var(0, ddof=1) + reference.var(0, ddof=1)) / runs)
    gap = ours.mean(0) - reference.mean(0)
    z = np.divide(gap, spread, out=np.zeros_like(gap), where=spread > 0)
    assert np.all(gap[spread == 0] == 0) and np.abs(z).max() < 4, (ours.mean(0), reference.mean(0), z)


# --- robust (many-to-1) hidden subgroup ------------------------------------------------


def test_robust_hsp_multiplicity_one_degenerates():
    inst = make_simon_instance(2, (1, 1))
    res = robust_hsp(inst, SolverParams(seed=0))
    assert subgroups_equal(res.value, inst.truth.subgroup)


def test_robust_hsp_simon_full_merge_returns_whole_group():
    inner = make_simon_instance(2, (1, 1))
    with pytest.warns(UserWarning):
        merged = wrap_many_to_one(inner, np.zeros(2, dtype=int), 2)
    res = robust_hsp(merged, SolverParams(seed=1))
    spec = GroupSpec.of([2, 2])
    assert subgroups_equal(res.value, SubgroupGenerators.of(spec, [(1, 0), (0, 1)]))


def test_robust_hsp_z8_merge_preserving_planted_subgroup():
    inner = make_hidden_subgroup_instance(GroupSpec.of([8]), [(4,)], relabel_seed=7)
    labels = [inner._raw((x,)) for x in range(4)]
    table = np.arange(inner.codomain_size)
    table[labels[1]] = labels[0]  # adjacent cosets share a value
    with pytest.warns(UserWarning):
        merged = wrap_many_to_one(inner, table, 2)
    truth = classical_invariance_subgroup(merged)
    assert subgroups_equal(truth, inner.truth.subgroup)  # merge kept K = <4>
    res = robust_hsp(merged, SolverParams(seed=2))
    assert subgroups_equal(res.value, truth)


def test_robust_hsp_merge_enlarging_invariance_returns_enlargement():
    inner = make_hidden_subgroup_instance(GroupSpec.of([8]), [(4,)], relabel_seed=3)
    labels = [inner._raw((x,)) for x in range(4)]
    table = np.arange(inner.codomain_size)
    table[labels[2]] = labels[0]
    table[labels[3]] = labels[1]
    with pytest.warns(UserWarning):
        merged = wrap_many_to_one(inner, table, 2)
    res = robust_hsp(merged, SolverParams(seed=3))
    assert subgroups_equal(res.value, classical_invariance_subgroup(merged))
    assert subgroup_enumerate(res.value) == frozenset({(0,), (2,), (4,), (6,)})


@pytest.mark.parametrize(
    "moduli,gens",
    [((2, 4), [(1, 2)]), ((9,), [(3,)]), ((2, 2, 2), [(1, 1, 0)]), ((2, 6), [(0, 3)]), ((3, 6), [(1, 2)])],
)
def test_robust_hsp_random_merges_match_classical_truth(moduli, gens):
    """The answer is the brute-force invariance subgroup, and the bill is
    one query per domain point, for the table read once, plus one per draw,
    d(G) + 2 a batch, under the merge's bound 2 and under a bound of |G|."""
    spec = GroupSpec.of(moduli)
    inner = make_hidden_subgroup_instance(spec, gens, relabel_seed=1)
    for seed in range(4):
        table = merge_table(inner.codomain_size, 2, seed)
        for bound in (2, spec.order):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                merged = wrap_many_to_one(inner, table, bound)
            truth = classical_invariance_subgroup(merged)
            before = merged.query_count
            res = robust_hsp(merged, SolverParams(seed=seed))
            assert subgroups_equal(res.value, truth)
            assert len(res.samples) == batch_size(moduli) * res.trials_used
            assert merged.query_count - before == spec.order + len(res.samples)


# the robust-hsp shapes of the benchmark's CLI mix: moduli, K's generators, m
CLI_ROBUST_HSP = (((4, 8), [(2, 4)], 2), ((3, 9), [(0, 3)], 3), ((2, 2, 4), [(1, 0, 2)], 2), ((5, 25), [(0, 5)], 3))


@pytest.mark.parametrize("moduli, gens, m", CLI_ROBUST_HSP, ids=lambda v: str(v))
def test_robust_hsp_battery_matches_classical_truth(moduli, gens, m):
    """Over 200 seeds each, with the merge and the relabelling drawn at the
    solver's seed as the CLI draws them, every answer is the brute-force
    invariance subgroup, within 20 · m² batches."""
    spec = GroupSpec.of(moduli)
    for seed in range(200):
        inner = make_hidden_subgroup_instance(spec, gens, relabel_seed=seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            merged = wrap_many_to_one(inner, merge_table(inner.codomain_size, m, seed), m)
        res = robust_hsp(merged, SolverParams(seed=seed))
        assert subgroups_equal(res.value, classical_invariance_subgroup(merged)), seed
        assert res.trials_used <= 20 * m * m


def near_invariant_hsp(k: int) -> OracleInstance:
    """Z_2^k with K = {0}, x and x + e_0 merged for every x but two: 0 and
    e_1 are merged with each other's partner, so f is no longer invariant
    under e_0, though nearly every draw lies in e_0's annihilator."""
    spec = GroupSpec.of([2] * k)
    inner = make_hidden_subgroup_instance(spec, [], relabel_seed=0)
    table = np.arange(inner.codomain_size)
    for x in itertools.product((0, 1), repeat=k - 1):
        table[inner._raw((1, *x))] = inner._raw((0, *x))
    e1 = (0, 1) + (0,) * (k - 2)
    table[inner._raw((1, 1) + (0,) * (k - 2))] = inner._raw(spec.identity())
    table[inner._raw((1,) + (0,) * (k - 1))] = inner._raw(e1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return wrap_many_to_one(inner, table, 2)


def near_invariant_period(r: int) -> OracleInstance:
    """A period-r function with t and t + r/2 merged for every t but two:
    0 and 1 are merged with each other's partner, so r stays the least
    period, though nearly every reading is a multiple of 2/r."""
    inner = make_period_instance(r, relabel_seed=0)
    labels = [inner._raw(t) for t in range(r)]
    table = np.arange(r)
    for t in range(r // 2):
        table[labels[t + r // 2]] = labels[t]
    table[labels[r // 2]], table[labels[r // 2 + 1]] = labels[1], labels[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return wrap_many_to_one(inner, table, 2)


@pytest.mark.parametrize("solver, size", [("hsp", 16), ("hsp", 64), ("period", 16), ("period", 64)])
def test_robust_solvers_on_near_invariant_merges_are_exact_or_fail(solver, size):
    """A merge at m = 2 that is invariant under a shift at all but two
    points lies outside the promise (m reaches the smallest prime of the
    index): over 20 seeds, every answer returned is the brute-force truth,
    and every other run ends in PromiseViolation or BudgetExhausted."""
    if solver == "hsp":
        inst = near_invariant_hsp(size.bit_length() - 1)
        truth = classical_invariance_subgroup(inst)
        assert truth.order == 1
    else:
        inst = near_invariant_period(size)
        assert classical_least_period(inst, size) == size
    for seed in range(20):
        try:
            if solver == "hsp":
                assert subgroups_equal(robust_hsp(inst, SolverParams(seed=seed)).value, truth), seed
            else:
                assert robust_period(inst, SolverParams(seed=seed, period_bound=size)).value == size, seed
        except (PromiseViolation, BudgetExhausted):
            pass


def test_robust_hsp_scales_past_the_label_one_hot():
    """Z_256 x Z_256 with K = <(1,1)> merged 2-to-1: a labels x points
    one-hot would hold 128 x 65536 amplitudes, twice the default cap."""
    inner = make_hidden_subgroup_instance(GroupSpec.of([256, 256]), [(1, 1)], relabel_seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        merged = wrap_many_to_one(inner, merge_table(inner.codomain_size, 2, 1), 2)
    res = robust_hsp(merged, SolverParams(seed=1))
    assert subgroups_equal(res.value, classical_invariance_subgroup(merged))


# --- one random stream per solve ------------------------------------------------------


def seeded_streams(monkeypatch) -> list:
    """Record the argument of every `np.random.default_rng` call that seeds
    a new stream, rather than passing a Generator through."""
    seeded = []
    default_rng = np.random.default_rng

    def spy(seed=None):
        if not isinstance(seed, np.random.Generator):
            seeded.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", spy)
    return seeded


ONE_STREAM_SOLVES = {
    "find_order": (lambda: make_order_instance(899, 2), find_order, {}),
    "find_period": (lambda: make_period_instance(40, relabel_seed=3), find_period, {}),
    "solve_hsp_general": (
        lambda: make_hidden_subgroup_instance(GroupSpec.of([4, 6]), [(2, 3)], relabel_seed=1), solve_hsp_general, {},
    ),
    "solve_dlog": (lambda: make_dlog_instance(3, 5, modulus=7), solve_dlog, {}),
    "robust_period": (
        lambda: merged_period_instance(12, 2, relabel_seed=1, merge_seed=1), robust_period, {"period_bound": 24},
    ),
    "robust_hsp": (
        lambda: wrap_many_to_one(make_simon_instance(3, (1, 0, 1)), merge_table(4, 2, 1), 2), robust_hsp, {},
    ),
}


@pytest.mark.parametrize("name", ONE_STREAM_SOLVES)
def test_every_solve_seeds_one_stream(name, monkeypatch):
    """A solve makes one Generator, from params.seed, and draws everything
    from it, over trials and steps that draw more than once."""
    make, solve, extra = ONE_STREAM_SOLVES[name]
    seeded = seeded_streams(monkeypatch)
    draws = []
    for seed in range(8):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = make()
        seeded.clear()
        draws.append(len(solve(inst, SolverParams(seed=seed, **extra)).samples))
        assert seeded == [seed]
    assert max(draws) >= 2


@pytest.mark.parametrize("n, seeds", [(21, [3, 10, 39]), (143, [3, 15, 29])])
def test_factoring_seeds_one_stream_across_attempts(n, seeds, monkeypatch):
    """The bases and every attempt's order-finding samples come from one
    stream, at seeds whose solves run order finding two or more times."""
    bases = []
    build = algorithms.make_order_instance
    monkeypatch.setattr(algorithms, "make_order_instance", lambda modulus, a: bases.append(a) or build(modulus, a))
    seeded = seeded_streams(monkeypatch)
    for seed in seeds:
        bases.clear()
        seeded.clear()
        g = factor_via_order(n, SolverParams(seed=seed)).value
        assert 1 < g < n and n % g == 0
        assert len(bases) >= 2 and seeded == [seed]


# --- serialization ---------------------------------------------------------------------


def test_solver_params_round_trip():
    p = SolverParams(control_bits=6, trials=9, epsilon=0.125, seed=3, period_bound=20)
    assert SolverParams.from_json(p.to_json()) == p


def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(trials=0)
    with pytest.raises(ValueError):
        SolverParams(epsilon=1.0)
    with pytest.raises(ValueError):
        SolverParams(period_bound=0)
    for bad in ({"seed": "1"}, {"period_bound": "x"}, {"trials": True}, {"epsilon": "0.1"},
                {"doubling": 1}, {"period_bond": 3}):
        with pytest.raises(ValueError, match=next(iter(bad))):
            SolverParams.from_json(bad)
    assert SolverParams(seed=np.int64(2), epsilon=np.float64(0.5)).seed == 2  # numpy scalars pass


_INTEGER_FIELDS = ("control_bits", "trials", "seed", "period_bound")


@given(field=st.sampled_from(_INTEGER_FIELDS + ("epsilon",)), flag=st.booleans())
def test_params_reject_a_bool_in_every_field(field, flag):
    with pytest.raises(ValueError, match=field):
        SolverParams(**{field: flag})


@given(field=st.sampled_from(_INTEGER_FIELDS), value=st.floats(allow_nan=True, allow_infinity=True))
@example(field="trials", value=3.0)
def test_params_reject_a_float_in_an_integer_field(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SolverParams(**{field: value})


@given(
    field=st.sampled_from(_INTEGER_FIELDS),
    value=st.integers(1, 2**31 - 1),
    kind=st.sampled_from((np.int64, np.uint64, np.int32)),
    epsilon=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    float_kind=st.sampled_from((float, np.float64, np.float32)),
)
def test_params_accept_numpy_scalars(field, value, kind, epsilon, float_kind):
    epsilon = float_kind(epsilon)
    assume(0.0 < epsilon < 1.0)  # a float32 can round onto either end
    params = SolverParams(**{field: kind(value)}, epsilon=epsilon)
    assert getattr(params, field) == value and params.epsilon == epsilon


def test_find_order_takes_a_float32_epsilon():
    """`SolverParams` takes any real epsilon: an np.float32 0.25 sizes the
    register as the float 0.25 does, so the run is the same."""
    run = find_order(make_order_instance(15, 2), SolverParams(seed=1, epsilon=np.float32(0.25)))
    assert run.verified and run.value == 4
    assert run.to_json() == find_order(make_order_instance(15, 2), SolverParams(seed=1, epsilon=0.25)).to_json()


def test_result_json_shapes():
    res = find_order(make_order_instance(15, 2), SolverParams(seed=1, period_bound=15))
    blob = res.to_json()
    assert blob["value"] == 4 and blob["verified"] is True
    assert isinstance(blob["samples"], list)
    inst = make_simon_instance(2, (1, 0))
    hres = solve_hsp_general(inst, SolverParams(seed=2))
    hblob = hres.to_json()
    assert hblob["value"]["generators"] == [list(g) for g in hres.value.generators]
