"""End-to-end solvers: order/period finding, factoring, hidden subgroups,
discrete logs, and the many-to-1 robust variants.

Expected values come from the classical scan oracles, never from the
solvers' own bookkeeping: multiplicative orders by iteration, least periods
by window scan, subgroups by exhaustive invariance checks.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

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
from hsplab.groups import GroupSpec, SubgroupGenerators, all_subgroups, subgroups_equal
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
from dense_reference import hsp_control_distribution, orthogonality_holds, subgroup_enumerate

# chi-square critical value, df=3, significance 0.01
CHI2_CRIT_DF3_P01 = 11.345


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


def test_find_order_doubling_mode():
    res = find_order(make_order_instance(15, 2), SolverParams(seed=5))
    assert res.value == 4


def test_find_order_without_bound_doubles():
    # bounds 2, 4, ...: a bound of 2 cannot verify r = 6, so the run only
    # ends once a doubled bound reaches it, after more than one budget
    inst = make_order_instance(7, 3)
    res = find_order(inst, SolverParams(seed=0, trials=3))
    assert res.value == 6
    assert inst.query_count > 3


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


def test_find_period_doubling_mode():
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
    f = factor_via_order(n, SolverParams(seed=7))
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
    inst = make_simon_instance(3, (0, 1, 1))
    res = solve_hsp_general(inst, SolverParams(seed=4))
    # one batch of 4l + 10 samples suffices generically
    assert len(res.samples) >= 4 * 3 + 10


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


# --- robust (many-to-1) period finding ------------------------------------------------


def test_robust_period_multiplicity_one_degenerates():
    inst = make_period_instance(6, relabel_seed=1)
    res = robust_period(inst, SolverParams(seed=0, period_bound=12, multiplicity=1))
    assert res.value == 6


def test_robust_period_two_to_one():
    inst = merged_period_instance(6, 2, relabel_seed=2, merge_seed=10)
    res = robust_period(inst, SolverParams(seed=9, period_bound=64, multiplicity=2))
    assert res.value == 6
    assert res.verified


def test_robust_period_three_to_one_scan_bound():
    inst = merged_period_instance(12, 3, relabel_seed=3, merge_seed=20)
    res = robust_period(inst, SolverParams(seed=10, period_bound=144, multiplicity=3))
    assert res.value == 12
    assert res.scan_evaluations <= 9  # m^2


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
    res = robust_period(merged, SolverParams(seed=11, period_bound=64, multiplicity=2))
    assert res.value == classical_least_period(merged, 64) == 3


def test_robust_period_result_is_always_the_least_period():
    for seed in range(12):
        inst = merged_period_instance(10, 2, relabel_seed=seed, merge_seed=seed * 31)
        res = robust_period(inst, SolverParams(seed=seed, period_bound=100, multiplicity=2))
        assert res.value == classical_least_period(inst, 100)
        assert all(inst._raw(t + res.value) == inst._raw(t) for t in range(25))


def test_robust_period_accepted_factors_divide_answer():
    inst = merged_period_instance(30, 2, relabel_seed=5, merge_seed=77)
    res = robust_period(inst, SolverParams(seed=12, period_bound=60, multiplicity=2))
    assert res.value == 30
    for f in res.factors_accepted:
        assert res.value % f == 0 or f % res.value == 0


# --- robust (many-to-1) hidden subgroup ------------------------------------------------


def test_robust_hsp_multiplicity_one_degenerates():
    inst = make_simon_instance(2, (1, 1))
    res = robust_hsp(inst, SolverParams(seed=0, multiplicity=1))
    assert subgroups_equal(res.value, inst.truth.subgroup)


def test_robust_hsp_simon_full_merge_returns_whole_group():
    inner = make_simon_instance(2, (1, 1))
    with pytest.warns(UserWarning):
        merged = wrap_many_to_one(inner, np.zeros(2, dtype=int), 2)
    res = robust_hsp(merged, SolverParams(seed=1, multiplicity=2))
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
    res = robust_hsp(merged, SolverParams(seed=2, multiplicity=2))
    assert subgroups_equal(res.value, truth)


def test_robust_hsp_merge_enlarging_invariance_returns_enlargement():
    inner = make_hidden_subgroup_instance(GroupSpec.of([8]), [(4,)], relabel_seed=3)
    labels = [inner._raw((x,)) for x in range(4)]
    table = np.arange(inner.codomain_size)
    table[labels[2]] = labels[0]
    table[labels[3]] = labels[1]
    with pytest.warns(UserWarning):
        merged = wrap_many_to_one(inner, table, 2)
    res = robust_hsp(merged, SolverParams(seed=3, multiplicity=2))
    assert subgroups_equal(res.value, classical_invariance_subgroup(merged))
    assert subgroup_enumerate(res.value) == frozenset({(0,), (2,), (4,), (6,)})


@pytest.mark.parametrize(
    "moduli,gens",
    [((2, 4), [(1, 2)]), ((9,), [(3,)]), ((2, 2, 2), [(1, 1, 0)]), ((2, 6), [(0, 3)]), ((3, 6), [(1, 2)])],
)
def test_robust_hsp_random_merges_match_classical_truth(moduli, gens):
    """The answer is the brute-force invariance subgroup, and the bill is
    one query per domain point plus one per draw; a domain smaller than m²
    draws nothing."""
    spec = GroupSpec.of(moduli)
    inner = make_hidden_subgroup_instance(spec, gens, relabel_seed=1)
    import warnings

    for seed in range(4):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            merged = wrap_many_to_one(inner, merge_table(inner.codomain_size, 2, seed), 2)
        truth = classical_invariance_subgroup(merged)
        before = merged.query_count
        res = robust_hsp(merged, SolverParams(seed=seed, multiplicity=2))
        assert subgroups_equal(res.value, truth)
        assert merged.query_count - before == spec.order + 4 * spec.rank + 10
        before = merged.query_count
        res = robust_hsp(merged, SolverParams(seed=seed, multiplicity=spec.order))
        assert res.samples == [] and subgroups_equal(res.value, truth)
        assert merged.query_count - before == spec.order


def test_robust_hsp_scales_past_the_label_one_hot():
    """Z_256 x Z_256 with K = <(1,1)> merged 2-to-1: a labels x points
    one-hot would hold 128 x 65536 amplitudes, twice the default cap."""
    inner = make_hidden_subgroup_instance(GroupSpec.of([256, 256]), [(1, 1)], relabel_seed=1)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        merged = wrap_many_to_one(inner, merge_table(inner.codomain_size, 2, 1), 2)
    res = robust_hsp(merged, SolverParams(seed=1, multiplicity=2))
    assert subgroups_equal(res.value, classical_invariance_subgroup(merged))


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


def test_result_json_shapes():
    res = find_order(make_order_instance(15, 2), SolverParams(seed=1, period_bound=15))
    blob = res.to_json()
    assert blob["value"] == 4 and blob["verified"] is True
    assert isinstance(blob["samples"], list)
    inst = make_simon_instance(2, (1, 0))
    hres = solve_hsp_general(inst, SolverParams(seed=2))
    hblob = hres.to_json()
    assert hblob["value"]["generators"] == [list(g) for g in hres.value.generators]
