"""Final acceptance battery.

Each test covers one release criterion end to end and prints a single
PASS/FAIL line (visible under ``pytest -s``); the assertions carry the same
condition, so plain ``pytest`` enforces identical gates.  Expected values
come from classical brute-force oracles and analytic bounds, never from the
solvers under test.
"""

from __future__ import annotations

import itertools
import math
import time
from math import gcd

import numpy as np
import pytest

from hsplab.algorithms import (
    SolverParams,
    factor_via_order,
    find_order,
    find_period,
    robust_period,
    solve_dlog,
    solve_hsp_general,
)
from hsplab.estimation import control_distribution, hsp_sample_batch, phase_estimate_semiclassical
from hsplab.groups import GroupSpec, all_subgroups, subgroups_equal
from hsplab.oracles import (
    OracleInstance,
    PlantedTruth,
    classical_least_period,
    classical_order,
    make_deutsch_instance,
    make_dlog_instance,
    make_hidden_subgroup_instance,
    make_order_instance,
    make_period_instance,
    make_simon_instance,
    wrap_many_to_one,
)
from hsplab.qft import estimator_distribution
from dense_reference import verify_main_equality
from test_estimation import branch_tree_law


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE] {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")


def _units(n: int) -> list[int]:
    return [a for a in range(1, n) if gcd(a, n) == 1]


# --- 1: estimator probability bounds ------------------------------------------------


def test_criterion_1_estimator_bounds():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260818)
    checked = 0
    ok = True
    for n in (8, 16, 64, 100, 128):
        grid = np.arange(n) / n
        for phi in rng.random(100):
            probs = estimator_distribution(float(phi), n).probs
            d = np.abs(grid - phi)
            d = np.minimum(d, 1.0 - d)
            ok &= probs[int(np.argmin(d))] >= 4 / np.pi**2 - 1e-12
            for k in (2, 3, 4):
                mass = probs[d <= k / n + 1e-15].sum()
                ok &= mass >= 1 - 1 / (2 * k - 1) - 1e-12
            checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    _report("criterion 1 (estimator bounds)", ok,
            f"{checked} distributions, closest >= 4/pi^2 and within-k mass bounds, "
            f"{elapsed:.1f}s (< 10s)")
    assert ok


# --- 2: dual-route state equality ---------------------------------------------------


def _shifted_period_instance(r: int, relabel_seed: int) -> OracleInstance:
    """Period-r relabeled function that also exposes its shift maps, so the
    one-register route is available for the dual-route comparison."""
    rng = np.random.default_rng(relabel_seed)
    relab = rng.permutation(r).astype(np.int64)
    inverse = np.argsort(relab)

    def shift(g: int) -> np.ndarray:
        return relab[(inverse + g) % r]

    return OracleInstance(
        domain=None,
        codomain_size=r,
        period_labels=relab,
        shift_fn=shift,
        truth=PlantedTruth(period=r),
        descriptor={"kind": "shifted-period", "period": r},
    )


def _main_equality_battery() -> list[OracleInstance]:
    battery: list[OracleInstance] = []
    for f0, f1 in itertools.product((0, 1), repeat=2):
        battery.append(make_deutsch_instance(f0, f1))
    for bits in (2, 3, 4):
        for secret in itertools.product((0, 1), repeat=bits):
            if any(secret):
                battery.append(make_simon_instance(bits, secret))
    for n in (15, 21, 33):
        for a in _units(n):
            battery.append(make_order_instance(n, a))
    for r in range(1, 13):
        for seed in (0, 1):
            battery.append(_shifted_period_instance(r, seed))
    return battery


def test_criterion_2_main_equality_battery():
    t0 = time.monotonic()
    battery = _main_equality_battery()
    worst = max(verify_main_equality(inst) for inst in battery)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 30.0
    _report("criterion 2 (dual-route equality)", ok,
            f"{len(battery)} instances, worst L2 residual {worst:.2e} (< 1e-9), "
            f"{elapsed:.1f}s (< 30s)")
    assert ok


# --- 3: order finding over whole unit groups ----------------------------------------


def test_criterion_3_order_finding_battery():
    t0 = time.monotonic()
    total = exact = 0
    for n in (15, 21, 33):
        bits = math.ceil(2 * math.log2(n))
        for a in _units(n):
            inst = make_order_instance(n, a)
            res = find_order(
                inst,
                SolverParams(seed=1000 * n + a, trials=20, control_bits=bits,
                             period_bound=n),
            )
            total += 1
            exact += res.value == classical_order(a, n) and res.verified
    elapsed = time.monotonic() - t0
    ok = exact == total and elapsed < 120.0
    _report("criterion 3 (order finding)", ok,
            f"{exact}/{total} exact with 2*log2(N) control bits, budget 20, "
            f"{elapsed:.1f}s (< 120s)")
    assert ok


# --- 4: factoring through even orders -----------------------------------------------


def test_criterion_4_factoring():
    t0 = time.monotonic()
    results = {}
    for n in (15, 21, 33, 35):
        d = factor_via_order(n, SolverParams(seed=n, trials=20, period_bound=n))
        results[n] = d
    elapsed = time.monotonic() - t0
    ok = all(n % d == 0 and 1 < d < n for n, d in results.items()) and elapsed < 60.0
    _report("criterion 4 (factoring)", ok,
            f"factors {results}, {elapsed:.1f}s (< 60s)")
    assert ok


# --- 5: exhaustive hidden-subgroup exactness ----------------------------------------


def _ascending_partitions(total: int, minimum: int = 1):
    if total == 0:
        yield ()
        return
    for first in range(minimum, total + 1):
        for rest in _ascending_partitions(total - first, first):
            yield (first,) + rest


def _prime_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _acceptance_group_specs() -> list[tuple[int, ...]]:
    specs: list[tuple[int, ...]] = []
    # every Abelian p-group of order <= 64
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        e = 1
        while p**e <= 64:
            for part in _ascending_partitions(e):
                specs.append(tuple(p**x for x in part))
            e += 1
    # every Abelian group of composite (multi-prime) order <= 72
    for order in range(6, 73):
        fac = _prime_factorization(order)
        if len(fac) < 2:
            continue
        per_prime = [
            [tuple(p**x for x in part) for part in _ascending_partitions(fac[p])]
            for p in sorted(fac)
        ]
        for combo in itertools.product(*per_prime):
            specs.append(tuple(m for chunk in combo for m in chunk))
    return specs


def test_criterion_5_hsp_exactness_exhaustive():
    t0 = time.monotonic()
    runs = exact = 0
    for moduli in _acceptance_group_specs():
        spec = GroupSpec.of(moduli)
        for k_index, k in enumerate(all_subgroups(spec)):
            for relabel in range(10):
                inst = make_hidden_subgroup_instance(
                    spec, list(k.generators), relabel_seed=relabel
                )
                res = solve_hsp_general(
                    inst, SolverParams(seed=31 * k_index + relabel)
                )
                runs += 1
                exact += subgroups_equal(res.value, k)
    elapsed = time.monotonic() - t0
    ok = exact == runs and elapsed < 600.0
    _report("criterion 5 (hidden-subgroup exactness)", ok,
            f"{exact}/{runs} exact over all subgroups x 10 relabelings, "
            f"oversampling 4l+10, {elapsed:.1f}s (< 600s)")
    assert ok


# --- 6: sampled characters annihilate the hidden vector -----------------------------


def test_criterion_6_simon_samples_orthogonal():
    secrets = [(1, 1, 0), (1, 0, 1, 1), (0, 1, 1, 0, 1), (1, 0, 1, 1, 0, 1)]
    draws_each = 2500
    violations = total = 0
    for secret in secrets:
        inst = make_simon_instance(len(secret), secret)
        samples = hsp_sample_batch(inst, draws_each, seed=len(secret))
        for t in samples:
            total += 1
            violations += sum(ti * si for ti, si in zip(t, secret)) % 2 != 0
    ok = violations == 0 and total == len(secrets) * draws_each
    _report("criterion 6 (sampled relations)", ok,
            f"{total} samples, {violations} violations of t.s = 0 mod 2")
    assert ok


# --- 7: discrete logarithms over small prime fields ---------------------------------


def test_criterion_7_dlog_battery():
    t0 = time.monotonic()
    total = exact = reuses = 0
    for p in (7, 11, 13):
        for a in range(1, p):
            r = classical_order(a, p)
            for j in range(r):
                b = pow(a, j, p)
                inst = make_dlog_instance(a, b, p)
                res = solve_dlog(inst, SolverParams(seed=97 * p + 13 * a + j))
                total += 1
                exact += pow(a, res.value, p) == b and res.verified
                reuses += res.collapsed_reuses
                if r > 1:
                    assert res.collapsed_reuses >= 1
    elapsed = time.monotonic() - t0
    ok = exact == total and reuses > 0 and elapsed < 120.0
    _report("criterion 7 (discrete logs)", ok,
            f"{exact}/{total} pairs with a^m = b exactly, "
            f"{reuses} collapsed-target reuses, {elapsed:.1f}s (< 120s)")
    assert ok


# --- 8: semi-classical control equals the full register -----------------------------


def test_criterion_8_semiclassical_equivalence():
    worst_l1 = 0.0
    live_ok = True
    count = 0
    for n in (15, 21, 33):
        for a in _units(n):
            inst = make_order_instance(n, a)
            for bits in range(1, 7):
                full = control_distribution(inst, 1 << bits)
                semi = branch_tree_law(inst, bits)
                worst_l1 = max(worst_l1, float(np.abs(full - semi).sum()))
                count += 1
            run = phase_estimate_semiclassical(inst, 6, seed=3)
            live_ok &= run.live_dimension <= 2 * inst.codomain_size
    ok = worst_l1 < 1e-9 and live_ok
    _report("criterion 8 (semi-classical equivalence)", ok,
            f"{count} distribution pairs, worst L1 {worst_l1:.2e} (< 1e-9), "
            f"live state <= 2|X|: {live_ok}")
    assert ok


# --- 9: robustness of period finding under m-to-1 merges ----------------------------


def _merge_table(size: int, m: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    perm = rng.permutation(size)
    table = np.empty(size, dtype=np.int64)
    for pos, label in enumerate(perm):
        table[label] = pos // m
    return table


def _merged_instance(r: int, m: int, relabel_seed: int, merge_seed: int):
    inner = make_period_instance(r, relabel_seed=relabel_seed)
    with pytest.warns(UserWarning):
        return wrap_many_to_one(inner, _merge_table(r, m, merge_seed), m)


def _period_preserving_instance(r: int, m: int, relabel_seed: int) -> OracleInstance:
    """First random merge whose collapsed function still has least period r
    (a symmetric merge genuinely shortens the period and is a different,
    separately tested regime)."""
    for merge_seed in itertools.count():
        inst = _merged_instance(r, m, relabel_seed, merge_seed)
        if classical_least_period(inst, r) == r:
            return inst
    raise AssertionError("unreachable")


def test_criterion_9_robust_period():
    t0 = time.monotonic()
    allocation = {(6, 2): 200, (6, 3): 200, (12, 2): 200, (12, 3): 200,
                  (30, 2): 100, (30, 3): 100}
    runs = exact = 0
    scan_ok = factors_ok = True
    for (r, m), n_runs in allocation.items():
        inst = _period_preserving_instance(r, m, relabel_seed=r + m)
        for seed in range(n_runs):
            res = robust_period(
                inst, SolverParams(seed=seed, period_bound=2 * r, multiplicity=m)
            )
            runs += 1
            exact += res.value == r
            scan_ok &= res.scan_evaluations <= m * m
            factors_ok &= all(r % f == 0 for f in res.factors_accepted)
    elapsed = time.monotonic() - t0
    ok = exact == runs and scan_ok and factors_ok and runs == 1000 and elapsed < 300.0
    _report("criterion 9 (merged-label robustness)", ok,
            f"{exact}/{runs} exact for 2-to-1 and 3-to-1, r in {{6,12,30}}; "
            f"trailing scan <= m^2: {scan_ok}; no wrong factor accepted: {factors_ok}; "
            f"{elapsed:.1f}s (< 300s)")
    assert ok


# --- 10: constant-query period finding ----------------------------------------------


def test_criterion_10_query_frugality():
    worst = 0
    for r in range(1, 65):
        inst = make_period_instance(r, relabel_seed=r)
        res = find_period(inst, SolverParams(seed=r, period_bound=64))
        assert res.value == r
        per_trial = inst.query_count / max(1, res.trials_used)
        worst = max(worst, per_trial)
    ok = worst <= 20
    _report("criterion 10 (query frugality)", ok,
            f"every period r <= 64 solved with <= 20 oracle queries per trial "
            f"(worst {worst:.1f})")
    assert ok
