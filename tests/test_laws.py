"""Exact outcome laws against the dense reference.

`control_distribution` and `hsp_control_distribution` compute their laws
from the level sets of f's label table alone.  Here each law is compared with
the Born-rule marginal of the dense joint state the circuit would build, over
random small instances: order finding on both routes and off-orbit basis
targets, period finding, many-to-one merges, discrete logs along either
generator, and hidden subgroups of random groups.  The closed form for tables
that cycle through distinct labels is pinned separately over every shape of
register (shorter than a period, whole periods, a remainder, and registers
large enough that a float zero test would misfire).  So is the law folded
onto one period for merged views and repeated tables, with the one-hot path
that tables with less than two periods in the register take, and the
vectorised label tables of every integer-domain instance kind against their
scalar evaluations.  Every law is checked to be a distribution: entries
>= 0 that sum to 1 within the tolerance.
"""

from __future__ import annotations

import warnings
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsplab.amplitudes import basis_state, marginal_distribution
from hsplab.algorithms import _dilated_view
from hsplab.estimation import (
    _hsp_layout,
    _label_period,
    _label_table,
    _pre_measurement_state,
    control_distribution,
    hsp_control_distribution,
)
from hsplab.groups import GroupSpec
from hsplab.oracles import (
    OracleInstance,
    apply_oracle,
    classical_order,
    instance_from_json,
    make_dlog_instance,
    make_hidden_subgroup_instance,
    make_order_instance,
    make_period_instance,
    wrap_many_to_one,
)
from hsplab.qft import apply_fourier

TOL = 1e-12

registers = st.integers(1, 48)
period_instances = st.builds(
    make_period_instance, st.integers(1, 24), relabel_seed=st.integers(0, 1000)
)


def dense_control_law(instance, n, route, generator=0, target=None) -> np.ndarray:
    state = _pre_measurement_state(instance, n, route, generator, target)
    return marginal_distribution(state, 0)


def assert_law(law, dense) -> None:
    """law is a distribution, and matches the dense reference within TOL."""
    assert law.min() >= 0.0
    assert abs(law.sum() - 1.0) <= TOL
    assert np.abs(law - dense).max() <= TOL


def dense_coset_law(instance) -> np.ndarray:
    spec = instance.domain
    controls = list(range(spec.rank))
    state = basis_state(_hsp_layout(instance), (0,) * (spec.rank + 1))
    for j in controls:
        state = apply_fourier(state, j)
    state = apply_oracle(state, controls, spec.rank, instance)
    for j in controls:
        state = apply_fourier(state, j, inverse=True)
    return (np.abs(state.reshaped()) ** 2).sum(axis=-1).reshape(-1)


def merged(inner, data):
    """inner with its labels collapsed by a random merge table."""
    size = inner.codomain_size
    merge = data.draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return wrap_many_to_one(inner, merge, size)


@st.composite
def order_instances(draw):
    modulus = draw(st.integers(2, 40))
    base = draw(st.sampled_from([a for a in range(1, modulus) if gcd(a, modulus) == 1]))
    return make_order_instance(modulus, base)


@given(order_instances(), registers)
def test_order_law_matches_dense_on_both_routes(inst, n):
    for route in ("oracle", "shift"):
        assert_law(control_distribution(inst, n, route=route), dense_control_law(inst, n, route))


@given(order_instances(), registers, st.data())
def test_order_law_matches_dense_for_other_basis_targets(inst, n, data):
    f0 = inst.evaluate(0)
    target = data.draw(st.sampled_from([y for y in range(inst.codomain_size) if y != f0]))
    law = control_distribution(inst, n, route="shift", target=target)
    assert_law(law, dense_control_law(inst, n, "shift", target=target))


@given(period_instances, registers)
def test_period_law_matches_dense(inst, n):
    assert_law(control_distribution(inst, n), dense_control_law(inst, n, "oracle"))


@given(order_instances() | period_instances, registers, st.data())
def test_merged_law_matches_dense(inner, n, data):
    inst = merged(inner, data)
    assert_law(control_distribution(inst, n), dense_control_law(inst, n, "oracle"))


@st.composite
def dlog_instances(draw):
    if draw(st.booleans()):
        q = draw(st.sampled_from([3, 5, 7, 11, 13]))
        a = draw(st.integers(1, q - 1))
        return make_dlog_instance(a, pow(a, draw(st.integers(0, q)), q), modulus=q)
    r = draw(st.integers(2, 12))
    a = draw(st.sampled_from([a for a in range(1, r) if gcd(a, r) == 1]))
    return make_dlog_instance(a, draw(st.integers(0, r - 1)), order=r)


@given(dlog_instances(), st.sampled_from([0, 1]), registers, st.data())
def test_dlog_law_matches_dense_along_either_generator(inst, generator, n, data):
    target = data.draw(st.none() | st.integers(0, inst.codomain_size - 1))
    law = control_distribution(inst, n, generator=generator, target=target)
    assert_law(law, dense_control_law(inst, n, "shift", generator=generator, target=target))


@st.composite
def hidden_subgroup_instances(draw):
    moduli = draw(
        st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(lambda m: prod(m) <= 48)
    )
    spec = GroupSpec.of(moduli)
    element = st.tuples(*(st.integers(0, d - 1) for d in moduli))
    generators = draw(st.lists(element, max_size=2))
    return make_hidden_subgroup_instance(spec, generators, relabel_seed=draw(st.integers(0, 1000)))


@given(hidden_subgroup_instances(), st.booleans(), st.data())
def test_coset_law_matches_dense(inst, merge, data):
    if merge:
        inst = merged(inst, data)
    assert_law(hsp_control_distribution(inst), dense_coset_law(inst))


@st.composite
def periodic_registers(draw):
    """(period L, register size n) over every shape the closed form splits:
    n < L, n = L, L = 1, n a multiple of L, n = QL + s with 0 < s < L, and
    n > 40,000 with gcd(L, n) = 1, where sin^2(pi y / n) at y = 1 is below
    the 1e-8 a float zero test would call zero."""
    shape = draw(st.sampled_from(["short", "one period", "constant", "multiple", "remainder", "large"]))
    if shape == "large":
        period = draw(st.integers(2, 6))
        return period, period * draw(st.integers(40_000 // period, 50_000 // period)) + 1
    period = 1 if shape == "constant" else draw(st.integers(2, 24))
    if shape == "short":
        return period, draw(st.integers(1, period - 1))
    if shape == "one period":
        return period, period
    q = draw(st.integers(1, 6))
    if shape == "remainder":
        return period, q * period + draw(st.integers(1, period - 1))
    return period, q * period


@given(periodic_registers(), st.integers(0, 1000))
def test_closed_form_matches_dense_on_distinct_label_cycles(case, relabel_seed):
    period, n = case
    inst = make_period_instance(period, relabel_seed=relabel_seed)
    assert _label_period(_label_table(inst, (n,))) == min(period, n)
    assert_law(control_distribution(inst, n), dense_control_law(inst, n, "oracle"))


def table_instance(table) -> OracleInstance:
    """An integer-domain instance that repeats the given label table."""
    table = np.asarray(table, dtype=np.int64)
    return OracleInstance(
        domain=None,
        codomain_size=int(table.max()) + 1,
        eval_fn=lambda t: table[t % table.size],
        descriptor={"kind": "table"},
    )


WIDE_ORDERS = [
    (modulus, base)
    for modulus in range(5, 41)
    for base in range(2, modulus)
    if gcd(base, modulus) == 1 and classical_order(base, modulus) >= 4
]


@st.composite
def merged_views(draw):
    """A period or order instance of period r >= 4 whose orbit labels are
    merged m-to-1 (m in {2, 3}), seen through `_dilated_view` at acc in
    1..6, with the period r / gcd(r, acc) of the view before the merge."""
    inner = draw(
        st.sampled_from(WIDE_ORDERS).map(lambda pair: make_order_instance(*pair))
        | st.builds(make_period_instance, st.integers(4, 24), relabel_seed=st.integers(0, 1000))
    )
    m = draw(st.sampled_from([2, 3]))
    r = inner.truth.period
    orbit = draw(st.permutations(sorted({inner._raw(t) for t in range(r)})))
    merge = [orbit[0]] * inner.codomain_size  # labels off the orbit never occur
    for i, label in enumerate(orbit):
        merge[label] = orbit[i - i % m]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = wrap_many_to_one(inner, merge, m)
    acc = draw(st.integers(1, 6))
    return _dilated_view(inst, acc), r // gcd(r, acc)


repeated_tables = st.lists(st.integers(0, 3), min_size=1, max_size=40).map(
    lambda t: (table_instance(t), len(t))
)


def folded_register(shape: str, period: int, data) -> int:
    """A register of whole periods (s = 0), periods and a remainder
    (s != 0), about two periods, or more than 40,000 points."""
    if shape == "large":
        return data.draw(st.integers(40_001, 50_000))
    if shape == "two periods":
        return max(1, 2 * period + data.draw(st.integers(-1, 1)))
    q = data.draw(st.integers(2, 6))
    if shape == "remainder" and period > 1:
        return q * period + data.draw(st.integers(1, period - 1))
    return q * period


@pytest.mark.parametrize("shape", ["whole", "remainder", "two periods", "large"])
@given(merged_views() | repeated_tables, st.data())
def test_periodic_tables_fold_onto_one_period(shape, case, data):
    """Merged views and repeated tables of few labels (some aperiodic within
    the register) take the folded law when two periods fit in the register
    or one period's labels are distinct, and the one-hot law otherwise."""
    inst, period = case
    n = folded_register(shape, period, data)
    table = _label_table(inst, (n,))
    least = next(p for p in range(1, n + 1) if np.array_equal(table[p:], table[: n - p]))
    distinct = np.unique(table[:least]).size == least
    assert _label_period(table) == (least if 2 * least <= n or distinct else None)
    assert_law(control_distribution(inst, n), dense_control_law(inst, n, "oracle"))


@given(
    order_instances() | period_instances,
    st.booleans(),
    st.integers(1, 6),
    registers,
    st.lists(st.integers(-(2**62), 2**62), max_size=20),
    st.data(),
)
def test_vectorised_tables_match_scalar_evaluation(inst, merge, acc, n, points, data):
    if merge:
        inst = merged(inst, data)
    rebuilt = instance_from_json(inst.to_json())
    for view in (inst, rebuilt, _dilated_view(inst, acc)):
        assert _label_table(view, (n,)).tolist() == [view._raw(t) for t in range(n)]
    for view in (inst, rebuilt):
        labels = view._eval_fn(np.asarray(points, dtype=np.int64))
        assert np.asarray(labels).tolist() == [view._raw(t) for t in points]


@given(order_instances(), st.integers(-(10**30), 10**30))
def test_order_labels_at_any_integer(inst, t):
    d = inst.to_json()
    assert inst._raw(t) == pow(d["base"], t, d["modulus"])
