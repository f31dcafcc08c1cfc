"""Exact outcome laws against the dense reference.

`control_distribution` and `hsp_control_distribution` compute their laws
from the level sets of f's label table alone.  Here each law is compared with
the Born-rule marginal of the dense joint state the circuit would build, over
random small instances: order finding on both routes and off-orbit basis
targets, period finding, many-to-one merges, discrete logs along either
generator, and hidden subgroups of random groups.
"""

from __future__ import annotations

import warnings
from math import gcd, prod

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from hsplab.amplitudes import basis_state, marginal_distribution
from hsplab.estimation import (
    _hsp_layout,
    _pre_measurement_state,
    control_distribution,
    hsp_control_distribution,
)
from hsplab.groups import GroupSpec
from hsplab.oracles import (
    apply_oracle,
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
        law = control_distribution(inst, n, route=route)
        assert np.abs(law - dense_control_law(inst, n, route)).max() <= TOL


@given(order_instances(), registers, st.data())
def test_order_law_matches_dense_for_other_basis_targets(inst, n, data):
    f0 = inst.evaluate(0)
    target = data.draw(st.sampled_from([y for y in range(inst.codomain_size) if y != f0]))
    law = control_distribution(inst, n, route="shift", target=target)
    assert np.abs(law - dense_control_law(inst, n, "shift", target=target)).max() <= TOL


@given(period_instances, registers)
def test_period_law_matches_dense(inst, n):
    law = control_distribution(inst, n)
    assert np.abs(law - dense_control_law(inst, n, "oracle")).max() <= TOL


@given(order_instances() | period_instances, registers, st.data())
def test_merged_law_matches_dense(inner, n, data):
    inst = merged(inner, data)
    law = control_distribution(inst, n)
    assert np.abs(law - dense_control_law(inst, n, "oracle")).max() <= TOL


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
    dense = dense_control_law(inst, n, "shift", generator=generator, target=target)
    assert np.abs(law - dense).max() <= TOL


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
    law = hsp_control_distribution(inst)
    assert np.abs(law - dense_coset_law(inst)).max() <= TOL
