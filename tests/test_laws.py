"""Exact outcome laws against the dense reference.

`control_distribution` and `hsp_control_distribution` compute their laws
from the level sets of f's label table alone.  Here each law is compared with
the Born-rule marginal of the dense joint state the circuit would build, over
random small instances: order finding, against the dense state of both
circuits, period finding, many-to-one merges, discrete logs along either
generator, and on random groups hidden
subgroups, their random and m-to-1 merges, and random tables of few labels
that are no merge of anything.
Coset tables are pinned to |K|/N on K^perp exactly, the stabiliser search to
the brute-force invariance subgroup, and level sets of the right size that
are no subgroup to the dense law.  The closed form for tables that cycle
through distinct labels is pinned separately over every shape of register
(shorter than a period, whole periods, a remainder, and registers large
enough that a float zero test would misfire).  So is the law folded onto
one period for merged dilated cycles and repeated tables, including registers that
hold less than two periods, the least-cyclic-period search against brute
force, and the one period of labels of every integer-domain instance kind
against independent definitions of its function.  Every law is checked to
be a distribution: entries >= 0 that sum to 1 within the tolerance.
"""

from __future__ import annotations

import warnings
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsplab.amplitudes import CapExceeded, dimension_cap, set_dimension_cap
from hsplab.estimation import (
    _box_acceptance,
    _coset_law_at,
    _coset_proposals,
    _coset_sampler,
    _periodic_law,
    _reduced_cycle,
    control_distribution,
)
from hsplab.groups import GroupSpec, SubgroupGenerators, subgroups_equal
from hsplab.oracles import (
    OracleInstance,
    classical_invariance_subgroup,
    classical_order,
    instance_from_json,
    make_deutsch_instance,
    make_dlog_instance,
    make_hidden_subgroup_instance,
    make_order_instance,
    make_period_instance,
    make_simon_instance,
    wrap_many_to_one,
)
from dense_reference import (
    _hsp_layout,
    _pre_measurement_state,
    _stabiliser_law,
    _table_stabiliser,
    apply_fourier,
    apply_oracle,
    basis_state,
    hsp_control_distribution,
    marginal_distribution,
    orthogonality_holds,
    subgroup_enumerate,
)

TOL = 1e-12

registers = st.integers(1, 48)
period_instances = st.builds(
    make_period_instance, st.integers(1, 24), relabel_seed=st.integers(0, 1000)
)


def dense_control_law(instance, n, route, generator=0) -> np.ndarray:
    state = _pre_measurement_state(instance, n, route, generator, None)
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
    """The query circuit and the shift ladder prepare one state, so the one
    law matches the dense state of each."""
    law = control_distribution(inst, n)
    for route in ("oracle", "shift"):
        assert_law(law, dense_control_law(inst, n, route))


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


@given(dlog_instances(), st.sampled_from([0, 1]), registers)
def test_dlog_law_matches_dense_along_either_generator(inst, generator, n):
    """The shift ladder from |f(0)> along the first generator has the law
    `control_distribution` reads.  Along the second, f's row a^y walks all
    r labels before it returns, so there the law is the closed form at
    min(r, n) distinct labels."""
    r = inst.domain.moduli[1]
    law = control_distribution(inst, n) if generator == 0 else _periodic_law(min(r, n), None, n)
    assert_law(law, dense_control_law(inst, n, "shift", generator=generator))


@st.composite
def hidden_subgroup_instances(draw):
    moduli = draw(
        st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(lambda m: prod(m) <= 48)
    )
    spec = GroupSpec.of(moduli)
    element = st.tuples(*(st.integers(0, d - 1) for d in moduli))
    generators = draw(st.lists(element, max_size=2))
    return make_hidden_subgroup_instance(spec, generators, relabel_seed=draw(st.integers(0, 1000)))


def bucket_merged(inner, m: int, seed: int):
    """inner with a random permutation of its labels merged in runs of m."""
    perm = np.random.default_rng(seed).permutation(inner.codomain_size)
    merge = np.empty_like(perm)
    for start in range(0, perm.size, m):
        merge[perm[start : start + m]] = start // m
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return wrap_many_to_one(inner, merge, m)


def table_group_instance(table: np.ndarray) -> OracleInstance:
    """A finite-domain instance whose labels are the given table, the box
    of the subgroup {0}."""
    return OracleInstance(
        domain=GroupSpec.of(table.shape), codomain_size=int(table.max()) + 1,
        box_labels=table, descriptor={"kind": "table"},
    )


@st.composite
def few_label_tables(draw):
    """A random table of at most four labels over a random group of at most
    48 points: in general no coset table, nor a merge of one."""
    moduli = draw(
        st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(lambda m: prod(m) <= 48)
    )
    labels = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, labels - 1), min_size=prod(moduli), max_size=prod(moduli)))
    return table_group_instance(np.array(cells, dtype=np.int64).reshape(moduli))


@st.composite
def bucket_merges(draw):
    """A hidden-subgroup table, or an injective one (K = {0}), with its
    labels merged in runs of m in {2, 3}."""
    inst = draw(hidden_subgroup_instances())
    if draw(st.booleans()):
        inst = make_hidden_subgroup_instance(inst.domain, [], relabel_seed=0)
    return bucket_merged(inst, draw(st.sampled_from([2, 3])), draw(st.integers(0, 1000)))


@settings(max_examples=120)
@given(hidden_subgroup_instances(), st.sampled_from(["coset", "merged", "m-to-1", "few labels"]), st.data())
def test_coset_law_matches_dense(inst, kind, data):
    if kind == "merged":
        inst = merged(inst, data)
    elif kind == "m-to-1":
        inst = data.draw(bucket_merges())
    elif kind == "few labels":
        inst = data.draw(few_label_tables())
    assert_law(hsp_control_distribution(inst), dense_coset_law(inst))


def perp_law(stabiliser: SubgroupGenerators) -> np.ndarray:
    """|K|/N on the characters that annihilate K, 0 elsewhere, flattened."""
    spec = stabiliser.spec
    perp = [orthogonality_holds(spec, t, stabiliser) for t in spec.elements()]
    return np.where(perp, stabiliser.order / spec.order, 0.0)


@given(hidden_subgroup_instances())
def test_coset_tables_fold_onto_their_stabiliser(inst):
    """A hidden-subgroup table's law is |K|/N on K^perp, exactly so for a
    multi-register table, and that is the dense circuit's law."""
    law = hsp_control_distribution(inst)
    expected = perp_law(inst.truth.subgroup)
    if inst.domain.rank > 1:
        assert np.array_equal(law, expected)
    assert_law(law, dense_coset_law(inst))
    assert np.abs(law - expected).max() <= TOL


@given(hidden_subgroup_instances() | few_label_tables(), st.booleans(), st.data())
def test_grown_stabiliser_is_the_invariance_subgroup(inst, merge, data):
    """The stabiliser search over the level set of the first label, or over
    any part of it that holds the stabiliser, finds the brute-force
    invariance subgroup, and the mask of its annihilator."""
    if merge:
        inst = merged(inst, data)
    spec = inst.domain
    table = inst.label_table(spec.moduli)
    truth = classical_invariance_subgroup(inst)
    candidates = table == table.flat[0]
    if data.draw(st.booleans()):  # a random part of it that still holds K
        members = np.zeros(spec.order, dtype=bool)
        members[[spec.element_index(h) for h in subgroup_enumerate(truth)]] = True
        kept = data.draw(st.lists(st.booleans(), min_size=spec.order, max_size=spec.order))
        candidates &= (np.array(kept) | members).reshape(spec.moduli)
    generators, perp, order = _table_stabiliser(table, candidates)
    assert subgroups_equal(SubgroupGenerators.of(spec, generators), truth)
    assert np.array_equal(perp.reshape(-1), perp_law(truth) > 0) and order == truth.order


@pytest.mark.parametrize("rows", [[0, 0, 1, 1], [[0, 0, 1, 1], [1, 1, 0, 0]]])
def test_level_set_that_is_no_subgroup_matches_dense(rows):
    """S0 has N / labels points, as a coset table's would, but is no
    subgroup: the stabiliser found is smaller than S0, so the law comes from
    the pair counts, and matches the dense law."""
    table = np.array(rows, dtype=np.int64)
    inst = table_group_instance(table)
    _, _, order = _table_stabiliser(table, table == table.flat[0])
    assert order < np.count_nonzero(table == 0)
    assert_law(hsp_control_distribution(inst), dense_coset_law(inst))


def test_pair_law_is_clamped_at_zero():
    """A two-label table over Z_6 x Z_6 with stabiliser {0}, on which the
    FFT of its pair counts leaves a zero of the law at about -1.4e-18: the
    law is clamped at 0, and matches the dense law."""
    table = np.array([
        [0, 1, 1, 1, 0, 0], [1, 1, 0, 0, 1, 0], [0, 1, 0, 0, 1, 1],
        [0, 0, 1, 1, 1, 1], [1, 0, 0, 1, 0, 0], [0, 0, 1, 0, 0, 0],
    ])
    inst = table_group_instance(table)
    assert_law(hsp_control_distribution(inst), dense_coset_law(inst))


def test_coset_law_cap_bounds_points_and_is_checked_before_tabulating():
    """A coset table needs no pairs scattered, so an injective table on
    Z_8 x Z_8 (64 labels x 64 points) folds under a cap of 64; a cap below
    |G| raises CapExceeded before f is tabulated.  The same table merged
    2-to-1 has 32 labels and 128 same-label pairs (a one-hot would hold
    2048 entries): the cap bounds those pairs, so 128 admits the law and
    127 raises."""
    spec = GroupSpec.of((8, 8))
    inst = make_hidden_subgroup_instance(spec, [], relabel_seed=1)
    dense = dense_coset_law(inst)
    fresh = make_hidden_subgroup_instance(spec, [], relabel_seed=1)
    fresh.label_table = lambda shape: pytest.fail("tabulated above the cap")
    pair = bucket_merged(inst, 2, seed=1)
    pair_dense = dense_coset_law(pair)
    previous = dimension_cap()
    set_dimension_cap(64)
    try:
        law = hsp_control_distribution(inst)
        set_dimension_cap(63)
        with pytest.raises(CapExceeded):
            hsp_control_distribution(fresh)
        set_dimension_cap(128)
        pair_law = hsp_control_distribution(pair)
        set_dimension_cap(127)
        with pytest.raises(CapExceeded, match="pair count 128"):
            hsp_control_distribution(bucket_merged(inst, 2, seed=1))
    finally:
        set_dimension_cap(previous)
    assert_law(law, dense)
    assert_law(pair_law, pair_dense)


# --- coset-sampler draws ---------------------------------------------------------


def enumerated_draws(inst) -> tuple[np.ndarray, np.ndarray]:
    """The law of `hsp_sample_batch`'s draws, enumerated: every x of G
    proposes t = M x mod d, kept with the sampler's acceptance probability
    (1 with one label per box point).  Returns the law, flattened like the
    coset law, and the acceptance probability of each x."""
    spec = inst.domain
    dual, multiplicity, box = _coset_sampler(inst)
    x = np.indices(spec.moduli).reshape(spec.rank, -1).T
    t = _coset_proposals(dual, x, spec.moduli)
    kept = np.ones(len(t)) if multiplicity == 1 else _box_acceptance(t, spec.moduli, multiplicity, *box)
    flat = np.ravel_multi_index(tuple(t.T.astype(np.int64)), spec.moduli)
    return np.bincount(flat, kept, minlength=spec.order) / kept.sum(), kept


@st.composite
def stabiliser_instances(draw):
    """Z_points turned by sum_j w_j g_j, with each w_j a multiple of
    points / gcd(points, d_j), so that d_j g_j acts trivially."""
    moduli = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(lambda m: prod(m) <= 48))
    points = draw(st.integers(1, 12))
    weights = [points // gcd(points, d) * draw(st.integers(0, d)) for d in moduli]
    x0 = draw(st.integers(0, points - 1))
    return instance_from_json(
        {"kind": "stabiliser", "moduli": moduli, "weights": weights, "points": points, "x0": x0})


@st.composite
def simon_instances(draw):
    bits = draw(st.integers(1, 5))
    secret = draw(st.lists(st.integers(0, 1), min_size=bits, max_size=bits).filter(any))
    return make_simon_instance(bits, secret)


@st.composite
def relabelled(draw):
    """A hidden-subgroup instance whose labels are permuted: a merge that
    stays one-to-one."""
    inner = draw(hidden_subgroup_instances())
    return wrap_many_to_one(inner, draw(st.permutations(range(inner.codomain_size))), 1)


one_label_per_coset = (
    hidden_subgroup_instances() | simon_instances() | dlog_instances() | stabiliser_instances()
    | relabelled() | st.builds(make_deutsch_instance, st.integers(0, 1), st.integers(0, 1))
)


@settings(max_examples=150)
@given(one_label_per_coset)
def test_draw_image_is_the_coset_law(inst):
    """Every builder writes one label per box point, so every proposal is
    kept, and t = M x mod d over all x of G hits each character of H^perp
    |H| times: exactly the coset law, with no table over G."""
    law, kept = enumerated_draws(inst)
    assert kept.min() == 1.0
    assert np.array_equal(law, hsp_control_distribution(inst))


@settings(max_examples=150)
@given(one_label_per_coset, st.sampled_from(["as built", "merged", "m-to-1"]), st.data())
def test_law_at_one_character_is_the_coset_law(inst, kind, data):
    """`_coset_law_at`, which a discrete log reads at its draws, is the
    |G|-point coset law on all of H^perp, for every builder as built, with
    its labels merged at random, and merged in runs of m."""
    if kind == "merged":
        inst = merged(inst, data)
    elif kind == "m-to-1":
        inst = bucket_merged(inst, data.draw(st.sampled_from([2, 3])), data.draw(st.integers(0, 1000)))
    spec = inst.domain
    dual, _, _ = _coset_sampler(inst)
    perp = np.unique(_coset_proposals(dual, np.indices(spec.moduli).reshape(spec.rank, -1).T, spec.moduli), axis=0)
    law = hsp_control_distribution(inst).reshape(spec.moduli)
    at_perp = np.array([_coset_law_at(inst, t) for t in map(tuple, perp.tolist())])
    assert np.abs(at_perp - law[tuple(perp.T)]).max() <= TOL
    assert abs(at_perp.sum() - 1.0) <= TOL  # H^perp carries the whole law


@settings(max_examples=120)
@given(hidden_subgroup_instances(), st.sampled_from(["merged", "m-to-1", "few labels"]), st.data())
def test_merged_acceptance_is_the_stabiliser_law(inst, kind, data):
    """With m > 1 box points to a label, law(t) read off the box is the
    law `_stabiliser_law` reads off the whole table, within TOL; no
    proposal is kept with probability above 1, a proposal is kept with
    probability 1/m, and the draws' enumerated law is that law."""
    if kind == "merged":
        inst = merged(inst, data)
    elif kind == "m-to-1":
        inst = data.draw(bucket_merges())
    else:
        inst = data.draw(few_label_tables())
    spec = inst.domain
    dual, multiplicity, box = _coset_sampler(inst)
    reference = _stabiliser_law(inst.label_table(spec.moduli)).reshape(-1)
    law, kept = enumerated_draws(inst)
    assert np.abs(law - reference).max() <= TOL
    if multiplicity > 1:
        box_size = prod(inst.pivots)
        perp = np.unique(_coset_proposals(dual, np.indices(spec.moduli).reshape(spec.rank, -1).T, spec.moduli), axis=0)
        at_perp = _box_acceptance(perp, spec.moduli, multiplicity, *box) * multiplicity / box_size
        index = np.ravel_multi_index(tuple(perp.T), spec.moduli)
        assert np.abs(at_perp - reference[index]).max() <= TOL
        assert kept.max() <= 1.0 + TOL
        assert abs(kept.mean() - 1.0 / multiplicity) <= TOL


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
    assert_law(control_distribution(inst, n), dense_control_law(inst, n, "oracle"))


def table_instance(table) -> OracleInstance:
    """An integer-domain instance that repeats the given label table."""
    return OracleInstance(
        domain=None,
        codomain_size=max(table) + 1,
        period_labels=table,
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
    merged m-to-1 (m in {2, 3}), read at acc·t for acc in 1..6: the
    function t -> f(acc·t) held as its labels over r / gcd(r, acc) points,
    the period of the dilated function before the merge."""
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
    period = r // gcd(r, acc)
    return table_instance([inst._raw(acc * k) for k in range(period)]), period


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
    """Merged dilated cycles and repeated tables of few labels fold onto one period,
    whether or not two periods fit in the register."""
    inst, period = case
    n = folded_register(shape, period, data)
    assert_law(control_distribution(inst, n), dense_control_law(inst, n, "oracle"))


def defined_label(descriptor: dict, t: int) -> int:
    """f(t) from an integer-domain instance's descriptor alone: a power, a
    relabelled residue, or the rank of a merged inner label among the
    distinct merge values."""
    if descriptor["kind"] == "order":
        return pow(descriptor["base"], t, descriptor["modulus"])
    if descriptor["kind"] == "period":
        return descriptor["relabeling"][t % descriptor["period"]]
    merge = descriptor["merge"]
    return sorted(set(merge)).index(merge[defined_label(descriptor["inner"], t)])


@given(
    order_instances() | period_instances,
    st.booleans(),
    registers,
    st.lists(st.integers(-(2**62), 2**62), max_size=20),
    st.data(),
)
def test_period_labels_match_independent_definitions(inst, merge, n, points, data):
    """One period of labels reproduces f everywhere: pow for order
    instances, the relabelling for period instances, and the merge of the
    inner labels for merged ones; the label table tiles it over a
    register."""
    if merge:
        inst = merged(inst, data)
    rebuilt = instance_from_json(inst.to_json())
    assert rebuilt.period_labels.tolist() == inst.period_labels.tolist()
    for t in list(range(n)) + points:
        assert inst._raw(t) == defined_label(inst.descriptor, t)
    assert inst.label_table((n,)).tolist() == [inst._raw(t) for t in range(n)]


few_label_cycles = st.integers(1, 4).flatmap(
    lambda k: st.lists(st.integers(0, k - 1), min_size=1, max_size=30)
)


@st.composite
def cycle_registers(draw):
    """A cycle of few labels and a register n of every shape the fold
    handles: n < L, n = L, L < n < 2L, 2L - 1, 2L + 1, QL + s, and more
    than 40,000 points."""
    cycle = draw(few_label_cycles)
    size = len(cycle)
    shape = draw(st.sampled_from(["short", "one period", "under two", "2L-1", "2L+1", "QL+s", "large"]))
    if shape == "short" and size > 1:
        return cycle, draw(st.integers(1, size - 1))
    if shape == "under two" and size > 1:
        return cycle, draw(st.integers(size + 1, 2 * size - 1))
    if shape == "2L-1":
        return cycle, max(1, 2 * size - 1)
    if shape == "2L+1":
        return cycle, 2 * size + 1
    if shape == "QL+s":
        return cycle, draw(st.integers(2, 6)) * size + draw(st.integers(0, size - 1))
    if shape == "large":
        return cycle, draw(st.integers(40_001, 45_000))
    return cycle, size


@given(cycle_registers())
def test_periodic_law_matches_dense_for_any_period(case):
    """The fold reads any period of the table, not only the least one: its
    law is the dense circuit's on the n-point register that repeats it."""
    cycle, n = case
    law = _periodic_law(*_reduced_cycle(np.asarray(cycle, dtype=np.int64)[:n]), n)
    assert_law(law, dense_control_law(table_instance(cycle), n, "oracle"))


@given(few_label_cycles)
def test_cyclic_period_is_the_least_cyclic_shift(cycle):
    cycle = np.asarray(cycle, dtype=np.int64)
    least = next(p for p in range(1, cycle.size + 1) if np.array_equal(np.roll(cycle, p), cycle))
    period, labels = _reduced_cycle(cycle)
    assert period == least
    if labels is not None:  # one period, as indices into the sorted labels
        assert np.array_equal(np.unique(cycle)[labels], cycle[:least])


label_rows = st.integers(0, 40).flatmap(lambda top: st.one_of(
    st.permutations(range(top + 1)),  # distinct
    st.lists(st.integers(0, top), min_size=1, max_size=40),  # repeated, most with gaps
    st.integers(1, 40).map(lambda size: [top] * size),  # a single label
    st.lists(st.sampled_from([0, top]), min_size=1, max_size=40),  # a gap of top - 1
))


far_label_rows = st.lists(st.integers(0, 2**62), min_size=1, max_size=40) | st.lists(
    st.sampled_from([7, 2**40, 2**62]), min_size=1, max_size=40)


@given(label_rows | far_label_rows)
def test_reduced_cycle_ranks_match_unique(row):
    """Ranks read off one bincount are `np.unique`'s: the same least
    period, and the same labels of one period as indices into the sorted
    distinct labels, whatever labels of [0, max] the row skips.  Labels
    far above the row's length, up to 2^62, are ranked too, with nothing
    allocated over their range."""
    cycle = np.asarray(row, dtype=np.int64)
    if np.unique(cycle).size == cycle.size:
        expected = cycle.size, None
    else:
        ranks = np.unique(cycle, return_inverse=True)[1]
        least = next(p for p in range(1, ranks.size + 1) if np.array_equal(np.roll(ranks, p), ranks))
        expected = least, ranks[:least]
    period, labels = _reduced_cycle(cycle)
    assert period == expected[0]
    assert (labels is None) == (expected[1] is None)
    if labels is not None:
        assert labels.tolist() == expected[1].tolist()


@given(label_rows | few_label_tables().map(lambda inst: inst.box_labels.reshape(-1).tolist()))
def test_coset_sampler_ranks_match_unique(row):
    """On a box whose labels repeat, the sampler's multiplicity is the
    largest count of a label and its ranks are `np.unique`'s inverse."""
    table = np.asarray(row, dtype=np.int64)
    _, multiplicity, box = _coset_sampler(table_group_instance(table))
    _, ranks, counts = np.unique(table, return_inverse=True, return_counts=True)
    assert multiplicity == counts.max()
    if multiplicity == 1:
        assert box is None
    else:
        assert box[0].tolist() == ranks.tolist() and box[1] == table.shape


def test_short_register_fold_stays_within_labels_times_points():
    """A merged table with n < 2L under a cap that admits its labels x n
    points but not labels x 2L: the fold's one-hot is min(2L, n) wide, so
    the law comes back, and it matches the dense law."""
    pattern = [0, 1, 0, 0, 1, 1, 1, 0, 1, 0]  # least cyclic period 10, two labels
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = wrap_many_to_one(make_period_instance(10, relabeling=range(10)), pattern, 5)
    n = 15
    dense = dense_control_law(inst, n, "oracle")
    previous = dimension_cap()
    set_dimension_cap(2 * n)  # 2 labels x 15 points fit, 2 labels x 2L = 40 do not
    try:
        law = control_distribution(inst, n)
        with pytest.raises(CapExceeded):  # two periods in the register need width 2L
            control_distribution(inst, 2 * 10 + 1)
    finally:
        set_dimension_cap(previous)
    assert_law(law, dense)


@given(order_instances(), st.integers(-(10**30), 10**30))
def test_order_labels_at_any_integer(inst, t):
    d = inst.to_json()
    assert inst._raw(t) == pow(d["base"], t, d["modulus"])
