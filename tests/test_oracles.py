"""Black-box instance builders: planted ground truth, promise checks, query
accounting, and the two quantum application primitives.

Ground truths are re-derived here with independent classical scans
(`classical_order`, least-period search, exhaustive invariance subgroups),
never trusted from the builders' own bookkeeping.
"""

from __future__ import annotations

import sys
import threading
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hsplab import oracles
from hsplab.amplitudes import CapExceeded, RegisterLayout, dimension_cap, set_dimension_cap
from hsplab.groups import GroupSpec, SubgroupGenerators, all_subgroups, subgroups_equal
from hsplab.estimation import phase_estimate_semiclassical, sample_control
from hsplab.oracles import (
    OracleInstance,
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
    apply_oracle,
    apply_shift,
    basis_state,
    from_amplitudes,
    l2_distance,
    subgroup_enumerate,
    uniform_state,
    verify_main_equality,
)


def pairing_merge(inst: OracleInstance, pairs) -> np.ndarray:
    """Merge table collapsing the given label groups, identity elsewhere."""
    table = np.arange(inst.codomain_size, dtype=np.int64)
    for group in pairs:
        for v in group[1:]:
            table[v] = group[0]
    return table


# --- order instances ---------------------------------------------------------


def test_order_identity_base():
    inst = make_order_instance(15, 1)
    assert inst.truth.period == 1
    assert inst.evaluate(0) == inst.evaluate(7) == 1


@pytest.mark.parametrize("n,a,r", [(15, 2, 4), (15, 4, 2), (21, 2, 6), (7, 3, 6)])
def test_order_against_classical_iteration(n, a, r):
    inst = make_order_instance(n, a)
    assert classical_order(a, n) == r
    assert inst.truth.period == r
    for t in range(2 * r + 1):
        assert inst.evaluate(t) == pow(a, t, n)


def test_order_rejects_shared_factor():
    with pytest.raises(ValueError):
        make_order_instance(15, 3)


def test_order_builder_is_capped_on_the_order():
    """The walk of a's powers holds one label per power, so an order above
    the cap raises, and an order at the cap builds: 2 has order 12 mod 35."""
    previous = dimension_cap()
    set_dimension_cap(11)
    try:
        with pytest.raises(CapExceeded, match="exceeds cap 11"):
            make_order_instance(35, 2)
        set_dimension_cap(12)
        assert make_order_instance(35, 2).truth.period == 12
    finally:
        set_dimension_cap(previous)


def test_order_builder_stops_its_walk_at_the_cap(monkeypatch):
    """34,651 * 61,949 = 2,146,594,799 lies below the factoring limit, and 2
    has order 1,073,249,100 there: a walk of every power would exhaust
    memory, and the capped walk raises after at most cap + 1 steps."""
    steps = []

    class CountedBase(int):  # counts the walk's multiplications by the base
        def __mul__(self, other):
            steps.append(1)
            return int(self) * int(other)

        __rmul__ = __mul__

    walk = oracles._powers
    monkeypatch.setattr(oracles, "_powers", lambda a, n, limit: walk(CountedBase(a), n, limit))
    previous = dimension_cap()
    set_dimension_cap(1 << 12)
    try:
        with pytest.raises(CapExceeded):
            make_order_instance(2_146_594_799, 2)
    finally:
        set_dimension_cap(previous)
    assert 0 < len(steps) <= (1 << 12) + 1


def test_dlog_builder_walks_past_the_cap():
    """A discrete log's draw reads no labels, so its builder's walk is not
    capped: 2 has order 100 mod 101, above a cap of 16."""
    previous = dimension_cap()
    set_dimension_cap(16)
    try:
        inst = make_dlog_instance(2, pow(2, 37, 101), modulus=101)
    finally:
        set_dimension_cap(previous)
    assert inst.domain.moduli == (100, 100) and inst.truth.dlog_exponent == 37


def test_order_instance_has_shifts():
    inst = make_order_instance(15, 2)
    assert inst.homomorphism_available
    perm = inst.shift_permutation(3)  # multiply by 2^3 = 8 on labels
    assert perm[1] == 8
    assert perm[2] == 1  # 2*8 = 16 = 1 mod 15


# --- period instances --------------------------------------------------------


def test_period_one_is_constant():
    inst = make_period_instance(1)
    assert inst.evaluate(0) == inst.evaluate(9)
    assert inst.truth.period == 1


def test_period_identity_relabeling():
    inst = make_period_instance(6, relabeling=list(range(6)))
    for t in range(18):
        assert inst.evaluate(t) == t % 6


def test_period_explicit_relabeling_keeps_least_period():
    inst = make_period_instance(5, relabeling=[3, 0, 4, 1, 2])
    assert classical_least_period(inst, 40) == 5
    assert inst.evaluate(0) == 3 and inst.evaluate(2) == 4


def test_period_rejects_non_bijection():
    with pytest.raises(ValueError):
        make_period_instance(4, relabeling=[0, 1, 1, 3])


def test_period_default_relabeling_seeded():
    a = make_period_instance(8, relabel_seed=5)
    b = make_period_instance(8, relabel_seed=5)
    c = make_period_instance(8, relabel_seed=6)
    window_a = [a.evaluate(t) for t in range(8)]
    assert window_a == [b.evaluate(t) for t in range(8)]
    assert window_a != [c.evaluate(t) for t in range(8)]


def test_period_instances_hide_shifts():
    assert not make_period_instance(6).homomorphism_available


def test_instances_take_the_function_form_of_their_domain():
    """Integer domains take one period of labels, finite domains a Hermite
    basis and labels shaped like its box."""
    spec = GroupSpec.of((2,))
    for bad in (
        dict(domain=None, box_labels=[0, 1]),
        dict(domain=None, period_labels=[]),
        dict(domain=None, box_labels=[0, 1], period_labels=[0, 1]),
        dict(domain=spec, period_labels=[0, 1]),
        dict(domain=spec),
        dict(domain=spec, box_labels=[0, 1, 1]),
        dict(domain=spec, basis=[[1]], box_labels=[0, 1]),
        dict(domain=spec, basis=[[3]], box_labels=[0, 1, 0]),
    ):
        with pytest.raises(ValueError):
            OracleInstance(codomain_size=2, **bad)
    inst = OracleInstance(domain=None, codomain_size=3, period_labels=[2, 0])
    assert [inst.evaluate(t) for t in (-1, 0, 1, 5)] == [0, 2, 0, 0]
    assert inst.label_table((5,)).tolist() == [2, 0, 2, 0, 2]
    with pytest.raises(ValueError):
        inst.period_labels[0] = 1  # read-only: laws are cached on the instance


# --- hidden-subgroup instances ---------------------------------------------


def dict_coset_labeling(spec: GroupSpec, subgroup: SubgroupGenerators, relabel_seed: int):
    """Reference labelling by closure: walk G in mixed-radix order, give each
    unlabelled element's whole coset the next coset index, then scramble the
    indices with the seeded permutation.  Returns (label_of: element ->
    label, rep_of: label -> least element of its coset)."""
    elems = subgroup_enumerate(subgroup)
    label_of: dict = {}
    reps: list = []
    for x in spec.elements():
        if x in label_of:
            continue
        reps.append(x)
        for h in elems:
            label_of[spec.add(x, h)] = len(reps) - 1
    perm = np.random.default_rng(relabel_seed).permutation(len(reps))
    rep_of = [None] * len(reps)
    for i, rep in enumerate(reps):
        rep_of[int(perm[i])] = rep
    return {x: int(perm[i]) for x, i in label_of.items()}, rep_of


@pytest.mark.parametrize("moduli", [(8,), (2, 4), (4, 4), (2, 2, 4), (2, 3), (4, 3), (2, 9), (2, 2, 3)])
def test_coset_labels_and_shift_maps_match_the_closure_reference(moduli):
    """Over every subgroup (trivial and whole group included), a few seeds:
    the label table and every shift permutation are byte-identical to the
    closure reference's, so seeded instances keep their labels."""
    spec = GroupSpec.of(moduli)
    for k in all_subgroups(spec):
        for seed in (0, 7):
            inst = make_hidden_subgroup_instance(spec, k, relabel_seed=seed)
            label_of, rep_of = dict_coset_labeling(spec, k, seed)
            expected = np.array([label_of[x] for x in spec.elements()], dtype=np.int64)
            assert inst.label_table(moduli).tobytes() == expected.tobytes()
            assert inst.codomain_size == len(rep_of)
            for g in spec.elements():
                shifted = [label_of[spec.add(rep, g)] for rep in rep_of]
                assert inst.shift_permutation(g).tobytes() == np.array(shifted, dtype=np.int64).tobytes()


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_hidden_subgroup_instance(GroupSpec.of([4, 6]), [(2, 3)], relabel_seed=4),
        lambda: make_simon_instance(3, (1, 1, 0)),
        lambda: make_dlog_instance(3, 5, modulus=7),
        lambda: make_dlog_instance(2, 9, modulus=13),
        lambda: make_dlog_instance(5, 3, order=12),
        lambda: make_deutsch_instance(1, 0),
        lambda: make_deutsch_instance(1, 1),
        lambda: make_stabiliser_instance(GroupSpec.of([4, 2]), lambda g, pt: (pt + g[0] + 2 * g[1]) % 4, 1, 4),
        lambda: wrap_many_to_one(make_simon_instance(2, (1, 0)), [0, 0], 2),
    ],
    ids=["hsp", "simon", "dlog7", "dlog13", "dlog-order", "deutsch-balanced", "deutsch-constant",
         "stabiliser", "merged"],
)
def test_label_table_is_one_call_of_the_pointwise_function(make):
    """Finite-domain functions map coordinate arrays elementwise: the table
    from one call over the whole group equals f at each point, and a block
    of registers wider than the group reads the reduced points."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = make()
    spec = inst.domain
    table = inst.label_table(spec.moduli)
    assert table.shape == spec.moduli and table.dtype == np.int64
    assert table.reshape(-1).tolist() == [inst._raw(x) for x in spec.elements()]
    wide = tuple(d + 1 for d in spec.moduli)
    assert inst.label_table(wide).reshape(-1).tolist() == [inst._raw(x) for x in np.ndindex(wide)]


def test_shift_maps_reduce_past_int64():
    """On Z_{2^40} hiding <2> the box is {0, 1}, but a product of two
    residues overflows int64, so the coset reduction runs in Python ints:
    the shift map still gathers from the box, and an odd shift swaps the
    two labels."""
    inst = make_hidden_subgroup_instance(GroupSpec.of((1 << 40,)), [(2,)])
    assert inst.box_labels.shape == (2,)
    assert inst.shift_permutation((0,)).tolist() == [0, 1]
    assert inst.shift_permutation(((1 << 40) - 1,)).tolist() == [1, 0]
    assert inst._raw((5,)) != inst._raw((6,)) == inst._raw((0,))


# --- Simon instances ---------------------------------------------------------


def test_simon_subgroup():
    inst = make_simon_instance(3, (1, 0, 1))
    assert subgroup_enumerate(inst.truth.subgroup) == frozenset({(0, 0, 0), (1, 0, 1)})


def test_simon_single_bit_constant():
    inst = make_simon_instance(1, (1,))
    assert inst.evaluate((0,)) == inst.evaluate((1,))


def test_simon_pair_structure():
    inst = make_simon_instance(2, (1, 1))
    f = {x: inst.evaluate(x) for x in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    assert f[(0, 0)] == f[(1, 1)]
    assert f[(0, 1)] == f[(1, 0)]
    assert f[(0, 0)] != f[(0, 1)]


def test_simon_zero_secret_rejected_by_default():
    with pytest.raises(ValueError):
        make_simon_instance(2, (0, 0))
    inst = make_simon_instance(2, (0, 0), allow_trivial=True)
    vals = {inst.evaluate(x) for x in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    assert len(vals) == 4  # injective when the hidden element is trivial


# --- discrete-log instances --------------------------------------------------


def test_dlog_unit_target():
    inst = make_dlog_instance(3, 1, modulus=7)
    assert inst.truth.dlog_exponent == 0
    assert subgroups_equal(
        inst.truth.subgroup, SubgroupGenerators.of(GroupSpec.of([6, 6]), [(1, 0)])
    )


def test_dlog_z7_example():
    inst = make_dlog_instance(3, 4, modulus=7)
    # 3^4 = 81 = 4 mod 7
    assert inst.truth.dlog_exponent == 4
    assert subgroups_equal(
        inst.truth.subgroup, SubgroupGenerators.of(GroupSpec.of([6, 6]), [(1, 2)])
    )


def test_dlog_target_equals_base():
    inst = make_dlog_instance(2, 2, modulus=11)
    assert inst.truth.dlog_exponent == 1


def test_dlog_constant_on_planted_cosets():
    inst = make_dlog_instance(3, 4, modulus=7)
    spec = inst.domain
    k = (1, 2)
    for x in range(6):
        for y in range(6):
            assert inst._raw((x, y)) == inst._raw(spec.add((x, y), k))


def test_dlog_rejects_target_outside_cyclic_subgroup():
    # <4> = {1, 4} mod 15 and <2> = {1, 2, 4} mod 7: the targets are in neither
    for a, b, q in ((4, 2, 15), (2, 3, 7)):
        with pytest.raises(ValueError, match=f"{b} is not a power of {a} mod {q}"):
            make_dlog_instance(a, b, modulus=q)
    with pytest.raises(ValueError, match="modulus must be >= 2"):
        make_dlog_instance(0, 0, modulus=1)


def test_dlog_abstract_cyclic_mode():
    inst = make_dlog_instance(1, 3, order=8)  # additive: f = x*3 + y*1 mod 8
    assert inst.truth.dlog_exponent == 3
    assert inst.domain.moduli == (8, 8)


# --- Deutsch and stabiliser instances ----------------------------------------


@pytest.mark.parametrize(
    "f0,f1,whole",
    [(0, 0, True), (1, 1, True), (0, 1, False), (1, 0, False)],
)
def test_deutsch_truth(f0, f1, whole):
    inst = make_deutsch_instance(f0, f1)
    members = subgroup_enumerate(inst.truth.subgroup)
    assert members == (frozenset({(0,), (1,)}) if whole else frozenset({(0,)}))


def test_stabiliser_trivial_action():
    spec = GroupSpec.of([4])
    inst = make_stabiliser_instance(spec, lambda g, pt: pt, 0, points=3)
    assert subgroup_enumerate(inst.truth.subgroup) == frozenset(spec.elements())


def test_stabiliser_free_rotation():
    spec = GroupSpec.of([4])
    inst = make_stabiliser_instance(spec, lambda g, pt: (pt + g[0]) % 4, 1, points=4)
    assert subgroup_enumerate(inst.truth.subgroup) == frozenset({(0,)})


def test_stabiliser_parity_action():
    spec = GroupSpec.of([4])
    inst = make_stabiliser_instance(spec, lambda g, pt: (pt + g[0]) % 2, 0, points=2)
    assert subgroup_enumerate(inst.truth.subgroup) == frozenset({(0,), (2,)})


def test_stabiliser_rejects_broken_action():
    spec = GroupSpec.of([4])
    with pytest.raises(ValueError):
        # not additive in g: composition axiom fails
        make_stabiliser_instance(spec, lambda g, pt: (pt + g[0] * g[0]) % 4, 0, points=4)


def test_stabiliser_rejects_a_non_action_the_sample_lets_through(monkeypatch):
    """Z_4 acting on three points with 1 and 3 as different transpositions:
    not an action, but with the check capped at two sampled pairs, ((3), (0))
    and ((2), (2)), every sampled pair composes.  g(x0) then takes two
    values on the coset {1, 3} of the stabiliser {0, 2}, and the builder
    rejects it there."""
    swaps = {0: (0, 1, 2), 1: (1, 0, 2), 2: (0, 1, 2), 3: (2, 1, 0)}
    monkeypatch.setattr(oracles, "PROMISE_CHECK_CAP", 6)
    with pytest.raises(ValueError, match="not constant on the cosets"):
        make_stabiliser_instance(GroupSpec.of([4]), lambda g, pt: swaps[g[0]][pt], 0, points=3)


# --- many-to-one wrapping ----------------------------------------------------


def test_wrap_identity_merge_is_noop():
    inner = make_period_instance(6, relabel_seed=1)
    wrapped = wrap_many_to_one(inner, np.arange(6), multiplicity=1)
    for t in range(12):
        assert wrapped._raw(t) == inner._raw(t)
    assert wrapped.multiplicity_bound == 1


def test_wrap_translation_symmetric_pairing():
    # merging f(0)&f(3), f(1)&f(4), f(2)&f(5) makes the merged map 3-periodic,
    # while the planted bookkeeping still records the inner period 6
    inner = make_period_instance(6, relabel_seed=0)
    vals = [inner._raw(t) for t in range(6)]
    table = pairing_merge(inner, [(vals[i], vals[i + 3]) for i in range(3)])
    with pytest.warns(UserWarning):
        wrapped = wrap_many_to_one(inner, table, multiplicity=2)
    assert wrapped.truth.period == 6
    assert classical_least_period(wrapped, 48) == 3
    assert classical_least_period(inner, 48) == 6


def test_wrap_simon_full_merge_constant():
    inner = make_simon_instance(2, (1, 1))
    with pytest.warns(UserWarning):
        wrapped = wrap_many_to_one(inner, np.zeros(inner.codomain_size, dtype=int), multiplicity=2)
    vals = {wrapped._raw(x) for x in [(0, 0), (0, 1), (1, 0), (1, 1)]}
    assert len(vals) == 1
    assert wrapped.multiplicity_bound == 2


def test_wrap_rejects_overfull_merge():
    inner = make_period_instance(6, relabel_seed=0)
    table = np.zeros(6, dtype=int)  # 6 cosets onto one label
    with pytest.raises(ValueError):
        wrap_many_to_one(inner, table, multiplicity=2)


def test_wrap_strict_mode_rejects_ambiguous_bound():
    inner = make_period_instance(6, relabel_seed=0)
    vals = [inner._raw(t) for t in range(6)]
    table = pairing_merge(inner, [(vals[0], vals[1])])
    with pytest.raises(ValueError):
        wrap_many_to_one(inner, table, multiplicity=2, strict=True)


def test_wrap_trivial_subgroup_merge_does_not_warn():
    # |K| = 1 has no prime factor for the bound to reach
    inner = make_hidden_subgroup_instance(GroupSpec.of([2, 2]), [], relabel_seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        wrapped = wrap_many_to_one(inner, np.arange(4) // 2, multiplicity=2, strict=True)
    assert wrapped.codomain_size == 2


def test_wrap_drops_shift_structure():
    inner = make_order_instance(15, 2)
    table = np.arange(inner.codomain_size)
    wrapped = wrap_many_to_one(inner, table, multiplicity=1)
    assert not wrapped.homomorphism_available


def test_wrap_enlarged_invariance_is_visible_to_scans():
    # Z_8, planted <4>; merging across the right cosets enlarges the true
    # invariance group to <2>, and the classical oracle sees that
    inner = make_hidden_subgroup_instance(GroupSpec.of([8]), [(4,)], relabel_seed=3)
    labels = [inner._raw((x,)) for x in range(4)]
    table = pairing_merge(inner, [(labels[0], labels[2]), (labels[1], labels[3])])
    with pytest.warns(UserWarning):
        wrapped = wrap_many_to_one(inner, table, multiplicity=2)
    got = classical_invariance_subgroup(wrapped)
    assert subgroups_equal(got, SubgroupGenerators.of(GroupSpec.of([8]), [(2,)]))


def dict_invariance_subgroup(instance: OracleInstance) -> SubgroupGenerators:
    """Independent oracle: every h with f(x + h) = f(x) at every x, by a
    Python scan over a dict of the whole group."""
    spec = instance.domain
    table = {x: instance._raw(x) for x in spec.elements()}
    members = [h for h in table if all(table[spec.add(x, h)] == table[x] for x in table)]
    return SubgroupGenerators.of(spec, members)


@pytest.mark.parametrize("moduli", [(12,), (2, 4), (3, 6), (2, 2, 2)])
def test_invariance_subgroup_matches_the_dict_scan(moduli):
    """Over every subgroup of a few groups, each also merged 2-to-1 at
    random, which can enlarge the invariance subgroup."""
    spec = GroupSpec.of(moduli)
    rng = np.random.default_rng(len(moduli))
    for i, sub in enumerate(all_subgroups(spec)):
        inst = make_hidden_subgroup_instance(spec, sub.generators, relabel_seed=i)
        merge = rng.permutation(inst.codomain_size) // 2
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            wrapped = wrap_many_to_one(inst, merge, multiplicity=2)
        for each in (inst, wrapped):
            assert subgroups_equal(classical_invariance_subgroup(each), dict_invariance_subgroup(each))


# --- promise checks ----------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [
        lambda: make_simon_instance(3, (1, 1, 0)),
        lambda: make_hidden_subgroup_instance(GroupSpec.of([2, 4]), [(1, 2)], relabel_seed=2),
        lambda: make_hidden_subgroup_instance(GroupSpec.of([9]), [(3,)], relabel_seed=1),
        lambda: make_dlog_instance(2, 4, modulus=11),
    ],
    ids=["simon", "z2z4", "z9", "dlog"],
)
def test_level_sets_are_exactly_cosets(make):
    inst = make()
    members = subgroup_enumerate(inst.truth.subgroup)
    spec = inst.domain
    elems = list(spec.elements())
    for x in elems:
        for y in elems:
            same = inst._raw(x) == inst._raw(y)
            in_k = spec.add(x, spec.neg(y)) in members
            assert same == in_k, (x, y)


# --- quantum application primitives ------------------------------------------


def test_apply_oracle_basis_case():
    inst = make_order_instance(15, 2)
    layout = RegisterLayout.of([4, 15])
    out = apply_oracle(basis_state(layout, [0, 0]), [0], 1, inst)
    assert l2_distance(out, basis_state(layout, [0, 1])) < 1e-12  # f(0) = 1


def test_apply_oracle_constant_product_state():
    inst = make_deutsch_instance(1, 1)
    layout = RegisterLayout.of([2, 2])
    s = uniform_state(RegisterLayout.of([2]))
    start = from_amplitudes(layout, np.kron(s.amplitudes, [1, 0]))
    joint = apply_oracle(start, [0], 1, inst)
    expected = np.kron(s.amplitudes, [0, 1])  # uniform (x) |1>
    assert_allclose(joint.amplitudes, expected, atol=1e-12)


def test_apply_oracle_order_superposition():
    inst = make_order_instance(15, 2)
    layout = RegisterLayout.of([4, 15])
    s = uniform_state(RegisterLayout.of([4]))
    start = from_amplitudes(layout, np.kron(s.amplitudes, np.eye(15)[0]))
    out = apply_oracle(start, [0], 1, inst)
    expected = np.zeros(60, dtype=complex)
    for x in range(4):
        expected[x * 15 + pow(2, x, 15)] = 0.5
    assert_allclose(out.amplitudes, expected, atol=1e-12)


def test_apply_oracle_adds_mod_codomain():
    inst = make_deutsch_instance(0, 1)
    layout = RegisterLayout.of([2, 2])
    out = apply_oracle(basis_state(layout, [1, 1]), [0], 1, inst)
    # target 1 + f(1)=1 -> 0 mod 2
    assert l2_distance(out, basis_state(layout, [1, 0])) < 1e-12


def test_apply_oracle_is_permutation_of_joint_basis():
    inst = make_period_instance(3, relabel_seed=4)
    layout = RegisterLayout.of([6, 3])
    images = []
    for x in range(6):
        for y in range(3):
            out = apply_oracle(basis_state(layout, [x, y]), [0], 1, inst)
            hit = np.flatnonzero(np.abs(out.amplitudes) > 0.5)
            assert hit.size == 1
            images.append(int(hit[0]))
    assert sorted(images) == list(range(18))


def test_apply_oracle_group_domain_uses_one_control_per_factor():
    inst = make_simon_instance(2, (1, 1))
    layout = RegisterLayout.of([2, 2, 4])
    out = apply_oracle(basis_state(layout, [1, 0, 0]), [0, 1], 2, inst)
    expected = basis_state(layout, [1, 0, inst._raw((1, 0))])
    assert l2_distance(out, expected) < 1e-12


def test_apply_shift_zero_control_is_identity():
    inst = make_order_instance(15, 2)
    layout = RegisterLayout.of([4, 15])
    s = basis_state(layout, [0, 1])
    out = apply_shift(s, 0, 1, inst)
    assert l2_distance(out, s) < 1e-12


def test_apply_shift_multiplies_by_power():
    inst = make_order_instance(15, 2)
    layout = RegisterLayout.of([4, 15])
    out = apply_shift(basis_state(layout, [3, 1]), 0, 1, inst)
    assert l2_distance(out, basis_state(layout, [3, 8])) < 1e-12  # 2^3 * 1 = 8


def test_apply_shift_simon_generator():
    inst = make_simon_instance(3, (1, 0, 1))
    y = (0, 1, 1)
    layout = RegisterLayout.of([2, 8])
    s = basis_state(layout, [1, inst._raw(y)])
    out = apply_shift(s, 0, 1, inst, generator=1)
    expected = basis_state(layout, [1, inst._raw((0, 0, 1))])  # y + e_2
    assert l2_distance(out, expected) < 1e-12


def shift_action_table(inst, x: int, layout) -> list[int]:
    """Label permutation apply_shift realizes for control value x."""
    out = []
    for lab in range(inst.codomain_size):
        s = basis_state(layout, [x, lab])
        shifted = apply_shift(s, 0, 1, inst)
        hit = np.flatnonzero(np.abs(shifted.amplitudes) > 0.5)
        assert hit.size == 1
        out.append(int(hit[0]) % layout.dims[1])
    return out


def test_apply_shift_additivity():
    # P(x1) . P(x2) = P(x1 + x2) on the realized label permutations
    inst = make_order_instance(21, 2)
    layout = RegisterLayout.of([8, 21])
    tables = {x: shift_action_table(inst, x, layout) for x in range(5)}
    for x1 in range(3):
        for x2 in range(2):
            composed = [tables[x1][tables[x2][lab]] for lab in range(21)]
            assert composed == tables[x1 + x2]


def test_apply_shift_refused_without_homomorphism():
    inst = make_period_instance(6)
    layout = RegisterLayout.of([4, 6])
    with pytest.raises(ValueError):
        apply_shift(basis_state(layout, [1, 0]), 0, 1, inst)


# --- query accounting --------------------------------------------------------


def test_counter_counts_evaluate_and_applications():
    inst = make_order_instance(15, 2)
    assert inst.query_count == 0
    inst.evaluate(3)
    assert inst.query_count == 1
    layout = RegisterLayout.of([4, 15])
    apply_oracle(basis_state(layout, [0, 0]), [0], 1, inst)
    apply_shift(basis_state(layout, [1, 1]), 0, 1, inst)
    assert inst.query_count == 1  # gates bill nothing; the samplers and runners do
    sample_control(inst, 8, 1, seed=0, target=1)
    assert inst.query_count == 2  # one circuit
    sample_control(inst, 16, 1, seed=0, target=1)
    assert inst.query_count == 3
    sample_control(inst, 8, 1, seed=0)
    assert inst.query_count == 4  # the default target is read, not queried
    phase_estimate_semiclassical(inst, 3, seed=0, target=1)
    assert inst.query_count == 7  # one per step
    phase_estimate_semiclassical(inst, 3, seed=0)
    assert inst.query_count == 11  # three steps plus the default target


def test_counter_exact_while_verifier_runs():
    # the dual-route verifier bills nothing and must not hide queries that
    # another thread makes on the same instance meanwhile
    inst = make_order_instance(15, 2)
    stop = threading.Event()

    def verify_loop():
        while not stop.is_set():
            verify_main_equality(inst, 64)

    k = 20_000
    interval = sys.getswitchinterval()
    worker = threading.Thread(target=verify_loop)
    sys.setswitchinterval(1e-5)
    try:
        worker.start()
        for t in range(k):
            inst.evaluate(t)
    finally:
        stop.set()
        worker.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not worker.is_alive()
    assert inst.query_count == k


def test_classical_scans_do_not_bill_queries():
    inst = make_period_instance(6, relabel_seed=2)
    classical_least_period(inst, 48)
    assert inst.query_count == 0


# --- serialization round-trips ------------------------------------------------


@pytest.mark.parametrize(
    "descriptor",
    [
        {"kind": "order", "modulus": 15, "base": 2},
        {"kind": "period", "period": 6, "relabel_seed": 3},
        {"kind": "period", "period": 5, "relabeling": [3, 0, 4, 1, 2]},
        {"kind": "simon", "bits": 3, "secret": [1, 0, 1]},
        {"kind": "dlog", "base": 3, "target": 4, "modulus": 7},
        {"kind": "deutsch", "f0": 0, "f1": 1},
        {"kind": "hidden_subgroup", "moduli": [2, 4], "generators": [[1, 2]], "relabel_seed": 2},
        {"kind": "stabiliser", "moduli": [4], "weights": [1], "points": 2, "x0": 0},
    ],
    ids=["order", "period-seed", "period-explicit", "simon", "dlog", "deutsch", "hsp", "stabiliser"],
)
def test_instance_from_json_round_trip(descriptor):
    a = instance_from_json(descriptor)
    b = instance_from_json(descriptor)
    if a.domain is None:
        window = range(24)
    else:
        window = list(a.domain.elements())
    assert [a._raw(x) for x in window] == [b._raw(x) for x in window]
    if a.domain is None:
        assert a.truth.period == b.truth.period
    else:
        assert subgroups_equal(a.truth.subgroup, b.truth.subgroup)


def test_many_to_one_descriptor_round_trip():
    inner = make_period_instance(6, relabel_seed=1)
    vals = [inner._raw(t) for t in range(6)]
    table = pairing_merge(inner, [(vals[0], vals[3])])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        wrapped = wrap_many_to_one(inner, table, multiplicity=2)
    rebuilt = instance_from_json(wrapped.descriptor)
    for t in range(18):
        assert rebuilt._raw(t) == wrapped._raw(t)


def test_many_to_one_rebuild_leaves_warning_filters_alone():
    """The JSON rebuild skips the check its descriptor passed where it was
    made or loaded, so it warns nothing and touches none of the
    process-wide warning filters, which the CLI's trial threads share."""
    inner = make_period_instance(6, relabel_seed=1)
    with pytest.warns(UserWarning):
        wrapped = wrap_many_to_one(inner, np.arange(6) // 2, multiplicity=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        filters = list(warnings.filters)
        with patch.object(warnings, "catch_warnings", side_effect=AssertionError("catch_warnings")), \
                patch.object(warnings, "simplefilter", side_effect=AssertionError("simplefilter")):
            rebuilt = instance_from_json(wrapped.to_json())
        assert warnings.filters == filters
    assert caught == []
    assert [rebuilt._raw(t) for t in range(12)] == [wrapped._raw(t) for t in range(12)]


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        instance_from_json({"kind": "mystery"})
