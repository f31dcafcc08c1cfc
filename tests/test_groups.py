"""Finite Abelian group layer: specs, subgroups, characters, kernels.

The character-kernel solver, a triangular solve against a Hermite basis, is
the piece most likely to harbor subtle bugs, so it gets an exhaustive
cross-check against literal enumeration over every subgroup of every small
prime-power group, and property tests against the brute-force annihilator
over random composite groups.
"""

from __future__ import annotations

from itertools import product
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsplab import groups
from hsplab.groups import (
    GroupSpec,
    SubgroupGenerators,
    all_subgroups,
    character_kernel,
    character_phase_numerator,
    subgroups_equal,
)
from dense_reference import orthogonality_holds, subgroup_enumerate
from test_acceptance import _acceptance_group_specs


# --- group spec basics -----------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec.of([])
    with pytest.raises(ValueError):
        GroupSpec.of([0, 2])
    assert GroupSpec.of([4, 2]).order == 8
    assert GroupSpec.of([4, 2]).rank == 2


def test_element_arithmetic():
    spec = GroupSpec.of([4, 3])
    assert spec.add((3, 2), (2, 2)) == (1, 1)
    assert spec.neg((1, 2)) == (3, 1)
    assert spec.scale(5, (1, 1)) == (1, 2)
    assert spec.reduce((-1, 7)) == (3, 1)
    assert spec.identity() == (0, 0)


def test_element_indexing_round_trip():
    spec = GroupSpec.of([3, 2, 2])
    for i in range(spec.order):
        assert spec.element_index(spec.element_at(i)) == i


def test_spec_json_round_trip():
    spec = GroupSpec.of([4, 2])
    assert GroupSpec.from_json(spec.to_json()) == spec


# --- subgroup enumeration and equality --------------------------------------


def test_enumerate_trivial():
    spec = GroupSpec.of([8])
    k = SubgroupGenerators.of(spec, [])
    assert subgroup_enumerate(k) == frozenset({(0,)})


def test_enumerate_diagonal_in_z2z2():
    spec = GroupSpec.of([2, 2])
    k = SubgroupGenerators.of(spec, [(1, 1)])
    assert subgroup_enumerate(k) == frozenset({(0, 0), (1, 1)})


def test_enumerate_even_residues():
    spec = GroupSpec.of([8])
    k = SubgroupGenerators.of(spec, [(2,)])
    assert subgroup_enumerate(k) == frozenset({(0,), (2,), (4,), (6,)})


def test_subgroups_equal_examples():
    z2z2 = GroupSpec.of([2, 2])
    assert subgroups_equal(
        SubgroupGenerators.of(z2z2, [(1, 1)]),
        SubgroupGenerators.of(z2z2, [(1, 1), (0, 0)]),
    )
    z8 = GroupSpec.of([8])
    assert subgroups_equal(
        SubgroupGenerators.of(z8, [(2,)]), SubgroupGenerators.of(z8, [(6,)])
    )
    z4 = GroupSpec.of([4])
    assert not subgroups_equal(
        SubgroupGenerators.of(z4, [(1,)]), SubgroupGenerators.of(z4, [(2,)])
    )


def test_canonical_form_makes_equality_structural():
    z8 = GroupSpec.of([8])
    a = SubgroupGenerators.of(z8, [(2,)])
    b = SubgroupGenerators.of(z8, [(6,), (4,)])
    assert a.generators == b.generators


def _divisors(n: int) -> list[int]:
    return [a for a in range(1, n + 1) if n % a == 0]


def zmzn_subgroup_count(m: int, n: int) -> int:
    """Number of subgroups of Z_m x Z_n: sum of gcd(a, b) over a | m, b | n
    (Hampejs, Holighaus, Toth & Wiesmeyr, "Representing and counting the
    subgroups of the group Z_m x Z_n")."""
    return sum(gcd(a, b) for a in _divisors(m) for b in _divisors(n))


def test_all_subgroups_counts():
    # classical subgroup counts for tiny groups
    assert len(all_subgroups(GroupSpec.of([4]))) == 3
    assert len(all_subgroups(GroupSpec.of([8]))) == 4
    assert len(all_subgroups(GroupSpec.of([2, 2]))) == 5
    assert len(all_subgroups(GroupSpec.of([2, 4]))) == 8
    assert len(all_subgroups(GroupSpec.of([12]))) == 6
    for m in range(1, 33):
        for n in range(1, 33):
            assert len(all_subgroups(GroupSpec.of([m, n]))) == zmzn_subgroup_count(m, n), (m, n)
    assert zmzn_subgroup_count(16, 16) == 83
    assert len(all_subgroups(GroupSpec.of([16, 16]))) == 83
    assert zmzn_subgroup_count(64, 64) == 367
    assert len(all_subgroups(GroupSpec.of([64, 64]))) == 367


def _extend_closure(spec: GroupSpec, elems: frozenset, x) -> frozenset:
    """Elements of <H, x> given the element set of H: union of cosets H + k*x."""
    acc = set(elems)
    cur = x
    while cur not in elems:
        acc.update(spec.add(e, cur) for e in elems)
        cur = spec.add(cur, x)
    return frozenset(acc)


def closure_subgroups(spec: GroupSpec) -> dict[frozenset, SubgroupGenerators]:
    """Reference enumeration, independent of Hermite forms: walk the subgroup
    lattice upward, extending each known subgroup by each outside element
    and closing, keyed by element set."""
    elements = [spec.reduce(e) for e in spec.elements()]
    trivial = frozenset({spec.identity()})
    seen = {trivial: SubgroupGenerators.trivial(spec)}
    frontier = [(trivial, seen[trivial])]
    while frontier:
        elems, gens = frontier.pop()
        for x in elements:
            if x in elems:
                continue
            big_elems = _extend_closure(spec, elems, x)
            if big_elems not in seen:
                seen[big_elems] = SubgroupGenerators.of(spec, list(gens.generators) + [x])
                frontier.append((big_elems, seen[big_elems]))
    return seen


def test_all_subgroups_match_the_closure_reference():
    groups = [moduli for moduli in _acceptance_group_specs() if len(moduli) <= 4]
    assert len(groups) == 123
    for moduli in groups:
        spec = GroupSpec.of(moduli)
        found = all_subgroups(spec)
        reference = closure_subgroups(spec)
        assert len({k.generators for k in found}) == len(found), moduli
        assert {subgroup_enumerate(k) for k in found} == set(reference), moduli
        assert {k.generators for k in found} == {k.generators for k in reference.values()}, moduli
        assert found == sorted(found, key=lambda k: k.generators)


def test_all_subgroups_cap_trips_while_enumerating(monkeypatch):
    monkeypatch.setattr(groups, "SUBGROUP_CAP", 20)
    assert len(all_subgroups(GroupSpec.of([2, 2, 2]))) == 16
    with pytest.raises(ValueError, match="more than 20 subgroups"):
        all_subgroups(GroupSpec.of([2, 2, 2, 2]))


def test_subgroup_json_round_trip():
    spec = GroupSpec.of([2, 4])
    k = SubgroupGenerators.of(spec, [(1, 2), (0, 2)])
    back = SubgroupGenerators.from_json(k.to_json())
    assert subgroups_equal(k, back)


# --- character pairing -------------------------------------------------------


def brute_force_kernel(spec: GroupSpec, samples) -> frozenset:
    """Literal kernel: every element annihilated by every sample."""
    return frozenset(
        h
        for h in spec.elements()
        if all(character_phase_numerator(spec, tuple(t), h) == 0 for t in samples)
    )


def test_kernel_empty_samples_is_whole_group():
    spec = GroupSpec.of([2, 2])
    k = character_kernel([], spec)
    assert subgroup_enumerate(k) == frozenset(spec.elements())


def test_kernel_single_sample_z2z2():
    spec = GroupSpec.of([2, 2])
    k = character_kernel([(1, 1)], spec)
    assert subgroup_enumerate(k) == frozenset({(0, 0), (1, 1)})


def test_kernel_full_character_group_is_trivial():
    spec = GroupSpec.of([4, 2])  # descending order on purpose
    samples = list(product(range(4), range(2)))
    k = character_kernel(samples, spec)
    assert subgroup_enumerate(k) == frozenset({(0, 0)})


def test_pairing_weights_mixed_exponents():
    # Z_2 x Z_4: pairing is 2*h1*t1 + h2*t2 mod 4
    spec = GroupSpec.of([2, 4])
    assert character_phase_numerator(spec, (1, 0), (1, 0)) == 2
    assert character_phase_numerator(spec, (1, 1), (1, 2)) == 0
    assert character_phase_numerator(spec, (0, 3), (0, 3)) == 1


def test_orthogonality_holds_on_generators():
    spec = GroupSpec.of([2, 4])
    k = SubgroupGenerators.of(spec, [(0, 2)])
    assert orthogonality_holds(spec, (1, 2), k)
    assert not orthogonality_holds(spec, (0, 1), k)


@pytest.mark.parametrize(
    "moduli",
    [(2,), (4,), (8,), (16,), (32,), (64,), (2, 2), (2, 4), (2, 8), (2, 16),
     (4, 4), (4, 8), (2, 2, 2), (2, 2, 4), (2, 2, 8), (2, 4, 4), (2, 2, 2, 2),
     (2, 2, 2, 4), (2, 2, 2, 2, 2), (2, 2, 2, 2, 2, 2), (3,), (9,), (27,),
     (3, 3), (3, 9), (3, 3, 3), (5,), (25,), (5, 5), (7,), (49,), (2, 2, 16),
     (4, 16), (2, 32), (3, 27), (7, 7), (11,), (13,), (121,)],
)
def test_kernel_matches_enumeration_for_every_subgroup(moduli):
    """Frozen oracle sweep: for each subgroup K, feed the solver the exact
    annihilator character set and demand it reproduce K."""
    spec = GroupSpec.of(moduli)
    full = frozenset(spec.elements())
    for k in all_subgroups(spec):
        members = subgroup_enumerate(k)
        assert k.order == len(members)
        annihilators = [
            t for t in spec.elements()
            if all(character_phase_numerator(spec, t, h) == 0 for h in members)
        ]
        recovered = character_kernel(annihilators, spec)
        assert subgroup_enumerate(recovered) == members
        # sanity on the oracle itself
        assert brute_force_kernel(spec, annihilators) == members
        assert members <= full


def test_spans_full_character_group_examples():
    spec = GroupSpec.of([2, 2, 2])
    planted = SubgroupGenerators.of(spec, [(1, 0, 1)])
    assert subgroups_equal(character_kernel([(0, 1, 0), (1, 0, 1), (1, 1, 1)], spec), planted)
    assert not subgroups_equal(character_kernel([(0, 0, 0)], spec), planted)
    # the full character group of G/K: every tuple annihilating K
    all_t = [t for t in spec.elements() if orthogonality_holds(spec, t, planted)]
    assert subgroups_equal(character_kernel(all_t, spec), planted)
    # {000} spans only for K = G
    whole = SubgroupGenerators.of(spec, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert subgroups_equal(character_kernel([(0, 0, 0)], spec), whole)


# Composite moduli sharing a prime across coordinates with different
# cofactors, so the Hermite pivots mix primes within one coordinate.
SHARED_PRIME_GROUPS = [(3, 6), (6, 12), (10, 20), (2, 6), (6, 4), (6,)]
RANDOM_GROUPS = st.lists(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 15]), min_size=1, max_size=3).filter(
    lambda m: prod(m) <= 600
)


@given(data=st.data(), moduli=st.one_of(st.sampled_from(SHARED_PRIME_GROUPS), RANDOM_GROUPS))
def test_kernel_matches_brute_force_annihilator(data, moduli):
    """Any finite Abelian group: the kernel equals every h with
    sum_j t_j * h_j * (L/d_j) == 0 mod L, L = lcm(moduli), for each sample t."""
    spec = GroupSpec.of(moduli)
    samples = data.draw(st.lists(st.tuples(*(st.integers(0, d - 1) for d in moduli)), max_size=4))
    big = lcm(*moduli)
    expected = frozenset(
        h for h in spec.elements()
        if all(sum(tj * hj * (big // d) for tj, hj, d in zip(t, h, moduli)) % big == 0 for t in samples)
    )
    assert subgroup_enumerate(character_kernel(samples, spec)) == expected


@pytest.mark.parametrize(
    "moduli,gens",
    [
        ((6,), [(2,)]),
        ((6,), [(3,)]),
        ((12,), [(3,)]),
        ((12, 2), [(4, 1)]),
        ((30,), [(6,)]),
    ],
)
def test_subgroup_split_join_round_trip(moduli, gens):
    """A subgroup of a composite group comes back from its annihilator,
    K -> K^perp -> ker(K^perp) = K, in one solve over the whole group with
    no split into prime components and no join."""
    spec = GroupSpec.of(moduli)
    k = SubgroupGenerators.of(spec, gens)
    annihilators = [t for t in spec.elements() if orthogonality_holds(spec, t, k)]
    joined = character_kernel(annihilators, spec)
    assert subgroups_equal(k, joined)
    assert joined == k


@st.composite
def _groups_and_sample_lists(draw):
    """A group of rank <= 4 and order <= 216, any moduli, and 0-8 samples
    drawn from a pool of characters and the zero character, so lists repeat."""
    moduli, budget = [], 216
    for _ in range(draw(st.integers(1, 4))):
        moduli.append(draw(st.integers(1, budget)))
        budget //= moduli[-1]
    characters = st.tuples(*(st.integers(0, d - 1) for d in moduli))
    pool = draw(st.lists(characters, min_size=1, max_size=4)) + [(0,) * len(moduli)]
    return GroupSpec.of(moduli), draw(st.lists(st.sampled_from(pool), max_size=8))


@settings(max_examples=200)
@given(_groups_and_sample_lists())
def test_kernel_is_the_scanned_annihilator(case):
    """The dual-lattice kernel equals a scan of G for the elements every
    sample annihilates, as a set and in canonical form."""
    spec, samples = case
    scanned = [
        h for h in spec.elements()
        if all(character_phase_numerator(spec, t, h) == 0 for t in samples)
    ]
    kernel = character_kernel(samples, spec)
    assert subgroup_enumerate(kernel) == frozenset(scanned)
    assert kernel == SubgroupGenerators.of(spec, scanned)


# a modulus up to 2**46 with many divisors, and a coordinate that is a
# small multiple of a power of two, or any integer of that size
_wide_moduli = st.builds(lambda odd, e: odd << e, st.integers(1, 63), st.integers(0, 40))
_wide_coordinates = st.one_of(
    st.builds(lambda k, e: k << e, st.integers(-9, 9), st.integers(0, 46)),
    st.integers(-(1 << 47), 1 << 47),
)


@st.composite
def _wide_groups_and_sample_lists(draw):
    moduli = draw(st.lists(_wide_moduli, min_size=1, max_size=4))
    samples = draw(st.lists(st.tuples(*(_wide_coordinates for _ in moduli)), max_size=6))
    return GroupSpec.of(moduli), samples


@settings(max_examples=300)
@given(_wide_groups_and_sample_lists())
def test_kernel_is_the_two_form_construction(case):
    """The kernel from one Hermite form, taken in reversed coordinates, is
    the kernel from two: the forward Hermite form of the samples, its dual
    rows, and a second Hermite form of their columns.  Moduli run past 2**31."""
    spec, samples = case
    rows = groups._dual_rows(groups._hermite_basis(set(samples), spec.moduli), spec.moduli)
    assert character_kernel(samples, spec) == SubgroupGenerators.of(spec, zip(*rows))
