"""Black-box function instances with planted hidden subgroups.

An OracleInstance packages a function f from a group G (a finite GroupSpec,
or the integers for order/period problems) onto integer labels [0, |X|),
together with flags solvers may rely on.  A function on the integers is
periodic by construction, so it is held as one period of labels.  A
function on a finite group is held as a subgroup H on which it is constant,
given by its Hermite basis, and one label per point of H's box prod [0, p_i),
the least elements of H's cosets: f(x) reduces x to its coset's least
element and reads that point's label.  Builders pass the subgroup they
plant (the hidden subgroup, the stabiliser, <(1, -m)> for a discrete log),
so a box holds one label per coset and no table over G is built; a merge
keeps its inner instance's subgroup and merges the box labels, and a raw
table is its own box over H = {0}.  The flags:

  * `codomain_size` — the label-space size |X| (the image may be smaller);
  * `homomorphism_available` — whether the shift maps |f(y)> -> |f(y+g)>
    are computable, as the one-qubit cascade and estimations on targets off
    f's orbit need; with them, f's row of labels f(k g) is the orbit of f(0)
    under a permutation, so its labels are distinct up to their first
    return;
  * `multiplicity_bound` — the known m for instances that are at most
    m-to-1 on cosets (1 for honest hidden-subgroup promises).

Ground truth (the planted subgroup / period / exponent) rides along in
`truth` for verification and reporting code; solver code treats instances
as black boxes and touches only `evaluate`, the shift maps, and the flags.
Queries are billed where circuits run, to the instance's QueryCounter:
one per classical `evaluate` call, per sampler draw and per semiclassical
step.  The exact outcome laws bill nothing; they describe the instance
rather than query it.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from math import gcd, prod

import numpy as np

from .amplitudes import CapExceeded, dimension_cap
from .groups import (
    Element,
    GroupSpec,
    SubgroupGenerators,
    _coset_reduce,
    _factorize,
    _hermite_basis,
)

PROMISE_CHECK_CAP = 4096


class QueryCounter:
    """Thread-safe tally of oracle uses (classical or quantum)."""

    def __init__(self) -> None:
        self._count = 0
        self._lock = threading.Lock()

    def add(self, n: int = 1) -> None:
        with self._lock:
            self._count += n

    @property
    def count(self) -> int:
        return self._count


@dataclass(frozen=True)
class PlantedTruth:
    """Builder-side ground truth; verification/report code only."""

    period: int | None = None
    subgroup: SubgroupGenerators | None = None
    dlog_exponent: int | None = None


class OracleInstance:
    """A black-box f with its flags, ground truth and query counter.

    On the integers f is given by `period_labels`, its labels over one period
    L: f(t) = period_labels[t mod L], and L need not be the least period.  On
    a finite domain it is given by `basis`, the Hermite basis of a subgroup H
    on which f is constant (None: H = {0}), and `box_labels`, f at the points
    of H's box prod [0, p_i), shaped like the box.
    """

    basis = box_labels = None  # finite domains only
    pivots: tuple[int, ...] = ()

    def __init__(
        self,
        *,
        domain: GroupSpec | None,
        codomain_size: int,
        period_labels=None,
        basis=None,
        box_labels=None,
        shift_fn=None,
        multiplicity_bound: int = 1,
        truth: PlantedTruth | None = None,
        descriptor: dict | None = None,
    ) -> None:
        if (domain is None) == (period_labels is None) or (domain is None) != (box_labels is None) or domain is None and basis is not None:
            raise ValueError("an integer domain takes period_labels, a finite domain a basis and box labels")
        if domain is None:
            period_labels = np.array(period_labels, dtype=np.int64)
            if period_labels.ndim != 1 or not period_labels.size:
                raise ValueError("period_labels must be a non-empty list of labels")
            period_labels.setflags(write=False)
        else:
            moduli = domain.moduli
            if basis is None:
                basis = [[d if i == j else 0 for j in range(domain.rank)] for i, d in enumerate(moduli)]
            self.basis = tuple(tuple(int(a) for a in row) for row in basis)
            self.pivots = tuple(row[i] for i, row in enumerate(self.basis))
            if len(self.basis) != domain.rank or any(d % p for p, d in zip(self.pivots, moduli)):
                raise ValueError(f"basis must have one row per coordinate, pivot i dividing d_i {moduli}")
            box_labels = np.array(box_labels, dtype=np.int64)
            if box_labels.shape != self.pivots:
                raise ValueError(f"box labels of shape {box_labels.shape}, not the box {self.pivots}")
            box_labels.setflags(write=False)
            self.box_labels = box_labels
        self.domain = domain
        self.codomain_size = int(codomain_size)
        self.period_labels = period_labels
        self._shift_fn = shift_fn
        self.multiplicity_bound = int(multiplicity_bound)
        self.truth = truth or PlantedTruth()
        self.descriptor = descriptor or {}
        self.counter = QueryCounter()
        self._dist_cache: dict = {}  # estimation-layer memo of register cycles and coset samplers

    @property
    def homomorphism_available(self) -> bool:
        return self._shift_fn is not None

    @property
    def query_count(self) -> int:
        return self.counter.count

    def _coerce(self, x):
        if self.domain is None:
            return int(x)
        if isinstance(x, int):
            raise ValueError("finite-domain instance expects a coordinate tuple")
        return self.domain.reduce(x)

    def _raw(self, x) -> int:
        """Unbilled evaluation: plumbing for gates, exact laws and reference
        checks, which describe the instance rather than query it.  A finite
        domain's point is reduced in Python ints, so no modulus overflows."""
        if self.domain is None:
            return int(self.period_labels[int(x) % self.period_labels.size])
        point = _coset_reduce(list(self._coerce(x)), self.basis, self.domain.moduli)
        return int(self.box_labels[tuple(point)])

    def label_table(self, shape: tuple[int, ...]) -> np.ndarray:
        """Unbilled f at every point of a block of control registers of the
        given shape: one register of points t on the integers, which tiles
        the period; one register per coordinate on a finite domain, whose
        points are reduced into the domain and then to their cosets' least
        elements, in the box."""
        if self.domain is None:
            (n,) = shape
            return np.resize(self.period_labels, n)
        shape = tuple(shape)
        moduli = self.domain.moduli
        if len(shape) != len(moduli):
            raise ValueError(f"need one register per domain coordinate ({len(moduli)})")
        points = np.indices(shape, dtype=np.int64).reshape(len(shape), -1)
        if shape != moduli:
            points %= np.reshape(moduli, (-1, 1))
        box = tuple(np.asarray(_coset_reduce(points, self.basis, moduli), dtype=np.int64))
        return self.box_labels[box].reshape(shape)

    def evaluate(self, x) -> int:
        """One classical query of f (counted)."""
        self.counter.add(1)
        return self._raw(x)

    def shift_permutation(self, g) -> np.ndarray:
        """Label permutation sending |f(y)> to |f(y+g)>, total on [0, |X|).

        Constructing the map is free; a circuit that applies it is billed by
        the runner that executes the circuit.
        """
        if self._shift_fn is None:
            raise ValueError("instance has no computable shift maps")
        return self._shift_fn(self._coerce(g))

    def to_json(self) -> dict:
        """The descriptor as JSON values: arrays, such as a merge table, as
        lists, in nested descriptors too."""
        return _json_value(self.descriptor)


def _json_value(value):
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def _multiplicative_order(a: int, n: int) -> int:
    r, v = 1, a % n
    while v != 1:
        v = v * a % n
        r += 1
        if r > n:
            raise ValueError(f"{a} is not a unit mod {n}")
    return r


def _powers(a: int, n: int, limit: int) -> list[int]:
    """a^0, a^1, ... mod n, up to the first return to 1: one walk of a
    unit's powers, whose count is its order.  An order above `limit`
    raises CapExceeded after `limit` steps, before the list outgrows it."""
    powers, v = [1], a
    for _ in range(limit):
        if v == 1:
            return powers
        powers.append(v)
        v = v * a % n
    raise CapExceeded(f"order of {a} mod {n} exceeds cap {limit}")


def make_order_instance(n: int, a: int) -> OracleInstance:
    """f(t) = a^t mod n on the integers; the period is the order of a.

    The shift by g is multiplication by a^g mod n, a permutation of all of
    Z_n (residues outside the range of f are carried along; any unitary
    extension is fine there).  An order above the dimension cap raises
    CapExceeded once the walk of a's powers passes the cap.
    """
    n, a = int(n), int(a)
    if n < 2:
        raise ValueError("modulus must be >= 2")
    a %= n
    if gcd(a, n) != 1:
        raise ValueError(f"base {a} is not a unit mod {n}")
    powers = _powers(a, n, dimension_cap())

    def shift(g: int) -> np.ndarray:
        return (np.arange(n, dtype=np.int64) * pow(a, g, n)) % n

    return OracleInstance(
        domain=None,
        codomain_size=n,
        period_labels=powers,
        shift_fn=shift,
        truth=PlantedTruth(period=len(powers)),
        descriptor={"kind": "order", "modulus": n, "base": a},
    )


def make_period_instance(r: int, relabeling=None, relabel_seed: int | None = None) -> OracleInstance:
    """f(t) = relabeling[t mod r]: a generic period-r function on Z whose
    values carry no algebraic structure, so no shift maps are available and
    solvers must go through plain f-queries."""
    r = int(r)
    if r < 1:
        raise ValueError("period must be >= 1")
    if relabeling is None:
        rng = np.random.default_rng(0 if relabel_seed is None else relabel_seed)
        relabeling = rng.permutation(r)
    relab = [int(v) for v in relabeling]
    if sorted(relab) != list(range(r)):
        raise ValueError("relabeling must be a permutation of [0, r)")

    return OracleInstance(
        domain=None,
        codomain_size=r,
        period_labels=relab,
        shift_fn=None,
        truth=PlantedTruth(period=r),
        descriptor={"kind": "period", "period": r, "relabeling": relab},
    )


def make_hidden_subgroup_instance(
    spec: GroupSpec, generators, relabel_seed: int = 0
) -> OracleInstance:
    """Plant an arbitrary subgroup K: f labels the cosets of <generators>,
    with the label alphabet scrambled by `relabel_seed`.

    With the Hermite basis of K's lattice (pivot p_i at column i), reducing x
    coordinate by coordinate gives its coset's least element, so the cosets'
    representatives are the box prod [0, p_i).  Cosets are ranked by the
    mixed-radix order of their representatives, and coset rank i gets label
    perm[i], so the box labels are the seeded permutation itself.  The
    basis is computed once, and the planted truth is read off it."""
    if isinstance(generators, SubgroupGenerators):
        generators = generators.generators
    basis = _hermite_basis([spec.reduce(g) for g in generators], spec.moduli)
    pivots = tuple(row[i] for i, row in enumerate(basis))
    n_labels = prod(pivots)
    labels = np.random.default_rng(relabel_seed).permutation(n_labels)
    subgroup = SubgroupGenerators.of_basis(spec, basis)

    def shift(g: Element) -> np.ndarray:
        # each coset's label moves to the label of its least element plus g
        box = np.indices(pivots, dtype=np.int64).reshape(spec.rank, -1)
        moved = (box + np.reshape(g, (-1, 1))) % np.reshape(spec.moduli, (-1, 1))
        perm = np.empty(n_labels, dtype=np.int64)
        reduced = np.asarray(_coset_reduce(moved, basis, spec.moduli), dtype=np.int64)
        perm[labels] = labels[np.ravel_multi_index(tuple(reduced), pivots)]
        return perm

    return OracleInstance(
        domain=spec,
        codomain_size=n_labels,
        basis=basis,
        box_labels=labels.reshape(pivots),
        shift_fn=shift,
        truth=PlantedTruth(subgroup=subgroup),
        descriptor={
            "kind": "hidden_subgroup",
            "moduli": list(spec.moduli),
            "generators": [list(g) for g in subgroup.generators],
            "relabel_seed": int(relabel_seed),
        },
    )


def make_simon_instance(l: int, s, allow_trivial: bool = False) -> OracleInstance:
    """Planted two-element subgroup {0, s} in (Z_2)^l: f pairs x with x+s.

    s = 0 collapses the promise to the trivial subgroup and is rejected
    unless `allow_trivial` is set.
    """
    l = int(l)
    spec = GroupSpec.of((2,) * l)
    s = spec.reduce(tuple(int(b) for b in s))
    if not any(s) and not allow_trivial:
        raise ValueError("secret s = 0 needs allow_trivial=True")
    inst = make_hidden_subgroup_instance(spec, [s], relabel_seed=0)
    inst.descriptor = {"kind": "simon", "bits": l, "secret": list(s)}
    return inst


def make_dlog_instance(
    a: int, b: int, modulus: int | None = None, order: int | None = None
) -> OracleInstance:
    """Hidden-subgroup form of the discrete logarithm of b base a.

    The host group is the unit group mod `modulus`, or an abstract cyclic
    group of the given `order` written additively (a and b are then residues
    and exponentiation means multiplication).  With r the order of a and
    b = a^m, the function f(x, y) = b^x * a^y on Z_r x Z_r hides
    K = <(1, -m)>; the shift along the second coordinate multiplies by a
    (the eigenvalue-1/r ladder) and along the first by b.  K's cosets meet
    {0} x Z_r once each, so f is held as the labels a^y on those points.
    """
    if (modulus is None) == (order is None):
        raise ValueError("give exactly one of modulus / order")
    if modulus is not None:
        q = int(modulus)
        if q < 2:
            raise ValueError("modulus must be >= 2")
        a, b = int(a) % q, int(b) % q
        if gcd(a, q) != 1 or gcd(b, q) != 1:
            raise ValueError("a and b must be units")
        powers = _powers(a, q, q)  # uncapped: the draw reads no labels
        r = len(powers)
        try:
            m = powers.index(b)
        except ValueError:
            raise ValueError(f"{b} is not a power of {a} mod {q}") from None
        labels = powers  # b^x a^y = a^(m x + y)

        def shift(g: Element) -> np.ndarray:
            mult = pow(b, g[0], q) * pow(a, g[1], q) % q
            return (np.arange(q, dtype=np.int64) * mult) % q

        codomain = q
        desc = {"kind": "dlog", "modulus": q, "base": a, "target": b}
    else:
        r = int(order)
        a, b = int(a) % r, int(b) % r
        if r < 1 or (r > 1 and gcd(a, r) != 1):
            raise ValueError("a must generate the cyclic group")
        m = b * pow(a, -1, r) % r if r > 1 else 0
        labels = [a * y % r for y in range(r)]  # b x + a y = a (m x + y)

        def shift(g: Element) -> np.ndarray:
            step = (b * g[0] + a * g[1]) % r
            return (np.arange(r, dtype=np.int64) + step) % r

        codomain = r
        desc = {"kind": "dlog", "order": r, "base": a, "target": b}

    spec = GroupSpec.of((r, r))
    basis = _hermite_basis([(1, (-m) % r)], spec.moduli)  # box {0} x [0, r)
    return OracleInstance(
        domain=spec,
        codomain_size=codomain,
        basis=basis,
        box_labels=[labels],
        shift_fn=shift,
        truth=PlantedTruth(subgroup=SubgroupGenerators.of_basis(spec, basis), dlog_exponent=m),
        descriptor=desc,
    )


def make_deutsch_instance(f0: int, f1: int) -> OracleInstance:
    """One-bit domain, one-bit codomain: hidden subgroup Z_2 iff constant,
    held as f0 on the box of Z_2, or as both values on that of {0}."""
    f0, f1 = int(f0), int(f1)
    if f0 not in (0, 1) or f1 not in (0, 1):
        raise ValueError("function values must be bits")
    spec = GroupSpec.of((2,))
    constant = f0 == f1
    basis = [[1]] if constant else [[2]]

    def shift(g: Element) -> np.ndarray:
        if g[0] == 0 or constant:
            return np.arange(2, dtype=np.int64)
        return np.array([1, 0], dtype=np.int64)

    return OracleInstance(
        domain=spec,
        codomain_size=2,
        basis=basis,
        box_labels=[f0] if constant else [f0, f1],
        shift_fn=shift,
        truth=PlantedTruth(subgroup=SubgroupGenerators.of_basis(spec, basis)),
        descriptor={"kind": "deutsch", "f0": f0, "f1": f1},
    )


def make_stabiliser_instance(
    spec: GroupSpec, action, x0: int, points: int, descriptor: dict | None = None,
) -> OracleInstance:
    """f(g) = g(x0) for a group action on [0, points).

    Action axioms — identity fixes every point, a(b(x)) = (ab)(x) — are
    checked exhaustively when |G|^2 * points fits under PROMISE_CHECK_CAP, else on
    a seeded sample of that size.  The planted subgroup, the stabiliser of
    x0, is read off the table of g(x0) over G, and f is held as g(x0) on its
    box; a sampled check that let a non-action through is caught when that
    table is not constant on the stabiliser's cosets.
    """
    points = int(points)
    x0 = int(x0)
    if not 0 <= x0 < points:
        raise ValueError("base point out of range")
    elements = [spec.reduce(e) for e in spec.elements()]
    ident = spec.identity()
    for pt in range(points):
        if action(ident, pt) != pt:
            raise ValueError("identity element must act trivially")
    pairs = [(g, h) for g in elements for h in elements]
    budget = max(1, PROMISE_CHECK_CAP // max(points, 1))
    if len(pairs) > budget:
        rng = np.random.default_rng(0)
        pairs = [pairs[i] for i in rng.choice(len(pairs), size=budget, replace=False)]
    for g, h in pairs:
        gh = spec.add(g, h)
        for pt in range(points):
            if action(g, action(h, pt)) != action(gh, pt):
                raise ValueError(f"not a group action: ({g})(({h})({pt})) != ({gh})({pt})")
    for g in elements:
        if sorted(action(g, pt) for pt in range(points)) != list(range(points)):
            raise ValueError(f"element {g} does not act by permutation")

    orbit = np.array([action(g, x0) for g in elements], dtype=np.int64).reshape(spec.moduli)
    basis = _hermite_basis([g for g, pt in zip(elements, orbit.flat) if pt == x0], spec.moduli)
    box = np.indices([row[i] for i, row in enumerate(basis)], dtype=np.int64)

    def shift(g: Element) -> np.ndarray:
        return np.array([action(g, pt) for pt in range(points)], dtype=np.int64)

    instance = OracleInstance(
        domain=spec,
        codomain_size=points,
        basis=basis,
        box_labels=orbit[tuple(box)],
        shift_fn=shift,
        truth=PlantedTruth(subgroup=SubgroupGenerators.of_basis(spec, basis)),
        descriptor=descriptor or {"kind": "stabiliser", "moduli": list(spec.moduli), "points": points, "x0": x0},
    )
    if not np.array_equal(instance.label_table(spec.moduli), orbit):
        raise ValueError("not a group action: g(x0) is not constant on the cosets of the stabiliser of x0")
    return instance


def wrap_many_to_one(
    inner: OracleInstance, merge, multiplicity: int, strict: bool = False
) -> OracleInstance:
    """Collapse codomain labels of a planted instance: f' = merge . f.

    `merge` maps each inner label to a new label; at most `multiplicity`
    cosets of the planted subgroup may share an output (`check_merge`).
    When the bound reaches the smallest prime factor of the planted
    subgroup's order (period, for integer domains), distinct subgroups can
    become indistinguishable; that is the caller's risk, so the builder
    warns — or rejects when `strict` is set.

    Merged labels carry no shift structure (two cosets sharing a label may
    shift apart), so the wrapped instance drops the homomorphism flag.
    """
    wrapped = _many_to_one(inner, merge, multiplicity)
    ambiguity = check_merge(wrapped)
    if ambiguity is not None:
        if strict:
            raise ValueError(ambiguity)
        warnings.warn(ambiguity, stacklevel=2)
    return wrapped


def check_merge(instance: OracleInstance) -> str | None:
    """Check that at most `multiplicity_bound` cosets of the planted
    subgroup share a label, on one point per coset, and raise ValueError
    when more do; an instance without a planted truth passes.  Returns the
    warning of `wrap_many_to_one` when the bound reaches the smallest prime
    factor of the planted subgroup's order, else None."""
    reps = k_order = None  # one point per coset, planted subgroup's order
    if instance.domain is None:
        k_order = instance.truth.period
        reps = None if k_order is None else (k_order,)
    elif instance.truth.subgroup is not None:
        basis = _hermite_basis(instance.truth.subgroup.generators, instance.domain.moduli)
        reps = tuple(row[i] for i, row in enumerate(basis))  # the Hermite box
        k_order = instance.domain.order // prod(reps)
    bound = instance.multiplicity_bound
    if reps is not None:
        worst = int(np.bincount(instance.label_table(reps).reshape(-1)).max())
        if worst > bound:
            raise ValueError(f"merge is {worst}-to-1 on cosets, above the stated bound {bound}")
    spf = min(_factorize(k_order), default=None) if k_order else None
    if spf is not None and bound >= spf:
        return (
            f"multiplicity bound {bound} reaches the smallest prime factor "
            f"{spf} of the planted subgroup's order; recovery may be ambiguous"
        )
    return None


def _many_to_one(inner: OracleInstance, merge, multiplicity: int) -> OracleInstance:
    """The instance f' = merge . f with the stated bound, unchecked against
    the planted subgroup: `wrap_many_to_one` and the JSON rebuild of a
    descriptor share it."""
    multiplicity = int(multiplicity)
    if multiplicity < 1:
        raise ValueError("multiplicity bound must be >= 1")
    merge = np.array(merge, dtype=np.int64)
    if merge.shape != (inner.codomain_size,):
        raise ValueError("merge table must cover the inner codomain")
    merge.setflags(write=False)
    _, relabeled = np.unique(merge, return_inverse=True)
    table = relabeled.astype(np.int64)
    new_size = int(table.max()) + 1 if table.size else 0
    integers = inner.domain is None
    return OracleInstance(
        domain=inner.domain,
        codomain_size=new_size,
        period_labels=table[inner.period_labels] if integers else None,
        basis=inner.basis,
        box_labels=None if integers else table[inner.box_labels],
        shift_fn=None,
        multiplicity_bound=multiplicity,
        truth=inner.truth,
        descriptor={
            "kind": "many_to_one",
            "inner": dict(inner.descriptor),
            "merge": merge,
            "multiplicity": multiplicity,
        },
    )


def dilated_view(parent: OracleInstance, acc: int) -> OracleInstance:
    """The integer-domain function t -> f(acc * t), billing its queries to
    the parent's counter and keeping its laws in a persistent cache slot of
    the parent, so later attempts at the same dilation reuse them.  With f's
    period L, the view's period is L / gcd(acc, L), over which it reads
    f's labels at acc * k mod L."""
    cycle = parent.period_labels
    size = cycle.size
    steps = np.arange(size // gcd(acc, size), dtype=np.int64)
    view = OracleInstance(
        domain=None,
        codomain_size=parent.codomain_size,
        period_labels=cycle[steps * (acc % size) % size],
        shift_fn=None,
        multiplicity_bound=parent.multiplicity_bound,
        truth=parent.truth,
        descriptor={"kind": "dilated_view", "inner": dict(parent.descriptor)},
    )
    view.counter = parent.counter
    view._dist_cache = parent._dist_cache.setdefault(("dilation", acc), {})
    return view


def instance_from_json(descriptor: dict) -> OracleInstance:
    kind = descriptor.get("kind")
    if kind == "order":
        return make_order_instance(descriptor["modulus"], descriptor["base"])
    if kind == "period":
        return make_period_instance(
            descriptor["period"],
            relabeling=descriptor.get("relabeling"),
            relabel_seed=descriptor.get("relabel_seed"),
        )
    if kind == "simon":
        return make_simon_instance(descriptor["bits"], descriptor["secret"])
    if kind == "dlog":
        return make_dlog_instance(
            descriptor["base"],
            descriptor["target"],
            modulus=descriptor.get("modulus"),
            order=descriptor.get("order"),
        )
    if kind == "deutsch":
        return make_deutsch_instance(descriptor["f0"], descriptor["f1"])
    if kind == "hidden_subgroup":
        return make_hidden_subgroup_instance(
            GroupSpec.of(descriptor["moduli"]),
            descriptor["generators"],
            relabel_seed=descriptor.get("relabel_seed", 0),
        )
    if kind == "stabiliser":
        spec = GroupSpec.of(descriptor["moduli"])
        weights = [int(w) for w in descriptor["weights"]]
        points = int(descriptor["points"])

        def action(g: Element, pt: int) -> int:
            return (pt + sum(w * gi for w, gi in zip(weights, g))) % points

        return make_stabiliser_instance(
            spec, action, descriptor.get("x0", 0), points, descriptor=dict(descriptor)
        )
    if kind == "many_to_one":
        # unchecked: a descriptor is checked once where it is made or loaded
        return _many_to_one(instance_from_json(descriptor["inner"]), descriptor["merge"], descriptor["multiplicity"])
    raise ValueError(f"unknown instance kind {kind!r}")


# --- classical verification oracles -----------------------------------------


def classical_order(a: int, n: int) -> int:
    return _multiplicative_order(int(a) % int(n), int(n))


def classical_least_period(instance: OracleInstance, bound: int) -> int:
    """Least r' <= bound with f(t + r') = f(t) on a window covering a full
    period — the ground truth robust period recovery aims at."""
    bound = int(bound)
    base = [instance._raw(t) for t in range(2 * bound + 1)]
    for r in range(1, bound + 1):
        if all(instance._raw(t + r) == base[t] for t in range(bound + 1)):
            return r
    raise ValueError(f"no period <= {bound}")


def classical_invariance_subgroup(instance: OracleInstance) -> SubgroupGenerators:
    """{h : f(x+h) = f(x) for all x}, by exhaustive test (finite domains):
    each h with f(h) = f(0) compares f's table shifted by h with itself."""
    spec = instance.domain
    if spec is None:
        raise ValueError("integer-domain instances have no finite invariance subgroup")
    shape = tuple(spec.moduli)
    table = instance.label_table(shape)
    grids = np.indices(shape, sparse=True)
    members = [
        tuple(int(c) for c in h)
        for h in zip(*np.nonzero(table == table.flat[0]))
        if np.array_equal(table[tuple((g + c) % d for g, c, d in zip(grids, h, shape))], table)
    ]
    return SubgroupGenerators.of(spec, members)
