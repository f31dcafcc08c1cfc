"""The dense reference the exact laws and solvers are tested against.

Nothing in the package builds a state vector: every solver samples from an
outcome law written in closed form.  This module keeps the trusted
alternative, in one place and outside the package, so that each law can be
compared with a literal simulation of its circuit:

  * dense complex states over labeled registers of any dimension
    (`from_amplitudes`, `basis_state`, `apply_on_register`,
    `measure_register`), immutable, with the L2 norm pinned to 1 within
    NORM_TOL; they are built on the package's `RegisterLayout` and
    `QuantumState`, so the dimension cap refuses oversized layouts;
  * the N-point Fourier transform, as a dense matrix and as an FFT on one
    register (`fourier`, `apply_fourier`);
  * the gate-level maps of an instance (`apply_oracle`, `apply_shift`),
    which bill nothing: they describe the instance rather than query it;
  * the joint state just before the control is measured, built by either
    circuit (`_pre_measurement_state`), and the two constructions of
    sum_x |x>|f(x)> side by side (`verify_main_equality`);
  * the |G|-point law of the coset sampler, read from f's table over the
    whole group (`hsp_control_distribution`, `level_set_law`); and
  * a subgroup's elements by closure (`subgroup_enumerate`) and the check
    that a character annihilates a subgroup (`orthogonality_holds`).

Not collected by pytest: the file name does not start with `test_`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from hsplab.amplitudes import CapExceeded, QuantumState, RegisterLayout, dimension_cap
from hsplab.estimation import _identity_point, _periodic_law, _reduced_cycle
from hsplab.groups import (
    Element,
    GroupSpec,
    SubgroupGenerators,
    _hermite_basis,
    _table_stabiliser,
    character_phase_numerator,
)
from hsplab.oracles import OracleInstance

NORM_TOL = 1e-9
UNITARY_TOL = 1e-9
CLOSEST_LOWER_BOUND = 4.0 / math.pi**2
ENUMERATION_CAP = 10**6


# --- dense states -------------------------------------------------------------


@dataclass(frozen=True)
class MeasurementRecord:
    """Outcome of one projective register measurement.

    `probability` is the pre-collapse marginal mass of the observed outcome;
    `seed` is the RNG seed that reproduces the draw.
    """

    register: int
    outcome: int
    probability: float
    seed: int


def _freeze(amps: np.ndarray) -> np.ndarray:
    amps = np.ascontiguousarray(amps, dtype=np.complex128)
    amps.setflags(write=False)
    return amps


def from_amplitudes(layout: RegisterLayout, amplitudes: np.ndarray) -> QuantumState:
    amps = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
    state = QuantumState(layout, _freeze(amps.copy()))
    if abs(state.norm - 1.0) > NORM_TOL:
        raise ValueError(f"state norm {state.norm} deviates from 1 beyond {NORM_TOL}")
    return state


def basis_state(layout: RegisterLayout, values: Sequence[int]) -> QuantumState:
    """Computational basis state |values[0], values[1], ...>."""
    values = tuple(int(v) for v in values)
    if len(values) != len(layout.dims):
        raise ValueError("need one basis value per register")
    for v, d in zip(values, layout.dims):
        if not 0 <= v < d:
            raise ValueError(f"basis value {v} out of range for dimension {d}")
    amps = np.zeros(layout.total_dimension, dtype=np.complex128)
    idx = 0
    for v, d in zip(values, layout.dims):
        idx = idx * d + v
    amps[idx] = 1.0
    return QuantumState(layout, _freeze(amps))


def uniform_state(layout: RegisterLayout) -> QuantumState:
    n = layout.total_dimension
    amps = np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128)
    return QuantumState(layout, _freeze(amps))


Unitary = Union[np.ndarray, Sequence[int]]


def _as_permutation(u: Sequence[int], dim: int) -> np.ndarray:
    perm = np.asarray(u, dtype=np.int64)
    if perm.shape != (dim,):
        raise ValueError(f"permutation length {perm.shape} does not match register dimension {dim}")
    if not np.array_equal(np.sort(perm), np.arange(dim)):
        raise ValueError("index map is not a bijection")
    return perm


def apply_on_register(state: QuantumState, register: int, u: Unitary) -> QuantumState:
    """Apply a unitary to one register.

    `u` is either a dense (d, d) complex matrix (verified unitary to
    UNITARY_TOL) or a length-d integer index map `perm`, meaning the
    permutation unitary |x> -> |perm[x]>.
    """
    dims = state.layout.dims
    if not 0 <= register < len(dims):
        raise ValueError(f"no register {register} in layout {dims}")
    d = dims[register]
    tensor_view = state.amplitudes.reshape(dims)
    moved = np.moveaxis(tensor_view, register, 0)

    if isinstance(u, np.ndarray) and u.ndim == 2:
        if u.shape != (d, d):
            raise ValueError(f"matrix shape {u.shape} does not match register dimension {d}")
        u = np.asarray(u, dtype=np.complex128)
        err = np.max(np.abs(u.conj().T @ u - np.eye(d)))
        if err > UNITARY_TOL:
            raise ValueError(f"matrix is not unitary (deviation {err:.3e})")
        out = np.tensordot(u, moved, axes=([1], [0]))
    else:
        perm = _as_permutation(u, d)
        out = np.empty_like(moved)
        out[perm] = moved

    amps = np.moveaxis(out, 0, register).reshape(-1)
    new_state = QuantumState(state.layout, _freeze(np.ascontiguousarray(amps)))
    if abs(new_state.norm - 1.0) > NORM_TOL:
        raise ValueError("operation broke normalization; input state was corrupt")
    return new_state


def marginal_distribution(state: QuantumState, register: int) -> np.ndarray:
    """Born-rule outcome distribution of one register."""
    dims = state.layout.dims
    if not 0 <= register < len(dims):
        raise ValueError(f"no register {register} in layout {dims}")
    probs = np.abs(state.amplitudes.reshape(dims)) ** 2
    axes = tuple(i for i in range(len(dims)) if i != register)
    return probs.sum(axis=axes) if axes else probs


def measure_register(
    state: QuantumState, register: int, seed: int
) -> tuple[MeasurementRecord, QuantumState]:
    """Projectively measure one register.

    Deterministic for a fixed seed.  Returns the record plus the collapsed,
    renormalized post-measurement state.
    """
    probs = marginal_distribution(state, register)
    total = float(probs.sum())
    if total < 1e-12:
        raise RuntimeError("zero-norm marginal: state was not normalized")
    rng = np.random.default_rng(seed)
    outcome = int(rng.choice(len(probs), p=probs / total))
    p_outcome = float(probs[outcome])

    dims = state.layout.dims
    tensor_view = state.amplitudes.reshape(dims)
    collapsed = np.zeros_like(tensor_view)
    sl = [slice(None)] * len(dims)
    sl[register] = outcome
    collapsed[tuple(sl)] = tensor_view[tuple(sl)]
    collapsed = collapsed.reshape(-1) / np.sqrt(p_outcome)

    record = MeasurementRecord(register=register, outcome=outcome, probability=p_outcome, seed=int(seed))
    return record, QuantumState(state.layout, _freeze(collapsed))


def l2_distance(a: QuantumState, b: QuantumState) -> float:
    if a.layout.dims != b.layout.dims:
        raise ValueError(f"layout mismatch: {a.layout.dims} vs {b.layout.dims}")
    return float(np.linalg.norm(a.amplitudes - b.amplitudes))


# --- Fourier transforms -------------------------------------------------------


@lru_cache(maxsize=16)
def _fourier_cached(n: int) -> np.ndarray:
    grid = np.outer(np.arange(n), np.arange(n))
    mat = np.exp(2j * np.pi * grid / n) / np.sqrt(n)
    mat.setflags(write=False)
    return mat


def fourier(n: int) -> np.ndarray:
    """Dense N-point transform matrix (read-only; cached)."""
    n = int(n)
    if n < 1:
        raise ValueError("transform size must be >= 1")
    return _fourier_cached(n)


def inverse_fourier(n: int) -> np.ndarray:
    mat = fourier(n).conj().T.copy()
    mat.setflags(write=False)
    return mat


def apply_fourier(state: QuantumState, register: int, inverse: bool = False) -> QuantumState:
    """Apply F_N (or its inverse) to one register via an FFT fast path.

    Equivalent to apply_on_register with the dense matrix but O(N log N);
    numpy's "ortho" normalization matches the 1/sqrt(N) convention, with
    ifft carrying the +2*pi*i sign of the forward transform here.
    """
    dims = state.layout.dims
    if not 0 <= register < len(dims):
        raise ValueError(f"no register {register} in layout {dims}")
    tensor_view = state.amplitudes.reshape(dims)
    if inverse:
        out = np.fft.fft(tensor_view, axis=register, norm="ortho")
    else:
        out = np.fft.ifft(tensor_view, axis=register, norm="ortho")
    return from_amplitudes(state.layout, out.reshape(-1))


def circular_distance(a: float, b: float = 0.0) -> float:
    """Distance between a and b on the unit circle R/Z."""
    d = (a - b) % 1.0
    return min(d, 1.0 - d)


# --- gate-level maps of an instance -------------------------------------------


def _gather_axes(state: QuantumState, control_registers, target_register: int):
    dims = state.layout.dims
    controls = [int(c) for c in control_registers]
    target = int(target_register)
    seen = set(controls + [target])
    if len(seen) != len(controls) + 1:
        raise ValueError("control and target registers must be distinct")
    for r in controls + [target]:
        if not 0 <= r < len(dims):
            raise ValueError(f"no register {r} in layout {dims}")
    arr = state.amplitudes.reshape(dims)
    order = controls + [r for r in range(len(dims)) if r not in seen] + [target]
    moved = np.transpose(arr, order)
    c_total = 1
    for c in controls:
        c_total *= dims[c]
    rest = moved.size // (c_total * dims[target])
    cube = moved.reshape(c_total, rest, dims[target])
    return cube, order, moved.shape


def _scatter_axes(cube: np.ndarray, order, moved_shape, layout) -> QuantumState:
    moved = cube.reshape(moved_shape)
    inverse = np.argsort(order)
    arr = np.transpose(moved, inverse)
    return from_amplitudes(layout, arr.reshape(-1))


def apply_oracle(
    state: QuantumState, control_registers, target_register: int, instance: OracleInstance
) -> QuantumState:
    """One application of U_f: |x>|y> -> |x>|y + f(x) mod |X|>.

    Control registers supply the domain coordinates (a single register
    holding t for integer domains); the target register must be at least
    |X| wide, and basis values beyond |X| ride along unchanged so the map
    stays a permutation.  Bills nothing: the runner executing the circuit
    does.
    """
    dims = state.layout.dims
    target_dim = dims[int(target_register)]
    x_size = instance.codomain_size
    if target_dim < x_size:
        raise ValueError(f"target dimension {target_dim} below codomain size {x_size}")
    controls = list(control_registers)
    rank = 1 if instance.domain is None else instance.domain.rank
    if len(controls) != rank:
        raise ValueError(f"need one control register per domain coordinate ({rank})")
    fvals = instance.label_table(tuple(dims[c] for c in controls)).reshape(-1)

    cube, order, moved_shape = _gather_axes(state, controls, target_register)
    ys = np.arange(target_dim, dtype=np.int64)
    idx = np.where(ys[None, :] < x_size, (ys[None, :] - fvals[:, None]) % x_size, ys[None, :])
    out = np.take_along_axis(cube, idx[:, None, :], axis=2)
    return _scatter_axes(out, order, moved_shape, state.layout)


def apply_shift(
    state: QuantumState,
    control_register: int,
    target_register: int,
    instance: OracleInstance,
    generator: int = 0,
    step: int = 1,
) -> QuantumState:
    """Controlled shift: for control value x, the target undergoes the label
    permutation of a shift by x*step along the given domain generator (or by
    the integer x*step for integer domains).  Bills nothing: the runner
    executing the circuit does.

    Shifts compose additively, so a ladder of these with step = 2^t is the
    usual controlled-power cascade.
    """
    if not instance.homomorphism_available:
        raise ValueError("instance has no computable shift maps")
    dims = state.layout.dims
    target_dim = dims[int(target_register)]
    x_size = instance.codomain_size
    if target_dim < x_size:
        raise ValueError(f"target dimension {target_dim} below codomain size {x_size}")
    c_dim = dims[int(control_register)]

    rows = np.empty((c_dim, target_dim), dtype=np.int64)
    tail = np.arange(x_size, target_dim, dtype=np.int64)
    for x in range(c_dim):
        if instance.domain is None:
            g = -x * step
        else:
            j = int(generator)
            g = instance.domain.scale(-x * step, instance.domain.generator(j))
        inv_perm = instance.shift_permutation(g)  # shift by -g inverts shift by g
        rows[x, :x_size] = inv_perm
        rows[x, x_size:] = tail

    cube, order, moved_shape = _gather_axes(state, [control_register], target_register)
    out = np.take_along_axis(cube, rows[:, None, :], axis=2)
    return _scatter_axes(out, order, moved_shape, state.layout)


# --- the circuits' joint states and the |G|-point coset law --------------------


def _target_amplitudes(instance: OracleInstance, target) -> np.ndarray:
    """Resolve a target argument to an amplitude vector over the codomain."""
    x_size = instance.codomain_size
    if isinstance(target, np.ndarray):
        vec = target.astype(np.complex128)
        return vec / np.linalg.norm(vec)
    label = instance._raw(_identity_point(instance)) if target is None else int(target)
    vec = np.zeros(x_size, dtype=np.complex128)
    vec[label] = 1.0
    return vec


def _pre_measurement_state(
    instance: OracleInstance,
    register_size: int,
    route: str,
    generator: int,
    target,
) -> QuantumState:
    """The joint control-target state just before the control is measured,
    built densely on n x |X| amplitudes by either circuit, the "oracle"
    query or the "shift" ladder: the laws' test reference, which also takes
    an amplitude-vector target, such as one kept.  Bills nothing."""
    n = int(register_size)
    x_size = instance.codomain_size
    layout = RegisterLayout.of((n, x_size), ("control", "target"))
    if route == "oracle":
        state = basis_state(layout, (0, 0))
        state = apply_fourier(state, 0)
        state = apply_oracle(state, [0], 1, instance)
    else:
        vec = _target_amplitudes(instance, target)
        amps = np.zeros((n, x_size), dtype=np.complex128)
        amps[0] = vec
        state = from_amplitudes(layout, amps.reshape(-1))
        state = apply_fourier(state, 0)
        state = apply_shift(state, 0, 1, instance, generator=generator, step=1)
    return apply_fourier(state, 0, inverse=True)


def _stabiliser_law(table: np.ndarray) -> np.ndarray:
    """level_set_law of a multi-register table, read over its stabiliser K.
    The law vanishes off K^perp and on it is (|K|/N)^2 times the spectrum of
    d(g), the number of same-label pairs (a, b) of K-coset representatives,
    the Hermite box of K, with a - b = g (Mosca-Ekert).  With one label per
    coset only the pairs a = b occur, and the law is |K|/N on K^perp with no
    FFT; any other table raises CapExceeded when its pairs exceed the cap,
    else scatters them for one FFT over its N points."""
    n = table.size
    generators, perp, members = _table_stabiliser(table, table == table.flat[0])
    if np.unique(table).size * members == n:
        return np.where(perp, members / n, 0.0)
    pivots = [row[i] for i, row in enumerate(_hermite_basis(generators, table.shape))]
    reps = np.indices(pivots).reshape(table.ndim, -1)  # one point per K-coset
    _, label, counts = np.unique(table[tuple(reps)], return_inverse=True, return_counts=True)
    blocks = counts**2  # pairs of each label, k x k for its k representatives
    pairs = int(blocks.sum())
    if pairs > dimension_cap():
        raise CapExceeded(f"same-label pair count {pairs} exceeds cap {dimension_cap()}")
    order = np.argsort(label, kind="stable")  # representatives grouped by label
    start = np.repeat(np.cumsum(counts) - counts, blocks)  # of each pair's label in order
    within = np.arange(pairs) - np.repeat(np.cumsum(blocks) - blocks, blocks)
    a, b = np.divmod(within, np.repeat(counts, blocks))  # ranks of the pair within its label
    lags = (reps[:, order[start + a]] - reps[:, order[start + b]]) % np.reshape(table.shape, (-1, 1))
    law = np.bincount(np.ravel_multi_index(tuple(lags), table.shape), minlength=n).reshape(table.shape)
    law = np.where(perp, np.fft.fftn(law).real, 0.0)
    law *= (members / n) ** 2
    np.maximum(law, 0.0, out=law)  # rounding can leave a zero a hair below 0
    return law


def level_set_law(table) -> np.ndarray:
    """Outcome law of the control registers after the inverse Fourier
    transform, when their points t are entangled with target labels
    table[t]: the sum over labels of |FFT(1[table == label])|^2 / N^2,
    shaped like the table.

    A table whose N points exceed the dimension cap raises CapExceeded.  A
    one-dimensional table takes `_periodic_law` over its least cyclic
    period, a multi-register table `_stabiliser_law`."""
    table = np.asarray(table, dtype=np.int64)
    if table.size > dimension_cap():
        raise CapExceeded(f"label-table law over {table.size} points exceeds cap {dimension_cap()}")
    if table.ndim == 1:
        return _periodic_law(*_reduced_cycle(table), table.size)
    return _stabiliser_law(table)


def _hsp_layout(instance: OracleInstance) -> RegisterLayout:
    spec = instance.domain
    if spec is None:
        raise ValueError("hidden-subgroup sampling needs a finite group domain")
    labels = tuple(f"c{j}" for j in range(spec.rank)) + ("target",)
    return RegisterLayout.of(tuple(spec.moduli) + (instance.codomain_size,), labels)


def hsp_control_distribution(instance: OracleInstance) -> np.ndarray:
    """Exact joint law over all coordinate controls of the coset sampler,
    read from f's table over the whole group: the tests' reference, which
    no sampler or solver reads.  A group of more points than the cap raises
    CapExceeded before f is tabulated.

    Returned flattened in row-major coordinate order.  Bills nothing.
    """
    spec = instance.domain
    if spec is None:
        raise ValueError("hidden-subgroup sampling needs a finite group domain")
    if spec.order > dimension_cap():  # before the table is built
        raise CapExceeded(f"coset law over {spec.order} points exceeds cap {dimension_cap()}")
    return level_set_law(instance.label_table(tuple(spec.moduli))).reshape(-1)


def verify_main_equality(instance: OracleInstance, register_size: int | None = None) -> float:
    """L2 distance between the two constructions of sum_x |x>|f(x)>.

    Route one queries the oracle on a uniform control; route two starts the
    target at |f(identity)> and applies the controlled shift ladder along
    each coordinate.  Exact arithmetic should agree to rounding error.
    Bills no query.
    """
    if not instance.homomorphism_available:
        raise ValueError("dual-route comparison needs shift maps")
    spec = instance.domain
    if spec is None:
        if register_size is None:
            register_size = instance.truth.period
        if register_size is None:
            raise ValueError("integer-domain comparison needs a register size")
        layout = RegisterLayout.of((int(register_size), instance.codomain_size))
        controls = [0]
    else:
        layout = _hsp_layout(instance)
        controls = list(range(spec.rank))
    target = len(controls)

    via_oracle = basis_state(layout, (0,) * len(controls) + (0,))
    for j in controls:
        via_oracle = apply_fourier(via_oracle, j)
    via_oracle = apply_oracle(via_oracle, controls, target, instance)

    f0 = instance._raw(_identity_point(instance))
    via_shifts = basis_state(layout, (0,) * len(controls) + (f0,))
    for j in controls:
        via_shifts = apply_fourier(via_shifts, j)
    for j in controls:
        via_shifts = apply_shift(via_shifts, j, target, instance, generator=j, step=1)
    return l2_distance(via_oracle, via_shifts)


# --- subgroups by their elements ----------------------------------------------


def subgroup_enumerate(gens: SubgroupGenerators) -> frozenset[Element]:
    """All elements of the generated subgroup, by closure (trusted oracle)."""
    spec = gens.spec
    seen = {spec.identity()}
    frontier = [spec.identity()]
    while frontier:
        x = frontier.pop()
        for g in gens.generators:
            y = spec.add(x, g)
            if y not in seen:
                if len(seen) >= ENUMERATION_CAP:
                    raise ValueError(f"subgroup enumeration exceeds cap {ENUMERATION_CAP}")
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def orthogonality_holds(spec: GroupSpec, t: Element, subgroup: SubgroupGenerators) -> bool:
    """Whether character t annihilates the subgroup (checked on generators;
    the pairing is linear, so generators suffice)."""
    return all(character_phase_numerator(spec, t, h) == 0 for h in subgroup.generators)
