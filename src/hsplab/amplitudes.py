"""Dense complex state vectors over labeled registers of arbitrary dimension.

A state is an amplitude vector over the mixed-radix index space of its
registers (leftmost register is the most significant digit).  Registers may
have any dimension >= 1, not just 2.  Unitaries act on a single register
either as dense matrices or as index permutations; permutations are the
preferred carrier for reversible classical maps since applying one never
materializes a matrix and keeps memory linear in the total dimension.

States are immutable values: every public operation returns a new state and
keeps the L2 norm at 1 (within NORM_TOL).  Unnormalized buffers are allowed
only as internals of other modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

NORM_TOL = 1e-9
UNITARY_TOL = 1e-9
PROBABILITY_TOL = 1e-12
DEFAULT_DIMENSION_CAP = 1 << 22

_dimension_cap = DEFAULT_DIMENSION_CAP


class CapExceeded(ValueError):
    """A layout or an outcome-law array would exceed the dimension cap."""


def dimension_cap() -> int:
    return _dimension_cap


def set_dimension_cap(cap: int) -> None:
    """Set the global dimension cap.  Intended as a startup hook (CLI flag or
    environment), not for mid-run reconfiguration."""
    global _dimension_cap
    cap = int(cap)
    if cap < 1:
        raise ValueError("dimension cap must be positive")
    _dimension_cap = cap


@dataclass(frozen=True)
class RegisterLayout:
    """Ordered register dimensions plus short labels for reporting."""

    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise ValueError("layout needs at least one register")
        if any(int(d) < 1 for d in self.dims):
            raise ValueError("register dimensions must be >= 1")
        if len(self.labels) != len(self.dims):
            raise ValueError("need exactly one label per register")
        total = 1
        for d in self.dims:
            total *= int(d)
            if total > _dimension_cap:
                raise CapExceeded(
                    f"total dimension {total}+ exceeds cap {_dimension_cap}"
                )

    @classmethod
    def of(
        cls, dims: Sequence[int], labels: Sequence[str] | None = None
    ) -> "RegisterLayout":
        dims = tuple(int(d) for d in dims)
        if labels is None:
            labels = tuple(f"r{i}" for i in range(len(dims)))
        return cls(dims, tuple(str(s) for s in labels))

    @property
    def total_dimension(self) -> int:
        out = 1
        for d in self.dims:
            out *= d
        return out


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


@dataclass(frozen=True)
class QuantumState:
    layout: RegisterLayout
    amplitudes: np.ndarray  # complex128, length == layout.total_dimension

    def __post_init__(self) -> None:
        if self.amplitudes.shape != (self.layout.total_dimension,):
            raise ValueError("amplitude vector does not match layout dimension")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def reshaped(self) -> np.ndarray:
        """Read-only view shaped with one axis per register."""
        return self.amplitudes.reshape(self.layout.dims)


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
