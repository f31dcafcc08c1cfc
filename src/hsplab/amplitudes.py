"""The dimension cap, and the two dense-state types the benchmark tracer hooks.

Every outcome law and sampler bounds what it allocates by one global cap: a
law array, a register cycle, a box of labels or a walk of a base's powers
that would exceed `dimension_cap()` raises CapExceeded, which the CLI reports
as a resource limit rather than a bad config.  No module of the package
builds a state; the dense simulator the exact laws are tested against lives
in `tests/dense_reference.py`, on the two types below.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


# Kept only because bench/spans.py patches QuantumState.__post_init__; the benchmark change of ROADMAP item 8 drops both types and the patch.
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
