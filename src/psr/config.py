"""Per-invocation settings: ambient dimension, tie-break direction, caps."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import PsrError
from .linalg import Vec, as_vec
from .polyhedra import OmegaOrder

DEFAULT_CAP_CELLS = 20
DEFAULT_CAP_CANDIDATES = 1_000_000
DEFAULT_SEED = 0
DEFAULT_SAMPLES = 200_000


@dataclass(frozen=True)
class Session:
    """One logical invocation: fixed dimension, tie-break vector, caps, seed."""

    dim: int
    omega_base: Vec | None = None
    cap_cells: int = DEFAULT_CAP_CELLS
    cap_candidates: int = DEFAULT_CAP_CANDIDATES
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise PsrError(f"ambient dimension must be >= 1, got {self.dim}")
        if self.omega_base is not None:
            if len(self.omega_base) != self.dim:
                raise PsrError("tie-break vector has the wrong dimension")
            if any(x <= 0 for x in self.omega_base):
                raise PsrError("tie-break vector must be strictly positive")

    @property
    def omega(self) -> OmegaOrder:
        return OmegaOrder(self.dim, self.omega_base)


def from_env(dim: int, omega_base=None, cap_cells=None, seed=None) -> Session:
    """Build a session, letting PSR_CAP_CELLS / PSR_SEED fill in defaults."""
    if cap_cells is None:
        cap_cells = int(os.environ.get("PSR_CAP_CELLS", DEFAULT_CAP_CELLS))
    if seed is None:
        seed = int(os.environ.get("PSR_SEED", DEFAULT_SEED))
    base = as_vec(omega_base) if omega_base is not None else None
    return Session(dim=dim, omega_base=base, cap_cells=cap_cells, seed=seed)
