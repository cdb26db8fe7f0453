"""Per-invocation settings: ambient dimension, caps, seed."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import PsrError

DEFAULT_CAP_CELLS = 20
DEFAULT_CAP_CANDIDATES = 1_000_000
DEFAULT_SEED = 0
DEFAULT_SAMPLES = 200_000


@dataclass(frozen=True)
class Session:
    """One logical invocation: fixed dimension, caps, seed."""

    dim: int
    cap_cells: int = DEFAULT_CAP_CELLS
    cap_candidates: int = DEFAULT_CAP_CANDIDATES
    seed: int = DEFAULT_SEED
    samples: int = DEFAULT_SAMPLES

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise PsrError(f"ambient dimension must be >= 1, got {self.dim}")


def from_env(dim: int, cap_cells=None, seed=None) -> Session:
    """Build a session, letting PSR_CAP_CELLS / PSR_SEED fill in defaults."""
    if cap_cells is None:
        cap_cells = int(os.environ.get("PSR_CAP_CELLS", DEFAULT_CAP_CELLS))
    if seed is None:
        seed = int(os.environ.get("PSR_SEED", DEFAULT_SEED))
    return Session(dim=dim, cap_cells=cap_cells, seed=seed)
