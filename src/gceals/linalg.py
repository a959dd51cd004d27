"""Dense float64 matrix helpers and seeded randomness.

Every numeric array in this package is a row-major 2-D float64 ndarray
(referred to as a DenseMatrix). The helpers here enforce that contract
and provide the handful of rowwise operations the rest of the toolkit
is built on. All randomness flows through :class:`Rng` so that a single
seed reproduces an entire run.
"""

from __future__ import annotations

import numpy as np

DenseMatrix = np.ndarray


class ShapeError(ValueError):
    """Operand shapes are incompatible with the requested operation."""


class Rng:
    """Seeded random generator; identical seed gives an identical stream.

    Wraps a PCG64 generator. Parallel or independent consumers must use
    `split()` rather than sharing one instance, so that draw order in one
    consumer cannot perturb another.
    """

    def __init__(self, seed, _state=None):
        self.seed = seed
        if _state is None:
            _state = np.random.SeedSequence(seed)
        self._seq = _state
        self._gen = np.random.Generator(np.random.PCG64(self._seq))

    def split(self, n: int) -> list["Rng"]:
        """Derive `n` independent child generators from this one."""
        return [Rng(self.seed, _state=child) for child in self._seq.spawn(n)]

    def randn(self, rows: int, cols: int) -> DenseMatrix:
        """I.i.d. standard normal matrix, deterministic per seed."""
        return self._gen.standard_normal((rows, cols))

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def integers(self, low: int, high: int) -> int:
        return int(self._gen.integers(low, high))

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)


def as_matrix(a, name: str = "matrix") -> DenseMatrix:
    """Coerce to a 2-D C-contiguous float64 array, rejecting non-finite input."""
    out = np.ascontiguousarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def row_softmax(a: DenseMatrix) -> DenseMatrix:
    """Rowwise softmax with per-row max subtraction so large logits cannot overflow."""
    shifted = a - a.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def row_log_softmax(a: DenseMatrix) -> DenseMatrix:
    """Rowwise log-softmax, finite for any finite logits."""
    shifted = a - a.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
