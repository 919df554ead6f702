"""Sparse document vectors and the small dense kernels built on them.

Documents are unit-normalized term-weight vectors stored sparsely (sorted
indices + positive weights).  ``project`` restricts one to a small ordered
index set as a dense array.  Everything is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RangeError

__all__ = [
    "DocumentVector",
    "FeatureIndexSet",
    "dot",
    "project",
    "zscore",
    "top_f",
]


@dataclass(frozen=True)
class DocumentVector:
    """Unit-normalized sparse vector over a fixed dimensionality.

    `indices` is strictly increasing, `weights` holds the matching nonzero
    values.  `degenerate` marks the all-zero vector (an empty document), which
    cannot be normalized and is never similar to anything.
    """

    dims: int
    indices: np.ndarray
    weights: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        wts = np.asarray(self.weights, dtype=np.float64)
        if idx.shape != wts.shape:
            raise DimensionError("indices and weights must have equal length")
        if idx.size and (idx[0] < 0 or idx[-1] >= self.dims):
            raise RangeError(f"index out of range for dims={self.dims}")
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise RangeError("indices must be strictly increasing")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "weights", wts)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.dims, dtype=np.float64)
        out[self.indices] = self.weights
        return out


@dataclass(frozen=True)
class FeatureIndexSet:
    """Ordered set of distinct dimension indices used for projection."""

    dims: int
    indexes: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indexes, dtype=np.int64)
        if idx.size < 1:
            raise RangeError("a feature index set needs at least one index")
        if idx.size > 1 and not np.all(np.diff(idx) > 0):
            raise RangeError("feature indexes must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= self.dims:
            raise RangeError(f"feature index out of range for dims={self.dims}")
        object.__setattr__(self, "indexes", idx)

    @property
    def f(self) -> int:
        return int(self.indexes.size)


def dot(u: DocumentVector, v: DocumentVector) -> float:
    """Exact sparse dot product via merge-join on the index arrays."""
    if u.dims != v.dims:
        raise DimensionError(f"dims mismatch: {u.dims} != {v.dims}")
    _, iu, iv = np.intersect1d(
        u.indices, v.indices, assume_unique=True, return_indices=True
    )
    return float(u.weights[iu] @ v.weights[iv])


def project(u: DocumentVector, s: FeatureIndexSet) -> np.ndarray:
    """Dense restriction of `u` to the indexes in `s` (absent dims are 0)."""
    if s.dims != u.dims:
        raise DimensionError(f"dims mismatch: {u.dims} != {s.dims}")
    pos = np.searchsorted(u.indices, s.indexes)
    pos_c = np.minimum(pos, max(u.nnz - 1, 0))
    if u.nnz:
        hit = u.indices[pos_c] == s.indexes
    else:
        hit = np.zeros(s.f, dtype=bool)
    return np.where(hit, u.weights[pos_c] if u.nnz else 0.0, 0.0)


def zscore(values: np.ndarray) -> tuple[np.ndarray, bool]:
    """Standardize with the population standard deviation.

    Returns (scores, degenerate).  A constant vector has zero deviation; it
    maps to all zeros with the degenerate flag set.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise RangeError("cannot z-score an empty vector")
    sigma = float(np.std(x))
    if sigma == 0.0:
        return np.zeros_like(x), True
    return (x - x.mean()) / sigma, False


def top_f(values: np.ndarray, f: int) -> FeatureIndexSet:
    """Indexes of the `f` largest values; ties go to the lower index."""
    x = np.asarray(values, dtype=np.float64)
    if not 1 <= f <= x.size:
        raise RangeError(f"f={f} outside [1, {x.size}]")
    order = np.argsort(-x, kind="stable")
    chosen = np.sort(order[:f])
    return FeatureIndexSet(dims=int(x.size), indexes=chosen)
