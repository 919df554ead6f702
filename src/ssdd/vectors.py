"""Sparse document vectors and the packed kernels built on them.

Documents are unit-normalized term-weight vectors stored sparsely (sorted
indices + positive weights).  ``pack`` lays documents out as one CSR
``PackedDocs``, the one layout that the protocol, the oracle and the masking
matrix compute on.  Everything is float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RangeError

__all__ = [
    "DocumentVector",
    "FeatureIndexSet",
    "PackedDocs",
    "dot",
    "pack",
    "project",
    "zscore",
    "top_f",
]


@dataclass(frozen=True)
class DocumentVector:
    """Unit-normalized sparse vector over a fixed dimensionality.

    `indices` is strictly increasing, `weights` holds the matching nonzero
    values.
    """

    dims: int
    indices: np.ndarray
    weights: np.ndarray

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

    @property
    def degenerate(self) -> bool:
        """Whether this is an empty document's zero vector, never similar to anything."""
        return self.nnz == 0

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


@dataclass(frozen=True)
class PackedDocs:
    """m documents in CSR layout: document i's term indices and weights are
    ``indices[indptr[i]:indptr[i + 1]]`` and the same slice of ``weights``;
    iterating yields each document's (indices, weights)."""

    dims: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.indptr.size - 1

    def __iter__(self):
        for lo, hi in zip(self.indptr[:-1].tolist(), self.indptr[1:].tolist()):
            yield self.indices[lo:hi], self.weights[lo:hi]

    @property
    def nnz(self) -> np.ndarray:
        """Nonzero count of each document."""
        return np.diff(self.indptr)

    @property
    def owner(self) -> np.ndarray:
        """The document each packed entry belongs to."""
        return np.repeat(np.arange(len(self)), self.nnz)

    def take(self, ids) -> "PackedDocs":
        """The documents ``ids`` (integers), in that order."""
        counts = self.nnz[ids]
        indptr = np.cumsum(np.concatenate(([0], counts)))
        entries = np.arange(indptr[-1]) + np.repeat(self.indptr[ids] - indptr[:-1], counts)
        return PackedDocs(self.dims, indptr, self.indices[entries], self.weights[entries])

    def dot(self, z: np.ndarray) -> np.ndarray:
        """z . v_i for every document i, as (m,) for z of shape (dims,) and
        (k, m) for z of shape (k, dims); a segmented sum in packed-entry order."""
        rows = np.atleast_2d(z)
        m = len(self)
        sums = np.bincount(
            (np.arange(rows.shape[0])[:, None] * m + self.owner).ravel(),
            weights=(rows[:, self.indices] * self.weights).ravel(),
            minlength=rows.shape[0] * m,
        )
        # bincount returns integers when it has no entries to sum
        return sums.astype(np.float64, copy=False).reshape(z.shape[:-1] + (m,))

    def document_frequency(self) -> np.ndarray:
        """Per-dimension count of the documents that contain the term (int64)."""
        return np.bincount(self.indices, minlength=self.dims).astype(np.int64, copy=False)

    def dense(self) -> np.ndarray:
        """The documents as the rows of an (m, dims) array."""
        out = np.zeros((len(self), self.dims))
        out[self.owner, self.indices] = self.weights
        return out


def pack(vectors: list[DocumentVector], dims: int) -> PackedDocs:
    """The documents, in order, as one PackedDocs over ``dims`` dimensions."""
    if any(v.dims != dims for v in vectors):
        raise DimensionError(f"documents disagree with dims={dims}")
    return PackedDocs(
        dims,
        np.cumsum([0] + [v.nnz for v in vectors], dtype=np.int64),
        np.concatenate([v.indices for v in vectors] + [np.empty(0, np.int64)]),
        np.concatenate([v.weights for v in vectors] + [np.empty(0)]),
    )


def project(docs: PackedDocs, s: FeatureIndexSet) -> np.ndarray:
    """Dense restriction of every document to the indexes in `s`, as an
    (m, f) array; absent dims are 0."""
    if s.dims != docs.dims:
        raise DimensionError(f"dims mismatch: {docs.dims} != {s.dims}")
    column = np.full(docs.dims, -1, dtype=np.int64)
    column[s.indexes] = np.arange(s.f)
    entry_column = column[docs.indices]
    hits = np.flatnonzero(entry_column >= 0)
    doc = np.searchsorted(docs.indptr, hits, side="right") - 1
    out = np.zeros((len(docs), s.f))
    out[doc, entry_column[hits]] = docs.weights[hits]
    return out


def dot(u: DocumentVector, v: DocumentVector) -> float:
    """Exact sparse dot product via merge-join on the index arrays."""
    if u.dims != v.dims:
        raise DimensionError(f"dims mismatch: {u.dims} != {v.dims}")
    _, iu, iv = np.intersect1d(
        u.indices, v.indices, assume_unique=True, return_indices=True
    )
    return float(u.weights[iu] @ v.weights[iv])


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
