"""Sparse document vectors and the packed kernels built on them.

Documents are unit-normalized term-weight vectors stored sparsely (sorted
indices + positive weights).  A set of them, a single document included, is
one CSR ``PackedDocs``: the one document type that the protocol, the oracle
and the masking matrix take, and the form a corpus holds its documents in;
``pack`` concatenates sets.  A ``PackedDocs`` is read-only, so one corpus
is shared by every session that reads it; ``project`` reads a term-major
(CSC) view of it that is built on first use, once per corpus.  Everything
is float64.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, RangeError

__all__ = [
    "FeatureIndexSet",
    "PackedDocs",
    "pack",
    "project",
    "zscore",
    "top_f",
]


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
    ``indices[indptr[i]:indptr[i + 1]]`` and the same slice of ``weights``.

    Read-only: the arrays reject writes, and ``docs[i]`` is document i as a
    one-document ``PackedDocs`` over views of them.  The document
    frequencies and the same entries in term-major (CSC) order are built on
    first use and kept, read-only, with the documents, so every session over
    one ``PackedDocs`` shares them.  Sessions that race to build either can
    at worst build it twice."""

    dims: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for array in (self.indptr, self.indices, self.weights):
            array.flags.writeable = False

    def __len__(self) -> int:
        return self.indptr.size - 1

    def __getitem__(self, i) -> "PackedDocs":
        i = operator.index(i)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"document index outside {len(self)} documents")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        indptr = np.array([0, hi - lo], dtype=np.int64)
        return PackedDocs(self.dims, indptr, self.indices[lo:hi], self.weights[lo:hi])

    @property
    def nnz(self) -> np.ndarray:
        """Nonzero count of each document."""
        return np.diff(self.indptr)

    @property
    def owner(self) -> np.ndarray:
        """The document each packed entry belongs to."""
        return np.repeat(np.arange(len(self)), self.nnz)

    def check(self) -> None:
        """Raise RangeError unless every index is in [0, dims) and indices
        strictly increase within each document."""
        indices = self.indices
        if indices.size and (indices.min() < 0 or indices.max() >= self.dims):
            raise RangeError(f"index out of range for dims={self.dims}")
        owner = self.owner
        if np.any((np.diff(indices) <= 0) & (owner[1:] == owner[:-1])):
            raise RangeError("indices must be strictly increasing")

    def take(self, ids) -> "PackedDocs":
        """The documents ``ids`` (integers), in that order."""
        counts = self.nnz[ids]
        indptr = np.cumsum(np.concatenate(([0], counts)))
        entries = np.arange(indptr[-1]) + np.repeat(self.indptr[ids] - indptr[:-1], counts)
        return PackedDocs(self.dims, indptr, self.indices[entries], self.weights[entries])

    def dot(self, z: np.ndarray) -> np.ndarray:
        """z . v_i for every document i, as (m,) for z of shape (dims,) and
        (k, m) for z of shape (k, dims); a segmented sum in packed-entry order,
        one row of z at a time so that temporaries stay at one row's entries."""
        rows = np.atleast_2d(z)
        m = len(self)
        owner = self.owner
        # float64 even when bincount, given no entries, returns integers
        out = np.empty((rows.shape[0], m))
        for row, sums in zip(rows, out):
            sums[...] = np.bincount(
                owner, weights=row[self.indices] * self.weights, minlength=m
            )
        return out.reshape(z.shape[:-1] + (m,))

    @cached_property
    def document_frequency(self) -> np.ndarray:
        """Per-dimension count of the documents that contain the term (int64)."""
        df = np.bincount(self.indices, minlength=self.dims).astype(np.int64, copy=False)
        df.flags.writeable = False
        return df

    def dense(self) -> np.ndarray:
        """The documents as the rows of an (m, dims) array."""
        out = np.zeros((len(self), self.dims))
        out[self.owner, self.indices] = self.weights
        return out

    @cached_property
    def _by_term(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(termptr, owner, weights): term d's entries are
        ``termptr[d]:termptr[d + 1]`` of ``owner`` (the document of each
        entry) and ``weights``, in document order within a term."""
        # a stable sort on keys of at most 16 bits is a radix sort
        keys = self.indices.astype(np.min_scalar_type(max(self.dims - 1, 0)))
        order = np.argsort(keys, kind="stable")
        termptr = np.zeros(self.dims + 1, dtype=np.int64)
        np.cumsum(self.document_frequency, out=termptr[1:])
        view = termptr, self.owner.take(order), self.weights.take(order)
        for array in view:
            array.flags.writeable = False
        return view


def pack(sets: Sequence[PackedDocs], dims: int) -> PackedDocs:
    """The documents of ``sets``, in order, as one PackedDocs over ``dims``
    dimensions."""
    if any(docs.dims != dims for docs in sets):
        raise DimensionError(f"documents disagree with dims={dims}")
    return PackedDocs(
        dims,
        np.cumsum(np.concatenate([[0], *(docs.nnz for docs in sets)]), dtype=np.int64),
        np.concatenate([docs.indices for docs in sets] + [np.empty(0, np.int64)]),
        np.concatenate([docs.weights for docs in sets] + [np.empty(0)]),
    )


def project(docs: PackedDocs, s: FeatureIndexSet) -> np.ndarray:
    """Dense restriction of every document to the indexes in `s`, as an
    (m, f) array; absent dims are 0.  Reads only the entries on those
    indexes, through the term-major view, and fills an (f, m) array one
    term at a time, in document order; the result is its transpose."""
    if s.dims != docs.dims:
        raise DimensionError(f"dims mismatch: {docs.dims} != {s.dims}")
    termptr, owner, weights = docs._by_term
    first = termptr[s.indexes]
    counts = termptr[s.indexes + 1] - first
    # the view's entries on term s.indexes[j] are first[j], ..., first[j] + counts[j] - 1
    entries = np.repeat(first - np.cumsum(counts) + counts, counts)
    entries += np.arange(entries.size)
    flat = owner.take(entries)
    flat += np.repeat(np.arange(s.f) * len(docs), counts)
    out = np.zeros((s.f, len(docs)))
    out.reshape(-1)[flat] = weights.take(entries)
    return out.T


def zscore(values: np.ndarray) -> np.ndarray:
    """Standardize with the population standard deviation.  A constant
    vector has zero deviation; it maps to all zeros."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise RangeError("cannot z-score an empty vector")
    sigma = float(np.std(x))
    if sigma == 0.0:
        return np.zeros_like(x)
    return (x - x.mean()) / sigma


def top_f(values: np.ndarray, f: int) -> FeatureIndexSet:
    """Indexes of the `f` largest values; ties go to the lower index.

    Takes every value above the f-th largest, then the lowest indexes
    holding the f-th largest itself; no full sort.  Values must not be NaN.
    """
    x = np.asarray(values, dtype=np.float64)
    if not 1 <= f <= x.size:
        raise RangeError(f"f={f} outside [1, {x.size}]")
    # the f-th smallest of -x: selecting at the low end stays fast when
    # most values tie (the zero counts of one document, say)
    kth = -np.partition(-x, f - 1)[f - 1]
    above = np.flatnonzero(x > kth)
    ties = np.flatnonzero(x == kth)[: f - above.size]
    chosen = np.sort(np.concatenate((above, ties)))
    return FeatureIndexSet(dims=int(x.size), indexes=chosen)
