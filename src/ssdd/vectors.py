"""Sparse document vectors and the packed kernels built on them.

Documents are vectors of integer term counts stored sparsely (sorted
indices + positive counts).  A set of them, a single document included, is
one CSR ``PackedDocs``: the one document type that the protocol, the oracle
and the masking matrix take, and the form a corpus holds its documents in.
Per-document sums, ``dot``'s and a corpus's squared norms, are segmented
sums: one ``np.add.reduceat`` over the documents that hold entries, each
document summed on its own in the order ``PackedDocs.sums`` states.  Sums
of integers below 2^53 are exact in float64, so on counts every order gives
the same value.  A ``PackedDocs`` is read-only, so one corpus is shared by
every session that reads it; ``project`` restricts it to an index set, a
sorted ``int64`` array of dimensions that ``selection`` chooses, and reads
a term-major (CSC) view of it that is built on first use, once per corpus:
each chosen term's weights are one slice of that view, written into one
row of an (f, m) array whose transpose is the projection.  Products and
sums are float64.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import RangeError

__all__ = [
    "PackedDocs",
    "project",
]


@dataclass(frozen=True)
class PackedDocs:
    """m documents in CSR layout: document i's term indices and weights are
    ``indices[indptr[i]:indptr[i + 1]]`` and the same slice of ``weights``.

    Read-only: the arrays reject writes, and ``docs[i]`` is document i as a
    one-document ``PackedDocs`` over views of them.  The document
    frequencies, the squared norms, the sums of absolute weights and the
    same entries in term-major (CSC) order are built on first use and kept,
    read-only, with the documents, so every session over one ``PackedDocs``
    shares them.  Sessions that race to build one can at worst build it
    twice."""

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

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Each document's sum of ``values``, one value per packed entry, as
        (m,) float64; an empty document's sum is 0.  One ``np.add.reduceat``
        over the documents that hold entries: a document's sum is its first
        value plus numpy's pairwise sum of the rest (in numpy 2.4: sequential
        below eight values, eight interleaved partial sums up to 128, then
        halves), so it depends on that document's values alone."""
        out = np.zeros(len(self))
        full = np.flatnonzero(self.nnz)
        out[full] = np.add.reduceat(values, self.indptr[full])
        return out

    def dot(self, z: np.ndarray) -> np.ndarray:
        """z . v_i for every document i, as (m,) for z of shape (dims,) and
        (k, m) for z of shape (k, dims): for each row of z, ``sums`` of the
        products of document i's weights with that row's entries at its
        indices, so a document's sum is its first product plus numpy's
        pairwise sum of the rest, in packed-entry order.  One row of z at a
        time, so that a block gives the bits of its rows one by one and
        temporaries stay at one row's entries."""
        rows = np.atleast_2d(z)
        out = np.empty((rows.shape[0], len(self)))
        for row, sums in zip(rows, out):
            sums[...] = self.sums(row[self.indices] * self.weights)
        return out.reshape(z.shape[:-1] + (len(self),))

    @cached_property
    def document_frequency(self) -> np.ndarray:
        """Per-dimension count of the documents that contain the term (int64)."""
        df = np.bincount(self.indices, minlength=self.dims).astype(np.int64, copy=False)
        df.flags.writeable = False
        return df

    @cached_property
    def squared_norms(self) -> np.ndarray:
        """Each document's sum of squared weights, ``sums`` of them, as
        read-only (m,) float64: exact for counts whose squares sum below
        2^53, and at least as large as 2^53 otherwise."""
        weights = self.weights.astype(np.float64)
        norm2 = self.sums(weights * weights)
        norm2.flags.writeable = False
        return norm2

    @cached_property
    def l1_norms(self) -> np.ndarray:
        """Each document's sum of absolute weights, as ``squared_norms``."""
        l1 = self.sums(np.abs(self.weights.astype(np.float64)))
        l1.flags.writeable = False
        return l1

    def dense(self) -> np.ndarray:
        """The documents as the rows of an (m, dims) array."""
        out = np.zeros((len(self), self.dims))
        out[self.owner, self.indices] = self.weights
        return out

    @cached_property
    def _by_term(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(termptr, owner, weights): term d's entries are
        ``termptr[d]:termptr[d + 1]`` of ``owner`` (the document of each
        entry) and ``weights``, in document order within a term.  The
        weights are float64, as ``project`` writes them, so that a
        projection casts nothing."""
        # a stable sort on keys of at most 16 bits is a radix sort
        keys = self.indices.astype(np.min_scalar_type(max(self.dims - 1, 0)))
        order = np.argsort(keys, kind="stable")
        termptr = np.zeros(self.dims + 1, dtype=np.int64)
        np.cumsum(self.document_frequency, out=termptr[1:])
        weights = self.weights.take(order).astype(np.float64, copy=False)
        view = termptr, self.owner.take(order), weights
        for array in view:
            array.flags.writeable = False
        return view


def project(docs: PackedDocs, indexes: np.ndarray) -> np.ndarray:
    """Dense restriction of every document to ``indexes``, a sorted index
    set in [0, dims), as an (m, f) array; absent dims are 0.  Reads only the
    entries on those indexes, through the term-major view: row j of an
    (f, m) array of zeros takes term ``indexes[j]``'s weights with one slice
    assignment at the documents that hold it.  The result is that array's
    transpose, so the (f, m) array is ``project(...).T``, C-ordered."""
    termptr, owner, weights = docs._by_term
    out = np.zeros((indexes.size, len(docs)))
    for row, a, b in zip(out, termptr[indexes].tolist(), termptr[indexes + 1].tolist()):
        row[owner[a:b]] = weights[a:b]
    return out.T

