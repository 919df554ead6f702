"""Masked scalar products against a shared random matrix.

Both parties derive the same n x ceil(n/2) matrix A from a shared seed.  The
querying side hides its vector u behind a private column vector r:

    z = u + A r            (sent)
    s = z . v              (returned)
    t = A^T v              (returned)
    delta = s - r . t      (recovered)

In exact arithmetic delta equals u . v, since z . v = u . v + r . (A^T v).
In floating point it carries rounding error, so a pair whose cosine lies
within that error of a tolerance (an identical pair at tolerance 1, say)
can be decided either way.

Any A makes the recovery exact; A is a subsampled randomized Hadamard
transform (Ailon & Chazelle 2006; Tropp 2011).  With N the smallest power
of two >= n and H the N x N Sylvester Hadamard matrix,

    A = D_r H[R, C] D_c,   A[i, j] = d_r[i] d_c[j] (-1)^popcount(R[i] & C[j])

where R is a seeded n-subset of H's rows, C a seeded ceil(n/2)-subset of
its columns and d_r, d_c seeded signs.  All of them come from the raw
words of the Philox stream keyed by the seed, whose layout numpy pins
across versions: the first N words rank H's rows (R takes the first n of
the ranking), the next N rank its columns (C takes the first ceil(n/2)),
and the lowest bits of the next n + ceil(n/2) words are d_r, then d_c
(a set bit meaning -1).  Entries are +1 or -1.

No party holds A.  ``matvec`` computes A R by scattering D_c R into N rows,
running a fast Walsh-Hadamard transform and gathering rows R;
``transpose_apply_packed`` computes A^T v for a batch of documents the
same way in reverse.  Each costs O(N log N) per vector, and each column
is transformed on its own, so a vector's product has the same bits
whatever it is batched with.  ``rows_for`` computes entries from the
closed form, for the small filter matrix A_fs and for tests.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Philox

from .errors import DimensionError, RangeError
from .vectors import PackedDocs

__all__ = [
    "SharedRandomMatrix",
    "mask",
    "recover",
]

# Documents per transform in transpose_apply_packed.  Of widths 1 to 64 at
# KOS's N = 8192, 16 cost least per document: a narrower block pays numpy's
# per-call overhead more often, a wider one leaves the cache.
BATCH = 16


def _fwht(x: np.ndarray) -> None:
    """In-place unnormalised Walsh-Hadamard transform of each column of
    the (N, k) array x, N a power of two: x becomes H x."""
    size = len(x)
    half = np.empty(x.size // 2)
    h = 1
    while h < size:
        pairs = x.reshape(size // (2 * h), 2, -1)
        a, b = pairs[:, 0], pairs[:, 1]
        diff = half.reshape(a.shape)
        np.subtract(a, b, out=diff)
        a += b
        b[...] = diff
        h *= 2


class SharedRandomMatrix:
    """Handle to the deterministic masking matrix for one seed and size."""

    def __init__(self, seed: int, rows: int):
        if rows < 1:
            raise RangeError("matrix needs at least one row")
        if not 0 <= seed < 2**64:
            raise RangeError("seed must fit in 64 bits")
        self.seed = seed
        self.rows = rows
        self.cols = cols = (rows + 1) // 2
        # N, the order of H
        self.size = size = 1 << (rows - 1).bit_length()
        words = Philox(key=seed).random_raw(2 * size + rows + cols)
        # R and C, as the smallest unsigned type that holds an index of H
        index = np.min_scalar_type(size - 1)
        self._row_of = np.argsort(words[:size], kind="stable")[:rows].astype(index)
        self._col_of = np.argsort(words[size : 2 * size], kind="stable")[:cols]
        self._col_of = self._col_of.astype(index)
        # d_r and d_c
        signs = 1 - 2 * (words[2 * size :] & np.uint64(1)).astype(np.int8)
        self._row_sign, self._col_sign = signs[:rows], signs[rows:]

    def rows_for(self, indices: np.ndarray) -> np.ndarray:
        """Rows of A at the given indices, as int8, from the closed form."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and not 0 <= indices.min() <= indices.max() < self.rows:
            raise RangeError(f"row index outside {self.rows} rows")
        both = self._row_of[indices, None] & self._col_of
        shift = 4 * both.itemsize
        while shift:  # fold the bits of each entry into its lowest one
            both ^= both >> shift
            shift //= 2
        parity = (both & 1).astype(np.int8)
        return (1 - 2 * parity) * self._row_sign[indices, None] * self._col_sign

    def matvec(self, r: np.ndarray) -> np.ndarray:
        """A @ r for r of shape (cols,) or (cols, k)."""
        if r.ndim not in (1, 2) or r.shape[0] != self.cols:
            raise DimensionError(
                f"mask shape {r.shape} != ({self.cols},) or ({self.cols}, k)"
            )
        block = r.reshape(self.cols, -1)
        x = np.zeros((self.size, block.shape[1]))
        x[self._col_of] = self._col_sign[:, None] * block
        _fwht(x)
        out = self._row_sign[:, None] * x[self._row_of]
        return out.reshape((self.rows,) + r.shape[1:])

    def transpose_apply_packed(self, docs: PackedDocs) -> np.ndarray:
        """Row i is A^T v_i for document i of ``docs``, BATCH documents per
        transform."""
        t = np.empty((len(docs), self.cols))
        bounds = docs.indptr
        for lo in range(0, len(docs), BATCH):
            hi = min(lo + BATCH, len(docs))
            entries = slice(bounds[lo], bounds[hi])
            indices = docs.indices[entries]
            x = np.zeros((self.size, hi - lo))
            owner = np.repeat(np.arange(hi - lo), np.diff(bounds[lo : hi + 1]))
            weights = self._row_sign[indices] * docs.weights[entries]
            x[self._row_of[indices], owner] = weights
            _fwht(x)
            t[lo:hi] = (self._col_sign[:, None] * x[self._col_of]).T
        return t


def mask(u: np.ndarray, matrix: SharedRandomMatrix, r: np.ndarray) -> np.ndarray:
    """z = u + A r; with u of shape (rows, k) and r of shape (cols, k),
    column j of the result masks column j of u."""
    if u.shape != (matrix.rows,) + r.shape[1:]:
        raise DimensionError(
            f"vector shape {u.shape} does not match {matrix.rows} rows "
            f"and mask shape {r.shape}"
        )
    return u + matrix.matvec(r)


def recover(s: float | np.ndarray, t: np.ndarray, r: np.ndarray) -> float | np.ndarray:
    """delta = s - t . r, the scalar product of the hidden vectors; with t of
    shape (k, cols) and s of shape (k,), the k products at once.  Each row is
    reduced on its own, so a batch gives the same bits as its rows one at a
    time (``t @ r`` as a matrix-vector product need not)."""
    return s - np.einsum("...j,j->...", t, r)
