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
applying H and gathering rows R; ``transpose_apply_packed`` computes A^T v
for a batch of documents the same way in reverse.  H is applied through
the Kronecker factorisation

    H_N = H_a1 (x) H_a2 (x) ... (x) H_am,   m = ceil(log2 N / 5), a_i <= 32,

one ``matmul`` per factor (KOS's N = 8192 gives 16 * 16 * 32).  Vectors go
through the transform a fixed number of columns at a time, the last block
padded with zero columns, so every product has the same shapes, and a
vector's product the same bits, whatever it is batched with.  ``rows_for``
computes entries from the closed form, for the small filter matrix A_fs
and for tests.

Each output of H is a tree of m sequential sums of at most 32 terms, so
its rounding error is bounded by about (a_1 + ... + a_m) u sum|x| (64 u at
KOS, u the unit roundoff), where a radix-2 butterfly's is log2(N) u sum|x|
(13 u).  Measured against the butterfly on Gaussian and uniform vectors
for N = 2^0 ... 2^17, the two differ by at most 4.0 u sum|x| (2.0 u at
KOS).
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random import Philox

from .errors import DimensionError, RangeError
from .vectors import PackedDocs

__all__ = [
    "SharedRandomMatrix",
    "mask",
    "recover",
]

# Sylvester's Hadamard matrix of order 32; for a power of two a <= 32, H_a
# is its leading a x a block.
_H32 = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * 5)

# Columns per transform block.  Every block is (N, width) whatever the
# number of vectors, the last one padded with zero columns, so the matmul
# shapes, and with them the bits of a vector's product, never depend on
# the batch.  Not every width keeps that: in 10- or 12-wide blocks a
# column's bits depend on its place in the block, in 8- or 16-wide ones
# they do not (OpenBLAS 0.3.31).  Each product keeps its peak memory,
# output included, within four blocks: (N, BATCH) ones for A^T v and
# (N, k) ones for A R over k masks.  Documents go 16 at a time, since at
# width 8 the two buffers and t for 40 documents at KOS's n take 4.1
# (N, 8) blocks; a wider block would pad Bob's short batches (a few new t
# rows per query under hf) with more zero columns.  Masks go 8 at a time,
# since for Alice's ten or so queries two 16-wide buffers alone take 3.2
# (N, 10) arrays.
BATCH = 16
MASK_BATCH = 8


def _factors(size: int) -> list[int]:
    """Orders a_1 <= ... <= a_m of the Kronecker factors of H_size, size a
    power of two: m = ceil(log2(size) / 5) factors of at most 32, as even
    as possible."""
    bits = size.bit_length() - 1
    m = -(-bits // 5)
    if not m:
        return []
    low, extra = divmod(bits, m)
    return [1 << low] * (m - extra) + [1 << (low + 1)] * extra


def _fwht(x: np.ndarray, spare: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform H x of each column of the
    (N, k) array x, N a power of two, through its Kronecker factors: the
    factor H_a on the lowest bits of the row index not yet transformed is
    one matmul with x viewed as (pre, a, post).  ``spare`` is a scratch
    array of x's shape; both are overwritten, and the one holding H x is
    returned."""
    size, post = x.shape
    pre = size
    for a in _factors(size):
        pre //= a
        np.matmul(
            _H32[:a, :a],
            x.reshape(pre, a, post),
            out=spare.reshape(pre, a, post),
        )
        post *= a
        x, spare = spare, x
    return x


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
        k = block.shape[1]
        out = np.empty((self.rows, k))
        x, spare = np.empty((2, self.size, MASK_BATCH))
        for lo in range(0, k, MASK_BATCH):
            hi = min(lo + MASK_BATCH, k)
            x.fill(0.0)
            x[self._col_of, : hi - lo] = self._col_sign[:, None] * block[:, lo:hi]
            y = _fwht(x, spare)
            out[:, lo:hi] = y[self._row_of, : hi - lo]
        out *= self._row_sign[:, None]
        return out.reshape((self.rows,) + r.shape[1:])

    def transpose_apply_packed(self, docs: PackedDocs) -> np.ndarray:
        """Row i is A^T v_i for document i of ``docs``, BATCH documents per
        transform."""
        t = np.empty((len(docs), self.cols))
        if not len(docs):  # no new survivor: most full rounds after the first
            return t
        x, spare = np.empty((2, self.size, BATCH))
        bounds = docs.indptr
        for lo in range(0, len(docs), BATCH):
            hi = min(lo + BATCH, len(docs))
            entries = slice(bounds[lo], bounds[hi])
            indices = docs.indices[entries]
            x.fill(0.0)
            owner = np.repeat(np.arange(hi - lo), np.diff(bounds[lo : hi + 1]))
            weights = self._row_sign[indices] * docs.weights[entries]
            x[self._row_of[indices], owner] = weights
            y = _fwht(x, spare)
            t[lo:hi] = y[self._col_of, : hi - lo].T
            t[lo:hi] *= self._col_sign
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
