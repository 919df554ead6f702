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

No party holds A.  ``matvec`` computes A R by scattering D_c R into N
columns, applying H and gathering columns R; ``transpose_apply_packed``
computes A^T v for a batch of documents the same way in reverse, and
``mask`` adds each packed document's entries into its column of A r, so no
document is made dense.  Both transforms hold a batch as rows, one vector
per row, and H is applied to it through the Kronecker factorisation

    H_N = H_a1 (x) H_a2 (x) ... (x) H_am,   m = ceil(log2 N / 5), a_i <= 32,

one ``matmul`` per factor (KOS's N = 8192 gives 16 * 16 * 32) whose stack
axis carries the vector.  numpy runs one GEMM per stack element, with
shapes that depend on N alone, so a vector's product has the same bits
whatever it is batched with, and a batch of any size needs no padding.
``rows_for`` computes entries from the closed form, for the small filter
matrix A_fs and for tests.

Each output of H is a tree of m sequential sums of at most 32 terms, so
its rounding error is bounded by about (a_1 + ... + a_m) u sum|x| (64 u at
KOS, u the unit roundoff), where a radix-2 butterfly's is log2(N) u sum|x|
(13 u).  Measured against the butterfly on 32 Gaussian and 32 uniform
vectors for each N = 2^0 ... 2^17, the two differ by at most 1.9 u sum|x|
(0.32 u at KOS).
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
]

# Sylvester's Hadamard matrix of order 32; for a power of two a <= 32, H_a
# is its leading a x a block.
_H32 = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * 5)

# Vectors per transform chunk.  A product goes through its batch BATCH
# vectors at a time in one pair of (BATCH, N) buffers, allocated once per
# call, and a short last chunk takes the first rows of them; so its peak
# memory, output included, stays within about four (N, BATCH) blocks
# whatever the batch size, and no vector's bits depend on the chunking.
BATCH = 16


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
    """Unnormalised Walsh-Hadamard transform H x of each row of the (k, N)
    array x, N a power of two, through its Kronecker factors, widest first.
    The first factor H_a acts on the lowest bits of the column index, as x
    viewed as (k, N / a, a) times H_a; each later one on the lowest bits not
    yet transformed, as H_a times x viewed as (k * lead, a, tail).  Each
    vector thus gets GEMMs of its own, of shapes fixed by N.  ``spare`` is
    a scratch array of x's shape; both are overwritten, and the one holding
    H x is returned."""
    k, size = x.shape
    tail = 1
    # widest first: up to 15% faster than narrowest first at N = 8192 and 16384
    for a in reversed(_factors(size)):
        h, lead = _H32[:a, :a], size // (a * tail)
        if tail == 1:
            np.matmul(x.reshape(k, lead, a), h, out=spare.reshape(k, lead, a))
        else:
            stack = (k * lead, a, tail)
            np.matmul(h, x.reshape(stack), out=spare.reshape(stack))
        tail *= a
        x, spare = spare, x
    return x


def _ranking(words: np.ndarray) -> np.ndarray:
    """The indexes of ``words`` from the smallest word to the largest, equal
    words in index order: a stable ranking.  Distinct words have one
    ranking, which numpy's default sort finds about five times faster than
    a stable one on 8,192 words, so the stable sort runs only on a tie."""
    order = np.argsort(words)
    ranked = words[order]
    if np.any(ranked[1:] == ranked[:-1]):
        order = np.argsort(words, kind="stable")
    return order


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
        self._row_of = _ranking(words[:size])[:rows].astype(index)
        self._col_of = _ranking(words[size : 2 * size])[:cols].astype(index)
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

    def _chunks(self, k: int):
        """(lo, hi, x, spare) for each run lo:hi of at most BATCH of k
        vectors: x, zeroed, and spare are the first hi - lo rows of one
        buffer pair made for the whole call."""
        x, spare = np.empty((2, min(k, BATCH), self.size))
        for lo in range(0, k, BATCH):
            hi = min(lo + BATCH, k)
            block = x[: hi - lo]
            block.fill(0.0)
            yield lo, hi, block, spare[: hi - lo]

    def matvec(self, r: np.ndarray) -> np.ndarray:
        """A @ r for r of shape (cols,) or (cols, k)."""
        if r.ndim not in (1, 2) or r.shape[0] != self.cols:
            raise DimensionError(
                f"mask shape {r.shape} != ({self.cols},) or ({self.cols}, k)"
            )
        masks = r.reshape(self.cols, -1).T  # one mask per row
        out = np.empty((len(masks), self.rows))
        for lo, hi, x, spare in self._chunks(len(masks)):
            x[:, self._col_of] = masks[lo:hi] * self._col_sign
            # with mode="clip" take writes into out with no buffer of its
            # own; the indices are in range, so nothing is clipped
            np.take(_fwht(x, spare), self._row_of, axis=1, out=out[lo:hi], mode="clip")
        out *= self._row_sign
        return out.T.reshape((self.rows,) + r.shape[1:])

    def transpose_apply_packed(self, docs: PackedDocs) -> np.ndarray:
        """Row i is A^T v_i for document i of ``docs``."""
        t = np.empty((len(docs), self.cols))
        bounds = docs.indptr
        for lo, hi, x, spare in self._chunks(len(docs)):
            entries = slice(bounds[lo], bounds[hi])
            indices = docs.indices[entries]
            owner = np.repeat(np.arange(hi - lo), np.diff(bounds[lo : hi + 1]))
            x[owner, self._row_of[indices]] = self._row_sign[indices] * docs.weights[entries]
            np.take(_fwht(x, spare), self._col_of, axis=1, out=t[lo:hi], mode="clip")
        t *= self._col_sign
        return t


def mask(docs: PackedDocs, matrix: SharedRandomMatrix, r: np.ndarray) -> np.ndarray:
    """z = u + A r for each document u of ``docs``, r of shape (cols,
    len(docs)): A r, whose columns are contiguous, with document j's
    entries added into column j in place."""
    if docs.dims != matrix.rows or r.shape != (matrix.cols, len(docs)):
        raise DimensionError(
            f"dims {docs.dims}, mask {r.shape}; want {matrix.rows}, ({matrix.cols}, {len(docs)})"
        )
    z = matrix.matvec(r)
    z[docs.indices, docs.owner] += docs.weights
    return z
