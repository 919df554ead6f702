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

Matrix entries are +1 or -1 ("binary coins", Achlioptas 2003): any A makes
the recovery exact, and a sign costs one random bit.  They are a pure
function of (seed, i, j), generated with a block-addressable counter RNG:
entry k of the row-major matrix is +1 when bit k of the Philox stream keyed
by the seed is set and -1 when it is clear, bit k being bit k % 64 (least
significant first) of the stream's word k // 64.  Rows can be produced on
demand from the words that cover them, so the responder's t costs
O(nnz(v) * cols) work and no party ever needs the full matrix in memory
(though materializing is allowed as a speedup for moderate n; the
materialized matrix is cached as read-only int8, one byte per entry, and
shared).  Products cast the int8 entries to float64 a few rows at a time.

``mask`` and ``matvec`` also take a block of k vectors at once: u as an
(n, k) array and r as a (cols, k) array give the k masked vectors as the
columns of Z = U + A R, and a streamed matrix generates each row once for
all k columns.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random import Philox

from .errors import DimensionError, RangeError
from .vectors import PackedDocs

__all__ = [
    "SharedRandomMatrix",
    "mask",
    "recover",
    "clear_matrix_cache",
]

# Entries above this count are never materialized; rows stream on demand.
MATERIALIZE_LIMIT_ENTRIES = 40_000_000
# A streamed matrix generates at most about this many entries at a time.
STREAM_CHUNK_ENTRIES = 4_000_000
# Products cast this many int8 rows at a time into one float64 buffer, small
# enough to stay in cache between the cast and the multiplication.
CAST_ROWS = 16


def _raw_span(seed: int, k0: int, k1: int) -> np.ndarray:
    """Entries for flat positions [k0, k1) of the matrix stream, as int8."""
    w0, w1 = k0 // 64, -(-k1 // 64)  # the words holding bits k0, ..., k1 - 1
    bits = Philox(key=seed, counter=[w0 // 4, 0, 0, 0])
    bits.random_raw(w0 % 4)  # skip to w0 within its 4-word block
    words = bits.random_raw(w1 - w0).astype("<u8", copy=False)
    signs = np.unpackbits(words.view(np.uint8), bitorder="little").view(np.int8)
    signs <<= 1
    signs -= 1
    return signs[k0 - 64 * w0 : k1 - 64 * w0]


@lru_cache(maxsize=3)
def _materialized(seed: int, rows: int, cols: int) -> np.ndarray:
    # read-only: every session in the process shares this array
    full = _raw_span(seed, 0, rows * cols).reshape(rows, cols)
    full.flags.writeable = False
    return full


def clear_matrix_cache() -> None:
    _materialized.cache_clear()


class SharedRandomMatrix:
    """Handle to the deterministic masking matrix for one seed and size.

    ``row_block`` and ``rows_for`` return the entries as int8; ``matvec``
    and ``transpose_apply_packed`` compute in float64.
    """

    def __init__(self, seed: int, rows: int):
        if rows < 1:
            raise RangeError("matrix needs at least one row")
        if not 0 <= seed < 2**64:
            raise RangeError("seed must fit in 64 bits")
        self.seed = seed
        self.rows = rows
        self.cols = (rows + 1) // 2
        self._can_materialize = rows * self.cols <= MATERIALIZE_LIMIT_ENTRIES

    def _full(self) -> np.ndarray | None:
        if self._can_materialize:
            return _materialized(self.seed, self.rows, self.cols)
        return None

    def row_block(self, start: int, stop: int) -> np.ndarray:
        if not 0 <= start <= stop <= self.rows:
            raise RangeError(f"row block [{start}, {stop}) outside {self.rows} rows")
        full = self._full()
        if full is not None:
            return full[start:stop]
        return _raw_span(self.seed, start * self.cols, stop * self.cols).reshape(
            stop - start, self.cols
        )

    def rows_for(self, indices: np.ndarray) -> np.ndarray:
        """Rows at the given (not necessarily contiguous) indices."""
        full = self._full()
        if full is not None:
            return full[indices]
        out = np.empty((len(indices), self.cols), dtype=np.int8)
        for k, i in enumerate(indices):
            out[k : k + 1] = self.row_block(int(i), int(i) + 1)
        return out

    def matvec(self, r: np.ndarray) -> np.ndarray:
        """A @ r for r of shape (cols,) or (cols, k), without requiring the
        whole matrix at once."""
        if r.ndim not in (1, 2) or r.shape[0] != self.cols:
            raise DimensionError(
                f"mask shape {r.shape} != ({self.cols},) or ({self.cols}, k)"
            )
        full = self._full()
        chunk = max(1, STREAM_CHUNK_ENTRIES // self.cols)
        blocks = [(0, full)] if full is not None else (
            (start, self.row_block(start, min(start + chunk, self.rows)))
            for start in range(0, self.rows, chunk)
        )
        out = np.empty((self.rows,) + r.shape[1:])
        cast = np.empty((CAST_ROWS, self.cols))
        for start, block in blocks:
            for lo in range(0, len(block), CAST_ROWS):
                part = block[lo : lo + CAST_ROWS]
                rows = cast[: len(part)]
                rows[...] = part
                np.matmul(rows, r, out=out[start + lo : start + lo + len(part)])
        return out

    def transpose_apply_packed(self, docs: PackedDocs) -> np.ndarray:
        """Row i is A^T v_i for document i of ``docs``.

        A materialized matrix gathers each vector's rows.  A streamed one
        generates each distinct row of the batch once, in chunks that keep
        both the rows and the dense weights applied to them within
        STREAM_CHUNK_ENTRIES entries.
        """
        k = len(docs)
        t = np.zeros((k, self.cols))
        if self._full() is not None:
            # each document's rows are cast into one reused float64 buffer
            cast = np.empty((int(docs.nnz.max(initial=0)), self.cols))
            bounds = docs.indptr.tolist()
            for i, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
                rows = cast[: hi - lo]
                rows[...] = self.rows_for(docs.indices[lo:hi])
                np.matmul(docs.weights[lo:hi], rows, out=t[i])
            return t
        rows, column = np.unique(docs.indices, return_inverse=True)
        chunk = max(1, STREAM_CHUNK_ENTRIES // max(self.cols, k))
        for start in range(0, rows.size, chunk):
            block = self.rows_for(rows[start : start + chunk])
            hit = (column >= start) & (column < start + chunk)
            w = np.zeros((k, block.shape[0]))
            w[docs.owner[hit], column[hit] - start] = docs.weights[hit]
            t += w @ block
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
