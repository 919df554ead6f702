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

Matrix entries are uniform on [-1, 1] and are a pure function of
(seed, i, j), generated with a block-addressable counter RNG: entry k of
the row-major matrix is 2u - 1, where u is ``Generator.random``'s k-th
draw on the Philox stream keyed by the seed, (word_k >> 11) * 2**-53.
These are the same bits that converting ``Philox.random_raw`` words by
hand gives, but they are built in the array returned, with no full-size
temporaries.  Rows can be produced on demand, so the responder's t costs
O(nnz(v) * cols) work and no party ever needs the full matrix in memory
(though materializing is allowed as a speedup for moderate n; the
materialized matrix is cached, shared and read-only).

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
from .vectors import DocumentVector, PackedDocs

__all__ = [
    "SharedRandomMatrix",
    "mask",
    "respond",
    "recover",
    "clear_matrix_cache",
]

# Entries above this count are never materialized; rows stream on demand.
MATERIALIZE_LIMIT_ENTRIES = 40_000_000
# A streamed matrix generates at most about this many entries at a time.
STREAM_CHUNK_ENTRIES = 4_000_000


def _raw_span(seed: int, k0: int, k1: int) -> np.ndarray:
    """Entries for flat positions [k0, k1) of the matrix stream, built in
    the buffer returned."""
    b0 = k0 // 4
    bits = Philox(key=seed, counter=[b0, 0, 0, 0])
    bits.random_raw(k0 - b0 * 4)  # skip to k0 within its 4-word block
    out = np.random.Generator(bits).random(k1 - k0)
    out *= 2.0
    out -= 1.0
    return out


@lru_cache(maxsize=3)
def _materialized(seed: int, rows: int, cols: int) -> np.ndarray:
    # read-only: every session in the process shares this array
    full = _raw_span(seed, 0, rows * cols).reshape(rows, cols)
    full.flags.writeable = False
    return full


def clear_matrix_cache() -> None:
    _materialized.cache_clear()


class SharedRandomMatrix:
    """Handle to the deterministic masking matrix for one seed and size."""

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
        out = np.empty((len(indices), self.cols))
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
        # (r^T A^T)^T = A r, in the GEMM shape that OpenBLAS runs about
        # 1.6x faster when r has a few columns
        full = self._full()
        if full is not None:
            return (r.T @ full.T).T
        out = np.empty((self.rows,) + r.shape[1:])
        chunk = max(1, STREAM_CHUNK_ENTRIES // self.cols)
        for start in range(0, self.rows, chunk):
            stop = min(start + chunk, self.rows)
            out[start:stop] = (r.T @ self.row_block(start, stop).T).T
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
            for i, (indices, weights) in enumerate(docs):
                t[i] = weights @ self.rows_for(indices)
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


def respond(
    z: np.ndarray, v: DocumentVector, matrix: SharedRandomMatrix
) -> tuple[float, np.ndarray]:
    """(s, t) = (z . v, A^T v) for one document, iterating v's nonzeros only."""
    if z.shape != (matrix.rows,):
        raise DimensionError(f"masked length {z.shape} != ({matrix.rows},)")
    if v.dims != matrix.rows:
        raise DimensionError(f"document dims {v.dims} != {matrix.rows}")
    return float(z[v.indices] @ v.weights), v.weights @ matrix.rows_for(v.indices)


def recover(s: float | np.ndarray, t: np.ndarray, r: np.ndarray) -> float | np.ndarray:
    """delta = s - t . r, the scalar product of the hidden vectors; with t of
    shape (k, cols) and s of shape (k,), the k products at once."""
    return s - t @ r
