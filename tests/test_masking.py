"""Masked scalar product: exactness, determinism, and cost accounting."""

import numpy as np
import pytest

from ssdd import masking
from ssdd.errors import DimensionError, RangeError
from ssdd.masking import (
    DenseMaskingMatrix,
    OpCounter,
    SecretMask,
    SharedRandomMatrix,
    mask,
    recover,
    respond,
)
from ssdd.vectors import DocumentVector

from conftest import random_document


def streamed_matrix(seed: int, rows: int) -> SharedRandomMatrix:
    """A matrix that generates its rows on demand, as above the size limit."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(masking, "MATERIALIZE_LIMIT_ENTRIES", 0)
        return SharedRandomMatrix(seed, rows)


class TestSharedRandomMatrix:
    def test_shape_uses_half_width(self):
        assert SharedRandomMatrix(1, 10).cols == 5
        assert SharedRandomMatrix(1, 11).cols == 6
        assert SharedRandomMatrix(1, 1).cols == 1

    def test_zero_length_rejected(self):
        with pytest.raises(RangeError):
            SharedRandomMatrix(1, 0)

    def test_entries_uniform_range_and_seed_determinism(self):
        a = SharedRandomMatrix(99, 40)
        b = SharedRandomMatrix(99, 40)
        block = a.row_block(0, 40)
        assert np.all(block >= -1.0) and np.all(block <= 1.0)
        np.testing.assert_array_equal(block, b.row_block(0, 40))
        c = SharedRandomMatrix(100, 40)
        assert not np.array_equal(block, c.row_block(0, 40))

    def test_entry_matches_blocks_and_streaming(self):
        """Entry (i, j) is one pure function however the matrix is accessed."""
        cached = SharedRandomMatrix(7, 30)
        streamed = streamed_matrix(7, 30)
        assert cached._full() is not None and streamed._full() is None
        rng = np.random.default_rng(0)
        for _ in range(60):
            i = int(rng.integers(0, 30))
            j = int(rng.integers(0, cached.cols))
            value = cached.row_block(i, i + 1)[0, j]
            assert value == streamed.row_block(i, i + 1)[0, j]
            assert value == cached.rows_for(np.array([i]))[0, j]
            assert value == streamed.rows_for(np.array([i]))[0, j]
        np.testing.assert_array_equal(
            cached.row_block(0, 30), streamed.row_block(0, 30)
        )
        np.testing.assert_array_equal(
            cached.row_block(4, 17), streamed.row_block(4, 17)
        )
        for i in (0, 4, 5, 30):
            assert cached.row_block(i, i).shape == (0, cached.cols)
            assert streamed.row_block(i, i).shape == (0, cached.cols)
        idx = np.array([3, 11, 29])
        np.testing.assert_array_equal(cached.rows_for(idx), streamed.rows_for(idx))

    def test_matvec_streaming_equals_materialized(self):
        cached = SharedRandomMatrix(13, 57)
        streamed = streamed_matrix(13, 57)
        r = np.random.default_rng(1).uniform(-1, 1, cached.cols)
        np.testing.assert_allclose(cached.matvec(r), streamed.matvec(r), atol=1e-12)
        block = np.random.default_rng(2).uniform(-1, 1, (cached.cols, 4))
        by_column = np.column_stack([cached.matvec(c) for c in block.T])
        np.testing.assert_allclose(cached.matvec(block), by_column, atol=1e-12)
        np.testing.assert_allclose(streamed.matvec(block), by_column, atol=1e-12)

    def test_streamed_block_generates_each_row_once(self, monkeypatch):
        streamed = streamed_matrix(13, 57)
        generated = []
        row_block = streamed.row_block

        def counting(start, stop):
            generated.append(stop - start)
            return row_block(start, stop)

        monkeypatch.setattr(streamed, "row_block", counting)
        streamed.matvec(np.ones((streamed.cols, 5)))
        assert sum(generated) == streamed.rows

    def test_matvec_rejects_bad_mask_shapes(self):
        for matrix in (SharedRandomMatrix(3, 8), DenseMaskingMatrix(np.ones((8, 4)))):
            for shape in ((5,), (5, 2), (4, 2, 1), ()):
                with pytest.raises(DimensionError):
                    matrix.matvec(np.zeros(shape))

    def test_out_of_range_entry(self):
        for m in (SharedRandomMatrix(5, 4), streamed_matrix(5, 4)):
            for start, stop in ((4, 5), (0, 5), (-1, 1), (3, 2)):
                with pytest.raises(RangeError):
                    m.row_block(start, stop)


class TestHandExample:
    """Worked 2-dimensional case with an explicit one-column matrix."""

    def setup_method(self):
        self.matrix = DenseMaskingMatrix(np.array([[1.0], [1.0]]))
        self.r = SecretMask(values=np.array([2.0]))
        self.u = np.array([0.6, 0.8])

    def test_mask(self):
        z = mask(self.u, self.matrix, self.r)
        np.testing.assert_allclose(z.values, [2.6, 2.8], atol=1e-15)

    def test_mask_block_masks_each_column(self):
        u = np.column_stack([self.u, [1.0, 0.0]])
        r = SecretMask(values=np.array([[2.0, -1.0]]))
        z = mask(u, self.matrix, r)
        np.testing.assert_allclose(z.values, [[2.6, 0.0], [2.8, -1.0]], atol=1e-15)

    def test_respond_and_recover(self):
        z = mask(self.u, self.matrix, self.r)
        v = DocumentVector(dims=2, indices=np.array([0]), weights=np.array([1.0]))
        reply = respond(z, v, self.matrix)
        assert reply.s == pytest.approx(2.6)
        np.testing.assert_allclose(reply.t, [1.0])
        assert recover(reply, self.r) == pytest.approx(0.6, abs=1e-12)


class TestExactRecovery:
    def test_random_trials_match_plain_dot(self):
        """1000 trials: recovered product equals the plain dot product."""
        rng = np.random.default_rng(23)
        matrix = SharedRandomMatrix(555, 120)
        for _ in range(1000):
            u = random_document(rng, 120, int(rng.integers(1, 60)))
            v = random_document(rng, 120, int(rng.integers(1, 60)))
            r = SecretMask.draw(matrix.cols, rng)
            z = mask(u.to_dense(), matrix, r)
            delta = recover(respond(z, v, matrix), r)
            expected = float(u.to_dense() @ v.to_dense())
            assert abs(delta - expected) <= 1e-9 * (1.0 + abs(expected))

    def test_zero_document_recovers_zero(self):
        matrix = SharedRandomMatrix(2, 8)
        rng = np.random.default_rng(2)
        r = SecretMask.draw(matrix.cols, rng)
        u = random_document(rng, 8, 4)
        z = mask(u.to_dense(), matrix, r)
        empty = DocumentVector(
            dims=8,
            indices=np.empty(0, np.int64),
            weights=np.empty(0),
            degenerate=True,
        )
        reply = respond(z, empty, matrix)
        assert recover(reply, r) == 0.0

    def test_norm_travels_when_requested(self):
        matrix = SharedRandomMatrix(3, 6)
        rng = np.random.default_rng(3)
        v = random_document(rng, 6, 3)
        z = mask(np.zeros(6), matrix, SecretMask.draw(matrix.cols, rng))
        reply = respond(z, v, matrix, include_norm=True)
        assert reply.norm_v2 == pytest.approx(float(v.weights @ v.weights))
        assert respond(z, v, matrix).norm_v2 is None


class TestCostAccounting:
    def test_cost_tracks_nonzeros_not_dims(self):
        """Responding for a sparse document costs nnz * (1 + cols) products."""
        n = 400
        matrix = SharedRandomMatrix(31, n)
        rng = np.random.default_rng(4)
        z = mask(np.zeros(n), matrix, SecretMask.draw(matrix.cols, rng))
        for nnz in (1, 7, 50):
            v = random_document(rng, n, nnz)
            ops = OpCounter()
            respond(z, v, matrix, ops=ops)
            assert ops.mults == nnz * (1 + matrix.cols)
            ops = OpCounter()
            respond(z, v, matrix, include_norm=True, ops=ops)
            assert ops.mults == nnz * (2 + matrix.cols)

    def test_mask_dimension_mismatch(self):
        matrix = SharedRandomMatrix(1, 4)
        with pytest.raises(DimensionError):
            mask(np.zeros(5), matrix, SecretMask(values=np.zeros(matrix.cols)))
        with pytest.raises(DimensionError):
            mask(np.zeros(4), matrix, SecretMask(values=np.zeros(3)))
        with pytest.raises(DimensionError):
            mask(np.zeros((4, 3)), matrix, SecretMask(values=np.zeros((matrix.cols, 2))))
        with pytest.raises(DimensionError):
            mask(np.zeros(4), matrix, SecretMask(values=np.zeros((matrix.cols, 1))))

    def test_respond_dimension_mismatch(self):
        matrix = SharedRandomMatrix(1, 4)
        rng = np.random.default_rng(5)
        z = mask(np.zeros(4), matrix, SecretMask.draw(matrix.cols, rng))
        v = random_document(rng, 6, 2)
        with pytest.raises(DimensionError):
            respond(z, v, matrix)


class TestSecretMask:
    def test_draw_is_deterministic_per_generator_state(self):
        a = SecretMask.draw(10, np.random.default_rng(77))
        b = SecretMask.draw(10, np.random.default_rng(77))
        np.testing.assert_array_equal(a.values, b.values)
        assert np.all(np.abs(a.values) <= 1.0)
