"""Masked scalar product: exactness, determinism, and cost accounting."""

import tracemalloc

import numpy as np
import pytest
from numpy.random import Philox

from ssdd import masking
from ssdd.errors import DimensionError, RangeError
from ssdd.masking import SharedRandomMatrix, mask, recover
from ssdd.protocol.messages import FilterQuery, FullQuery
from ssdd.protocol.session import BobResponder, SessionConfig, _secret_mask
from ssdd.selection import SelectionMethod
from ssdd.corpus import build_document_vector
from ssdd.vectors import DocumentVector, pack

from conftest import random_document, respond


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

    def test_entries_are_signs_and_seed_determined(self):
        a = SharedRandomMatrix(99, 40)
        b = SharedRandomMatrix(99, 40)
        block = a.row_block(0, 40)
        assert np.all(np.abs(block) == 1)
        np.testing.assert_array_equal(block, b.row_block(0, 40))
        c = SharedRandomMatrix(100, 40)
        assert not np.array_equal(block, c.row_block(0, 40))

    # (seed, rows, row) -> the row's signs, entry k of the row-major matrix
    # being +1 when bit k of the seed's Philox stream is set.  With 15
    # columns, row 0 holds bits 0-14 (offsets 0 and 1 in word 0), row 1
    # starts mid-word, row 4 holds bits 60-74 across words 0 and 1 (offsets
    # 63 and 64), row 17 bits 255-269 across the first two 4-word Philox
    # blocks, row 29 the last bits; with 10 columns row 6 holds bits 60-69.
    PINNED = {
        (7, 30, 0): "--+--+-+++-++++",
        (7, 30, 1): "++--+-++++--+-+",
        (7, 30, 4): "+-+++++----+---",
        (7, 30, 17): "--++--+++---+-+",
        (7, 30, 29): "++-++++-+--+-+-",
        (2**64 - 1, 20, 0): "++-+++++++",
        (2**64 - 1, 20, 6): "++--+++-+-",
        (2**64 - 1, 20, 19): "+--+++++++",
    }

    def test_pinned_entries(self):
        """Fixed +-1 rows of A, read materialized and streamed, from block
        starts aligned and not aligned to a 64-bit word, and as int8."""
        for (seed, rows, i), signs in self.PINNED.items():
            expected = [1 if c == "+" else -1 for c in signs]
            for matrix in (SharedRandomMatrix(seed, rows), streamed_matrix(seed, rows)):
                assert matrix.row_block(i, i + 1)[0].tolist() == expected
                assert matrix.row_block(0, i + 1)[i].tolist() == expected
                assert matrix.row_block(max(i - 1, 0), rows)[min(i, 1)].tolist() == expected
                assert matrix.rows_for(np.array([i]))[0].tolist() == expected
                assert matrix.row_block(i, i + 1).dtype == np.int8

    def test_entries_are_the_stream_bits(self):
        """Entry k is +1 or -1 as bit k % 64 of Philox word k // 64 is set or
        clear, for every entry of a matrix over several Philox blocks."""
        for seed in (7, 2**64 - 1):
            matrix = SharedRandomMatrix(seed, 41)
            k = np.arange(matrix.rows * matrix.cols)
            words = Philox(key=seed).random_raw(-(-k.size // 64))
            bits = (words[k // 64] >> (k % 64).astype(np.uint64)) & np.uint64(1)
            expected = np.where(bits == 1, 1, -1).reshape(matrix.rows, matrix.cols)
            np.testing.assert_array_equal(matrix.row_block(0, matrix.rows), expected)
            np.testing.assert_array_equal(
                streamed_matrix(seed, 41).row_block(0, matrix.rows), expected
            )

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

    def test_transpose_apply_packed_matches_per_vector(self, monkeypatch):
        """Row i of the batch is A^T v_i; a streamed matrix generates each
        distinct row once, one chunk at a time."""
        rng = np.random.default_rng(3)
        docs = [random_document(rng, 57, int(rng.integers(1, 12))) for _ in range(6)]
        docs.insert(2, build_document_vector({}, 57))
        packed = pack(docs, 57)
        indices = packed.indices
        cached, streamed = SharedRandomMatrix(13, 57), streamed_matrix(13, 57)
        expected = [respond(np.zeros(57), d, cached)[1] for d in docs]
        monkeypatch.setattr(masking, "STREAM_CHUNK_ENTRIES", 3 * cached.cols)
        generated = []
        rows_for = streamed.rows_for

        def counting(rows):
            generated.append(rows.tolist())
            return rows_for(rows)

        monkeypatch.setattr(streamed, "rows_for", counting)
        for matrix in (cached, streamed):
            t = matrix.transpose_apply_packed(packed)
            np.testing.assert_allclose(t, expected, rtol=0, atol=1e-12)
            none = matrix.transpose_apply_packed(pack([], 57))
            assert none.shape == (0, cached.cols)
        assert all(len(rows) <= 3 for rows in generated)
        assert sum(generated, []) == np.unique(indices).tolist()

    def test_matvec_rejects_bad_mask_shapes(self):
        for matrix in (SharedRandomMatrix(3, 8), streamed_matrix(3, 8)):
            assert matrix.cols == 4
            for shape in ((5,), (5, 2), (4, 2, 1), ()):
                with pytest.raises(DimensionError):
                    matrix.matvec(np.zeros(shape))

    def test_out_of_range_entry(self):
        for m in (SharedRandomMatrix(5, 4), streamed_matrix(5, 4)):
            for start, stop in ((4, 5), (0, 5), (-1, 1), (3, 2)):
                with pytest.raises(RangeError):
                    m.row_block(start, stop)

    def test_materialized_matrix_is_read_only(self):
        """Every session in the process shares the materialized A."""
        block = SharedRandomMatrix(5, 40).row_block(2, 6)
        with pytest.raises(ValueError):
            block[0, 0] = 0.0
        with pytest.raises(ValueError):
            block *= 2.0

    def test_generation_peaks_at_the_entries_it_returns(self):
        """Materializing A, or streaming a block of it, allocates little
        beyond the entries themselves: one int8 each, plus the random words
        they come from (one bit each)."""
        cases = (
            (SharedRandomMatrix(3, 1001), 1, 1001),  # one row materializes all
            (streamed_matrix(3, 1001), 700, 700),
        )
        for matrix, stop, generated in cases:
            size = generated * matrix.cols
            masking.clear_matrix_cache()
            tracemalloc.start()
            try:
                matrix.row_block(0, stop)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 1.2 * size, peak / size


class TestHandExample:
    """Worked 2-dimensional case on a one-column matrix (a0, a1)."""

    def setup_method(self):
        self.matrix = SharedRandomMatrix(17, 2)
        assert self.matrix.cols == 1
        self.a0, self.a1 = self.matrix.row_block(0, 2)[:, 0]
        self.r = np.array([2.0])
        self.u = np.array([0.6, 0.8])

    def test_mask(self):
        z = mask(self.u, self.matrix, self.r)
        np.testing.assert_allclose(
            z, [0.6 + 2.0 * self.a0, 0.8 + 2.0 * self.a1], atol=1e-15
        )

    def test_mask_block_masks_each_column(self):
        u = np.column_stack([self.u, [1.0, 0.0]])
        z = mask(u, self.matrix, np.array([[2.0, -1.0]]))
        np.testing.assert_allclose(
            z,
            [[0.6 + 2.0 * self.a0, 1.0 - self.a0], [0.8 + 2.0 * self.a1, -self.a1]],
            atol=1e-15,
        )

    def test_respond_and_recover(self):
        z = mask(self.u, self.matrix, self.r)
        v = DocumentVector(dims=2, indices=np.array([0]), weights=np.array([1.0]))
        s, t = respond(z, v, self.matrix)
        assert s == pytest.approx(0.6 + 2.0 * self.a0, abs=1e-15)
        np.testing.assert_allclose(t, [self.a0], atol=1e-15)
        assert recover(s, t, self.r) == pytest.approx(0.6, abs=1e-12)


class TestExactRecovery:
    def test_random_trials_match_plain_dot(self):
        """1000 trials: recovered product equals the plain dot product."""
        rng = np.random.default_rng(23)
        matrix = SharedRandomMatrix(555, 120)
        for _ in range(1000):
            u = random_document(rng, 120, int(rng.integers(1, 60)))
            v = random_document(rng, 120, int(rng.integers(1, 60)))
            r = rng.uniform(-1.0, 1.0, matrix.cols)
            z = mask(u.to_dense(), matrix, r)
            delta = recover(*respond(z, v, matrix), r)
            expected = float(u.to_dense() @ v.to_dense())
            assert abs(delta - expected) <= 1e-9 * (1.0 + abs(expected))

    def test_zero_document_recovers_zero(self):
        matrix = SharedRandomMatrix(2, 8)
        rng = np.random.default_rng(2)
        r = rng.uniform(-1.0, 1.0, matrix.cols)
        u = random_document(rng, 8, 4)
        z = mask(u.to_dense(), matrix, r)
        empty = DocumentVector(
            dims=8,
            indices=np.empty(0, np.int64),
            weights=np.empty(0),
        )
        s, t = respond(z, empty, matrix)
        assert (s, t.tolist()) == (0.0, [0.0] * matrix.cols)
        assert recover(s, t, r) == 0.0

    def test_norm_travels_when_requested(self):
        """The filter round's reply carries each projected squared norm; the
        full round's carries none."""
        rng = np.random.default_rng(3)
        v = random_document(rng, 6, 3)
        config = SessionConfig(n=6, epsilon=0.5, method=SelectionMethod.LF, f=3)
        bob = BobResponder(pack([v], 6), dims=6)
        bob.handle(config.hello())
        reply = bob.handle(FilterQuery(query_id=0, indexes=v.indices, z=np.ones(3)))
        assert reply.norm_v2.tolist() == pytest.approx([float(v.weights @ v.weights)])
        full = FullQuery(query_id=0, survivor_ids=np.array([0]), z=np.ones(6))
        assert not hasattr(bob.handle(full), "norm_v2")

    def test_block_recovery_matches_per_document(self):
        """k replies recover at once as s - T r, row j equal to document j's."""
        matrix = SharedRandomMatrix(6, 40)
        rng = np.random.default_rng(6)
        r = rng.uniform(-1.0, 1.0, matrix.cols)
        z = mask(random_document(rng, 40, 9).to_dense(), matrix, r)
        replies = [respond(z, random_document(rng, 40, 5), matrix) for _ in range(4)]
        s = np.array([s for s, _ in replies])
        t = np.array([t for _, t in replies])
        one_by_one = [recover(s_j, t_j, r) for s_j, t_j in replies]
        np.testing.assert_array_equal(recover(s, t, r), one_by_one)


class TestCostAccounting:
    def test_cost_tracks_nonzeros_not_dims(self):
        """Responding for a sparse document costs nnz * (1 + cols) products,
        plus nnz for its projected norm in the filter round."""
        n = 400
        rng = np.random.default_rng(4)
        for nnz in (1, 7, 50):
            v = random_document(rng, n, nnz)
            config = SessionConfig(n=n, epsilon=0.5, method=SelectionMethod.LF, f=nnz)
            bob = BobResponder(pack([v], n), dims=n)
            bob.handle(config.hello())
            bob.handle(FilterQuery(query_id=0, indexes=v.indices, z=np.zeros(nnz)))
            fs_cost = nnz * (2 + (nnz + 1) // 2)
            assert bob.scalar_mult_count == fs_cost
            bob.handle(FullQuery(query_id=0, survivor_ids=np.array([0]), z=np.zeros(n)))
            assert bob.scalar_mult_count == fs_cost + nnz * (1 + (n + 1) // 2)

    def test_mask_dimension_mismatch(self):
        matrix = SharedRandomMatrix(1, 4)
        with pytest.raises(DimensionError):
            mask(np.zeros(5), matrix, np.zeros(matrix.cols))
        with pytest.raises(DimensionError):
            mask(np.zeros(4), matrix, np.zeros(3))
        with pytest.raises(DimensionError):
            mask(np.zeros((4, 3)), matrix, np.zeros((matrix.cols, 2)))
        with pytest.raises(DimensionError):
            mask(np.zeros(4), matrix, np.zeros((matrix.cols, 1)))

    def test_respond_dimension_mismatch(self):
        matrix = SharedRandomMatrix(1, 4)
        rng = np.random.default_rng(5)
        z = mask(np.zeros(4), matrix, rng.uniform(-1.0, 1.0, matrix.cols))
        v = random_document(rng, 6, 2)
        with pytest.raises(DimensionError):
            respond(z, v, matrix)
        with pytest.raises(DimensionError):
            respond(np.zeros(5), random_document(rng, 4, 2), matrix)


class TestSecretMask:
    def test_draw_is_deterministic_per_generator_state(self):
        """Alice's mask r is a pure function of (seed, seed + 1, query id,
        step): uniform(-1, 1) from a generator seeded with them."""
        config = SessionConfig(n=20, epsilon=0.5, seed=5)
        a = _secret_mask(config, 3, 1, 10)
        np.testing.assert_array_equal(a, _secret_mask(config, 3, 1, 10))
        seq = np.random.SeedSequence([5, 6, 3, 1])
        np.testing.assert_array_equal(
            a, np.random.default_rng(seq).uniform(-1.0, 1.0, 10)
        )
        assert a.shape == (10,) and np.all(np.abs(a) <= 1.0)
        for other in (_secret_mask(config, 3, 2, 10), _secret_mask(config, 4, 1, 10)):
            assert not np.array_equal(a, other)
