"""Masked scalar product: exactness, determinism, and cost accounting."""

import tracemalloc

import numpy as np
import pytest
from numpy.random import Philox

from ssdd import masking
from ssdd.decide import recover
from ssdd.errors import DimensionError, RangeError
from ssdd.masking import SharedRandomMatrix, mask
from ssdd.protocol.messages import FilterQuery, FullQuery
from ssdd.protocol.session import BobResponder, SessionConfig, _secret_mask
from ssdd.selection import SelectionMethod
from ssdd.vectors import PackedDocs

from conftest import build_document_vector, fwht, pack, random_document, respond


def sylvester(size: int) -> np.ndarray:
    """The size x size Sylvester Hadamard matrix, size a power of two."""
    h = np.ones((1, 1))
    while len(h) < size:
        h = np.block([[h, h], [h, -h]])
    return h


def packed(*rows) -> PackedDocs:
    """Dense rows of one width as a PackedDocs of their nonzero entries."""
    rows = np.array(rows, dtype=np.float64)
    owner, indices = np.nonzero(rows)
    indptr = np.searchsorted(owner, np.arange(len(rows) + 1)).astype(np.int64)
    return PackedDocs(rows.shape[1], indptr, indices, rows[owner, indices])


def dense(matrix: SharedRandomMatrix) -> np.ndarray:
    """All of A, from the closed form."""
    return matrix.rows_for(np.arange(matrix.rows)).astype(np.float64)


def assert_batch_invariant(matrix, docs, r, documents, queries):
    """t_j for each document j in ``documents``, and column q of A R for
    each q in ``queries``, has the same bits alone as in the whole batch;
    so do the last half of the documents, reversed, and the middle columns
    of r."""
    t = matrix.transpose_apply_packed(docs)
    for j in documents:
        alone = matrix.transpose_apply_packed(docs.take([j]))
        np.testing.assert_array_equal(alone[0], t[j])
    tail = np.arange(len(docs) - 1, len(docs) // 2 - 1, -1)
    np.testing.assert_array_equal(matrix.transpose_apply_packed(docs.take(tail)), t[tail])
    z = matrix.matvec(r)
    for q in queries:
        np.testing.assert_array_equal(matrix.matvec(r[:, q]), z[:, q])
    k = r.shape[1]
    middle = slice(k // 4, k - k // 4)
    np.testing.assert_array_equal(matrix.matvec(r[:, middle]), z[:, middle])


# powers of two and not, from the one-entry matrix up
SIZES = (1, 2, 3, 5, 37, 64, 65, 130)


class TestSharedRandomMatrix:
    def test_shape_uses_half_width(self):
        assert SharedRandomMatrix(1, 10).cols == 5
        assert SharedRandomMatrix(1, 11).cols == 6
        assert SharedRandomMatrix(1, 1).cols == 1

    def test_zero_length_rejected(self):
        with pytest.raises(RangeError):
            SharedRandomMatrix(1, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(RangeError, match="seed must fit in 64 bits"):
            SharedRandomMatrix(seed, 4)

    def test_entries_are_signs_and_seed_determined(self):
        a = SharedRandomMatrix(99, 40)
        b = SharedRandomMatrix(99, 40)
        block = a.rows_for(np.arange(40))
        assert block.dtype == np.int8
        assert np.all(np.abs(block) == 1)
        np.testing.assert_array_equal(block, b.rows_for(np.arange(40)))
        c = SharedRandomMatrix(100, 40)
        assert not np.array_equal(block, c.rows_for(np.arange(40)))

    # (seed, rows, row) -> the first signs of the row (all of it when it
    # has at most 40 entries).  They pin R, C and the signs, all drawn from
    # raw Philox words, so a change in how numpy produces or sorts them
    # fails here on every numpy version CI runs.
    PINNED = {
        (7, 30, 0): "-++++--++-++++-",
        (7, 30, 1): "-+-+-++-++-----",
        (7, 30, 17): "--+---+-+--+-++",
        (7, 30, 29): "-++-+++-++-++++",
        (2**64 - 1, 20, 0): "+-----+-++",
        (2**64 - 1, 20, 6): "++-+++-+--",
        (2**64 - 1, 20, 19): "-+++---+-+",
        (5, 3, 2): "-+",
        (11, 1, 0): "-",
        (0, 6906, 0): "+-+-+++---+--++++---+--+++-++++--+----+-",
        (0, 6906, 6905): "+------++-+++-+---++-++++--+-+++--++--++",
    }

    def test_pinned_entries(self):
        """Fixed +-1 entries of A, read alone and among other rows, and
        through the transform as the product with unit vectors."""
        for (seed, rows, i), signs in self.PINNED.items():
            expected = [1 if c == "+" else -1 for c in signs]
            matrix = SharedRandomMatrix(seed, rows)
            width = len(expected)
            assert width == min(matrix.cols, 40)
            assert matrix.rows_for(np.array([i]))[0, :width].tolist() == expected
            assert matrix.rows_for(np.array([i, 0, i]))[2, :width].tolist() == expected
            units = np.eye(matrix.cols, width)
            assert matrix.matvec(units)[i].tolist() == expected

    def test_entries_are_the_hadamard_closed_form(self):
        """A = D_r H[R, C] D_c: the first N raw Philox words rank H's rows
        and R takes the first n of them, the next N rank its columns and C
        takes the first ceil(n/2), and the lowest bits of the next
        n + ceil(n/2) words are d_r and d_c (set meaning -1)."""
        for seed in (7, 2**64 - 1):
            for rows in (1, 37, 64):
                matrix = SharedRandomMatrix(seed, rows)
                size, cols = 1 << (rows - 1).bit_length(), (rows + 1) // 2
                assert matrix.size == size
                words = Philox(key=seed).random_raw(2 * size + rows + cols)
                row_of = np.argsort(words[:size], kind="stable")[:rows]
                col_of = np.argsort(words[size : 2 * size], kind="stable")[:cols]
                signs = np.where(words[2 * size :] & np.uint64(1), -1.0, 1.0)
                h = sylvester(size)[np.ix_(row_of, col_of)]
                expected = signs[:rows, None] * h * signs[rows:]
                np.testing.assert_array_equal(dense(matrix), expected)

    @pytest.mark.parametrize("size", [2, 9, 100, 8192])
    def test_ranking_of_tied_words_is_stable(self, size):
        """Equal words rank in index order, as a stable sort ranks them, and
        distinct words rank as any sort ranks them.  numpy's default sort
        need not keep tied words in index order (at 8,192 words of 8 values
        numpy 2.4's does not)."""
        rng = np.random.default_rng(size)
        tied = rng.integers(0, 8, size).astype(np.uint64)
        tied[:2] = 3  # a tie even at size 2
        stable = np.argsort(tied, kind="stable")
        np.testing.assert_array_equal(masking._ranking(tied), stable)
        distinct = rng.permutation(size).astype(np.uint64) << np.uint64(40)
        np.testing.assert_array_equal(
            masking._ranking(distinct), np.argsort(distinct, kind="stable")
        )

    @pytest.mark.parametrize("rows", SIZES)
    def test_transform_matches_rows_for(self, rows):
        """The fast transforms compute the products of the closed-form
        entries, for A r, A R and A^T v."""
        rng = np.random.default_rng(rows)
        matrix = SharedRandomMatrix(13, rows)
        a = dense(matrix)
        r = rng.uniform(-1, 1, matrix.cols)
        np.testing.assert_allclose(matrix.matvec(r), a @ r, rtol=0, atol=1e-12)
        block = rng.uniform(-1, 1, (matrix.cols, 4))
        np.testing.assert_allclose(matrix.matvec(block), a @ block, rtol=0, atol=1e-12)
        docs = [
            random_document(rng, rows, int(rng.integers(1, rows + 1))) for _ in range(20)
        ]
        docs.insert(3, build_document_vector({}, rows))
        t = matrix.transpose_apply_packed(pack(docs, rows))
        expected = np.array([d.dense()[0] @ a for d in docs])
        np.testing.assert_allclose(t, expected, rtol=0, atol=1e-12)

    def test_full_column_rank(self):
        """Recovery is exact for any A, but a rank-deficient A masks fewer
        directions of u.  Not every (n, seed) gives full rank at small n: 9
        of the 7,000 with n <= 70 and seeds 0-99 lose one column."""
        for rows in range(1, 71):
            for seed in (0, 2**64 - 1):
                matrix = SharedRandomMatrix(seed, rows)
                assert np.linalg.matrix_rank(dense(matrix)) == matrix.cols, (rows, seed)

    def test_products_are_batch_invariant(self):
        """Each column is transformed on its own: t_j has the same bits
        whether document j is transformed alone or in a batch, and column q
        of A R whether query q is masked alone or with the others."""
        rng = np.random.default_rng(8)
        matrix = SharedRandomMatrix(3, 300)
        docs = [random_document(rng, 300, int(rng.integers(1, 60))) for _ in range(40)]
        docs = pack(docs, 300)
        t = matrix.transpose_apply_packed(docs)
        for j in (0, 15, 16, 39):
            alone = matrix.transpose_apply_packed(docs.take([j]))
            np.testing.assert_array_equal(alone[0], t[j])
        tail = matrix.transpose_apply_packed(docs.take(np.arange(39, 9, -1)))
        np.testing.assert_array_equal(tail, t[39:9:-1])
        r = rng.uniform(-1, 1, (matrix.cols, 7))
        z = matrix.matvec(r)
        for q in range(7):
            np.testing.assert_array_equal(matrix.matvec(r[:, q]), z[:, q])
        np.testing.assert_array_equal(matrix.matvec(r[:, 2:5]), z[:, 2:5])

    def test_transpose_apply_packed_matches_per_vector(self):
        """Row i of the batch is A^T v_i, the reference respond()'s t."""
        rng = np.random.default_rng(3)
        docs = [random_document(rng, 57, int(rng.integers(1, 12))) for _ in range(6)]
        docs.insert(2, build_document_vector({}, 57))
        matrix = SharedRandomMatrix(13, 57)
        expected = [respond(np.zeros(57), d, matrix)[1] for d in docs]
        t = matrix.transpose_apply_packed(pack(docs, 57))
        np.testing.assert_allclose(t, expected, rtol=0, atol=1e-12)
        assert t[2].tolist() == [0.0] * matrix.cols
        none = matrix.transpose_apply_packed(pack([], 57))
        assert none.shape == (0, matrix.cols)

    def test_matvec_rejects_bad_mask_shapes(self):
        matrix = SharedRandomMatrix(3, 8)
        assert matrix.cols == 4
        for shape in ((5,), (5, 2), (4, 2, 1), ()):
            with pytest.raises(DimensionError):
                matrix.matvec(np.zeros(shape))

    def test_out_of_range_entry(self):
        m = SharedRandomMatrix(5, 4)
        for rows in ([4], [0, 5], [-1], [3, -2]):
            with pytest.raises(RangeError):
                m.rows_for(np.array(rows))
        assert m.rows_for(np.array([], dtype=np.int64)).shape == (0, m.cols)

    def test_products_hold_no_matrix(self):
        """A R and A^T v allocate a few transform blocks, (N, k) floats,
        never anything the size of A: at KOS's n = 6906 (N = 8192) even A's
        int8 entries would take 24 MB."""
        matrix = SharedRandomMatrix(3, 6906)
        rng = np.random.default_rng(4)
        r = rng.uniform(-1, 1, (matrix.cols, 10))
        docs = pack([random_document(rng, 6906, 100) for _ in range(40)], 6906)
        cases = (
            (lambda: matrix.matvec(r), 10),
            (lambda: matrix.transpose_apply_packed(docs), masking.BATCH),
        )
        for apply, k in cases:
            tracemalloc.start()
            try:
                apply()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            block = matrix.size * k * 8
            assert peak <= 4 * block, peak / block


class TestTransform:
    """The Kronecker-factored transform against the radix-2 butterfly."""

    def test_reference_is_sylvester(self):
        """On small integers, where every sum is exact."""
        rng = np.random.default_rng(2)
        for size in (1, 2, 4, 32, 64):
            x = rng.integers(-9, 10, (size, 3)).astype(np.float64)
            expected = sylvester(size) @ x
            fwht(x)
            np.testing.assert_array_equal(x, expected)

    def test_factors(self):
        """m = ceil(log2 N / 5) factors of at most 32: KOS's N = 8192 is
        16 * 16 * 32, NIPS's 16384 is 16 * 32 * 32."""
        assert masking._factors(1) == []
        assert masking._factors(2) == [2]
        assert masking._factors(32) == [32]
        assert masking._factors(64) == [8, 8]
        assert masking._factors(8192) == [16, 16, 32]
        assert masking._factors(16384) == [16, 32, 32]
        assert masking._factors(1 << 17) == [16, 16, 16, 32]
        for bits in range(18):
            factors = masking._factors(1 << bits)
            assert np.prod(factors, dtype=np.int64) == 1 << bits
            assert len(factors) == -(-bits // 5) and max(factors, default=1) <= 32

    @pytest.mark.parametrize("bits", range(18))
    def test_matches_butterfly(self, bits):
        """Every N from 2^0 to 2^17, 0 to 4 factors.  Each output is a tree
        of sums, m of at most 32 terms against log2(N) of two, so the two
        differ by at most about (sum a_i + log2 N) u sum|x|."""
        size = 1 << bits
        rng = np.random.default_rng(bits)
        x = rng.standard_normal((3, size))
        expected = x.T.copy()
        fwht(expected)
        got = masking._fwht(x.copy(), np.empty_like(x))
        unit = np.finfo(np.float64).eps / 2
        terms = sum(masking._factors(size)) + bits
        bound = terms * unit * np.abs(x).sum(axis=1, keepdims=True)
        assert np.all(np.abs(got - expected.T) <= bound)

    @pytest.mark.parametrize("rows", (6906, 70_000))
    def test_products_are_batch_invariant_at_size(self, rows):
        """As test_products_are_batch_invariant, at KOS's n (3 factors) and
        at an n of 4 factors (N = 2^17)."""
        rng = np.random.default_rng(rows)
        matrix = SharedRandomMatrix(5, rows)
        docs = pack([random_document(rng, rows, 100) for _ in range(40)], rows)
        r = rng.uniform(-1, 1, (matrix.cols, 10))
        assert_batch_invariant(matrix, docs, r, (0, 15, 16, 39), (0, 7, 8, 9))

    @pytest.mark.parametrize("rows", (3, 300, 6906))
    def test_every_batch_size_is_invariant(self, rows):
        """Batches of 1 to 17 vectors, up to a full chunk of BATCH and one
        short chunk after it: each t_j, and each column of A R, has the bits
        it has alone.  The first CI step runs this with BLAS at its default
        thread count, the second with one thread."""
        assert masking.BATCH < 17
        rng = np.random.default_rng(rows + 1)
        matrix = SharedRandomMatrix(11, rows)
        docs = [random_document(rng, rows, int(rng.integers(1, rows // 3 + 2)))
                for _ in range(17)]
        docs = pack(docs, rows)
        r = rng.uniform(-1, 1, (matrix.cols, 17))
        t_alone = [matrix.transpose_apply_packed(docs.take([j]))[0] for j in range(17)]
        z_alone = [matrix.matvec(r[:, q]) for q in range(17)]
        for k in range(1, 18):
            t = matrix.transpose_apply_packed(docs.take(np.arange(k)))
            z = matrix.matvec(r[:, :k])
            for j in range(k):
                np.testing.assert_array_equal(t[j], t_alone[j])
                np.testing.assert_array_equal(z[:, j], z_alone[j])


class TestHandExample:
    """Worked 2-dimensional case on a one-column matrix (a0, a1)."""

    def setup_method(self):
        self.matrix = SharedRandomMatrix(17, 2)
        assert self.matrix.cols == 1
        self.a0, self.a1 = self.matrix.rows_for(np.arange(2))[:, 0]
        self.r = np.array([2.0])
        self.u = packed([0.6, 0.8])

    def test_mask(self):
        z = mask(self.u, self.matrix, self.r[:, None])[:, 0]
        np.testing.assert_allclose(
            z, [0.6 + 2.0 * self.a0, 0.8 + 2.0 * self.a1], atol=1e-15
        )

    def test_mask_block_masks_each_column(self):
        u = packed([0.6, 0.8], [1.0, 0.0])
        z = mask(u, self.matrix, np.array([[2.0, -1.0]]))
        np.testing.assert_allclose(
            z,
            [[0.6 + 2.0 * self.a0, 1.0 - self.a0], [0.8 + 2.0 * self.a1, -self.a1]],
            atol=1e-15,
        )

    def test_respond_and_recover(self):
        z = mask(self.u, self.matrix, self.r[:, None])[:, 0]
        v = build_document_vector({0: 1}, 2)
        s, t = respond(z, v, self.matrix)
        assert s == pytest.approx(0.6 + 2.0 * self.a0, abs=1e-15)
        np.testing.assert_allclose(t, [self.a0], atol=1e-15)
        assert recover(s, t, self.r) == pytest.approx(0.6, abs=1e-12)


class TestPackedMask:
    @pytest.mark.parametrize("k", [1, 16, 17, 40])
    def test_has_the_bits_of_the_dense_sum(self, k):
        """mask(docs, A, R) has the bits of docs.dense().T + A R for batches
        on both sides of ``BATCH``, an empty document among them, and each
        column of z is contiguous, so a FullQuery's z goes out as a lent
        part of its frame.  CI runs this with one BLAS thread too."""
        assert masking.BATCH < 17
        rows = 300
        rng = np.random.default_rng(k)
        matrix = SharedRandomMatrix(5, rows)
        docs = [random_document(rng, rows, int(rng.integers(1, 60))) for _ in range(k)]
        if k > 1:
            docs[k // 2] = build_document_vector({}, rows)
        docs = pack(docs, rows)
        r = rng.uniform(-1.0, 1.0, (matrix.cols, k))
        z = mask(docs, matrix, r)
        assert z.tobytes() == (docs.dense().T + matrix.matvec(r)).tobytes()
        assert all(z[:, j].flags.c_contiguous for j in range(k))


class TestExactRecovery:
    def test_random_trials_match_plain_dot(self):
        """1000 trials: recovered product equals the plain dot product."""
        rng = np.random.default_rng(23)
        matrix = SharedRandomMatrix(555, 120)
        for _ in range(1000):
            u = random_document(rng, 120, int(rng.integers(1, 60)))
            v = random_document(rng, 120, int(rng.integers(1, 60)))
            r = rng.uniform(-1.0, 1.0, matrix.cols)
            z = mask(u, matrix, r[:, None])[:, 0]
            delta = recover(*respond(z, v, matrix), r)
            expected = float(u.dense()[0] @ v.dense()[0])
            assert abs(delta - expected) <= 1e-9 * (1.0 + abs(expected))

    def test_zero_document_recovers_zero(self):
        matrix = SharedRandomMatrix(2, 8)
        rng = np.random.default_rng(2)
        r = rng.uniform(-1.0, 1.0, matrix.cols)
        u = random_document(rng, 8, 4)
        z = mask(u, matrix, r[:, None])[:, 0]
        empty = build_document_vector({}, 8)
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
        z = mask(random_document(rng, 40, 9), matrix, r[:, None])[:, 0]
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

    def test_filter_cost_is_the_corpus_entries_on_the_set(self):
        """Over a corpus, a filter query costs (2 + ceil(f/2)) products for
        each stored entry on the set's dimensions: the sum of their
        document frequencies, empty documents and absent terms adding 0."""
        n, f = 300, 15
        rng = np.random.default_rng(9)
        docs = [random_document(rng, n, int(rng.integers(1, 80))) for _ in range(25)]
        docs.insert(7, build_document_vector({}, n))
        corpus = pack(docs, n)
        config = SessionConfig(n=n, epsilon=0.5, method=SelectionMethod.HF, f=f)
        bob = BobResponder(corpus, dims=n)
        bob.handle(config.hello())
        df = corpus.document_frequency
        absent = np.flatnonzero(df == 0)[:3]
        present = rng.choice(np.flatnonzero(df), f - absent.size, replace=False)
        indexes = np.union1d(absent, present)
        bob.handle(FilterQuery(query_id=0, indexes=indexes, z=np.ones(f)))
        entries = int(df[indexes].sum())
        assert entries == np.count_nonzero(corpus.dense()[:, indexes])
        assert bob.scalar_mult_count == entries * (2 + (f + 1) // 2)

    def test_mask_dimension_mismatch(self):
        matrix = SharedRandomMatrix(1, 4)
        with pytest.raises(DimensionError):
            mask(packed(np.zeros(5)), matrix, np.zeros((matrix.cols, 1)))
        with pytest.raises(DimensionError):
            mask(packed(np.zeros(4)), matrix, np.zeros((3, 1)))
        with pytest.raises(DimensionError):
            mask(packed(*np.zeros((3, 4))), matrix, np.zeros((matrix.cols, 2)))
        with pytest.raises(DimensionError):
            mask(packed(np.zeros(4)), matrix, np.zeros(matrix.cols))

    def test_respond_dimension_mismatch(self):
        matrix = SharedRandomMatrix(1, 4)
        rng = np.random.default_rng(5)
        r = rng.uniform(-1.0, 1.0, (matrix.cols, 1))
        z = mask(packed(np.zeros(4)), matrix, r)[:, 0]
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
