"""Sparse vector kernels against dense oracles and hand-worked values."""

import math
import tracemalloc

import numpy as np
import pytest

from ssdd.decide import cosines
from ssdd.errors import DimensionError, RangeError
from ssdd.protocol.messages import FilterQuery
from ssdd.protocol.session import BobResponder, SessionConfig
from ssdd.selection import SelectionMethod, top_f, zscore
from ssdd.vectors import PackedDocs, project

from conftest import build_document_vector, dot, pack, random_document


class TestOneDocument:
    def test_three_four_five_normalization(self):
        """A document holds its counts; its squared norm, 25, normalizes
        them to (0.6, 0.8)."""
        vec = build_document_vector({0: 3, 1: 4}, dims=2)
        assert vec.weights.tolist() == [3, 4]
        assert vec.squared_norms.tolist() == [25.0]
        np.testing.assert_allclose(vec.weights / np.sqrt(vec.squared_norms), [0.6, 0.8], atol=1e-15)
        assert vec.nnz[0] != 0

    def test_unit_norm_within_tolerance(self):
        """The squared norm is the exact sum of squared counts, and the
        counts over its root have unit norm within rounding."""
        rng = np.random.default_rng(42)
        for _ in range(200):
            vec = random_document(rng, dims=300, nnz=int(rng.integers(1, 60)))
            counts = vec.weights.astype(np.int64)
            assert vec.squared_norms[0] == int(counts @ counts)
            unit = vec.weights / np.sqrt(vec.squared_norms[0])
            assert abs(float(unit @ unit) - 1.0) <= 1e-12

    def test_empty_document_is_degenerate_zero(self):
        vec = build_document_vector({}, dims=5)
        assert vec.nnz[0] == 0
        assert vec.nnz.tolist() == [0]
        assert np.all(vec.dense()[0] == 0.0)

    def test_unsorted_indices_rejected(self):
        with pytest.raises(RangeError):
            PackedDocs(4, np.array([0, 2]), np.array([2, 1]), np.array([1.0, 1.0])).check()

    def test_out_of_range_index_rejected(self):
        with pytest.raises(RangeError):
            PackedDocs(2, np.array([0, 1]), np.array([2]), np.array([1.0])).check()


class TestDot:
    def test_matches_dense_oracle(self):
        """1000 random instances against the dense dot product."""
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(2, 2000))
            u = random_document(rng, n, int(rng.integers(1, min(n, 80) + 1)))
            v = random_document(rng, n, int(rng.integers(1, min(n, 80) + 1)))
            expected = float(u.dense()[0] @ v.dense()[0])
            assert dot(u, v) == pytest.approx(expected, abs=1e-12)

    def test_disjoint_supports_give_zero(self):
        u = build_document_vector({0: 3, 1: 4}, 6)
        v = build_document_vector({4: 3, 5: 4}, 6)
        assert dot(u, v) == 0.0

    def test_dims_mismatch(self):
        u = build_document_vector({0: 1}, 3)
        v = build_document_vector({0: 1}, 4)
        with pytest.raises(DimensionError):
            dot(u, v)


class TestProject:
    def test_projection_picks_present_and_absent_dims(self):
        u = build_document_vector({0: 3, 1: 4}, dims=4)
        s = np.array([0, 2])
        (fv,) = project(pack([u], 4), s)
        assert fv.tolist() == [3.0, 0.0]
        assert fv @ fv == 9.0

    def test_monotone_projection_bound(self):
        """Projected squared distance never exceeds the full one."""
        rng = np.random.default_rng(3)
        for _ in range(300):
            n = int(rng.integers(4, 120))
            u = random_document(rng, n, int(rng.integers(1, n)))
            v = random_document(rng, n, int(rng.integers(1, n)))
            f = int(rng.integers(1, n + 1))
            s = np.sort(rng.choice(n, f, replace=False))
            pu, pv = project(pack([u, v], n), s)
            d = pu - pv
            d_fs = d @ d
            full = float(np.sum((u.dense()[0] - v.dense()[0]) ** 2))
            assert d_fs <= full + 1e-12

    def test_rows_are_dense_columns(self):
        rng = np.random.default_rng(4)
        docs = [random_document(rng, 40, int(rng.integers(1, 30))) for _ in range(6)]
        docs.append(build_document_vector({}, 40))
        s = np.sort(rng.choice(40, 9, replace=False))
        dense = np.array([d.dense()[0] for d in docs])
        np.testing.assert_array_equal(project(pack(docs, 40), s), dense[:, s])

    def test_absent_terms_and_the_edge_dims(self):
        """Index sets naming terms no document has, and dims 0 and n - 1,
        with empty documents first, between and last."""
        rng = np.random.default_rng(5)
        n = 60
        # terms 10..49 only, so the dims around them stay absent
        docs = [
            build_document_vector(
                {int(i): int(rng.integers(1, 9)) for i in rng.choice(40, 12) + 10}, n
            )
            for _ in range(7)
        ]
        docs.insert(0, build_document_vector({0: 2, n - 1: 3}, n))
        for at in (0, 4, len(docs) + 1):
            docs.insert(at, build_document_vector({}, n))
        packed = pack(docs, n)
        dense = np.array([d.dense()[0] for d in docs])
        absent = np.flatnonzero(~dense.any(axis=0))
        assert absent.size > 0
        for indexes in (
            [0, n - 1],
            absent[:5],
            np.union1d([0, n - 1], absent),
            np.arange(n),
            np.sort(rng.choice(n, 13, replace=False)),
        ):
            s = np.asarray(indexes)
            np.testing.assert_array_equal(project(packed, s), dense[:, s])

    def test_one_and_many_documents_and_none(self):
        """m = 0, 1 and 17 documents, bit for bit the dense columns."""
        rng = np.random.default_rng(6)
        n = 50
        s = np.sort(rng.choice(n, 11, replace=False))
        for m in (0, 1, 17):
            docs = [random_document(rng, n, int(rng.integers(1, 25))) for _ in range(m)]
            dense = np.array([d.dense()[0] for d in docs]).reshape(m, n)
            projected = project(pack(docs, n), s)
            assert projected.shape == (m, s.size)
            np.testing.assert_array_equal(projected, dense[:, s])

    def test_no_documents(self):
        s = np.array([0, 7, 29])
        assert project(pack([], 30), s).shape == (0, 3)
        empties = [build_document_vector({}, 30)] * 2
        np.testing.assert_array_equal(project(pack(empties, 30), s), np.zeros((2, 3)))

    def test_term_major_view_is_built_once(self):
        """Bob's projections for several HF queries share one view of his
        corpus, built on the first filter query."""
        rng = np.random.default_rng(8)
        n, f = 200, 20
        docs = [random_document(rng, n, int(rng.integers(1, 40))) for _ in range(30)]
        responder = BobResponder(pack(docs, n), dims=n)
        config = SessionConfig(n=n, epsilon=0.5, method=SelectionMethod.HF, f=f)
        responder.handle(config.hello())
        assert "_by_term" not in vars(responder._docs)
        dense = np.array([d.dense()[0] for d in docs])
        views = []
        for query_id in range(4):
            indexes = np.sort(rng.choice(n, f, replace=False))
            z = rng.integers(-(2**30), 2**30, f).astype(np.float64)
            reply = responder.handle(FilterQuery(query_id=query_id, indexes=indexes, z=z))
            views.append(vars(responder._docs)["_by_term"])
            np.testing.assert_array_equal(reply.s, dense[:, indexes] @ z)
        assert all(view is views[0] for view in views)


class TestPackedDocs:
    """The packed layout against each document's own dense vector."""

    def setup_method(self):
        rng = np.random.default_rng(19)
        self.docs = [random_document(rng, 50, int(rng.integers(1, 20))) for _ in range(8)]
        self.docs.insert(3, build_document_vector({}, 50))
        self.packed = pack(self.docs, 50)
        self.dense = np.array([d.dense()[0] for d in self.docs])

    def test_layout_dense_and_iteration(self):
        assert len(self.packed) == 9
        np.testing.assert_array_equal(self.packed.nnz, [d.nnz[0] for d in self.docs])
        np.testing.assert_array_equal(self.packed.dense(), self.dense)
        for packed, doc in zip(self.packed, self.docs, strict=True):
            np.testing.assert_array_equal(packed.indices, doc.indices)
            np.testing.assert_array_equal(packed.weights, doc.weights)
        empty = pack([], 50)
        assert len(empty) == 0 and list(empty) == [] and empty.dense().shape == (0, 50)

    def test_indexing_and_slices(self):
        """An integer gives a one-document PackedDocs; a slice is refused, since
        ``take`` is how a block of documents stays packed."""
        for i in (0, 3, np.int64(5), -1):
            doc = self.packed[i]
            assert isinstance(doc, PackedDocs) and len(doc) == 1 and doc.dims == 50
            np.testing.assert_array_equal(doc.dense()[0], self.dense[i])
        with pytest.raises(TypeError):
            self.packed[2:7:2]
        np.testing.assert_array_equal(
            self.packed.take(np.arange(2, 7, 2)).dense(), self.dense[2:7:2]
        )
        for i in (9, -10):
            with pytest.raises(IndexError):
                self.packed[i]

    def test_arrays_and_view_are_read_only(self):
        project(self.packed, np.array([0, 7]))
        shared = (
            self.packed.indptr,
            self.packed.indices,
            self.packed.weights,
            *self.packed._by_term,
            self.packed[0].weights,
        )
        for array in shared:
            with pytest.raises(ValueError):
                array[0] = 0

    def test_one_document_is_a_read_only_view(self):
        for i in (0, 5, 8):
            doc = self.packed[i]
            assert doc.indptr.tolist() == [0, self.packed.nnz[i]]
            for mine, parent in (
                (doc.indices, self.packed.indices),
                (doc.weights, self.packed.weights),
            ):
                assert np.shares_memory(mine, parent)
                with pytest.raises(ValueError):
                    mine[0] = 0

    def test_pack_of_documents_is_take(self):
        """Packing documents one by one, or in blocks, gives take's arrays;
        document 3 is empty."""
        ids = np.array([7, 3, 0, 3, 8])
        taken = self.packed.take(ids)
        singles = pack([self.packed[i] for i in ids], 50)
        blocks = pack([self.packed.take(ids[:2]), self.packed.take(ids[2:])], 50)
        for packed in (singles, blocks):
            for mine, theirs in (
                (packed.indptr, taken.indptr),
                (packed.indices, taken.indices),
                (packed.weights, taken.weights),
            ):
                assert mine.dtype == theirs.dtype
                np.testing.assert_array_equal(mine, theirs)

    def test_take_keeps_the_given_order(self):
        ids = np.array([7, 3, 0, 8])
        np.testing.assert_array_equal(self.packed.take(ids).dense(), self.dense[ids])
        assert len(self.packed.take(ids[:0])) == 0

    def test_dot_matches_dense_and_rows_are_one_sum(self):
        """A block of k vectors gives, row by row, the same bits as k calls.
        Each sum is within n u sum|x| of the exact sum (math.fsum) of its n
        products x, for documents short and long (the pairwise branches of
        the sum), and an empty document's is 0 wherever it stands, in an
        all-empty set too."""
        z = np.random.default_rng(20).uniform(-1.0, 1.0, (3, 50))
        block = self.packed.dot(z)
        assert block.shape == (3, 9)
        np.testing.assert_allclose(block, z @ self.dense.T, rtol=0, atol=1e-14)
        for row, one in zip(block, z):
            assert self.packed.dot(one).tobytes() == row.tobytes()
        assert block[:, 3].tolist() == [0.0, 0.0, 0.0]
        empty = pack([build_document_vector({}, 50)] * 2, 50)
        assert empty.dot(z).dtype == empty.dot(z[0]).dtype == np.float64

        rng = np.random.default_rng(23)
        z = rng.uniform(-1.0, 1.0, (2, 400))
        void = build_document_vector({}, 400)
        docs = [random_document(rng, 400, nnz) for nnz in (1, 8, 9, 17, 129, 130, 400)]
        for layout in (
            [void, *docs],
            [*docs[:3], void, *docs[3:]],
            [*docs, void],
            [void, *docs[:2], void, void, *docs[2:], void],
            [void],
            [void] * 3,
        ):
            sums = pack(layout, 400).dot(z)
            assert sums.shape == (2, len(layout))
            for doc, column in zip(layout, sums.T):
                for row, got in zip(z, column):
                    products = row[doc.indices] * doc.weights
                    bound = products.size * np.finfo(float).eps * np.abs(products).sum()
                    assert abs(got - math.fsum(products)) <= bound
                    if not products.size:
                        assert got == 0.0

    def test_dot_temporaries_do_not_grow_with_the_rows(self):
        """k rows of z allocate the (k, m) result plus what one row needs,
        not k rows' worth of per-entry temporaries."""
        rng = np.random.default_rng(21)
        docs = pack([random_document(rng, 500, 200) for _ in range(20)], 500)
        z = rng.uniform(-1.0, 1.0, (40, 500))
        peaks = []
        for rows in (z[:1], z):
            tracemalloc.start()
            try:
                docs.dot(rows)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        one, block = peaks
        assert block <= one + z.shape[0] * len(docs) * 8, (one, block)

    def test_document_frequency(self):
        """Counted once per PackedDocs, read-only, and the term-major view's
        offsets are its running sum."""
        df = self.packed.document_frequency
        assert df.dtype == np.int64
        np.testing.assert_array_equal(df, np.count_nonzero(self.dense, axis=0))
        assert self.packed.document_frequency is df
        with pytest.raises(ValueError):
            df[0] = 0
        termptr = self.packed._by_term[0]
        np.testing.assert_array_equal(termptr, np.concatenate(([0], np.cumsum(df))))
        assert pack([], 50).document_frequency.tolist() == [0] * 50

    def test_dims_mismatch(self):
        with pytest.raises(DimensionError):
            pack(self.docs, 51)


class TestCosineDistanceIdentity:
    def test_identity_for_unit_vectors(self):
        """cos(U, V) = 1 - D^2/2 for U and V the counts over their norms,
        and the cosine of the counts, their exact product over the root of
        the squared norms, is the unit vectors' product."""
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(2, 400))
            u = random_document(rng, n, int(rng.integers(1, min(n, 50) + 1)))
            v = random_document(rng, n, int(rng.integers(1, min(n, 50) + 1)))
            unit_u = u.dense()[0] / np.sqrt(u.squared_norms[0])
            unit_v = v.dense()[0] / np.sqrt(v.squared_norms[0])
            cosine = cosines(dot(u, v), u.squared_norms[0], v.squared_norms[0])
            assert abs(cosine - float(unit_u @ unit_v)) <= 1e-15
            d2 = float(np.sum((unit_u - unit_v) ** 2))
            assert abs(cosine - (1.0 - d2 / 2.0)) <= 1e-9


class TestZscore:
    def test_hand_example(self):
        scores = zscore(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(scores, [-1.224745, 0.0, 1.224745], atol=1e-6)

    def test_constant_vector_degenerates_to_zeros(self):
        scores = zscore(np.array([5.0, 5.0, 5.0]))
        np.testing.assert_array_equal(scores, np.zeros(3))

    def test_empty_vector_rejected(self):
        with pytest.raises(RangeError):
            zscore(np.array([]))

    def test_shift_and_scale_invariance(self):
        rng = np.random.default_rng(5)
        x = rng.random(50)
        base = zscore(x)
        scaled = zscore(4.0 * x)
        np.testing.assert_allclose(base, scaled, atol=1e-9)


class TestTopF:
    def test_hand_examples(self):
        np.testing.assert_array_equal(
            top_f(np.array([5.0, 3.0, 5.0, 1.0]), 2), [0, 2]
        )
        np.testing.assert_array_equal(top_f(np.array([2.0, 7.0, 7.0, 1.0]), 1), [1])
        np.testing.assert_array_equal(top_f(np.zeros(3), 2), [0, 1])
        assert top_f(np.zeros(3), 2).dtype == np.int64

    def test_positive_scale_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = int(rng.integers(2, 80))
            x = rng.random(n) * rng.integers(1, 20)
            f = int(rng.integers(1, n + 1))
            a = top_f(x, f)
            b = top_f(3.7 * x, f)
            np.testing.assert_array_equal(a, b)

    def test_heavy_ties_match_the_stable_sort(self):
        """Against a stable argsort of -x on inputs where most values tie:
        small counts, mostly zeros, and a few levels of z-scores."""

        def reference(x, f):
            return np.sort(np.argsort(-x, kind="stable")[:f])

        rng = np.random.default_rng(23)
        for _ in range(500):
            n = int(rng.integers(1, 300))
            kind = rng.integers(3)
            if kind == 0:
                x = rng.poisson(rng.uniform(0.05, 3.0), n).astype(np.float64)
            elif kind == 1:
                x = np.zeros(n)
                hot = rng.choice(n, int(rng.integers(0, n + 1)), replace=False)
                x[hot] = rng.integers(1, 4, hot.size)
            else:
                x = np.abs(rng.integers(-3, 4, n) / 7.0 - rng.integers(-2, 3, n) / 3.0)
            f = int(rng.integers(1, n + 1))
            np.testing.assert_array_equal(top_f(x, f), reference(x, f))

    def test_f_out_of_range(self):
        with pytest.raises(RangeError):
            top_f(np.array([1.0, 2.0]), 0)
        with pytest.raises(RangeError):
            top_f(np.array([1.0, 2.0]), 3)

