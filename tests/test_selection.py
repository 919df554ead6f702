"""Feature selection strategies and the document-frequency aggregate.

LF and GF select with ``top_f``, whose own tests are in test_vectors.py."""

import numpy as np
import pytest

from ssdd.corpus import Corpus, RawDocument
from ssdd.errors import DimensionError, RangeError
from ssdd.selection import SelectionMethod, select_hf, select_rp, top_f

from conftest import build_document_vector, pack, synth_corpus


class TestSelectionMethod:
    def test_wire_codes(self):
        assert [int(m) for m in SelectionMethod] == [0, 1, 2, 3, 4]

    def test_parse(self):
        assert SelectionMethod.parse("hf") is SelectionMethod.HF
        assert SelectionMethod.parse("BASE") is SelectionMethod.BASE
        with pytest.raises(RangeError):
            SelectionMethod.parse("nope")

    def test_traits(self):
        assert not SelectionMethod.BASE.uses_filter
        assert SelectionMethod.RP.uses_filter
        assert SelectionMethod.LF.per_query
        assert SelectionMethod.HF.per_query
        assert not SelectionMethod.GF.per_query
        assert SelectionMethod.GF.needs_whole_vector
        assert SelectionMethod.HF.needs_whole_vector
        assert not SelectionMethod.RP.needs_whole_vector


class TestSelectRp:
    def test_full_budget_selects_everything(self):
        chosen = select_rp(seed=1, n=10, f=10)
        np.testing.assert_array_equal(chosen, np.arange(10))

    def test_deterministic_and_distinct(self):
        a = select_rp(42, 500, 70)
        b = select_rp(42, 500, 70)
        np.testing.assert_array_equal(a, b)
        assert len(np.unique(a)) == 70
        assert a.min() >= 0 and a.max() < 500
        c = select_rp(43, 500, 70)
        assert not np.array_equal(a, c)

    def test_budget_out_of_range(self):
        with pytest.raises(RangeError):
            select_rp(1, 10, 0)
        with pytest.raises(RangeError):
            select_rp(1, 10, 11)


class TestSelectLf:
    def test_reference_example(self):
        chosen = top_f(np.array([4.0, 1.0, 9.0]), 2)
        np.testing.assert_array_equal(chosen, [0, 2])

    def test_scale_invariance_counts_vs_weights(self):
        """Unit normalization must not change which dims are picked."""
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(4, 200))
            counts = rng.integers(0, 30, size=n).astype(float)
            f = int(rng.integers(1, n + 1))
            norm = np.linalg.norm(counts)
            if norm == 0:
                continue
            a = top_f(counts, f)
            b = top_f(counts / norm, f)
            np.testing.assert_array_equal(a, b)


class TestDocumentFrequency:
    def test_reference_example(self):
        corpus = Corpus(2, [RawDocument(0, {0: 3, 1: 1}), RawDocument(1, {0: 2})])
        np.testing.assert_array_equal(
            corpus.vectors.document_frequency, [2, 1]
        )

    def test_matches_per_document_loop(self):
        corpus = synth_corpus(n_docs=50, dims=300, seed=21, mean_terms=25)
        vectors = [*corpus.vectors, build_document_vector({}, 300)]
        expected = np.zeros(300, dtype=np.int64)
        for vec in vectors:
            expected[vec.indices] += 1
        df = pack(vectors, corpus.dims).document_frequency
        assert df.dtype == np.int64
        np.testing.assert_array_equal(df, expected)
        np.testing.assert_array_equal(
            pack([], 300).document_frequency, np.zeros(300)
        )

    def test_aggregate_equals_union_oracle(self):
        """Summed per-party counts equal the whole-corpus count, any split."""
        corpus = synth_corpus(n_docs=50, dims=300, seed=21, mean_terms=25)
        union_df = corpus.vectors.document_frequency
        rng = np.random.default_rng(9)
        for _ in range(20):
            mine = rng.random(50) < rng.random()
            part_a = corpus.subset(np.flatnonzero(mine))
            part_b = corpus.subset(np.flatnonzero(~mine))
            total = part_a.vectors.document_frequency + part_b.vectors.document_frequency
            np.testing.assert_array_equal(total, union_df)


class TestSelectGf:
    def test_reference_example(self):
        chosen = top_f(np.array([5.0, 9.0, 9.0, 2.0]), 2)
        np.testing.assert_array_equal(chosen, [1, 2])


class TestSelectHf:
    def test_reference_example(self):
        """Hand-worked: current (4,0,0) vs whole (1,1,4), f=1.

        Standardizing gives z-differences (2.12132, 0, 2.12132); the tie
        between dims 0 and 2 goes to the lower index.
        """
        chosen = select_hf(np.array([4.0, 0.0, 0.0]), np.array([1.0, 1.0, 4.0]), 1)
        np.testing.assert_array_equal(chosen, [0])

    def test_hand_difference_values(self):
        cur = np.array([4.0, 0.0, 0.0])
        whole = np.array([1.0, 1.0, 4.0])
        cur_z = (cur - cur.mean()) / cur.std()
        whole_z = (whole - whole.mean()) / whole.std()
        np.testing.assert_allclose(
            np.abs(cur_z - whole_z), [2.12132, 0.0, 2.12132], atol=1e-5
        )

    def test_constant_whole_vector_degrades_gracefully(self):
        chosen = select_hf(np.array([3.0, 1.0, 2.0]), np.array([7.0, 7.0, 7.0]), 2)
        # whole standardizes to zeros; ranking falls back to |z(current)|
        np.testing.assert_array_equal(chosen, [0, 1])

    def test_scale_invariance_counts_vs_weights(self):
        rng = np.random.default_rng(14)
        whole = rng.integers(1, 40, size=120).astype(float)
        for _ in range(30):
            counts = rng.integers(0, 25, size=120).astype(float)
            if counts.std() == 0:
                continue
            f = int(rng.integers(1, 121))
            a = select_hf(counts, whole, f)
            b = select_hf(counts / np.linalg.norm(counts), whole, f)
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            select_hf(np.zeros(3), np.zeros(4), 1)
