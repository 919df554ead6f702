"""Docword parsing, vocabulary, cache format, and query splits."""

import io
import struct
import tracemalloc

import numpy as np
import pytest

from ssdd.corpus import (
    CACHE_MAGIC,
    Corpus,
    RawDocument,
    load_cache,
    load_vocabulary,
    parse_bag_of_words,
    save_cache,
    split_queries,
)
from ssdd.errors import (
    DimensionError,
    DuplicateEntryError,
    DuplicateTermError,
    ParseError,
    RangeError,
)
from ssdd.oracle import oracle_detect
from ssdd.protocol.session import SessionConfig, run_local_detection
from ssdd.selection import SelectionMethod
from ssdd.vectors import PackedDocs

from conftest import synth_corpus, write_docword

EXAMPLE = "3\n4\n2\n1 2 5\n3 4 1\n"


class TestParseBagOfWords:
    def test_reference_example(self):
        corpus = parse_bag_of_words(io.StringIO(EXAMPLE))
        assert len(corpus) == 3
        assert corpus.dims == 4
        assert corpus.vectors.indptr.tolist() == [0, 1, 1, 2]
        assert corpus.vectors.indices.tolist() == [1, 3]
        assert corpus.vectors.weights.tolist() == [5, 1]
        assert corpus.vectors[1].nnz[0] == 0
        # the raw counts, not normalized weights, and under no other name
        assert corpus.vectors.weights.dtype.kind == "i"
        assert not hasattr(corpus, "counts")
        assert corpus.vectors.squared_norms.tolist() == [25.0, 0.0, 1.0]

    def test_stats(self):
        corpus = parse_bag_of_words(io.StringIO(EXAMPLE))
        assert len(corpus) == 3
        assert corpus.dims == 4
        assert corpus.vectors.weights.sum() == 6
        assert corpus.vectors.indices.size == 2

    def test_blank_lines_before_headers_are_skipped(self):
        corpus = parse_bag_of_words(io.StringIO("\n \n3\n\n4\n\n2\n1 2 5\n3 4 1\n"))
        assert (len(corpus), corpus.dims) == (3, 4)
        assert corpus.vectors.weights.tolist() == [5, 1]

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_bag_of_words(io.StringIO("x\n4\n0\n"))

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("3\n-4\n0\n", RangeError, "line 2: vocabulary size cannot be negative"),
            ("3\n4\n\n", ParseError, "end of input before entry count header"),
        ],
        ids=["negative", "ends-early"],
    )
    def test_header_out_of_range_or_missing(self, text, error, message):
        with pytest.raises(error, match=message):
            parse_bag_of_words(io.StringIO(text))

    def test_non_integer_entry(self):
        with pytest.raises(ParseError):
            parse_bag_of_words(io.StringIO("1\n4\n1\n1 two 5\n"))

    def test_wrong_field_count(self):
        with pytest.raises(ParseError):
            parse_bag_of_words(io.StringIO("1\n4\n1\n1 2\n"))

    def test_doc_id_out_of_range(self):
        with pytest.raises(RangeError) as err:
            parse_bag_of_words(io.StringIO("2\n4\n1\n0 2 5\n"))
        assert err.value.line == 4
        with pytest.raises(RangeError):
            parse_bag_of_words(io.StringIO("2\n4\n1\n3 2 5\n"))

    def test_word_id_out_of_range(self):
        with pytest.raises(RangeError):
            parse_bag_of_words(io.StringIO("2\n4\n1\n1 5 5\n"))

    def test_duplicate_entry(self):
        with pytest.raises(DuplicateEntryError):
            parse_bag_of_words(io.StringIO("2\n4\n2\n1 2 5\n1 2 7\n"))

    def test_non_positive_count(self):
        with pytest.raises(ParseError) as zero:
            parse_bag_of_words(io.StringIO("1\n4\n1\n1 2 0\n"))
        assert zero.value.line == 4
        with pytest.raises(ParseError) as negative:
            parse_bag_of_words(io.StringIO("1\n4\n2\n1 1 3\n\n1 2 -3\n"))
        assert negative.value.line == 6

    def test_count_beyond_int64(self):
        with pytest.raises(ParseError) as err:
            parse_bag_of_words(io.StringIO(f"1\n4\n2\n1 1 3\n1 2 {2**63}\n"))
        assert err.value.line == 5

    def test_missing_entries(self):
        with pytest.raises(ParseError):
            parse_bag_of_words(io.StringIO("1\n4\n2\n1 2 5\n"))

    def test_extra_entries(self):
        with pytest.raises(ParseError):
            parse_bag_of_words(io.StringIO("2\n4\n1\n1 2 5\n2 3 1\n"))

    def test_round_trip_through_text(self):
        corpus = synth_corpus(n_docs=20, dims=80, seed=9, mean_terms=12)
        buf = io.StringIO()
        write_docword(corpus, buf)
        again = parse_bag_of_words(io.StringIO(buf.getvalue()))
        assert len(again) == len(corpus)
        assert again.dims == corpus.dims
        for array in ("indptr", "indices", "weights"):
            np.testing.assert_array_equal(
                getattr(again.vectors, array), getattr(corpus.vectors, array)
            )
            np.testing.assert_array_equal(
                getattr(again.vectors, array), getattr(corpus.vectors, array)
            )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: synth_corpus(n_docs=6, dims=40, seed=9, mean_terms=5).subset([2, 3]),
            lambda: Corpus(4, [RawDocument(7, {0: 1})]),
        ],
        ids=["subset", "unnumbered-document"],
    )
    def test_round_trip_numbers_documents_by_position(self, make):
        """docIDs run 1..D under a header of D documents, whatever ids the
        documents came from."""
        corpus = make()
        buf = io.StringIO()
        write_docword(corpus, buf)
        doc_ids = {int(line.split()[0]) for line in buf.getvalue().splitlines()[3:]}
        assert doc_ids <= set(range(1, len(corpus) + 1))
        again = parse_bag_of_words(io.StringIO(buf.getvalue()))
        np.testing.assert_array_equal(again.vectors.indptr, corpus.vectors.indptr)
        np.testing.assert_array_equal(again.vectors.indices, corpus.vectors.indices)
        np.testing.assert_array_equal(again.vectors.weights, corpus.vectors.weights)

    def test_entries_in_any_order(self):
        corpus = parse_bag_of_words(io.StringIO("2\n5\n3\n2 1 2\n1 5 3\n1 2 4\n"))
        assert corpus.vectors.indptr.tolist() == [0, 2, 3]
        assert corpus.vectors.indices.tolist() == [1, 4, 0]
        assert corpus.vectors.weights.tolist() == [4, 3, 2]
        assert corpus.vectors.squared_norms.tolist() == [25.0, 4.0]


class TestCounts:
    def test_matches_per_document_reference(self):
        """Packing all documents at once gives each document its counts, and
        the squared norm, exactly, that its counts alone give."""
        rng = np.random.default_rng(4)
        documents = []
        for i in range(25):
            terms = rng.choice(300, size=int(rng.integers(1, 40)), replace=False)
            counts = rng.integers(1, 60, terms.size)
            documents.append(RawDocument(i, dict(zip(terms.tolist(), counts.tolist()))))
        for at in (0, 10, 10, 27):
            documents.insert(at, RawDocument(-1, {}))
        corpus = Corpus(300, documents)
        assert len(corpus) == len(documents)
        for i, doc in enumerate(documents):
            terms = sorted(doc.counts)
            values = np.array([doc.counts[t] for t in terms], dtype=np.float64)
            lo, hi = corpus.vectors.indptr[i : i + 2]
            assert corpus.vectors.indices[lo:hi].tolist() == terms
            assert corpus.vectors.weights[lo:hi].tolist() == values.tolist()
            assert corpus.vectors.squared_norms[i] == values @ values
        assert corpus.vectors.weights.dtype.kind == "i"
        assert corpus.vectors.weights.sum() == sum(sum(d.counts.values()) for d in documents)

    def test_weights_are_the_bincount_formulas(self):
        """A squared norm is a sum of integer squares, exact in any order,
        so the per-document sums give the bits of the weighted bincount over
        each entry's document, with empty documents first, in the middle and
        last; so do the sums of the counts."""
        seeded = synth_corpus(n_docs=40, dims=500, seed=9, mean_terms=30).vectors
        documents = [
            RawDocument(i, dict(zip(doc.indices.tolist(), doc.weights.tolist())))
            for i, doc in enumerate(seeded)
        ]
        for at in (0, 20, 20, 43):
            documents.insert(at, RawDocument(-1, {}))
        corpus = Corpus(500, documents)
        assert corpus.vectors.nnz[[0, 20, 21, 43]].tolist() == [0, 0, 0, 0]
        values = corpus.vectors.weights.astype(np.float64)
        owner = corpus.vectors.owner
        norm2 = np.bincount(owner, weights=values * values, minlength=44)
        assert corpus.vectors.squared_norms.tobytes() == norm2.tobytes()
        l1 = np.bincount(owner, weights=values, minlength=44)
        assert corpus.vectors.l1_norms.tobytes() == l1.tobytes()

    @pytest.mark.parametrize("term", [-1, 5])
    def test_index_outside_width(self, term):
        with pytest.raises(RangeError):
            Corpus(5, [RawDocument(0, {0: 1}), RawDocument(1, {term: 2})])

    def test_negative_width_is_refused(self):
        with pytest.raises(RangeError, match="vocabulary width cannot be negative"):
            Corpus(-1, [])

    def test_zero_count_is_refused(self):
        # normalizing it would divide 0 by 0
        with pytest.raises(RangeError):
            Corpus(4, [RawDocument(0, {1: 0})])

    def test_negative_count_is_refused(self):
        with pytest.raises(RangeError):
            Corpus(4, [RawDocument(0, {1: -3, 2: 4})])

    def test_fractional_count_is_refused(self):
        # not truncated to 2
        with pytest.raises(RangeError):
            Corpus(4, [RawDocument(0, {1: 2.5, 2: 1})])

    def test_fractional_term_is_refused(self):
        # not truncated to index 1
        with pytest.raises(RangeError):
            Corpus(4, [RawDocument(0, {1.5: 2, 3: 1})])

    def test_string_term_is_refused(self):
        # not parsed as index 2
        with pytest.raises(RangeError):
            Corpus(4, [RawDocument(0, {"2": 2})])

    def test_counts_over_another_width_are_refused(self):
        counts = PackedDocs(7, np.array([0, 1]), np.array([6]), np.array([2]))
        with pytest.raises(DimensionError):
            Corpus(5, counts=counts)

    def test_documents_or_counts(self):
        counts = PackedDocs(4, np.array([0, 1]), np.array([2]), np.array([3]))
        with pytest.raises(RangeError):
            Corpus(4)
        with pytest.raises(RangeError):
            Corpus(4, [RawDocument(0, {2: 3})], counts=counts)

    @pytest.mark.parametrize("dtype", [np.float64, np.uint64, np.bool_])
    def test_counts_must_be_signed_integers(self, dtype):
        """Float counts are refused, and so are unsigned ones, which a
        cache could not hold at or above 2**63."""
        values = np.array([2, 1], dtype=dtype)
        counts = PackedDocs(4, np.array([0, 2]), np.array([0, 1]), values)
        with pytest.raises(RangeError):
            Corpus(4, counts=counts)

    def test_subset_keeps_counts(self):
        corpus = synth_corpus(n_docs=12, dims=90, seed=2, mean_terms=9)
        part = corpus.subset([7, 1, 1])
        for a, i in zip(part.vectors, [7, 1, 1]):
            np.testing.assert_array_equal(a.weights, corpus.vectors[i].weights)
        assert part.vectors.weights.sum() == sum(
            int(corpus.vectors[i].weights.sum()) for i in [7, 1, 1]
        )


class TestVocabulary:
    def test_load_and_index(self):
        vocab = load_vocabulary(io.StringIO("alpha\nbeta\ngamma\n"))
        assert vocab == ("alpha", "beta", "gamma")
        assert vocab.index("beta") == 1

    def test_duplicate_term(self):
        with pytest.raises(DuplicateTermError):
            load_vocabulary(io.StringIO("alpha\nbeta\nalpha\n"))

    def test_interior_blank_line(self):
        with pytest.raises(ParseError):
            load_vocabulary(io.StringIO("alpha\n\nbeta\n"))

    def test_trailing_blank_ok(self):
        vocab = load_vocabulary(io.StringIO("alpha\nbeta\n\n"))
        assert len(vocab) == 2


def write_v3_cache(path, dims, docs) -> None:
    """A version 3 cache written by hand: ``docs`` lists each document's
    (index, count) entries as stored, checked or not."""
    entries = [entry for doc in docs for entry in doc]
    path.write_bytes(
        CACHE_MAGIC
        + struct.pack("<III", 3, len(docs), dims)
        + struct.pack(f"<{len(docs)}I", *map(len, docs))
        + struct.pack(f"<{len(entries)}I", *(i for i, _ in entries))
        + struct.pack(f"<{len(entries)}Q", *(c for _, c in entries))
    )


class TestCache:
    @pytest.mark.parametrize(
        "docs",
        [
            [[(0, 1)], [(2, 3), (5, 4)]],
            [[(1, 3), (1, 4)]],
            [[], [(0, 2), (3, 2), (2, 1)]],
            [[(0, 1)], [(2, 0), (4, 1)]],
            [[(0, 1)], [(2, 2**63)]],
            [[(0, 1)], [(2, 2**64 - 1)]],
        ],
        ids=[
            "index-at-width",
            "repeated-index",
            "decreasing-indices",
            "zero-count",
            "count-at-2**63",
            "count-at-2**64-1",
        ],
    )
    def test_bad_entries_are_rejected(self, tmp_path, docs):
        path = tmp_path / "bad.bin"
        write_v3_cache(path, 5, docs)
        with pytest.raises(RangeError):
            load_cache(path)

    def test_indices_restart_at_each_document(self, tmp_path):
        """Only steps within a document must increase: the next document,
        after empty ones or not, may start lower."""
        docs = [[(3, 3), (4, 4)], [(1, 7)], [], [], [(0, 6), (4, 8)], []]
        norms = [25, 49, 0, 0, 100, 0]
        path = tmp_path / "restart.bin"
        write_v3_cache(path, 5, docs)
        corpus = load_cache(path)
        assert len(corpus) == 6
        for vec, entries, expected in zip(corpus.vectors, docs, norms, strict=True):
            assert vec.indices.tolist() == [i for i, _ in entries]
            assert vec.weights.tolist() == [c for _, c in entries]
            assert vec.squared_norms.tolist() == [expected]

    def test_unnormalized_documents_are_normalized(self, tmp_path):
        """A version 2 cache held weights that nothing checked: with the
        first document normalized and the second stored as weight 2.0, LF
        and GF with f = 1 dismissed this pair, which the plaintext cosine
        calls similar.  A version 3 cache holds counts, which every party
        normalizes by the squared norms, exactly: both documents load as
        their counts, the oracle's cosine is 4 / sqrt(5 * 4), and every
        method agrees with the oracle."""
        path = tmp_path / "counts.bin"
        write_v3_cache(path, 4, [[(0, 2), (1, 1)], [(0, 2)]])
        corpus = load_cache(path)
        assert corpus.vectors.weights.tolist() == [2, 1, 2]
        assert corpus.vectors.squared_norms.tolist() == [5.0, 4.0]
        queries, targets = corpus.vectors.take([0]), corpus.vectors.take([1])
        oracle = oracle_detect(queries, targets, 0.8)
        expected = oracle.similar
        assert expected.tolist() == [[True]]  # cosine 2 / sqrt(5)
        assert oracle.cosines[(0, 0)] == 4 / np.sqrt(20.0)
        for method in SelectionMethod:
            f = 0 if method is SelectionMethod.BASE else 1
            config = SessionConfig(n=4, epsilon=0.8, method=method, f=f)
            report = run_local_detection(queries, config, targets)
            assert not report.aborted, method.name
            np.testing.assert_array_equal(report.similar, expected, err_msg=method.name)

    def test_zero_documents(self, tmp_path):
        path = tmp_path / "empty.bin"
        write_v3_cache(path, 7, [])
        corpus = load_cache(path)
        assert len(corpus) == 0 and corpus.dims == 7
        assert corpus.vectors.indices.size == 0
        assert list(corpus.vectors) == []

    def test_round_trip(self, tmp_path):
        corpus = synth_corpus(n_docs=15, dims=120, seed=13, mean_terms=10)
        path = tmp_path / "corpus.bin"
        save_cache(corpus, path)
        again = load_cache(path)
        assert len(again) == len(corpus)
        assert again.dims == corpus.dims
        for array in ("indptr", "indices", "weights"):
            mine, theirs = getattr(corpus.vectors, array), getattr(again.vectors, array)
            assert theirs.dtype == mine.dtype
            np.testing.assert_array_equal(theirs, mine)
            # bit-equal: normalization reads one document at a time
            assert getattr(again.vectors, array).tobytes() == getattr(
                corpus.vectors, array
            ).tobytes()
        for a, b in zip(corpus.vectors, again.vectors):
            np.testing.assert_array_equal(a.indices, b.indices)
            np.testing.assert_array_equal(a.weights, b.weights)
            assert (a.nnz[0] == 0) == (b.nnz[0] == 0)

    def test_degenerate_documents_survive(self, tmp_path):
        corpus = Corpus(4, [RawDocument(0, {}), RawDocument(1, {2: 3})])
        path = tmp_path / "deg.bin"
        save_cache(corpus, path)
        again = load_cache(path)
        assert again.vectors[0].nnz[0] == 0
        assert again.vectors[1].nnz[0] != 0

    def test_exact_layout(self, tmp_path):
        """The cache bytes match the documented little-endian layout."""
        corpus = Corpus(3, [RawDocument(0, {0: 3, 1: 4}), RawDocument(1, {}), RawDocument(2, {2: 1})])
        path = tmp_path / "layout.bin"
        save_cache(corpus, path)
        # magic, (version, D, W), each document's nnz, then all indices, then all counts
        expected = (
            CACHE_MAGIC
            + struct.pack("<III", 3, 3, 3)
            + struct.pack("<III", 2, 0, 1)
            + struct.pack("<III", 0, 1, 2)
            + struct.pack("<QQQ", 3, 4, 1)
        )
        assert path.read_bytes() == expected

    def test_version_1_is_refused(self, tmp_path):
        """A version 1 file (each document's nnz, then its interleaved
        (index u32, weight f64) entries) must be ingested again."""
        path = tmp_path / "v1.bin"
        path.write_bytes(
            CACHE_MAGIC
            + struct.pack("<III", 1, 1, 3)
            + struct.pack("<I", 2)
            + struct.pack("<Id", 0, 0.6)
            + struct.pack("<Id", 1, 0.8)
        )
        with pytest.raises(ParseError, match="version 1"):
            load_cache(path)

    def test_version_2_is_refused(self, tmp_path):
        """A version 2 file (the version 3 layout with normalized f64
        weights in place of the counts) must be ingested again."""
        path = tmp_path / "v2.bin"
        path.write_bytes(
            CACHE_MAGIC
            + struct.pack("<III", 2, 1, 3)
            + struct.pack("<I", 2)
            + struct.pack("<II", 0, 1)
            + struct.pack("<dd", 0.6, 0.8)
        )
        with pytest.raises(ParseError, match="version 2"):
            load_cache(path)

    def test_every_proper_prefix_is_refused(self, tmp_path):
        corpus = Corpus(5, [RawDocument(0, {0: 3, 4: 4}), RawDocument(1, {}), RawDocument(2, {2: 1})])
        path = tmp_path / "whole.bin"
        save_cache(corpus, path)
        whole = path.read_bytes()
        for size in range(len(whole)):
            path.write_bytes(whole[:size])
            with pytest.raises(ParseError):
                load_cache(path)

    def test_document_count_beyond_the_file(self, tmp_path):
        """A header declaring 2**32 - 1 documents over a 20-byte file fails
        before anything sized by the header is allocated."""
        path = tmp_path / "huge.bin"
        path.write_bytes(CACHE_MAGIC + struct.pack("<III", 3, 2**32 - 1, 5))
        tracemalloc.start()
        try:
            with pytest.raises(ParseError):
                load_cache(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTACORP" + b"\x00" * 16)
        with pytest.raises(ParseError):
            load_cache(path)

    def test_truncated_body(self, tmp_path):
        corpus = Corpus(3, [RawDocument(0, {0: 3, 1: 4})])
        path = tmp_path / "trunc.bin"
        save_cache(corpus, path)
        whole = path.read_bytes()
        path.write_bytes(whole[:-5])
        with pytest.raises(ParseError):
            load_cache(path)

    def test_trailing_garbage(self, tmp_path):
        corpus = Corpus(3, [RawDocument(0, {0: 3})])
        path = tmp_path / "trail.bin"
        save_cache(corpus, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError):
            load_cache(path)


class TestSplitQueries:
    def test_partition_and_determinism(self):
        corpus = synth_corpus(n_docs=40, dims=100, seed=3, mean_terms=8)
        q1, t1 = split_queries(corpus, k=10, seed=5)
        q2, t2 = split_queries(corpus, k=10, seed=5)
        assert q1 == q2 and t1 == t2
        assert len(q1) == 10
        assert sorted(q1 + t1) == list(range(40))
        assert not set(q1) & set(t1)

    def test_k_out_of_range(self):
        corpus = synth_corpus(n_docs=10, dims=50, seed=3, mean_terms=8)
        with pytest.raises(RangeError):
            split_queries(corpus, k=0)
        with pytest.raises(RangeError):
            split_queries(corpus, k=11)

    def test_matches_per_document_reference(self):
        corpus = synth_corpus(n_docs=30, dims=60, seed=3, mean_terms=6)
        for seed in range(5):
            queries, targets = split_queries(corpus, k=7, seed=seed)
            rng = np.random.default_rng(seed)
            expected = sorted(int(i) for i in rng.choice(30, size=7, replace=False))
            assert queries == expected
            assert targets == [i for i in range(30) if i not in set(expected)]
            assert all(type(i) is int for i in queries + targets)

    def test_different_seeds_differ(self):
        corpus = synth_corpus(n_docs=40, dims=100, seed=3, mean_terms=8)
        q1, _ = split_queries(corpus, k=10, seed=1)
        q2, _ = split_queries(corpus, k=10, seed=2)
        assert q1 != q2
