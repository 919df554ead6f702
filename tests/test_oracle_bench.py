"""Ground-truth oracle and benchmark reporting."""

import csv
import io

import numpy as np
import pytest

from ssdd.bench import REPORT_COLUMNS, row_from_report, run_bench, write_report_csv
from ssdd.corpus import build_document_vector, split_queries
from ssdd.errors import DimensionError, RangeError
from ssdd.oracle import oracle_detect
from ssdd.protocol.session import (
    DetectionReport,
    SessionConfig,
    SimilarityDecision,
    run_local_detection,
)
from ssdd.selection import SelectionMethod
from ssdd.vectors import pack
from conftest import dot, missed_and_extra, synth_corpus


class TestOracle:
    def test_axis_pair_example(self):
        alice = pack([build_document_vector({0: 1}, 2)], 2)
        bob = pack([build_document_vector({0: 1}, 2), build_document_vector({1: 1}, 2)], 2)
        result = oracle_detect(alice, bob, 0.9)
        assert result.similar.tolist() == [[True, False]]
        assert result.cosines == {(0, 0): pytest.approx(1.0), (0, 1): pytest.approx(0.0)}

    def test_empty_document_never_matches(self):
        alice = pack([build_document_vector({}, 3)], 3)
        bob = pack([build_document_vector({0: 1}, 3)], 3)
        result = oracle_detect(alice, bob, 0.0)
        assert result.similar.tolist() == [[False]]
        assert result.cosines[(0, 0)] == 0.0

    def test_matches_per_pair_dot_reference(self):
        """The array oracle equals one dot per pair within 1e-15; away from
        the tolerance it finds the same pairs."""
        corpus = synth_corpus(n_docs=80, dims=700, seed=9, mean_terms=60)
        empty = build_document_vector({}, 700)
        alice = [corpus.vectors[i] for i in range(12)] + [empty]
        bob = [corpus.vectors[i] for i in range(4, len(corpus))] + [empty]
        epsilon = 0.2
        reference = {}
        for qi, u in enumerate(alice):
            for ti, v in enumerate(bob):
                degenerate = u.nnz[0] == 0 or v.nnz[0] == 0
                reference[(qi, ti)] = 0.0 if degenerate else dot(u, v)
        alice, bob = pack(alice, 700), pack(bob, 700)
        result = oracle_detect(alice, bob, epsilon)
        assert result.cosines.keys() == reference.keys()
        assert result.similar.shape == (len(alice), len(bob))
        gap = max(abs(result.cosines[p] - c) for p, c in reference.items())
        assert gap <= 1e-15
        clear = {p for p, c in reference.items() if abs(c - epsilon) > 1e-12}
        expected = {p for p in clear if reference[p] >= epsilon}
        assert {p for p in clear if result.similar[p]} == expected
        assert 8 < len(expected) < len(clear) / 2
        with pytest.raises(DimensionError):
            oracle_detect(alice, pack([build_document_vector({0: 1}, 701)], 701), epsilon)

    def test_tolerance_is_inclusive(self):
        u = build_document_vector({0: 1, 1: 1}, 2)
        v = build_document_vector({0: 1}, 2)
        cos = oracle_detect(pack([u], 2), pack([v], 2), 0.0).cosines[(0, 0)]
        at_boundary = oracle_detect(pack([u], 2), pack([v], 2), cos)
        assert at_boundary.similar[0, 0]

    @pytest.mark.parametrize("epsilon", [np.nan, 1.5, -2.0], ids=["nan", "1.5", "-2"])
    def test_tolerance_outside_unit_interval_is_refused(self, epsilon):
        """As SessionConfig refuses it: NaN would report no pair, -2 every
        pair."""
        docs = pack([build_document_vector({0: 1}, 2)], 2)
        with pytest.raises(RangeError, match="outside"):
            oracle_detect(docs, docs, epsilon)

    def test_agreeing_report_is_ok(self):
        alice = pack([build_document_vector({0: 1}, 2)], 2)
        bob = pack([build_document_vector({0: 2}, 2)], 2)
        oracle = oracle_detect(alice, bob, 0.9)
        config = SessionConfig(n=2, epsilon=0.9)
        report = DetectionReport(
            config=config,
            target_count=1,
            cosines=np.array([[1.0]]),
            similar=np.array([[True]]),
            decided=1,
        )
        assert report.decisions == [
            SimilarityDecision(0, 0, similar=True, cosine=1.0, filtered=False)
        ]
        assert missed_and_extra(report.similar, oracle.similar) == ([], [])


@pytest.fixture(scope="module")
def bench_corpus():
    return synth_corpus(n_docs=40, dims=300, seed=77, mean_terms=30)


class TestBench:
    def test_grid_shape_and_order(self, bench_corpus):
        rows = run_bench(
            bench_corpus,
            methods=[SelectionMethod.LF, SelectionMethod.BASE],
            f_values=[30, 20],
            tolerances=[0.9, 0.8],
            queries=5,
            seed=2,
        )
        heads = [(r.method, r.f, r.epsilon) for r in rows]
        assert heads == [
            ("base", 0, 0.8),
            ("base", 0, 0.9),
            ("lf", 20, 0.8),
            ("lf", 20, 0.9),
            ("lf", 30, 0.8),
            ("lf", 30, 0.9),
        ]

    def test_row_invariants(self, bench_corpus):
        rows = run_bench(
            bench_corpus,
            methods=[SelectionMethod.BASE, SelectionMethod.RP],
            f_values=[25],
            tolerances=[0.85],
            queries=5,
            seed=2,
        )
        for row in rows:
            assert row.pairs_total == 5 * 35
            assert row.pairs_filtered + row.full_products == row.pairs_total
            assert row.wall_ms > 0.0
            if row.method == "base":
                assert row.pairs_filtered == 0
                assert row.filter_ratio == 0.0

    def test_rerun_matches_except_wall_time(self, bench_corpus):
        kwargs = dict(
            methods=[SelectionMethod.HF],
            f_values=[25],
            tolerances=[0.8],
            queries=4,
            seed=6,
        )
        first = run_bench(bench_corpus, **kwargs)
        second = run_bench(bench_corpus, **kwargs)
        wall_at = REPORT_COLUMNS.index("wall_ms")
        for a, b in zip(first, second):
            a_t, b_t = a.as_tuple(), b.as_tuple()
            assert a_t[:wall_at] == b_t[:wall_at]
            assert a_t[wall_at + 1 :] == b_t[wall_at + 1 :]

    def test_empty_grid_rejected(self, bench_corpus):
        with pytest.raises(RangeError):
            run_bench(bench_corpus, methods=[], f_values=[5], tolerances=[0.8])
        with pytest.raises(RangeError):
            run_bench(
                bench_corpus,
                methods=[SelectionMethod.BASE],
                f_values=[5],
                tolerances=[],
            )

    def test_row_from_report(self, bench_corpus):
        query_ids, target_ids = split_queries(bench_corpus, k=4, seed=3)
        queries = bench_corpus.vectors.take(query_ids)
        targets = bench_corpus.vectors.take(target_ids)
        config = SessionConfig(
            n=bench_corpus.dims, epsilon=0.8, method=SelectionMethod.GF, f=30
        )
        report = run_local_detection(queries, config, targets)
        row = row_from_report(report)
        assert row.method == "gf"
        assert row.f == 30
        assert row.similar_pairs == sum(d.similar for d in report.decisions)
        assert row.wall_ms == pytest.approx(report.metrics.wall_time * 1000.0)
        assert row.bytes_sent_alice == report.metrics.bytes_sent_alice


class TestReportCsv:
    def test_header_and_parse_back(self, bench_corpus):
        rows = run_bench(
            bench_corpus,
            methods=[SelectionMethod.BASE, SelectionMethod.LF],
            f_values=[20],
            tolerances=[0.8, 0.9],
            queries=4,
            seed=2,
        )
        out = io.StringIO()
        write_report_csv(rows, out)
        parsed = list(csv.reader(io.StringIO(out.getvalue())))
        assert parsed[0] == list(REPORT_COLUMNS)
        assert len(parsed) == 1 + len(rows)
        for line, row in zip(parsed[1:], rows):
            assert len(line) == len(REPORT_COLUMNS)
            assert line[0] == row.method
            assert int(line[1]) == row.f
            assert float(line[2]) == row.epsilon
            assert int(line[3]) == row.pairs_total
            assert int(line[10]) == row.similar_pairs
