"""Ground-truth oracle and benchmark reporting."""

import csv

import numpy as np
import pytest

from ssdd import cli
from ssdd.cli import main
from ssdd.corpus import save_cache
from ssdd.errors import DimensionError, RangeError
from ssdd.oracle import oracle_detect
from ssdd.protocol.session import (
    DetectionReport,
    SessionConfig,
    SimilarityDecision,
    run_local_detection,
)
from conftest import build_document_vector, dot, missed_and_extra, pack, synth_corpus


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

    @pytest.mark.parametrize(
        "epsilon, accepted",
        [(0.0, True), (0.5, True), (1.0, True), (np.nan, False), (-1e-300, False),
         (np.nextafter(1.0, 2.0), False), (np.inf, False), (-np.inf, False)],
        ids=["0", "0.5", "1", "nan", "-1e-300", "above-1", "inf", "-inf"],
    )
    def test_session_and_oracle_share_the_tolerance_range(self, epsilon, accepted):
        """A session and the oracle accept and refuse the same tolerances."""
        docs = pack([build_document_vector({0: 1}, 2)], 2)
        if accepted:
            SessionConfig(n=2, epsilon=epsilon)
            oracle_detect(docs, docs, epsilon)
            return
        with pytest.raises(RangeError, match="tolerance"):
            SessionConfig(n=2, epsilon=epsilon)
        with pytest.raises(RangeError, match="tolerance"):
            oracle_detect(docs, docs, epsilon)

    def test_agreeing_report_is_ok(self):
        alice = pack([build_document_vector({0: 1}, 2)], 2)
        bob = pack([build_document_vector({0: 2}, 2)], 2)
        oracle = oracle_detect(alice, bob, 0.9)
        config = SessionConfig(n=2, epsilon=0.9)
        report = DetectionReport(
            config=config,
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


@pytest.fixture(scope="module")
def bench_cache(bench_corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("bench") / "corpus.bin"
    save_cache(bench_corpus, path)
    return path


def detect_rows(cache, tmp_path, *options) -> list[dict]:
    """The report rows that ``ssdd detect`` over ``cache`` writes with
    ``options``."""
    report = tmp_path / "grid.csv"
    assert main(["detect", str(cache), *options, "--report", str(report)]) == 0
    with report.open(newline="") as fh:
        return list(csv.DictReader(fh))


def recorded_reports(monkeypatch) -> list:
    """The reports of the sessions that ``ssdd detect`` runs in-process,
    appended as each session ends."""
    reports = []

    def run_and_record(*args):
        reports.append(run_local_detection(*args))
        return reports[-1]

    monkeypatch.setattr(cli, "run_local_detection", run_and_record)
    return reports


class TestBench:
    def test_grid_shape_and_order(self, bench_cache, tmp_path):
        # methods in wire-code order, then f, then tolerance; each
        # distinct once, and BASE once per tolerance, at f = 0
        rows = detect_rows(
            bench_cache,
            tmp_path,
            *("--queries", "5", "--seed", "2"),
            *("--method", "lf,base,lf", "--dims", "30,20,30", "--tolerance", "0.9,0.8,0.9"),
        )
        heads = [(r["method"], int(r["f"]), float(r["epsilon"])) for r in rows]
        assert heads == [
            ("base", 0, 0.8),
            ("base", 0, 0.9),
            ("lf", 20, 0.8),
            ("lf", 20, 0.9),
            ("lf", 30, 0.8),
            ("lf", 30, 0.9),
        ]

    def test_row_invariants(self, bench_cache, tmp_path):
        rows = detect_rows(
            bench_cache,
            tmp_path,
            *("--queries", "5", "--seed", "2"),
            *("--method", "base,rp", "--dims", "25", "--tolerance", "0.85"),
        )
        assert len(rows) == 2
        for row in rows:
            pairs_total, pairs_filtered, full_products = (
                int(row[column]) for column in ("pairs_total", "pairs_filtered", "full_products")
            )
            assert pairs_total == 5 * 35
            assert pairs_filtered + full_products == pairs_total
            assert float(row["wall_ms"]) > 0.0
            if row["method"] == "base":
                assert pairs_filtered == 0
                assert float(row["filter_ratio"]) == 0.0

    def test_rerun_matches_except_wall_time(self, bench_cache, tmp_path):
        options = ("--queries", "4", "--seed", "6", "--method", "hf", "--dims", "25")
        first = detect_rows(bench_cache, tmp_path, *options)
        second = detect_rows(bench_cache, tmp_path, *options)
        assert len(first) == 1
        for row in first + second:
            del row["wall_ms"]
        assert first == second

    def test_empty_grid_rejected(self, tmp_path, capsys):
        # a grid without methods, without tolerances, or without a budget
        # for a filtering method, refused before the absent corpus is opened
        report = tmp_path / "never.csv"
        for options, message in [
            (["--method", ""], "argument --method: expected one or more values"),
            (["--tolerance", ","], "argument --tolerance: expected one or more values"),
            (["--method", "base,hf"], "--method hf needs --dims"),
        ]:
            assert main(["detect", "absent.bin", *options, "--report", str(report)]) == 1
            refused = capsys.readouterr()
            assert message in refused.err
            assert refused.out == ""
        assert not report.exists()

    def test_row_from_report(self, bench_cache, tmp_path, monkeypatch):
        reports = recorded_reports(monkeypatch)
        (row,) = detect_rows(
            bench_cache,
            tmp_path,
            *("--queries", "4", "--seed", "3", "--method", "gf", "--dims", "30"),
        )
        (report,) = reports
        assert row["method"] == "gf"
        assert int(row["f"]) == 30
        assert int(row["similar_pairs"]) == sum(d.similar for d in report.decisions)
        assert float(row["wall_ms"]) == pytest.approx(report.metrics.wall_time * 1000.0)
        assert int(row["bytes_sent_alice"]) == report.metrics.bytes_sent_alice


class TestReportCsv:
    def test_header_and_parse_back(self, bench_cache, tmp_path, monkeypatch):
        reports = recorded_reports(monkeypatch)
        out = tmp_path / "grid.csv"
        argv = ["detect", str(bench_cache), "--queries", "4", "--seed", "2"]
        argv += ["--method", "base,lf", "--dims", "20", "--tolerance", "0.8,0.9"]
        assert main([*argv, "--report", str(out)]) == 0
        with out.open(newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == [
            "method",
            "f",
            "epsilon",
            "pairs_total",
            "pairs_filtered",
            "filter_ratio",
            "full_products",
            "bytes_sent_alice",
            "bytes_sent_bob",
            "wall_ms",
            "similar_pairs",
        ]
        assert len(reports) == 4
        assert len(parsed) == 1 + len(reports)
        heads = [("base", 0, 0.8), ("base", 0, 0.9), ("lf", 20, 0.8), ("lf", 20, 0.9)]
        for line, report, (method, f, epsilon) in zip(parsed[1:], reports, heads):
            assert len(line) == 11
            assert line[0] == method
            assert int(line[1]) == f == report.config.f
            assert float(line[2]) == epsilon == report.config.epsilon
            assert int(line[3]) == report.metrics.pairs_total
            assert int(line[10]) == report.similar.sum()
