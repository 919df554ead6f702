"""End-to-end runs of the command-line front end via main()."""

import csv
import socket
import threading
import time

import numpy as np
import pytest

from ssdd.bench import REPORT_COLUMNS
from ssdd.cli import main
from ssdd.corpus import load_cache, split_queries, write_docword
from ssdd.errors import SessionError
from ssdd.oracle import oracle_detect
from ssdd.protocol.session import SessionConfig, run_detection, run_local_detection
from ssdd.protocol.transport import connect_tcp

from conftest import synth_corpus


@pytest.fixture(scope="module")
def corpus():
    return synth_corpus(n_docs=30, dims=120, seed=55, mean_terms=18)


@pytest.fixture(scope="module")
def docword_path(corpus, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "docword.synth.txt"
    with open(path, "w", encoding="utf-8") as fh:
        write_docword(corpus, fh)
    return path


@pytest.fixture(scope="module")
def cache_path(docword_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-cache") / "corpus.bin"
    assert main(["ingest", str(docword_path), "--out", str(out)]) == 0
    return out


class TestIngest:
    def test_cache_matches_parse(self, corpus, cache_path):
        cached = load_cache(cache_path)
        assert len(cached) == len(corpus)
        assert cached.dims == corpus.dims
        for mine, theirs in zip(corpus.vectors, cached.vectors):
            assert mine.nnz[0] == theirs.nnz[0]

    def test_vocabulary_width_is_checked(self, corpus, docword_path, tmp_path):
        good = tmp_path / "vocab.txt"
        good.write_text("".join(f"w{i:03d}\n" for i in range(corpus.dims)))
        out = tmp_path / "ok.bin"
        code = main(
            ["ingest", str(docword_path), "--vocab", str(good), "--out", str(out)]
        )
        assert code == 0

        short = tmp_path / "short.txt"
        short.write_text("".join(f"w{i:03d}\n" for i in range(corpus.dims - 1)))
        code = main(
            ["ingest", str(docword_path), "--vocab", str(short), "--out", str(out)]
        )
        assert code == 2

    def test_limit_truncates(self, corpus, docword_path, tmp_path, capsys):
        out = tmp_path / "five.bin"
        assert main(["ingest", str(docword_path), "--out", str(out), "--limit", "5"]) == 0
        assert len(load_cache(out)) == 5
        five = corpus.subset(range(5)).counts
        assert capsys.readouterr().out == (
            f"{out}: 5 documents, {corpus.dims} dims, "
            f"{five.indices.size} entries, {five.weights.sum()} tokens\n"
        )

    def test_limit_zero_keeps_no_documents(self, docword_path, tmp_path, capsys):
        out = tmp_path / "none.bin"
        assert main(["ingest", str(docword_path), "--out", str(out), "--limit", "0"]) == 0
        assert len(load_cache(out)) == 0
        capsys.readouterr()

    def test_negative_limit_is_usage_error(self, docword_path, tmp_path, capsys):
        out = tmp_path / "negative.bin"
        assert main(["ingest", str(docword_path), "--out", str(out), "--limit", "-1"]) == 1
        assert not out.exists()
        assert "--limit" in capsys.readouterr().err


class TestDetect:
    def test_local_run_base(self, cache_path, capsys):
        code = main(
            ["detect", str(cache_path), "--queries", "5", "--seed", "3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "method=base" in out
        assert "pairs=125" in out  # 5 queries against the other 25 documents

    def test_local_run_with_filter_and_report(self, cache_path, tmp_path, capsys):
        report = tmp_path / "run.csv"
        code = main(
            [
                "detect",
                str(cache_path),
                "--method",
                "hf",
                "--dims",
                "10%",
                "--queries",
                "5",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        assert "method=hf f=12" in capsys.readouterr().out
        with report.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(REPORT_COLUMNS)
        assert len(rows) == 2

    def test_reads_docword_directly(self, docword_path):
        code = main(["detect", str(docword_path), "--queries", "3"])
        assert code == 0

    def test_missing_transport_choice_is_usage_error(self):
        assert main(["detect"]) == 1

    def test_connect_without_corpus_is_usage_error(self):
        assert main(["detect", "--connect", "127.0.0.1:1"]) == 1

    def test_missing_file(self, tmp_path):
        assert main(["detect", str(tmp_path / "absent.bin")]) == 2

    def test_filter_method_without_budget(self, cache_path):
        assert main(["detect", str(cache_path), "--method", "rp"]) == 2

    def test_budget_count_and_percentage_is_usage_error(self, cache_path, capsys):
        # one option sets f, so a count and a percentage cannot both be given
        code = main(
            ["detect", str(cache_path), "--method", "rp", "--dims", "10", "--dims-pct", "50"]
        )
        assert code == 1
        assert "--dims-pct" in capsys.readouterr().err

    def test_local_corpus_and_connect_run_remote(self, cache_path, capsys):
        # the corpus is the query side of a remote run, not a local run
        # that silently ignores --connect
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["detect", str(cache_path), "--connect", f"127.0.0.1:{port}"]) == 2
        assert "method=" not in capsys.readouterr().out

    def test_two_budgets_is_usage_error(self, cache_path, capsys):
        assert main(["detect", str(cache_path), "--method", "rp", "--dims", "1,2"]) == 1
        assert "--dims" in capsys.readouterr().err

    def test_unknown_method_is_usage_error(self, cache_path, capsys):
        assert main(["detect", str(cache_path), "--method", "bogus"]) == 1
        assert "unknown method 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("value, f", [("0%", 1), ("100%", 120), ("1", 1)])
    def test_budget_at_the_ends_of_its_range(self, cache_path, capsys, value, f):
        # a percentage rounds to at least 1; n = 120
        argv = ["detect", str(cache_path), "--method", "hf", "--dims", value]
        assert main(argv + ["--queries", "3"]) == 0
        assert f"method=hf f={f} " in capsys.readouterr().out


class TestParser:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1
        capsys.readouterr()

    def test_bench_requires_report(self, cache_path, capsys):
        assert main(["bench", str(cache_path)]) == 1
        capsys.readouterr()

    def test_bad_host_port(self, capsys):
        assert main(["detect", "x", "--connect", "nonsense"]) == 1
        assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["serve", "absent.bin"],
            ["detect", "absent.bin"],
            ["oracle", "absent.bin"],
            ["bench", "absent.bin", "--report", "absent.csv"],
        ],
    )
    def test_negative_limit_is_usage_error(self, command, capsys):
        # refused while parsing, before the absent corpus is opened
        assert main(command + ["--limit", "-3"]) == 1
        assert "--limit" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["inf%", "-inf%", "nan%", "-5%", "101%", "0", "-5"])
    @pytest.mark.parametrize("command", ["detect", "bench"])
    def test_budget_outside_its_range_is_usage_error(
        self, cache_path, tmp_path, capsys, command, value
    ):
        """A non-finite, negative or over-100 percentage, and a count below 1,
        are refused while parsing: no run starts and no report is written."""
        report = tmp_path / "never.csv"
        argv = [command, str(cache_path), f"--dims={value}", "--report", str(report)]
        extra = ["--method", "hf"] if command == "detect" else ["--methods", "hf"]
        assert main(argv + extra) == 1
        refused = capsys.readouterr()
        assert "argument --dims" in refused.err and value in refused.err
        assert refused.out == ""
        assert not report.exists()


class TestOracleCommand:
    def test_summary_and_report(self, cache_path, tmp_path, capsys):
        report = tmp_path / "truth.csv"
        code = main(
            [
                "oracle",
                str(cache_path),
                "--tolerance",
                "0.8",
                "--queries",
                "5",
                "--seed",
                "3",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        assert "similar_pairs=" in capsys.readouterr().out
        with report.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["query_doc", "target_doc", "cosine"]

    def test_report_rows_are_the_similar_pairs(self, corpus, cache_path, tmp_path, capsys):
        """One row per similar pair, query-major, named by corpus doc ids,
        with the oracle's cosine; the pairs a BASE run reports."""
        report = tmp_path / "truth.csv"
        split = ["--tolerance", "0.3", "--queries", "5", "--seed", "3"]
        assert main(["oracle", str(cache_path), *split, "--report", str(report)]) == 0
        assert "similar_pairs=12" in capsys.readouterr().out
        with report.open() as fh:
            rows = list(csv.reader(fh))[1:]

        query_ids, target_ids = split_queries(corpus, k=5, seed=3)
        queries = corpus.vectors.take(query_ids)
        targets = corpus.vectors.take(target_ids)
        oracle = oracle_detect(queries, targets, 0.3)
        margin = min(abs(c - 0.3) for c in oracle.cosines.values())
        assert margin > 1e-6, "fixture produced a borderline pair"
        pairs = [[q, t] for (q, t), c in sorted(oracle.cosines.items()) if c >= 0.3]
        assert len(pairs) == 12 and len({q for q, _ in pairs}) > 1
        assert [(int(q), int(t)) for q, t, _ in rows] == [
            (query_ids[q], target_ids[t]) for q, t in pairs
        ]
        assert [float(c) for *_, c in rows] == [oracle.cosines[(q, t)] for q, t in pairs]

        run = run_local_detection(queries, SessionConfig(n=corpus.dims, epsilon=0.3), targets)
        assert np.argwhere(run.similar).tolist() == pairs
        assert main(["detect", str(cache_path), *split]) == 0
        assert "similar=12 " in capsys.readouterr().out

    @pytest.mark.parametrize("value", ["nan", "1.5", "-2"])
    def test_tolerance_outside_unit_interval(self, cache_path, capsys, value):
        """The ground truth refuses what the protocol refuses, with the
        same exit code and message as detect."""
        assert main(["oracle", str(cache_path), "--tolerance", value]) == 2
        refused = capsys.readouterr()
        assert "similar_pairs" not in refused.out
        assert f"tolerance {float(value)} outside [0, 1]" in refused.err
        assert main(["detect", str(cache_path), "--tolerance", value]) == 2
        assert capsys.readouterr().err == refused.err


class TestBenchCommand:
    def test_grid_to_csv(self, cache_path, tmp_path, capsys):
        report = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                str(cache_path),
                "--methods",
                "base,lf",
                "--dims",
                "15",
                "--tolerances",
                "0.8,0.9",
                "--queries",
                "4",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        assert "4 rows" in capsys.readouterr().out
        with report.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(REPORT_COLUMNS)
        assert len(rows) == 5

    def test_budget_counts_and_percentages(self, cache_path, tmp_path, capsys):
        # 10% of n = 120 is 12, the same f as the count 12: one row per f
        report = tmp_path / "budgets.csv"
        code = main(
            [
                "bench",
                str(cache_path),
                "--methods",
                "lf",
                "--dims",
                "5,10%,12",
                "--tolerances",
                "0.8",
                "--queries",
                "4",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        assert "2 rows" in capsys.readouterr().out
        with report.open() as fh:
            rows = list(csv.DictReader(fh))
        assert [row["f"] for row in rows] == ["5", "12"]

    def test_full_and_limit_is_usage_error(self, cache_path, tmp_path, capsys):
        report = tmp_path / "never.csv"
        code = main(
            ["bench", str(cache_path), "--full", "--limit", "5", "--report", str(report)]
        )
        assert code == 1
        assert not report.exists()
        assert "not allowed with" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--methods", "base,bogus", "unknown method 'bogus'"),
            ("--tolerances", "0.8,x", "--tolerances"),
        ],
    )
    def test_bad_grid_value_is_usage_error(
        self, cache_path, tmp_path, capsys, option, value, message
    ):
        report = tmp_path / "never.csv"
        assert main(["bench", str(cache_path), option, value, "--report", str(report)]) == 1
        assert not report.exists()
        assert message in capsys.readouterr().err


class TestRemote:
    def test_detect_against_library_server(self, corpus, cache_path, capsys):
        from ssdd.protocol.session import BobResponder
        from ssdd.protocol.transport import TcpServer

        _, target_ids = split_queries(corpus, k=5, seed=3)
        targets = corpus.vectors.take(target_ids)
        server = TcpServer(lambda: BobResponder(targets, dims=corpus.dims))
        with server:
            code = main(
                [
                    "detect",
                    str(cache_path),
                    "--connect",
                    f"{server.host}:{server.port}",
                    "--queries",
                    "5",
                    "--seed",
                    "3",
                ]
            )
        assert code == 0
        assert "pairs=125" in capsys.readouterr().out

    def test_serve_once_round_trip(self, corpus, cache_path, capsys):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        outcome = {}

        def run_server():
            outcome["code"] = main(
                ["serve", str(cache_path), "--listen", f"127.0.0.1:{port}", "--once"]
            )

        worker = threading.Thread(target=run_server, daemon=True)
        worker.start()
        transport = None
        for _ in range(100):
            try:
                transport = connect_tcp("127.0.0.1", port, timeout=5.0)
                break
            except SessionError:
                time.sleep(0.05)
        assert transport is not None, "server never started listening"
        queries = corpus.vectors.take([0, 1, 2])
        config = SessionConfig(n=corpus.dims, epsilon=0.8)
        try:
            report = run_detection(queries, config, transport)
        finally:
            transport.close()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert outcome["code"] == 0
        assert not report.aborted
        assert report.metrics.pairs_total == 3 * len(corpus)
        out = capsys.readouterr().out
        assert f"serving {len(corpus)} documents" in out
        # BASE: every query gets a full response from every document
        mults = 3 * sum(v.nnz[0] for v in corpus.vectors) * (1 + (corpus.dims + 1) // 2)
        assert f"session 0: {mults} response multiplications" in out
