"""End-to-end runs of the command-line front end via main()."""

import argparse
import csv
import logging
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from ssdd import cli
from ssdd.cli import build_parser, main
from ssdd.corpus import Corpus, RawDocument, load_cache, save_cache, split_queries
from ssdd.errors import SessionError
from ssdd.oracle import oracle_detect
from ssdd.protocol.session import (
    DISCLOSURE_WARNING,
    AliceSession,
    BobResponder,
    SessionConfig,
    run_local_detection,
)
from ssdd.protocol.transport import TcpServer, connect_tcp
from ssdd.selection import SelectionMethod

from conftest import synth_corpus, write_docword

# detect --report's header, written out so that a reordered or renamed
# column fails the tests that read it
REPORT_HEADER = [
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
        for array in ("indptr", "indices", "weights"):
            np.testing.assert_array_equal(
                getattr(cached.counts, array), getattr(corpus.counts, array)
            )
            assert getattr(cached.vectors, array).tobytes() == getattr(
                corpus.vectors, array
            ).tobytes()

    def test_vocabulary_width_is_checked(
        self, corpus, docword_path, cache_path, tmp_path, capsys
    ):
        """A docword input and a cache input are both checked against the
        corpus width, which a cache holds without a docword header."""
        good = tmp_path / "vocab.txt"
        good.write_text("".join(f"w{i:03d}\n" for i in range(corpus.dims)))
        short = tmp_path / "short.txt"
        short.write_text("".join(f"w{i:03d}\n" for i in range(corpus.dims - 1)))
        for source in (docword_path, cache_path):
            out = tmp_path / "ok.bin"
            argv = ["ingest", str(source), "--out", str(out), "--vocab"]
            assert main(argv + [str(good)]) == 0
            assert capsys.readouterr().out.startswith(f"{out}: ")
            out.unlink()
            assert main(argv + [str(short)]) == 2
            assert not out.exists()
            assert capsys.readouterr().err == (
                f"error: vocabulary has {corpus.dims - 1} terms, "
                f"corpus has {corpus.dims} terms\n"
            )

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

    def test_limit_cuts_a_cache(self, corpus, cache_path, tmp_path, capsys):
        out = tmp_path / "five-of-cache.bin"
        assert main(["ingest", str(cache_path), "--out", str(out), "--limit", "5"]) == 0
        five, cut = corpus.subset(range(5)).counts, load_cache(out).counts
        for array in ("indptr", "indices", "weights"):
            np.testing.assert_array_equal(getattr(cut, array), getattr(five, array))
        assert capsys.readouterr().out.startswith(f"{out}: 5 documents, ")

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
        assert rows[0] == REPORT_HEADER
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

    def test_filter_method_without_budget(self, cache_path, capsys):
        assert main(["detect", str(cache_path), "--method", "rp"]) == 1
        assert "--method rp needs --dims" in capsys.readouterr().err

    def test_base_with_budget_is_usage_error(self, capsys):
        # BASE uses no budget, so a given one is refused, before the absent
        # corpus is opened, rather than run and printed as its f; in a grid
        # of tolerances too
        argv = ["detect", "absent.bin", "--method", "base", "--dims", "5"]
        for tolerances in ([], ["--tolerance", "0.8,0.9"]):
            assert main(argv + tolerances) == 1
            refused = capsys.readouterr()
            assert "--method base takes no --dims" in refused.err
            assert refused.out == ""

    @pytest.mark.parametrize(
        "option, value", [("--method", ""), ("--tolerance", ","), ("--dims", ",")]
    )
    def test_empty_list_is_usage_error(self, option, value, capsys):
        # a grid of no cells is refused while parsing, before the absent
        # corpus is opened, rather than run as no session and exit 0
        argv = ["detect", "absent.bin", "--method", "rp", "--dims", "5", option, value]
        assert main(argv) == 1
        refused = capsys.readouterr()
        assert f"argument {option}: expected one or more values" in refused.err
        assert refused.out == ""

    def test_budget_count_and_percentage_run_two_sessions(self, cache_path, capsys):
        # 50% of n = 120 is 60
        argv = ["detect", str(cache_path), "--method", "rp", "--dims", "10,50%"]
        assert main(argv + ["--queries", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ")[:2] for line in lines] == [
            ["method=rp", "f=10"],
            ["method=rp", "f=60"],
        ]

    def test_local_corpus_and_connect_run_remote(self, cache_path, capsys):
        # the corpus is the query side of a remote run, not a local run
        # that silently ignores --connect
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert main(["detect", str(cache_path), "--connect", f"127.0.0.1:{port}"]) == 2
        assert "method=" not in capsys.readouterr().out

    def test_two_budgets_run_two_sessions(self, cache_path, capsys):
        argv = ["detect", str(cache_path), "--method", "rp", "--dims", "1,2"]
        assert main(argv + ["--queries", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(" ")[:2] for line in lines] == [
            ["method=rp", "f=1"],
            ["method=rp", "f=2"],
        ]

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

    def test_option_count(self):
        """Each settable option is one more setting for tests to cover, so
        a new one has to raise this bound on purpose."""
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = [
            (name, action.dest)
            for name, command in commands.choices.items()
            for action in command._actions
            if action.option_strings and action.dest != "help"
        ]
        assert len(options) <= 16, options

    def test_bad_host_port(self, capsys):
        # refused while parsing, before the absent corpus is opened or a
        # socket made
        for command in (["detect", "x", "--connect"], ["serve", "x", "--once", "--listen"]):
            for text in ("nonsense", "127.0.0.1:65536", "127.0.0.1:70000"):
                assert main(command + [text]) == 1
                assert "HOST:PORT" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["serve", "absent.bin"],
            ["detect", "absent.bin"],
            ["oracle", "absent.bin"],
        ],
    )
    def test_limit_is_ingest_only(self, command, capsys):
        # every other command reads its file whole: refused while parsing,
        # before the absent corpus is opened
        assert main(command + ["--limit", "5"]) == 1
        assert "unrecognized arguments: --limit 5" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [["--queries", "0"], ["--queries", "-2"], ["--seed", "-1"], ["--seed", str(2**64)]],
        ids=["queries=0", "queries=-2", "seed=-1", "seed=2**64"],
    )
    @pytest.mark.parametrize("command", ["detect", "oracle"])
    def test_split_option_outside_its_range_is_usage_error(self, command, option, capsys):
        # refused while parsing, before the absent corpus is opened
        assert main([command, "absent.bin", *option]) == 1
        refused = capsys.readouterr()
        assert f"argument {option[0]}" in refused.err and option[1] in refused.err

    @pytest.mark.parametrize("value", ["inf%", "-inf%", "nan%", "-5%", "101%", "0", "-5"])
    @pytest.mark.parametrize("command", ["detect"])
    def test_budget_outside_its_range_is_usage_error(
        self, cache_path, tmp_path, capsys, command, value
    ):
        """A non-finite, negative or over-100 percentage, and a count below 1,
        are refused while parsing: no run starts and no report is written."""
        report = tmp_path / "never.csv"
        argv = [command, str(cache_path), f"--dims={value}", "--report", str(report)]
        assert main(argv + ["--method", "hf"]) == 1
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

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_the_ends_of_its_range(self, cache_path, capsys, seed):
        assert main(["oracle", str(cache_path), "--seed", str(seed)]) == 0
        assert "similar_pairs=" in capsys.readouterr().out


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestDetectGrid:
    """detect over comma lists: one session per method x f x tolerance
    cell, one summary line and one report row each."""

    def test_grid_to_csv(self, cache_path, tmp_path, capsys):
        report = tmp_path / "grid.csv"
        code = main(
            [
                "detect",
                str(cache_path),
                "--method",
                "base,lf",
                "--dims",
                "15",
                "--tolerance",
                "0.8,0.9",
                "--queries",
                "4",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        with report.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == REPORT_HEADER
        assert len(rows) == 5

    def test_budget_counts_and_percentages(self, cache_path, tmp_path, capsys):
        # 10% of n = 120 is 12, the same f as the count 12: one row per f
        report = tmp_path / "budgets.csv"
        code = main(
            [
                "detect",
                str(cache_path),
                "--method",
                "lf",
                "--dims",
                "5,10%,12",
                "--tolerance",
                "0.8",
                "--queries",
                "4",
                "--report",
                str(report),
            ]
        )
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 2
        assert [row["f"] for row in read_rows(report)] == ["5", "12"]

    def test_reads_the_whole_corpus_without_limit(self, tmp_path, capsys):
        path = tmp_path / "large.bin"
        save_cache(synth_corpus(n_docs=210, dims=60, seed=5, mean_terms=20), path)
        report = tmp_path / "large.csv"
        argv = ["detect", str(path), "--method", "base", "--tolerance", "0.8"]
        assert main(argv + ["--queries", "2", "--report", str(report)]) == 0
        assert f" pairs={2 * 208} " in capsys.readouterr().out
        (row,) = read_rows(report)
        assert row["pairs_total"] == str(2 * 208)

    @pytest.mark.parametrize(
        "methods, named",
        [("rp,lf,gf,hf", "rp,lf,gf,hf"), ("base,hf", "hf")],
        ids=["all-filtering", "base-and-hf"],
    )
    def test_filter_method_without_budget(self, tmp_path, capsys, methods, named):
        # refused before the absent corpus is opened
        report = tmp_path / "never.csv"
        argv = ["detect", "absent.bin", "--report", str(report), "--method", methods]
        assert main(argv) == 1
        refused = capsys.readouterr()
        assert f"--method {named} needs --dims" in refused.err
        assert refused.out == ""
        assert not report.exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--method", "base,bogus", "unknown method 'bogus'"),
            ("--tolerance", "0.8,x", "--tolerance"),
        ],
        ids=["method", "tolerance"],
    )
    def test_bad_grid_value_is_usage_error(
        self, cache_path, tmp_path, capsys, option, value, message
    ):
        report = tmp_path / "never.csv"
        assert main(["detect", str(cache_path), option, value, "--report", str(report)]) == 1
        assert not report.exists()
        assert message in capsys.readouterr().err

    def test_disclosure_warning_once_per_detect(self, cache_path, caplog, capsys):
        """Each LF or HF session logs the disclosure warning; a grid of an
        LF and an HF cell says it once, and a session after the grid again."""
        argv = ["detect", str(cache_path), "--method", "lf,hf", "--dims", "5"]
        with caplog.at_level(logging.WARNING, logger="ssdd.protocol.session"):
            assert main(argv) == 0
            assert len(capsys.readouterr().out.splitlines()) == 2
            assert [r.getMessage() for r in caplog.records] == [DISCLOSURE_WARNING]
            config = SessionConfig(n=120, epsilon=0.8, method=SelectionMethod.HF, f=5)
            AliceSession(config, load_cache(cache_path).vectors, transport=None)
        assert [r.getMessage() for r in caplog.records] == [DISCLOSURE_WARNING] * 2

    def test_grid_equals_single_cell_runs(self, cache_path, tmp_path):
        """A grid's report holds, cell by cell, the rows that one run per
        cell writes, apart from the wall time."""
        split = ["--queries", "5", "--seed", "4"]
        grid = tmp_path / "grid.csv"
        argv = ["detect", str(cache_path), *split, "--method", "gf,base", "--dims", "8"]
        assert main(argv + ["--tolerance", "0.9,0.5", "--report", str(grid)]) == 0
        cells = [("base", "0.5"), ("base", "0.9"), ("gf", "0.5"), ("gf", "0.9")]
        single = []
        for method, tolerance in cells:
            one = tmp_path / f"{method}-{tolerance}.csv"
            argv = ["detect", str(cache_path), *split, "--method", method]
            argv += ["--dims", "8"] if method == "gf" else []
            assert main(argv + ["--tolerance", tolerance, "--report", str(one)]) == 0
            single += read_rows(one)
        rows = read_rows(grid)
        assert [(row["method"], row["epsilon"]) for row in rows] == cells
        for row in rows + single:
            del row["wall_ms"]
        assert rows == single


@pytest.fixture(scope="module")
def two_parties(tmp_path_factory):
    """Alice's file of 6 documents and Bob's file of 20, three of Bob's
    near-copies of Alice's documents 0, 2 and 5."""
    rng = np.random.default_rng(58)

    def document(i):
        terms = rng.choice(120, size=18, replace=False)
        return RawDocument(i, dict(zip(terms.tolist(), rng.integers(1, 6, 18).tolist())))

    alice = [document(i) for i in range(6)]
    bob = [document(i) for i in range(17)]
    for q in (0, 2, 5):
        counts = dict(alice[q].counts)
        counts[next(iter(counts))] += 1
        bob.append(RawDocument(len(bob), counts))
    paths = []
    for name, documents in (("alice.bin", alice), ("bob.bin", bob)):
        paths.append(tmp_path_factory.mktemp("parties") / name)
        save_cache(Corpus(120, documents), paths[-1])
    return paths


class TestRemote:
    def test_detect_against_library_server(self, two_parties, capsys):
        """Bob serves all of his file and every document of Alice's file is
        a query: the run reports the oracle's similar pairs over the two."""
        alice_path, bob_path = two_parties
        queries = load_cache(alice_path).vectors
        targets = load_cache(bob_path).vectors
        expected = int(oracle_detect(queries, targets, 0.8).similar.sum())
        assert expected >= 3
        server = TcpServer(lambda: BobResponder(targets))
        with server:
            for method in (["--method", "base"], ["--method", "hf", "--dims", "20%"]):
                argv = ["detect", str(alice_path), "--connect", f"{server.host}:{server.port}"]
                assert main(argv + method) == 0
                out = capsys.readouterr().out
                assert f"pairs={len(queries) * len(targets)} " in out
                assert f" similar={expected} " in out

    def test_serving_the_queried_file_pairs_each_query_with_itself(
        self, cache_path, capsys
    ):
        # a query meets itself only when Bob's file holds it, and then the
        # oracle over the same two files counts that pair too
        vectors = load_cache(cache_path).vectors
        oracle = oracle_detect(vectors, vectors, 0.8)
        assert oracle.similar.diagonal().all()
        server = TcpServer(lambda: BobResponder(vectors))
        with server:
            argv = ["detect", str(cache_path), "--connect", f"{server.host}:{server.port}"]
            assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"pairs={len(vectors) ** 2} " in out
        assert f" similar={int(oracle.similar.sum())} " in out

    def test_bob_ending_the_session_exits_2(self, tmp_path, capsys, caplog):
        """Bob refuses a Hello for 200 dims over his 300-dim corpus and
        closes the connection: detect prints the aborted run's summary,
        then the error, and exits 2."""
        queries = tmp_path / "queries.bin"
        save_cache(synth_corpus(n_docs=4, dims=200, seed=3, mean_terms=10), queries)
        targets = synth_corpus(n_docs=5, dims=300, seed=4, mean_terms=10).vectors
        with caplog.at_level("ERROR", logger="ssdd.protocol.transport"):
            with TcpServer(lambda: BobResponder(targets)) as server:
                argv = ["detect", str(queries), "--connect", f"{server.host}:{server.port}"]
                assert main(argv) == 2
        assert "query side expects 200 dims, corpus has 300" in caplog.text
        out, err = capsys.readouterr()
        assert out.startswith("method=base f=0 tolerance=0.8 pairs=0 ")
        assert err.endswith("error: session aborted before completion\n")

    def test_grid_against_library_server(self, two_parties, capsys):
        """Each cell of a remote grid is a session of its own, in cell
        order, and each reports the oracle's similar pairs."""
        alice_path, bob_path = two_parties
        queries = load_cache(alice_path).vectors
        targets = load_cache(bob_path).vectors
        expected = int(oracle_detect(queries, targets, 0.8).similar.sum())
        with TcpServer(lambda: BobResponder(targets)) as server:
            argv = ["detect", str(alice_path), "--connect", f"{server.host}:{server.port}"]
            assert main(argv + ["--method", "gf,base", "--dims", "20%"]) == 0
            sessions = server.sessions
        lines = capsys.readouterr().out.splitlines()
        assert sessions == 2
        assert [line.split(" ")[:2] for line in lines] == [
            ["method=base", "f=0"],
            ["method=gf", "f=24"],
        ]
        for line in lines:
            assert f" similar={expected} " in line

    def test_grid_with_refused_hello_exits_2(self, tmp_path, capsys, caplog):
        """Bob refuses every session's Hello: detect runs every cell, prints
        every summary line, writes every row, then the error, and exits 2."""
        queries = tmp_path / "queries.bin"
        save_cache(synth_corpus(n_docs=4, dims=200, seed=3, mean_terms=10), queries)
        targets = synth_corpus(n_docs=5, dims=300, seed=4, mean_terms=10).vectors
        report = tmp_path / "aborted.csv"
        with caplog.at_level("ERROR", logger="ssdd.protocol.transport"):
            with TcpServer(lambda: BobResponder(targets)) as server:
                argv = ["detect", str(queries), "--connect", f"{server.host}:{server.port}"]
                argv += ["--tolerance", "0.8,0.9", "--report", str(report)]
                assert main(argv) == 2
                sessions = server.sessions
        assert sessions == 2
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("method=base f=0 tolerance=0.8 pairs=0 ")
        assert lines[1].startswith("method=base f=0 tolerance=0.9 pairs=0 ")
        assert err == "error: session aborted before completion\n"
        assert [row["pairs_total"] for row in read_rows(report)] == ["0", "0"]

    def test_unreachable_cell_keeps_the_rows_run(
        self, two_parties, tmp_path, monkeypatch, capsys
    ):
        """The second cell of a remote grid meets a closed port: detect
        writes the first cell's row, then reports the error and exits 2."""
        alice_path, bob_path = two_parties
        targets = load_cache(bob_path).vectors
        closed = free_port()
        ports = []

        def connect(host, port, *args, **kwargs):
            ports.append(closed if ports else port)
            return connect_tcp(host, ports[-1], *args, **kwargs)

        monkeypatch.setattr(cli, "connect_tcp", connect)
        report = tmp_path / "partial.csv"
        with TcpServer(lambda: BobResponder(targets)) as server:
            argv = ["detect", str(alice_path), "--connect", f"{server.host}:{server.port}"]
            argv += ["--tolerance", "0.8,0.9", "--report", str(report)]
            assert main(argv) == 2
        assert ports == [server.port, closed]
        out, err = capsys.readouterr()
        assert out.startswith("method=base f=0 tolerance=0.8 pairs=120 ")
        assert len(out.splitlines()) == 1
        assert err.startswith(f"error: cannot connect to 127.0.0.1:{closed}: ")
        rows = read_rows(report)
        assert [(row["epsilon"], row["pairs_total"]) for row in rows] == [("0.8", "120")]

    @pytest.mark.parametrize("count", ["3", "10"])
    def test_queries_with_connect_is_usage_error(self, cache_path, capsys, count):
        # refused while parsing, so no socket is made; 10 is the default
        argv = ["detect", str(cache_path), "--connect", "127.0.0.1:1", "--queries", count]
        assert main(argv) == 1
        refused = capsys.readouterr()
        assert "argument --queries: not allowed with argument --connect" in refused.err
        assert refused.out == ""

    def test_serve_once_round_trip(self, corpus, cache_path, capsys):
        port = free_port()
        outcome = {}

        def run_server():
            outcome["code"] = main(
                ["serve", str(cache_path), "--listen", f"127.0.0.1:{port}", "--once"]
            )

        worker = threading.Thread(target=run_server, daemon=True)
        worker.start()
        base_session(corpus, port)
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert outcome["code"] == 0
        out = capsys.readouterr().out
        assert f"serving {len(corpus)} documents" in out
        assert f"session 0: {base_mults(corpus)} response multiplications" in out

    def test_serve_runs_until_interrupted(self, corpus, cache_path):
        """Without --once, `ssdd serve` serves until SIGINT, then exits 0
        and reports each session it served.  The server starts with SIGINT
        at its default action: a shell that runs the suite as a background
        job ignores SIGINT, a child would inherit that, and Python installs
        no KeyboardInterrupt handler for a signal ignored at startup."""
        port = free_port()
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        argv = [sys.executable, "-m", "ssdd.cli", "serve", str(cache_path)]
        argv += ["--listen", f"127.0.0.1:{port}"]
        with subprocess.Popen(
            argv,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        ) as server:
            try:
                base_session(corpus, port)
                server.send_signal(signal.SIGINT)
                out, err = server.communicate(timeout=30.0)
            finally:
                server.kill()
        assert server.returncode == 0, err
        assert f"serving {len(corpus)} documents" in out
        assert f"session 0: {base_mults(corpus)} response multiplications\n" in out


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def base_session(corpus, port: int) -> None:
    """One BASE session of the corpus's first three documents against the
    server on ``port``, once it listens."""
    transport = None
    for _ in range(200):
        try:
            transport = connect_tcp("127.0.0.1", port, timeout=5.0)
            break
        except SessionError:
            time.sleep(0.05)
    assert transport is not None, "server never started listening"
    queries = corpus.vectors.take([0, 1, 2])
    config = SessionConfig(n=corpus.dims, epsilon=0.8)
    try:
        report = AliceSession(config, queries, transport).run()
    finally:
        transport.close()
    assert not report.aborted
    assert report.metrics.pairs_total == 3 * len(corpus)


def base_mults(corpus) -> int:
    """Bob's response multiplications for base_session: every query gets a
    full response from every document."""
    return 3 * sum(v.nnz[0] for v in corpus.vectors) * (1 + (corpus.dims + 1) // 2)
