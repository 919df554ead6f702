"""Command-line front end.

Subcommands:

- ingest: parse a docword file (optionally checking a vocabulary) into the
  binary corpus cache.
- serve: host a corpus as the responding side on a TCP port.
- detect: run the detection protocol for seeded query documents of a
  corpus: against its other documents in-process, or, with --connect,
  against a remote server.
- oracle: plaintext exhaustive ground truth for the same split.
- bench: grid of detection runs written as a CSV report.

A filter budget (--dims) is a count, such as 69, or a percentage of the
vocabulary width n, such as 1%.

Exit codes: 0 success, 1 usage error, 2 runtime or protocol error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .bench import row_from_report, run_bench, write_report_csv
from .corpus import (
    CACHE_MAGIC,
    Corpus,
    load_cache,
    load_vocabulary,
    parse_bag_of_words,
    save_cache,
    split_queries,
)
from .errors import RangeError, SsddError
from .oracle import oracle_detect
from .protocol.session import (
    BobResponder,
    SessionConfig,
    run_detection,
    run_local_detection,
)
from .protocol.transport import TcpServer, connect_tcp
from .selection import SelectionMethod

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def load_corpus(path: str, limit: int | None = None) -> Corpus:
    """Load a cache or docword file, sniffing the format from the header."""
    p = Path(path)
    with open(p, "rb") as fh:
        magic = fh.read(len(CACHE_MAGIC))
    if magic == CACHE_MAGIC:
        corpus = load_cache(p)
    else:
        with open(p, "r", encoding="utf-8") as fh:
            corpus = parse_bag_of_words(fh)
    if limit is not None and limit < len(corpus):
        corpus = corpus.subset(range(limit))
    return corpus


def _comma_list(kind):
    """An argument type: a comma-separated list of ``kind`` values."""

    def comma_list(text: str) -> list:
        return [kind(item) for item in text.split(",") if item]

    return comma_list


def _budget(text: str):
    """A filter budget, as f for a vocabulary width n: a count of 1 or more,
    or a percentage of n in [0, 100] (``1%``), rounded, at least 1."""
    if text.endswith("%"):
        pct = float(text[:-1])
        if not 0.0 <= pct <= 100.0:  # NaN included
            raise argparse.ArgumentTypeError(f"expected a percentage in [0, 100], got {text}")
        return lambda n: max(1, round(n * pct / 100.0))
    f = int(text)
    if f < 1:
        raise argparse.ArgumentTypeError(f"expected a count of 1 or more, got {f}")
    return lambda n: f


def _method(text: str) -> SelectionMethod:
    try:
        return SelectionMethod.parse(text)
    except RangeError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _limit(text: str) -> int:
    """A document count: an integer, 0 or more."""
    limit = int(text)
    if limit < 0:
        raise argparse.ArgumentTypeError(f"expected a count of 0 or more, got {limit}")
    return limit


def _host_port(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def cmd_ingest(args) -> int:
    corpus = load_corpus(args.docword, args.limit)
    if args.vocab:
        with open(args.vocab, "r", encoding="utf-8") as fh:
            vocab = load_vocabulary(fh)
        if len(vocab) != corpus.dims:
            print(
                f"error: vocabulary has {len(vocab)} terms, "
                f"docword header says {corpus.dims}",
                file=sys.stderr,
            )
            return RUNTIME_ERROR
    save_cache(corpus, args.out)
    tokens = None if corpus.counts is None else int(corpus.counts.weights.sum())
    print(
        f"{args.out}: {len(corpus)} documents, {corpus.dims} dims, "
        f"{corpus.vectors.indices.size} entries, {tokens} tokens"
    )
    return 0


def cmd_serve(args) -> int:
    corpus = load_corpus(args.corpus, args.limit)
    host, port = args.listen

    def factory():
        return BobResponder(corpus.vectors, dims=corpus.dims)

    server = TcpServer(factory, host=host, port=port)
    server.start()
    print(f"serving {len(corpus)} documents on {server.host}:{server.port}")
    try:
        if args.once:
            server.wait()
        else:
            while True:
                time.sleep(0.5)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
        first = server.sessions - len(server.responders)
        for i, responder in enumerate(server.responders, start=first):
            print(
                f"session {i}: {responder.scalar_mult_count} "
                "response multiplications"
            )
    return 0


def _split(args, corpus: Corpus):
    """The seeded query/target split, as document ids and as vectors."""
    ids = split_queries(corpus, k=args.queries, seed=args.seed, overlap=args.overlap)
    return ids, [corpus.vectors.take(i) for i in ids]


def _print_summary(row, queries: int) -> None:
    mean_ms = row.wall_ms / queries if queries else 0.0
    print(
        f"method={row.method} f={row.f} tolerance={row.epsilon} "
        f"pairs={row.pairs_total} filtered={row.pairs_filtered} "
        f"ratio={row.filter_ratio:.4f} full={row.full_products} "
        f"similar={row.similar_pairs} wall_ms={row.wall_ms:.1f} "
        f"per_query_ms={mean_ms:.1f}"
    )


def cmd_detect(args) -> int:
    corpus = load_corpus(args.corpus, args.limit)
    f = args.dims(corpus.dims) if args.dims else 0
    config = SessionConfig(
        n=corpus.dims, epsilon=args.tolerance, method=args.method, f=f, seed=args.seed
    )
    _, (queries, targets) = _split(args, corpus)
    if args.connect is None:
        report = run_local_detection(queries, config, targets)
    else:
        transport = connect_tcp(*args.connect)
        try:
            report = run_detection(queries, config, transport)
        finally:
            transport.close()

    row = row_from_report(report)
    _print_summary(row, len(queries))
    if args.report:
        with open(args.report, "w", newline="", encoding="utf-8") as fh:
            write_report_csv([row], fh)
    if report.aborted:
        print("error: session aborted before completion", file=sys.stderr)
        return RUNTIME_ERROR
    return 0


def cmd_oracle(args) -> int:
    corpus = load_corpus(args.corpus, args.limit)
    (query_ids, target_ids), (queries, targets) = _split(args, corpus)
    result = oracle_detect(queries, targets, args.tolerance)
    pairs = np.argwhere(result.similar).tolist()
    if args.report:
        import csv

        with open(args.report, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("query_doc", "target_doc", "cosine"))
            for qi, ti in pairs:
                writer.writerow(
                    (query_ids[qi], target_ids[ti], result.cosines[(qi, ti)])
                )
    print(f"tolerance={args.tolerance} similar_pairs={len(pairs)}")
    return 0


def cmd_bench(args) -> int:
    corpus = load_corpus(args.corpus, args.limit)
    rows = run_bench(
        corpus,
        args.methods,
        [budget(corpus.dims) for budget in args.dims or ()],
        args.tolerances,
        queries=args.queries,
        seed=args.seed,
        overlap=args.overlap,
    )
    with open(args.report, "w", newline="", encoding="utf-8") as fh:
        write_report_csv(rows, fh)
    print(f"{args.report}: {len(rows)} rows over {len(corpus)} documents")
    return 0


def _add_split_options(p, limits=None) -> None:
    """The options of the seeded query/target split, shared by detect,
    oracle and bench; --limit goes into ``limits``, else into ``p``."""
    p.add_argument("--queries", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--overlap", action="store_true", help="targets keep query docs")
    (limits or p).add_argument(
        "--limit", type=_limit, help="keep only the first N documents"
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="ssdd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="docword file to binary corpus cache")
    p.add_argument("docword")
    p.add_argument("--vocab", help="vocabulary file to validate against")
    p.add_argument("--out", required=True)
    p.add_argument("--limit", type=_limit, help="keep only the first N documents")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("serve", help="host a corpus for remote detection")
    p.add_argument("corpus")
    p.add_argument("--listen", type=_host_port, default=("127.0.0.1", 7643))
    p.add_argument("--limit", type=_limit)
    p.add_argument("--once", action="store_true", help="exit after one session")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("detect", help="run the detection protocol")
    p.add_argument("corpus", help="queries and targets, or only queries with --connect")
    p.add_argument("--connect", type=_host_port, help="remote responder HOST:PORT")
    p.add_argument("--method", type=_method, default="base", help="base|rp|lf|gf|hf")
    p.add_argument("--tolerance", type=float, default=0.8)
    p.add_argument("--dims", type=_budget, help="filter budget f: N, or P%% of n")
    _add_split_options(p)
    p.add_argument("--report", help="write the run's CSV row here")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("oracle", help="plaintext ground truth")
    p.add_argument("corpus")
    p.add_argument("--tolerance", type=float, default=0.8)
    _add_split_options(p)
    p.add_argument("--report", help="write similar pairs as CSV here")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="grid of runs to a CSV report")
    p.add_argument("corpus")
    p.add_argument("--methods", type=_comma_list(_method), default="base,rp,lf,gf,hf")
    p.add_argument(
        "--tolerances", type=_comma_list(float), default="0.75,0.8,0.85,0.9,0.95"
    )
    p.add_argument("--dims", type=_comma_list(_budget), help="comma list of filter budgets")
    limits = p.add_mutually_exclusive_group()
    _add_split_options(p, limits)
    limits.add_argument(
        "--full", action="store_const", dest="limit", const=None,
        help="run the whole corpus, not the first 200 documents",
    )
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_bench, limit=200)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR
    except (SsddError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
