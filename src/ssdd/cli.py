"""Command-line front end.

Subcommands:

- ingest: parse a docword file (optionally checking a vocabulary) into the
  binary corpus cache.
- serve: host a corpus as the responding side on a TCP port.
- detect: run the detection protocol for seeded query documents, either
  against a local in-process responder or a remote server.
- oracle: plaintext exhaustive ground truth for the same split.
- bench: grid of detection runs written as a CSV report.

Exit codes: 0 success, 1 usage error, 2 runtime or protocol error.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

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
from .errors import SsddError
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


def _numbers(kind):
    """An argument type: a comma-separated list of ``kind`` values."""

    def numbers(text: str) -> list:
        return [kind(item) for item in text.split(",") if item]

    return numbers


def _filter_budgets(args, n: int) -> list[int]:
    """The filter budgets f: --dims as given, else each --dims-pct value as
    that percentage of n, at least 1; none without either."""
    if args.dims:
        return args.dims
    return [max(1, round(n * pct / 100.0)) for pct in args.dims_pct or ()]


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
    stats = corpus.stats()
    print(
        f"{args.out}: {stats.documents} documents, {stats.dims} dims, "
        f"{stats.nnz_entries} entries, {stats.total_tokens} tokens"
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


def _print_summary(report, queries: int) -> None:
    m = report.metrics
    mean_ms = m.wall_time * 1000.0 / queries if queries else 0.0
    print(
        f"method={report.config.method.name.lower()} f={report.config.f} "
        f"tolerance={report.config.epsilon} pairs={m.pairs_total} "
        f"filtered={m.pairs_filtered} ratio={m.filter_ratio:.4f} "
        f"full={m.full_products} similar={report.similar.sum()} "
        f"wall_ms={m.wall_time * 1000.0:.1f} per_query_ms={mean_ms:.1f}"
    )


def cmd_detect(args) -> int:
    method = SelectionMethod.parse(args.method)
    if args.local_bob is None and args.connect is None:
        print(
            "error: choose --local-bob CORPUS or --connect HOST:PORT",
            file=sys.stderr,
        )
        return USAGE_ERROR
    source = args.local_bob or args.corpus
    if source is None:
        print("error: --connect needs --corpus for the query side", file=sys.stderr)
        return USAGE_ERROR
    corpus = load_corpus(source, args.limit)
    budgets = _filter_budgets(args, corpus.dims)
    if len(budgets) > 1:
        print("error: detect takes one filter budget", file=sys.stderr)
        return USAGE_ERROR
    f = budgets[0] if budgets else 0
    config = SessionConfig(
        n=corpus.dims, epsilon=args.tolerance, method=method, f=f, seed=args.seed
    )
    query_ids, target_ids = split_queries(
        corpus, k=args.queries, seed=args.seed, overlap=args.overlap
    )
    query_vecs = corpus.vectors.take(query_ids)

    if args.local_bob:
        target_vecs = corpus.vectors.take(target_ids)
        report = run_local_detection(query_vecs, config, target_vecs)
    else:
        host, port = args.connect
        transport = connect_tcp(host, port)
        try:
            report = run_detection(query_vecs, config, transport)
        finally:
            transport.close()

    _print_summary(report, len(query_vecs))
    if args.report:
        with open(args.report, "w", newline="", encoding="utf-8") as fh:
            write_report_csv([row_from_report(report)], fh)
    if report.aborted:
        print("error: session aborted before completion", file=sys.stderr)
        return RUNTIME_ERROR
    return 0


def cmd_oracle(args) -> int:
    corpus = load_corpus(args.corpus, args.limit)
    query_ids, target_ids = split_queries(
        corpus, k=args.queries, seed=args.seed, overlap=args.overlap
    )
    result = oracle_detect(
        corpus.vectors.take(query_ids),
        corpus.vectors.take(target_ids),
        args.tolerance,
    )
    lines = sorted(result.pairs)
    if args.report:
        import csv

        with open(args.report, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("query_doc", "target_doc", "cosine"))
            for qi, ti in lines:
                writer.writerow(
                    (query_ids[qi], target_ids[ti], result.cosines[(qi, ti)])
                )
    print(f"tolerance={args.tolerance} similar_pairs={len(lines)}")
    return 0


def cmd_bench(args) -> int:
    limit = None if args.full else 200 if args.limit is None else args.limit
    corpus = load_corpus(args.corpus, limit)
    methods = [SelectionMethod.parse(m) for m in args.methods.split(",") if m]
    tolerances = [float(t) for t in args.tolerances.split(",") if t]
    rows = run_bench(
        corpus,
        methods,
        _filter_budgets(args, corpus.dims),
        tolerances,
        queries=args.queries,
        seed=args.seed,
        overlap=args.overlap,
    )
    with open(args.report, "w", newline="", encoding="utf-8") as fh:
        write_report_csv(rows, fh)
    print(f"{args.report}: {len(rows)} rows over {len(corpus)} documents")
    return 0


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
    p.add_argument("--method", default="base", help="base|rp|lf|gf|hf")
    p.add_argument("--tolerance", type=float, default=0.8)
    p.add_argument("--dims", type=_numbers(int), help="filter dimension budget f")
    p.add_argument("--dims-pct", type=_numbers(float), help="f as a percentage of n")
    p.add_argument("--queries", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=_limit)
    p.add_argument("--overlap", action="store_true", help="targets keep query docs")
    p.add_argument("--report", help="write the run's CSV row here")
    p.add_argument("--local-bob", metavar="CORPUS", help="single-process run")
    p.add_argument("--connect", type=_host_port, help="remote responder HOST:PORT")
    p.add_argument("--corpus", help="query-side corpus (with --connect)")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("oracle", help="plaintext ground truth")
    p.add_argument("corpus")
    p.add_argument("--tolerance", type=float, default=0.8)
    p.add_argument("--queries", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=_limit)
    p.add_argument("--overlap", action="store_true")
    p.add_argument("--report", help="write similar pairs as CSV here")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="grid of runs to a CSV report")
    p.add_argument("corpus")
    p.add_argument("--methods", default="base,rp,lf,gf,hf")
    p.add_argument("--tolerances", default="0.75,0.8,0.85,0.9,0.95")
    p.add_argument("--dims", type=_numbers(int), help="comma list of dimension budgets")
    p.add_argument("--dims-pct", type=_numbers(float), help="comma list of percentages of n")
    p.add_argument("--queries", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--overlap", action="store_true")
    p.add_argument("--limit", type=_limit, help="first-N-document subset (default 200)")
    p.add_argument("--full", action="store_true", help="run the whole corpus")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_bench)

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
