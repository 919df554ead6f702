"""Command-line front end.

Subcommands:

- ingest: parse a docword file (optionally checking a vocabulary), or
  read a cache, into the binary corpus cache; --limit N keeps its first N
  documents.
- serve: host a corpus as the responding side on a TCP port.
- detect: run the detection protocol for seeded query documents of a
  corpus against its other documents in-process, or, with --connect, for
  every document of the corpus against a remote server's.  --method,
  --dims and --tolerance take comma lists, and detect runs one session
  per cell of their grid, printing a summary line for each.  --report
  writes the sessions as CSV, one row each, read off the session's report:
  method, f, epsilon, its pair counts and filter_ratio, the bytes each
  side sent, wall_ms and similar_pairs.
- oracle: plaintext exhaustive ground truth for the in-process split;
  --report writes its similar pairs as CSV.

A party's corpus file is its documents: every other command reads its
file whole, and only a run that holds both parties splits one file into
queries and targets.  To run on part of a corpus, ingest that part first
(``ssdd ingest kos.bin --limit 200 --out kos200.bin``).

A filter budget (--dims) is a count, such as 69, or a percentage of the
vocabulary width n, such as 1%.  It is given exactly when some listed
method filters.

Exit codes: 0 success, 1 usage error, 2 runtime or protocol error.
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

import numpy as np

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
    DISCLOSURE_WARNING,
    AliceSession,
    BobResponder,
    DetectionReport,
    SessionConfig,
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


def load_corpus(path: str) -> Corpus:
    """Load a cache or docword file, sniffing the format from the header."""
    p = Path(path)
    with open(p, "rb") as fh:
        magic = fh.read(len(CACHE_MAGIC))
    if magic == CACHE_MAGIC:
        return load_cache(p)
    with open(p, "r", encoding="utf-8") as fh:
        return parse_bag_of_words(fh)


def _comma_list(kind):
    """An argument type: a comma-separated list of one or more ``kind``
    values."""

    def comma_list(text: str) -> list:
        items = [kind(item) for item in text.split(",") if item]
        if not items:
            raise argparse.ArgumentTypeError(f"expected one or more values, got {text!r}")
        return items

    return comma_list


def _integer(low: int, high: float = float("inf")):
    """An argument type: an integer in [low, high)."""

    def integer(text: str) -> int:
        value = int(text)
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"expected an integer in [{low}, {high}), got {text}")
        return value

    return integer


def _budget(text: str):
    """A filter budget, as f for a vocabulary width n: a count of 1 or more,
    or a percentage of n in [0, 100] (``1%``), rounded, at least 1."""
    if text.endswith("%"):
        pct = float(text[:-1])
        if not 0.0 <= pct <= 100.0:  # NaN included
            raise argparse.ArgumentTypeError(f"expected a percentage in [0, 100], got {text}")
        return lambda n: max(1, round(n * pct / 100.0))
    f = _integer(1)(text)
    return lambda n: f


def _method(text: str) -> SelectionMethod:
    try:
        return SelectionMethod.parse(text)
    except RangeError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _host_port(text: str) -> tuple[str, int]:
    """HOST:PORT, the port an integer in [0, 65535]."""
    host, _, port = text.rpartition(":")
    try:
        if not host or not port.isdigit():
            raise ValueError
        return host, _integer(0, 2**16)(port)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT with a port in [0, 65535], got {text!r}"
        ) from None


def cmd_ingest(args) -> int:
    corpus = load_corpus(args.docword)
    if args.limit is not None and args.limit < len(corpus):
        corpus = corpus.subset(range(args.limit))
    if args.vocab:
        with open(args.vocab, "r", encoding="utf-8") as fh:
            vocab = load_vocabulary(fh)
        if len(vocab) != corpus.dims:
            print(
                f"error: vocabulary has {len(vocab)} terms, "
                f"corpus has {corpus.dims} terms",
                file=sys.stderr,
            )
            return RUNTIME_ERROR
    save_cache(corpus, args.out)
    print(
        f"{args.out}: {len(corpus)} documents, {corpus.dims} dims, "
        f"{corpus.counts.indices.size} entries, {corpus.counts.weights.sum()} tokens"
    )
    return 0


def cmd_serve(args) -> int:
    # the vectors only: a served corpus keeps no counts
    targets = load_corpus(args.corpus).vectors
    host, port = args.listen
    server = TcpServer(lambda: BobResponder(targets), host=host, port=port)
    print(f"serving {len(targets)} documents on {server.host}:{server.port}")
    try:
        if args.once:
            server.handle_request()
        else:
            server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()  # waits for running sessions
        first = server.sessions - len(server.responders)
        for i, responder in enumerate(server.responders, start=first):
            print(
                f"session {i}: {responder.scalar_mult_count} "
                "response multiplications"
            )
    return 0


def _split(args, corpus: Corpus):
    """The seeded query/target split of a local run, as document ids and
    as vectors."""
    ids = split_queries(corpus, k=args.queries, seed=args.seed)
    return ids, [corpus.vectors.take(i) for i in ids]


# detect --report's columns, one row per session; re-running an identical
# command reproduces the file byte for byte except the wall_ms column
REPORT_COLUMNS = (
    "method", "f", "epsilon", "pairs_total", "pairs_filtered", "filter_ratio",
    "full_products", "bytes_sent_alice", "bytes_sent_bob", "wall_ms", "similar_pairs",
)

_SUMMARY = (
    "method={method} f={f} tolerance={epsilon} pairs={pairs_total} "
    "filtered={pairs_filtered} ratio={filter_ratio:.4f} full={full_products} "
    "similar={similar_pairs} wall_ms={wall_ms:.1f} per_query_ms={per_query_ms:.1f}"
)


def _report_row(report: DetectionReport) -> dict:
    """A session's values under REPORT_COLUMNS, read off its report."""
    config, m = report.config, report.metrics
    values = (
        config.method.name.lower(), config.f, config.epsilon,
        m.pairs_total, m.pairs_filtered, m.filter_ratio, m.full_products,
        m.bytes_sent_alice, m.bytes_sent_bob, m.wall_time * 1000.0,
        int(report.similar.sum()),
    )
    return dict(zip(REPORT_COLUMNS, values))


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _first_only(message: str):
    """A logging filter that passes the first record of ``message`` and
    drops the records that repeat it."""
    seen = False

    def first_only(record: logging.LogRecord) -> bool:
        nonlocal seen
        if record.msg != message:
            return True
        passed, seen = not seen, True
        return passed

    return first_only


def cmd_detect(args) -> int:
    methods = sorted(set(args.method))  # wire-code order
    filtering = [m.name.lower() for m in methods if m.uses_filter]
    if bool(filtering) != (args.dims is not None):
        named, need = (",".join(filtering), "needs") if filtering else ("base", "takes no")
        print(f"error: --method {named} {need} --dims", file=sys.stderr)
        return USAGE_ERROR
    corpus = load_corpus(args.corpus)
    budgets = sorted({budget(corpus.dims) for budget in args.dims or ()})
    configs = [
        SessionConfig(n=corpus.dims, epsilon=epsilon, method=method, f=f, seed=args.seed)
        for method in methods
        for f in (budgets if method.uses_filter else [0])
        for epsilon in sorted(set(args.tolerance))
    ]
    if args.connect is None:
        _, (queries, targets) = _split(args, corpus)
    else:
        queries = corpus.vectors

    rows, aborted = [], False
    # every LF or HF session logs the disclosure warning; say it once
    session_log = logging.getLogger(AliceSession.__module__)
    once = _first_only(DISCLOSURE_WARNING)
    session_log.addFilter(once)
    try:
        for config in configs:
            if args.connect is None:
                report = run_local_detection(queries, config, targets)
            else:
                transport = connect_tcp(*args.connect)
                try:
                    report = AliceSession(config, queries, transport).run()
                finally:
                    transport.close()
            rows.append(_report_row(report))
            per_query_ms = rows[-1]["wall_ms"] / len(queries) if len(queries) else 0.0
            print(_SUMMARY.format(**rows[-1], per_query_ms=per_query_ms))
            aborted |= report.aborted
    finally:
        session_log.removeFilter(once)
        # the rows run so far, also when a later cell cannot connect
        if args.report:
            _write_csv(args.report, REPORT_COLUMNS, (row.values() for row in rows))
    if aborted:
        print("error: session aborted before completion", file=sys.stderr)
        return RUNTIME_ERROR
    return 0


def cmd_oracle(args) -> int:
    corpus = load_corpus(args.corpus)
    (query_ids, target_ids), (queries, targets) = _split(args, corpus)
    result = oracle_detect(queries, targets, args.tolerance)
    pairs = np.argwhere(result.similar).tolist()
    if args.report:
        _write_csv(
            args.report,
            ("query_doc", "target_doc", "cosine"),
            ((query_ids[qi], target_ids[ti], result.cosines[(qi, ti)]) for qi, ti in pairs),
        )
    print(f"tolerance={args.tolerance} similar_pairs={len(pairs)}")
    return 0


def _add_split_options(p, group=None) -> None:
    """The options of the seeded query/target split, shared by detect and
    oracle; --queries goes into ``group``, else into ``p``."""
    # a str default: argparse tells a given value from the default by
    # identity, and an int default of 10 is the very object `--queries 10`
    # parses to, which would slip past a mutually exclusive group
    (group or p).add_argument("--queries", type=_integer(1), default="10")
    p.add_argument("--seed", type=_integer(0, 2**64), default=0)


def build_parser() -> _Parser:
    parser = _Parser(prog="ssdd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="docword file or cache to binary corpus cache")
    p.add_argument("docword")
    p.add_argument("--vocab", help="vocabulary file to validate against")
    p.add_argument("--out", required=True)
    p.add_argument("--limit", type=_integer(0), help="keep only the first N documents")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("serve", help="host a corpus for remote detection")
    p.add_argument("corpus")
    p.add_argument("--listen", type=_host_port, default=("127.0.0.1", 7643))
    p.add_argument("--once", action="store_true", help="exit after one session")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("detect", help="run the detection protocol, comma lists as a grid")
    p.add_argument("corpus", help="queries and targets, or only queries with --connect")
    remote = p.add_mutually_exclusive_group()
    remote.add_argument("--connect", type=_host_port, help="remote responder HOST:PORT")
    p.add_argument("--method", type=_comma_list(_method), default="base", help="base|rp|lf|gf|hf")
    p.add_argument("--tolerance", type=_comma_list(float), default="0.8")
    p.add_argument("--dims", type=_comma_list(_budget), help="filter budgets f: N, or P%% of n")
    _add_split_options(p, remote)
    p.add_argument("--report", help="write one CSV row per session here")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("oracle", help="plaintext ground truth")
    p.add_argument("corpus")
    p.add_argument("--tolerance", type=float, default=0.8)
    _add_split_options(p)
    p.add_argument("--report", help="write similar pairs as CSV here")
    p.set_defaults(func=cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SsddError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
