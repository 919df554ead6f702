"""Benchmark grid runs and CSV reporting.

A report row has a fixed 11-column schema::

    method, f, epsilon, pairs_total, pairs_filtered, filter_ratio,
    full_products, bytes_sent_alice, bytes_sent_bob, wall_ms, similar_pairs

Rows are emitted in deterministic order (method, then f, then tolerance) so
re-running an identical configuration reproduces the file byte for byte
except the wall_ms column.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from typing import IO, Sequence

from .corpus import Corpus, split_queries
from .errors import RangeError
from .protocol.session import (
    DetectionReport,
    SessionConfig,
    run_local_detection,
)
from .selection import SelectionMethod

__all__ = [
    "REPORT_COLUMNS",
    "BenchRow",
    "row_from_report",
    "run_bench",
    "write_report_csv",
]

@dataclass(frozen=True)
class BenchRow:
    method: str
    f: int
    epsilon: float
    pairs_total: int
    pairs_filtered: int
    filter_ratio: float
    full_products: int
    bytes_sent_alice: int
    bytes_sent_bob: int
    wall_ms: float
    similar_pairs: int

    def as_tuple(self) -> tuple:
        return astuple(self)


REPORT_COLUMNS = tuple(field.name for field in fields(BenchRow))


def row_from_report(report: DetectionReport) -> BenchRow:
    m = report.metrics
    return BenchRow(
        method=report.config.method.name.lower(),
        f=report.config.f,
        epsilon=report.config.epsilon,
        pairs_total=m.pairs_total,
        pairs_filtered=m.pairs_filtered,
        filter_ratio=m.filter_ratio,
        full_products=m.full_products,
        bytes_sent_alice=m.bytes_sent_alice,
        bytes_sent_bob=m.bytes_sent_bob,
        wall_ms=m.wall_time * 1000.0,
        similar_pairs=int(report.similar.sum()),
    )


def run_bench(
    corpus: Corpus,
    methods: Sequence[SelectionMethod],
    f_values: Sequence[int],
    tolerances: Sequence[float],
    queries: int = 10,
    seed: int = 0,
    overlap: bool = False,
) -> list[BenchRow]:
    """One detection run per grid cell, in deterministic order.

    BASE ignores the dimension budget, so it contributes one row per
    tolerance with f recorded as 0.  The same seeded query split serves
    every cell.
    """
    if not methods:
        raise RangeError("no methods to run")
    if not tolerances:
        raise RangeError("no tolerances to run")
    query_ids, target_ids = split_queries(corpus, k=queries, seed=seed, overlap=overlap)
    query_vecs = corpus.vectors.take(query_ids)
    # one packed target set, and one term-major view of it, for every cell
    target_vecs = corpus.vectors.take(target_ids)
    rows: list[BenchRow] = []
    for method in sorted(set(methods)):
        per_method_f = [0] if method is SelectionMethod.BASE else sorted(set(f_values))
        if method.uses_filter and not per_method_f:
            raise RangeError(f"{method.name} needs at least one dimension budget")
        for f in per_method_f:
            for epsilon in sorted(set(tolerances)):
                config = SessionConfig(
                    n=corpus.dims, epsilon=epsilon, method=method, f=f, seed=seed
                )
                report = run_local_detection(query_vecs, config, target_vecs)
                rows.append(row_from_report(report))
    return rows


def write_report_csv(rows: Sequence[BenchRow], out: IO[str]) -> None:
    writer = csv.writer(out)
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow(row.as_tuple())
