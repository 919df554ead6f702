"""Benchmark report rows and their CSV.

``row_from_report`` makes one row of a session's report.  A row has a
fixed 11-column schema::

    method, f, epsilon, pairs_total, pairs_filtered, filter_ratio,
    full_products, bytes_sent_alice, bytes_sent_bob, wall_ms, similar_pairs

``ssdd detect`` writes one row per cell of its method x f x tolerance
grid, in that order, so re-running an identical command reproduces the
file byte for byte except the wall_ms column.
"""

from __future__ import annotations

import csv
from dataclasses import astuple, dataclass, fields
from typing import IO, Sequence

from .protocol.session import DetectionReport

__all__ = [
    "REPORT_COLUMNS",
    "BenchRow",
    "row_from_report",
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


def write_report_csv(rows: Sequence[BenchRow], out: IO[str]) -> None:
    writer = csv.writer(out)
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow(row.as_tuple())
