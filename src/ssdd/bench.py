"""Benchmark grid runs and CSV reporting.

``run_bench`` runs one in-process session per grid cell over the query and
target sets it is given.

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

from .errors import RangeError
from .protocol.session import (
    DetectionReport,
    SessionConfig,
    run_local_detection,
)
from .selection import SelectionMethod
from .vectors import PackedDocs

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
    queries: PackedDocs,
    targets: PackedDocs,
    methods: Sequence[SelectionMethod],
    f_values: Sequence[int],
    tolerances: Sequence[float],
    seed: int = 0,
) -> list[BenchRow]:
    """One detection run of ``queries`` against ``targets`` per grid cell,
    in deterministic order, each session seeded by ``seed``.

    BASE ignores the dimension budget, so it contributes one row per
    tolerance with f recorded as 0.  Every cell shares the one packed
    target set, and so one term-major view of it.
    """
    if not methods:
        raise RangeError("no methods to run")
    if not tolerances:
        raise RangeError("no tolerances to run")
    rows: list[BenchRow] = []
    for method in sorted(set(methods)):
        per_method_f = [0] if method is SelectionMethod.BASE else sorted(set(f_values))
        if method.uses_filter and not per_method_f:
            raise RangeError(f"{method.name} needs at least one dimension budget")
        for f in per_method_f:
            for epsilon in sorted(set(tolerances)):
                config = SessionConfig(
                    n=targets.dims, epsilon=epsilon, method=method, f=f, seed=seed
                )
                report = run_local_detection(queries, config, targets)
                rows.append(row_from_report(report))
    return rows


def write_report_csv(rows: Sequence[BenchRow], out: IO[str]) -> None:
    writer = csv.writer(out)
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow(row.as_tuple())
