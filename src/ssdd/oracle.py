"""Plaintext ground truth for checking protocol runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol.session import DetectionReport
from .errors import DimensionError, RangeError
from .vectors import PackedDocs

__all__ = ["OracleResult", "ResultDiff", "oracle_detect", "compare_results"]


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive pairwise answer over two packed document sets.

    ``cosines`` covers every (query index, target index) pair; ``pairs``
    holds those at or above the tolerance.  Pairs with a degenerate document
    have cosine 0 and are excluded from ``pairs`` whatever the tolerance.
    """

    epsilon: float
    pairs: frozenset[tuple[int, int]]
    cosines: dict[tuple[int, int], float]


def oracle_detect(queries: PackedDocs, targets: PackedDocs, epsilon: float) -> OracleResult:
    """Every pair's cosine, and the pairs at or above ``epsilon``, a
    tolerance in [0, 1] as the protocol's ``SessionConfig`` takes it."""
    if not 0.0 <= epsilon <= 1.0:  # NaN included
        raise RangeError(f"tolerance {epsilon} outside [0, 1]")
    if queries.dims != targets.dims:
        raise DimensionError(f"dims mismatch: {queries.dims} != {targets.dims}")
    # a degenerate document has no entries, so its products are exactly 0
    cosines = targets.dot(queries.dense())
    live = (queries.nnz > 0)[:, None] & (targets.nnz > 0)
    pairs = frozenset(map(tuple, np.argwhere(live & (cosines >= epsilon)).tolist()))
    return OracleResult(
        epsilon=epsilon,
        pairs=pairs,
        cosines={
            (qi, ti): c for qi, row in enumerate(cosines.tolist()) for ti, c in enumerate(row)
        },
    )


@dataclass(frozen=True)
class ResultDiff:
    """Symmetric difference between a protocol run and the ground truth."""

    missing: frozenset[tuple[int, int]]  # similar per oracle, missed by the run
    extra: frozenset[tuple[int, int]]  # reported by the run, not actually similar

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra


def compare_results(report: DetectionReport, oracle: OracleResult) -> ResultDiff:
    reported = set(report.similar_pairs())
    return ResultDiff(
        missing=frozenset(oracle.pairs - reported),
        extra=frozenset(reported - oracle.pairs),
    )
