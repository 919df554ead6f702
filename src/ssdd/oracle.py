"""Plaintext ground truth for checking protocol runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decide import check_tolerance, is_similar
from .errors import DimensionError
from .vectors import PackedDocs

__all__ = ["OracleResult", "oracle_detect"]


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive pairwise answer over two packed document sets.

    ``cosines`` covers every (query index, target index) pair; ``similar``
    is the (queries x targets) verdict of ``decide.is_similar``, as a
    ``DetectionReport``'s.  A pair with a degenerate document has cosine 0.
    """

    epsilon: float
    similar: np.ndarray
    # a dict, not an array: perfbench reads it as ``cosines.items()``
    cosines: dict[tuple[int, int], float]


def oracle_detect(queries: PackedDocs, targets: PackedDocs, epsilon: float) -> OracleResult:
    """Every pair's cosine and verdict at ``epsilon``, a tolerance in
    [0, 1] as the protocol's ``SessionConfig`` takes it."""
    check_tolerance(epsilon)
    if queries.dims != targets.dims:
        raise DimensionError(f"dims mismatch: {queries.dims} != {targets.dims}")
    # a degenerate document has no entries, so its products are exactly 0
    cosines = targets.dot(queries.dense())
    degenerate = (queries.nnz == 0)[:, None] | (targets.nnz == 0)
    return OracleResult(
        epsilon=epsilon,
        similar=is_similar(cosines, epsilon, degenerate),
        cosines={
            (qi, ti): c for qi, row in enumerate(cosines.tolist()) for ti, c in enumerate(row)
        },
    )
