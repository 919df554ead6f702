"""Plaintext ground truth for checking protocol runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, RangeError
from .vectors import PackedDocs

__all__ = ["OracleResult", "oracle_detect"]


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive pairwise answer over two packed document sets.

    ``cosines`` covers every (query index, target index) pair; ``similar``
    is the (queries x targets) verdict, true where the cosine is at or above
    the tolerance, as a ``DetectionReport``'s.  Pairs with a degenerate
    document have cosine 0 and are never similar, whatever the tolerance.
    """

    epsilon: float
    similar: np.ndarray
    # a dict, not an array: perfbench reads it as ``cosines.items()``
    cosines: dict[tuple[int, int], float]


def oracle_detect(queries: PackedDocs, targets: PackedDocs, epsilon: float) -> OracleResult:
    """Every pair's cosine and verdict at ``epsilon``, a tolerance in
    [0, 1] as the protocol's ``SessionConfig`` takes it."""
    if not 0.0 <= epsilon <= 1.0:  # NaN included
        raise RangeError(f"tolerance {epsilon} outside [0, 1]")
    if queries.dims != targets.dims:
        raise DimensionError(f"dims mismatch: {queries.dims} != {targets.dims}")
    # a degenerate document has no entries, so its products are exactly 0
    cosines = targets.dot(queries.dense())
    live = (queries.nnz > 0)[:, None] & (targets.nnz > 0)
    return OracleResult(
        epsilon=epsilon,
        similar=live & (cosines >= epsilon),
        cosines={
            (qi, ti): c for qi, row in enumerate(cosines.tolist()) for ti, c in enumerate(row)
        },
    )
