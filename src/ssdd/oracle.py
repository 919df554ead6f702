"""Plaintext ground truth for checking protocol runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decide import check_tolerance, cosines, is_similar, squared_norms
from .errors import DimensionError
from .vectors import PackedDocs

__all__ = ["OracleResult", "oracle_detect"]


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive pairwise answer over two packed document sets.

    ``cosines`` covers every (query index, target index) pair; ``similar``
    is the (queries x targets) verdict of ``decide.is_similar`` on the
    exact products of the counts, as a ``DetectionReport``'s.  A pair with
    an empty document has cosine 0 and is never similar.
    """

    epsilon: float
    similar: np.ndarray
    # a dict, not an array: perfbench reads it as ``cosines.items()``
    cosines: dict[tuple[int, int], float]


def oracle_detect(queries: PackedDocs, targets: PackedDocs, epsilon: float) -> OracleResult:
    """Every pair's cosine and verdict at ``epsilon``, a tolerance in
    [0, 1] as the protocol's ``SessionConfig`` takes it.  The documents
    are counts within the limits that ``decide.squared_norms`` checks, so
    every product is an exact integer in float64."""
    check_tolerance(epsilon)
    if queries.dims != targets.dims:
        raise DimensionError(f"dims mismatch: {queries.dims} != {targets.dims}")
    norm_u2 = squared_norms(queries, "query documents")[:, None]
    norm_v2 = squared_norms(targets, "target documents")
    delta = targets.dot(queries.dense())
    return OracleResult(
        epsilon=epsilon,
        similar=is_similar(delta, norm_u2, norm_v2, epsilon),
        cosines={
            (qi, ti): c
            for qi, row in enumerate(cosines(delta, norm_u2, norm_v2).tolist())
            for ti, c in enumerate(row)
        },
    )
