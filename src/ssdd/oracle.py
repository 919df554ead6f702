"""Plaintext ground truth for checking protocol runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .protocol.session import DetectionReport
from .vectors import DocumentVector

__all__ = ["OracleResult", "ResultDiff", "oracle_detect", "compare_results"]


@dataclass(frozen=True)
class OracleResult:
    """Exhaustive pairwise answer over two document lists.

    ``cosines`` covers every (query index, target index) pair; ``pairs``
    holds those at or above the tolerance.  Pairs with a degenerate document
    have cosine 0 and are excluded from ``pairs`` whatever the tolerance.
    """

    epsilon: float
    pairs: frozenset[tuple[int, int]]
    cosines: dict[tuple[int, int], float]


def oracle_detect(
    alice_docs: list[DocumentVector],
    bob_docs: list[DocumentVector],
    epsilon: float,
) -> OracleResult:
    q, m = len(alice_docs), len(bob_docs)
    dims = {d.dims for d in alice_docs + bob_docs}
    if len(dims) > 1:
        raise DimensionError(f"documents disagree on dims: {sorted(dims)}")
    queries = np.zeros((q, dims.pop() if dims else 0))
    for i, u in enumerate(alice_docs):
        queries[i, u.indices] = u.weights
    indices = np.concatenate([v.indices for v in bob_docs] + [np.empty(0, np.int64)])
    weights = np.concatenate([v.weights for v in bob_docs] + [np.empty(0)])
    owner = np.repeat(np.arange(m), np.array([v.nnz for v in bob_docs], np.int64))
    # one segmented sum: every query against every packed target entry
    cosines = np.bincount(
        (np.arange(q)[:, None] * m + owner).ravel(),
        weights=(queries[:, indices] * weights).ravel(),
        minlength=q * m,
    ).reshape(q, m)
    degenerate = np.array([d.degenerate for d in alice_docs + bob_docs], bool)
    live = ~degenerate[:q, None] & ~degenerate[q:]
    cosines[~live] = 0.0
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
