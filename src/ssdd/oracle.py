"""Plaintext ground truth for checking protocol runs."""

from __future__ import annotations

from dataclasses import dataclass

from .protocol.session import DetectionReport
from .vectors import DocumentVector, dot

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
    pairs = set()
    cosines: dict[tuple[int, int], float] = {}
    for qi, u in enumerate(alice_docs):
        for ti, v in enumerate(bob_docs):
            if u.degenerate or v.degenerate:
                cosines[(qi, ti)] = 0.0
                continue
            cosine = dot(u, v)
            cosines[(qi, ti)] = cosine
            if cosine >= epsilon:
                pairs.add((qi, ti))
    return OracleResult(epsilon=epsilon, pairs=frozenset(pairs), cosines=cosines)


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
