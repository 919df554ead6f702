"""Feature-dimension selection for the filter step.

Four strategies pick f of the n dimensions:

- RP: seeded random pick, fixed for a session.
- LF: top-f raw term counts of the querying side's current document.
- GF: top-f of the aggregated document-frequency vector over both corpora.
- HF: z-score the current document against the aggregated whole vector and
  take the f largest absolute differences.

The querying side alone selects, and every filter query carries the chosen
indexes.  LF and HF depend on the query document, so their indexes disclose
what each query is about (a documented disclosure); the responder could
derive the RP set itself from the session seed.  GF and HF need the
aggregated document-frequency vector first: the responder sends its counts
once per session, in the handshake, and the querying side adds its own,
which it keeps to itself.

Rankings are invariant under positive scaling of the input, so normalized
weights select the same dimensions as the raw counts they came from.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .errors import DimensionError, RangeError
from .vectors import FeatureIndexSet, top_f, zscore

__all__ = [
    "SelectionMethod",
    "select_rp",
    "select_lf",
    "select_gf",
    "select_hf",
    "aggregate_whole_vector",
]


class SelectionMethod(IntEnum):
    """Wire codes for the selection strategy (BASE = no filter step)."""

    BASE = 0
    RP = 1
    LF = 2
    GF = 3
    HF = 4

    @classmethod
    def parse(cls, name: str) -> "SelectionMethod":
        try:
            return cls[name.upper()]
        except KeyError:
            raise RangeError(f"unknown method {name!r}") from None

    @property
    def uses_filter(self) -> bool:
        return self is not SelectionMethod.BASE

    @property
    def per_query(self) -> bool:
        """True when the index set is derived from each query document."""
        return self in (SelectionMethod.LF, SelectionMethod.HF)

    @property
    def needs_whole_vector(self) -> bool:
        return self in (SelectionMethod.GF, SelectionMethod.HF)


def select_rp(seed: int, n: int, f: int) -> FeatureIndexSet:
    """f distinct dimensions drawn without replacement from the seed."""
    if not 1 <= f <= n:
        raise RangeError(f"f={f} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    chosen = np.sort(rng.choice(n, size=f, replace=False))
    return FeatureIndexSet(dims=n, indexes=chosen.astype(np.int64))


def select_lf(current: np.ndarray, f: int) -> FeatureIndexSet:
    """Top-f dimensions of the current document's term counts."""
    return top_f(current, f)


def select_gf(whole: np.ndarray, f: int) -> FeatureIndexSet:
    """Top-f dimensions of the aggregated document-frequency vector."""
    return top_f(whole, f)


def select_hf(current: np.ndarray, whole: np.ndarray, f: int) -> FeatureIndexSet:
    """Top-f absolute differences between standardized current and whole.

    Dimensions where the current document deviates most from the corpus-wide
    document frequencies, in z-score units.  A constant input standardizes to
    the zero vector, which degrades gracefully to index-order ties.
    """
    cur = np.asarray(current, dtype=np.float64)
    agg = np.asarray(whole, dtype=np.float64)
    if cur.shape != agg.shape:
        raise DimensionError(
            f"current and whole disagree on dims: {cur.shape} != {agg.shape}"
        )
    cur_z, _ = zscore(cur)
    agg_z, _ = zscore(agg)
    return top_f(np.abs(cur_z - agg_z), f)


def aggregate_whole_vector(mine: np.ndarray, theirs: np.ndarray) -> np.ndarray:
    """Elementwise sum of the two parties' document-frequency counts."""
    a = np.asarray(mine, dtype=np.int64)
    b = np.asarray(theirs, dtype=np.int64)
    if a.shape != b.shape:
        raise DimensionError(f"count vectors disagree: {a.shape} != {b.shape}")
    return a + b
