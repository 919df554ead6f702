"""Feature-dimension selection for the filter step.

An index set is f of the n dimensions as a sorted ``int64`` array, with no
repeats; this module chooses it and ``vectors.project`` restricts documents
to it.  Four strategies pick it:

- RP: seeded random pick, fixed for a session (``select_rp``).
- LF: top-f raw term counts of the querying side's current document
  (``top_f``).
- GF: top-f of the aggregated document-frequency vector over both corpora
  (``top_f``).
- HF: z-score the current document against the aggregated whole vector,
  z-scored once per session, and take the f largest absolute differences
  (``select_hf``).

The querying side alone selects, and every filter query carries the chosen
indexes.  LF and HF depend on the query document, so their indexes disclose
what each query is about (a documented disclosure); the responder could
derive the RP set itself from the session seed.  GF and HF need the
aggregated document-frequency vector first: the responder sends its counts
once per session, in the handshake, and the querying side adds its own,
which it keeps to itself.

Rankings are invariant under positive scaling of the input, so a
document's counts select the same dimensions as any multiple of them.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from .errors import DimensionError, RangeError

__all__ = [
    "SelectionMethod",
    "select_rp",
    "select_hf",
    "top_f",
    "zscore",
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


def zscore(values: np.ndarray) -> np.ndarray:
    """Standardize with the population standard deviation.  A constant
    vector has zero deviation; it maps to all zeros."""
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise RangeError("cannot z-score an empty vector")
    sigma = float(np.std(x))
    if sigma == 0.0:
        return np.zeros_like(x)
    return (x - x.mean()) / sigma


def top_f(values: np.ndarray, f: int) -> np.ndarray:
    """Indexes of the `f` largest values, sorted; ties go to the lower index.

    Takes every value above the f-th largest, then the lowest indexes
    holding the f-th largest itself; no full sort.  Values must not be NaN.
    """
    x = np.asarray(values, dtype=np.float64)
    if not 1 <= f <= x.size:
        raise RangeError(f"f={f} outside [1, {x.size}]")
    # the f-th smallest of -x: selecting at the low end stays fast when
    # most values tie (the zero counts of one document, say)
    kth = -np.partition(-x, f - 1)[f - 1]
    above = np.flatnonzero(x > kth)
    ties = np.flatnonzero(x == kth)[: f - above.size]
    return np.sort(np.concatenate((above, ties)))


def select_rp(seed: int, n: int, f: int) -> np.ndarray:
    """f distinct dimensions drawn without replacement from the seed, sorted."""
    if not 1 <= f <= n:
        raise RangeError(f"f={f} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=f, replace=False)).astype(np.int64)


def select_hf(current: np.ndarray, whole_z: np.ndarray, f: int) -> np.ndarray:
    """Top-f absolute differences between standardized current and whole.

    Dimensions where the current document deviates most from the corpus-wide
    document frequencies, in z-score units.  ``whole_z`` is the whole vector
    already standardized, ``zscore(whole)``, which a session computes once
    for all its queries.  A constant input standardizes to the zero vector,
    which degrades gracefully to index-order ties.
    """
    cur = np.asarray(current, dtype=np.float64)
    if cur.shape != np.shape(whole_z):
        raise DimensionError(
            f"current and whole disagree on dims: {cur.shape} != {np.shape(whole_z)}"
        )
    return top_f(np.abs(zscore(cur) - whole_z), f)
