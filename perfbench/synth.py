"""Deterministic bag-of-words corpora for the benchmark workloads.

Term popularity is Zipf-like over a seed-permuted vocabulary and per-term
counts are Zipf, as in UCI docword files.  Every query gets a fixed number
of perturbed copies planted among the targets, so each workload has pairs
above the tolerance as well as the bulk of unrelated pairs near cosine 0.

The amount of work a session does must not depend on the seed, only the
values it works on.  So document lengths come from fixed quantiles of a
normal distribution (the seed only shuffles them), and a perturbed copy
keeps the length of its original: it swaps terms instead of adding or
dropping them.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np


@dataclass(frozen=True)
class CorpusShape:
    dims: int
    queries: int
    targets: int
    mean_terms: int
    sd_terms: int
    copies_per_query: int
    # share of a copy's terms replaced; copy j of a query uses level j
    noise_levels: tuple[float, ...] = (0.02, 0.08, 0.2, 0.35)


def _zipf_counts(rng: np.random.Generator, size: int) -> np.ndarray:
    return np.minimum(rng.zipf(1.6, size=size), 60)


def _lengths(shape: CorpusShape, count: int, rng: np.random.Generator) -> np.ndarray:
    """Document lengths: fixed normal quantiles, shuffled by the seed."""
    dist = NormalDist(shape.mean_terms, shape.sd_terms)
    raw = [dist.inv_cdf((i + 0.5) / count) for i in range(count)]
    lengths = np.clip(np.rint(raw), 10, shape.dims // 4).astype(np.int64)
    return rng.permutation(lengths)


def _fresh(rng, popularity, n_terms: int) -> dict[int, int]:
    terms = rng.choice(popularity.size, size=n_terms, replace=False, p=popularity)
    return {int(t): int(c) for t, c in zip(terms, _zipf_counts(rng, n_terms))}


def _copy(rng, popularity, counts: dict[int, int], level: float) -> dict[int, int]:
    """Replace `level` of the terms with new ones and jitter as many counts."""
    out = dict(counts)
    keys = list(out)
    touch = max(1, int(round(len(keys) * level)))
    for pos in rng.choice(len(keys), size=touch, replace=False):
        del out[keys[int(pos)]]
    while len(out) < len(counts):
        term = int(rng.choice(popularity.size, p=popularity))
        if term not in out and term not in counts:
            out[term] = int(_zipf_counts(rng, 1)[0])
    kept = [k for k in out if k in counts]
    for pos in rng.choice(len(kept), size=min(touch, len(kept)), replace=False):
        key = kept[int(pos)]
        out[key] = max(1, out[key] + int(rng.integers(-3, 4)))
    return out


def generate(shape: CorpusShape, seed: int) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """Query and target documents as {term index: count} maps."""
    rng = np.random.default_rng(seed)
    popularity = 1.0 / (rng.permutation(shape.dims) + 10.0) ** 1.1
    popularity /= popularity.sum()
    copies = shape.queries * shape.copies_per_query
    if copies > shape.targets:
        raise ValueError("more planted copies than targets")
    queries = [
        _fresh(rng, popularity, int(n)) for n in _lengths(shape, shape.queries, rng)
    ]
    targets = [
        _fresh(rng, popularity, int(n))
        for n in _lengths(shape, shape.targets - copies, rng)
    ]
    for query in queries:
        for j in range(shape.copies_per_query):
            level = shape.noise_levels[j % len(shape.noise_levels)]
            targets.append(_copy(rng, popularity, query, level))
    order = rng.permutation(len(targets))
    return queries, [targets[int(i)] for i in order]
