"""Shared corpus builders, writers of frames and docword files, reference
functions and data-file discovery for the test suite."""

from __future__ import annotations

import os
from collections.abc import Sequence
from pathlib import Path
from typing import IO

import numpy as np
import pytest

from ssdd.corpus import Corpus, RawDocument
from ssdd.errors import DimensionError
from ssdd.masking import SharedRandomMatrix
from ssdd.protocol.messages import encode_message
from ssdd.vectors import PackedDocs


def data_file(name: str) -> Path | None:
    """Locate a real dataset file, or None when it is not available."""
    roots = []
    env = os.environ.get("SSDD_DATA_DIR")
    if env:
        roots.append(Path(env))
    roots.append(Path(__file__).resolve().parent.parent / "data")
    for root in roots:
        candidate = root / name
        if candidate.is_file():
            return candidate
    return None


def frame_of(msg) -> bytearray:
    """The frame of one message: the parts of ``encode_message`` joined
    into one new buffer, as a receiver sees it."""
    return bytearray().join(encode_message(msg))


def pack(sets: Sequence[PackedDocs], dims: int) -> PackedDocs:
    """The documents of ``sets``, in order, as one PackedDocs over ``dims``
    dimensions."""
    if any(docs.dims != dims for docs in sets):
        raise DimensionError(f"documents disagree with dims={dims}")
    return PackedDocs(
        dims,
        np.cumsum(np.concatenate([[0], *(docs.nnz for docs in sets)]), dtype=np.int64),
        np.concatenate([docs.indices for docs in sets] + [np.empty(0, np.int64)]),
        np.concatenate([docs.weights for docs in sets] + [np.empty(0)]),
    )


def write_docword(corpus: Corpus, out: IO[str]) -> None:
    """Inverse of ``parse_bag_of_words``.  Documents are numbered by their
    position in the corpus, from 1."""
    counts = corpus.vectors
    rows = np.column_stack((counts.owner + 1, counts.indices + 1, counts.weights)).tolist()
    out.write(f"{len(counts)}\n{counts.dims}\n{len(rows)}\n")
    out.writelines(f"{doc} {word} {count}\n" for doc, word, count in rows)


def dot(u: PackedDocs, v: PackedDocs) -> float:
    """Reference sparse dot product of two one-document sets: a merge-join
    on the index arrays."""
    if u.dims != v.dims:
        raise DimensionError(f"dims mismatch: {u.dims} != {v.dims}")
    _, iu, iv = np.intersect1d(
        u.indices, v.indices, assume_unique=True, return_indices=True
    )
    return float(u.weights[iu] @ v.weights[iv])


def missed_and_extra(reported: np.ndarray, expected: np.ndarray) -> tuple[list, list]:
    """The [query, target] pairs that the verdict array ``reported`` misses
    of ``expected``, and those it adds, each query-major; ``([], [])`` when
    the two agree."""
    assert reported.shape == expected.shape
    return (
        np.argwhere(expected & ~reported).tolist(),
        np.argwhere(reported & ~expected).tolist(),
    )


def respond(
    z: np.ndarray, v: PackedDocs, matrix: SharedRandomMatrix
) -> tuple[float, np.ndarray]:
    """Reference responder answer (s, t) = (z . v, A^T v) for v one document,
    iterating v's nonzeros only."""
    if z.shape != (matrix.rows,):
        raise DimensionError(f"masked length {z.shape} != ({matrix.rows},)")
    if v.dims != matrix.rows:
        raise DimensionError(f"document dims {v.dims} != {matrix.rows}")
    return float(z[v.indices] @ v.weights), v.weights @ matrix.rows_for(v.indices)


def fwht(x: np.ndarray) -> None:
    """Reference transform: the radix-2 butterfly, in place, x becoming H x
    for each column of the (N, k) array x, N a power of two and H the
    Sylvester Hadamard matrix."""
    size = len(x)
    half = np.empty(x.size // 2)
    h = 1
    while h < size:
        pairs = x.reshape(size // (2 * h), 2, -1)
        a, b = pairs[:, 0], pairs[:, 1]
        diff = half.reshape(a.shape)
        np.subtract(a, b, out=diff)
        a += b
        b[...] = diff
        h *= 2


def build_document_vector(counts: dict[int, int], dims: int) -> PackedDocs:
    """Raw term counts as a one-document ``PackedDocs``: the vectors of a
    one-document corpus.  An empty count map yields the zero vector, which
    is degenerate.
    """
    return Corpus(dims, [RawDocument(0, counts)]).vectors


def random_document(
    rng: np.random.Generator, dims: int, nnz: int, max_count: int = 12
) -> PackedDocs:
    idx = rng.choice(dims, size=nnz, replace=False)
    counts = {int(i): int(c) for i, c in zip(idx, rng.integers(1, max_count + 1, nnz))}
    return build_document_vector(counts, dims)


def random_unit_dense(rng: np.random.Generator, n: int) -> np.ndarray:
    """Non-negative unit vector, dense."""
    x = rng.random(n)
    return x / np.linalg.norm(x)


def _zipf_counts(rng: np.random.Generator, size: int) -> np.ndarray:
    counts = rng.zipf(1.6, size=size)
    return np.minimum(counts, 60)


def _perturb(rng: np.random.Generator, counts: dict[int, int], dims: int, level: float) -> dict[int, int]:
    """Copy a document with proportionally `level` of its terms disturbed."""
    out = dict(counts)
    keys = list(out)
    n_touch = max(1, int(len(keys) * level))
    for key in rng.choice(len(keys), size=min(n_touch, len(keys)), replace=False):
        k = keys[int(key)]
        if rng.random() < 0.5 and len(out) > 3:
            del out[k]
        else:
            out[k] = max(1, out[k] + int(rng.integers(-3, 4)))
    for _ in range(n_touch):
        d = int(rng.integers(0, dims))
        if d not in out:
            out[d] = int(_zipf_counts(rng, 1)[0])
    return out


def synth_corpus(
    n_docs: int = 200,
    dims: int = 6906,
    seed: int = 101,
    mean_terms: int = 90,
) -> Corpus:
    """Deterministic corpus with bag-of-words texture.

    Term popularity is Zipf-like over a permuted vocabulary, per-term counts
    are Zipf, and every seventh document is a perturbed copy of its
    predecessor (cycling through three noise levels) so that pair cosines
    populate the high-similarity range as well as the bulk near zero.
    """
    rng = np.random.default_rng(seed)
    popularity = 1.0 / (rng.permutation(dims) + 10.0) ** 1.1
    popularity /= popularity.sum()
    noise_levels = (0.02, 0.08, 0.2)
    documents: list[RawDocument] = []
    for i in range(n_docs):
        if i % 7 == 3 and i > 0:
            level = noise_levels[(i // 7) % len(noise_levels)]
            counts = _perturb(rng, documents[i - 1].counts, dims, level)
        else:
            n_terms = int(np.clip(rng.normal(mean_terms, 25), min(25, dims), min(250, dims)))
            terms = rng.choice(dims, size=n_terms, replace=False, p=popularity)
            values = _zipf_counts(rng, n_terms)
            counts = {int(t): int(c) for t, c in zip(terms, values)}
        documents.append(RawDocument(i, counts))
    return Corpus(dims, documents)


@pytest.fixture(scope="session")
def small_corpus() -> Corpus:
    return synth_corpus(n_docs=60, dims=500, seed=31, mean_terms=40)


ACCEPTANCE_RESULTS: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect a verdict line for the end-of-run summary."""
    ACCEPTANCE_RESULTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)
