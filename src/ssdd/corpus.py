"""Bag-of-words corpus ingestion.

Input is the UCI docword layout: three header lines (document count D, vocab
size W, entry count NNZ), then NNZ lines of ``docID wordID count`` with
1-based ids.

A corpus is CSR arrays from the point where it is built: ``counts``, one
read-only ``PackedDocs`` of raw term counts, and ``vectors``, the same
documents unit L2-normalized (empty ones as degenerate zero vectors),
sharing ``indptr`` and ``indices`` with ``counts``.  Every session over a
corpus shares its vectors.  A corpus can be cached in a little-endian
binary file, version 3::

    magic "SSDDCORP" | version u32 | D u32 | W u32
    | nnz u32[D] | index u32[NNZ] | count u64[NNZ]

Whether from documents, a docword file or a cache, every corpus is built
from its counts by ``Corpus``, which checks them and normalizes them.  A
version 1 cache (each document's nnz, then its entries) or a version 2
cache (normalized weights in place of the counts) is refused: ingest its
docword file again.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    DimensionError,
    DuplicateEntryError,
    DuplicateTermError,
    ParseError,
    RangeError,
)
from .vectors import PackedDocs

__all__ = [
    "RawDocument",
    "Corpus",
    "parse_bag_of_words",
    "load_vocabulary",
    "split_queries",
    "save_cache",
    "load_cache",
]

CACHE_MAGIC = b"SSDDCORP"
CACHE_VERSION = 3


@dataclass(frozen=True)
class RawDocument:
    """Term counts of one document, keyed by 0-based dimension index."""

    doc_id: int
    counts: dict[int, int]


class Corpus:
    """Ordered documents over a fixed vocabulary width.

    Built from ``documents`` (in order; their ``doc_id`` is not kept) or
    from ``counts``, a ``PackedDocs`` of raw counts over ``dims`` terms,
    a corpus checks its counts (every term an integer in [0, dims), every
    count an integer in [1, 2**63)), holds them as ``counts`` and derives
    ``vectors`` from them.
    """

    def __init__(
        self,
        dims: int,
        documents: Sequence[RawDocument] | None = None,
        *,
        counts: PackedDocs | None = None,
    ):
        if dims < 0:
            raise RangeError("vocabulary width cannot be negative")
        if (documents is None) == (counts is None):
            raise RangeError("a corpus is built from documents or from counts")
        if documents is not None:
            owner = np.repeat(np.arange(len(documents)), [len(d.counts) for d in documents])
            terms = chain.from_iterable(d.counts for d in documents)
            values = chain.from_iterable(d.counts.values() for d in documents)
            try:
                # operator.index refuses a float, which fromiter would
                # truncate, and a string, which it would parse
                terms, values = (
                    np.fromiter(map(operator.index, column), np.int64, owner.size)
                    for column in (terms, values)
                )
            except (TypeError, OverflowError):
                raise RangeError("terms and counts must be integers below 2**63") from None
            counts = _pack_counts(dims, len(documents), owner, terms, values)
        if counts.dims != dims:
            raise DimensionError(f"counts over {counts.dims} terms, corpus over {dims}")
        # signed, so that a u64 count from a cache at or above 2**63, read
        # as int64, is negative
        if counts.weights.dtype.kind != "i" or np.any(counts.weights < 1):
            raise RangeError("counts must be integers in [1, 2**63)")
        counts.check()
        self.dims = dims
        self.counts = counts
        self.vectors = _normalize(counts)

    def __len__(self) -> int:
        return len(self.vectors)

    def subset(self, doc_ids: Iterable[int]) -> "Corpus":
        ids = np.fromiter(doc_ids, dtype=np.int64)
        return Corpus(self.dims, counts=self.counts.take(ids))


def _pack_counts(
    dims: int, n_docs: int, owner: np.ndarray, terms: np.ndarray, values: np.ndarray
) -> PackedDocs:
    """Raw counts as CSR: entry k is ``values[k]`` of term ``terms[k]`` in
    document ``owner[k]``, in any order; sorted by (document, term)."""
    order = np.lexsort((terms, owner))
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n_docs), out=indptr[1:])
    return PackedDocs(dims, indptr, terms[order], values[order])


def _normalize(counts: PackedDocs) -> PackedDocs:
    """Each document's counts over their L2 norm, sharing ``indptr`` and
    ``indices`` with ``counts``.  A squared norm is a sum of integer squares,
    exact in float64 below 2**53 in any order, so a document's weights do not
    depend on the documents packed with it or on how ``sums`` adds them."""
    values = counts.weights.astype(np.float64)
    norms = np.sqrt(counts.sums(values * values))
    values /= np.repeat(norms, counts.nnz)
    return PackedDocs(counts.dims, counts.indptr, counts.indices, values)


def _header_int(lines: Iterator[tuple[int, str]], what: str) -> int:
    for lineno, raw in lines:
        text = raw.strip()
        if not text:
            continue
        try:
            value = int(text)
        except ValueError:
            raise ParseError(f"expected integer {what}, got {text!r}", lineno)
        if value < 0:
            raise RangeError(f"{what} cannot be negative", lineno)
        return value
    raise ParseError(f"unexpected end of input before {what} header")


def parse_bag_of_words(lines: Iterable[str]) -> Corpus:
    """Parse a docword stream into a corpus of raw counts."""
    numbered = iter(enumerate(lines, start=1))
    n_docs = _header_int(numbered, "document count")
    n_words = _header_int(numbered, "vocabulary size")
    n_entries = _header_int(numbered, "entry count")

    # (document, term, count) of each entry, 0-based, end to end
    entries: list[int] = []
    seen: set[int] = set()
    for lineno, raw in numbered:
        text = raw.strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 3:
            raise ParseError(f"expected 'docID wordID count', got {text!r}", lineno)
        try:
            doc_id, word_id, count = map(int, fields)
        except ValueError:
            raise ParseError(f"non-integer field in {text!r}", lineno)
        if not 1 <= doc_id <= n_docs:
            raise RangeError(f"docID {doc_id} outside [1, {n_docs}]", lineno)
        if not 1 <= word_id <= n_words:
            raise RangeError(f"wordID {word_id} outside [1, {n_words}]", lineno)
        if not 0 < count < 2**63:
            raise ParseError(f"count must be positive and below 2**63, got {count}", lineno)
        key = (doc_id - 1) * n_words + word_id - 1
        if key in seen:
            raise DuplicateEntryError(doc_id, word_id, lineno)
        seen.add(key)
        if len(seen) > n_entries:
            raise ParseError(f"more than {n_entries} entry lines", lineno)
        entries += (doc_id - 1, word_id - 1, count)
    if len(seen) != n_entries:
        raise ParseError(f"header promised {n_entries} entries, found {len(seen)}")

    owner, terms, values = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return Corpus(n_words, counts=_pack_counts(n_words, n_docs, owner, terms, values))


def load_vocabulary(lines: Iterable[str]) -> tuple[str, ...]:
    """One term per line; a term's position is its dimension index."""
    terms: list[str] = []
    seen: set[str] = set()
    pending_blank = None
    for lineno, raw in enumerate(lines, start=1):
        term = raw.strip()
        if not term:
            # a blank is only legal as trailing whitespace at EOF
            pending_blank = lineno
            continue
        if pending_blank is not None:
            raise ParseError("empty term", pending_blank)
        if term in seen:
            raise DuplicateTermError(term, lineno)
        seen.add(term)
        terms.append(term)
    return tuple(terms)


def split_queries(corpus: Corpus, k: int = 10, seed: int = 0) -> tuple[list[int], list[int]]:
    """Pick k query doc ids, seeded; the rest are targets."""
    if not 1 <= k <= len(corpus):
        raise RangeError(f"k={k} outside [1, {len(corpus)}]")
    rng = np.random.default_rng(seed)
    queries = np.sort(rng.choice(len(corpus), size=k, replace=False))
    targets = np.delete(np.arange(len(corpus)), queries)
    return queries.tolist(), targets.tolist()


def save_cache(corpus: Corpus, path: str | Path) -> None:
    counts = corpus.counts
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC + struct.pack("<III", CACHE_VERSION, len(counts), corpus.dims))
        fh.write(counts.nnz.astype("<u4"))
        fh.write(counts.indices.astype("<u4"))
        fh.write(counts.weights.astype("<u8"))


def load_cache(path: str | Path) -> Corpus:
    """The corpus whose counts a cache file holds, built by ``Corpus``."""
    data = Path(path).read_bytes()
    if data[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise ParseError(f"{path}: not a corpus cache (bad magic)")
    head = len(CACHE_MAGIC) + 12
    if len(data) < head:
        raise ParseError(f"{path}: truncated cache header")
    version, n_docs, dims = struct.unpack_from("<III", data, len(CACHE_MAGIC))
    if version != CACHE_VERSION:
        raise ParseError(f"{path}: unsupported cache version {version}, ingest again")
    # nothing is sized by the header before the file is known to hold it
    start = head + 4 * n_docs
    if len(data) < start:
        raise ParseError(f"{path}: truncated cache body")
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.frombuffer(data, "<u4", n_docs, head), dtype=np.int64, out=indptr[1:])
    nnz = int(indptr[-1])
    if len(data) != start + 12 * nnz:
        short = len(data) < start + 12 * nnz
        raise ParseError(f"{path}: " + ("truncated cache body" if short else "trailing bytes"))
    counts = PackedDocs(
        dims,
        indptr,
        np.frombuffer(data, "<u4", nnz, start).astype(np.int64),
        np.frombuffer(data, "<u8", nnz, start + 4 * nnz).astype(np.int64),
    )
    return Corpus(dims, counts=counts)
