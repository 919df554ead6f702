"""Bag-of-words corpus ingestion.

Input is the UCI docword layout: three header lines (document count D, vocab
size W, entry count NNZ), then NNZ lines of ``docID wordID count`` with
1-based ids.  Term weights are raw counts, unit L2-normalized per document;
empty documents become zero vectors flagged degenerate.

A parsed corpus can be cached in a little-endian binary file::

    magic "SSDDCORP" | version u32 | D u32 | W u32
    then per document: nnz u32, then nnz packed (index u32, weight f64) pairs

The cache stores normalized weights only, not raw counts.

A corpus holds its vectors as one read-only ``PackedDocs``, built once per
corpus: a cache is loaded straight into its arrays, and every session over
the corpus shares them and their term-major view.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import (
    DuplicateEntryError,
    DuplicateTermError,
    ParseError,
    RangeError,
)
from .vectors import DocumentVector, PackedDocs, pack

__all__ = [
    "RawDocument",
    "Vocabulary",
    "Corpus",
    "CorpusStats",
    "parse_bag_of_words",
    "load_vocabulary",
    "build_document_vector",
    "split_queries",
    "write_docword",
    "save_cache",
    "load_cache",
]

CACHE_MAGIC = b"SSDDCORP"
CACHE_VERSION = 1

# packed (index u32, weight f64) cache entry
_CACHE_ENTRY = np.dtype([("index", "<u4"), ("weight", "<f8")])


@dataclass(frozen=True)
class RawDocument:
    """Term counts of one document, keyed by 0-based dimension index."""

    doc_id: int
    counts: dict[int, int]


@dataclass(frozen=True)
class Vocabulary:
    terms: tuple[str, ...]

    def index_of(self, term: str) -> int:
        try:
            return self._index[term]
        except AttributeError:
            object.__setattr__(
                self, "_index", {t: i for i, t in enumerate(self.terms)}
            )
            return self._index[term]

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class CorpusStats:
    documents: int
    dims: int
    total_tokens: int | None
    nnz_entries: int


class Corpus:
    """Ordered documents over a fixed vocabulary width.

    ``documents`` holds raw counts when the corpus came from a docword file;
    a cache-loaded corpus has vectors only (``documents is None``).
    ``vectors`` is the documents' normalized vectors, packed once and shared
    read-only.
    """

    def __init__(
        self,
        dims: int,
        documents: list[RawDocument] | None,
        vectors: PackedDocs | None = None,
    ):
        if dims < 0:
            raise RangeError("vocabulary width cannot be negative")
        self.dims = dims
        self.documents = documents
        if vectors is None:
            if documents is None:
                raise RangeError("a corpus needs documents or vectors")
            vectors = pack([build_document_vector(d.counts, dims) for d in documents], dims)
        self.vectors = vectors
        if documents is not None and len(documents) != len(vectors):
            raise RangeError("documents and vectors disagree on length")

    def __len__(self) -> int:
        return len(self.vectors)

    def stats(self) -> CorpusStats:
        tokens = None
        if self.documents is not None:
            tokens = sum(sum(d.counts.values()) for d in self.documents)
        return CorpusStats(
            documents=len(self),
            dims=self.dims,
            total_tokens=tokens,
            nnz_entries=int(self.vectors.indices.size),
        )

    def subset(self, doc_ids: Iterable[int]) -> "Corpus":
        ids = np.fromiter(doc_ids, dtype=np.int64)
        docs = None
        if self.documents is not None:
            docs = [self.documents[i] for i in ids.tolist()]
        return Corpus(self.dims, docs, self.vectors.take(ids))


def build_document_vector(counts: dict[int, int], dims: int) -> DocumentVector:
    """Unit L2-normalized weight vector from raw term counts.

    An empty count map yields the zero vector, which is degenerate.
    """
    if not counts:
        return DocumentVector(
            dims=dims,
            indices=np.empty(0, dtype=np.int64),
            weights=np.empty(0, dtype=np.float64),
        )
    indices = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    values = np.fromiter(counts.values(), dtype=np.float64, count=len(counts))
    order = np.argsort(indices)
    indices = indices[order]
    values = values[order]
    norm = float(np.sqrt(values @ values))
    return DocumentVector(dims=dims, indices=indices, weights=values / norm)


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
    """Parse a docword stream into a corpus of normalized vectors."""
    numbered = iter(enumerate(lines, start=1))
    n_docs = _header_int(numbered, "document count")
    n_words = _header_int(numbered, "vocabulary size")
    n_entries = _header_int(numbered, "entry count")

    counts: list[dict[int, int]] = [{} for _ in range(n_docs)]
    seen = 0
    for lineno, raw in numbered:
        text = raw.strip()
        if not text:
            continue
        fields = text.split()
        if len(fields) != 3:
            raise ParseError(f"expected 'docID wordID count', got {text!r}", lineno)
        try:
            doc_id, word_id, count = (int(f) for f in fields)
        except ValueError:
            raise ParseError(f"non-integer field in {text!r}", lineno)
        if not 1 <= doc_id <= n_docs:
            raise RangeError(f"docID {doc_id} outside [1, {n_docs}]", lineno)
        if not 1 <= word_id <= n_words:
            raise RangeError(f"wordID {word_id} outside [1, {n_words}]", lineno)
        if count <= 0:
            raise ParseError(f"count must be positive, got {count}", lineno)
        doc_counts = counts[doc_id - 1]
        if word_id - 1 in doc_counts:
            raise DuplicateEntryError(doc_id, word_id, lineno)
        doc_counts[word_id - 1] = count
        seen += 1
        if seen > n_entries:
            raise ParseError(f"more than {n_entries} entry lines", lineno)
    if seen != n_entries:
        raise ParseError(f"header promised {n_entries} entries, found {seen}")

    documents = [RawDocument(i, c) for i, c in enumerate(counts)]
    return Corpus(n_words, documents)


def load_vocabulary(lines: Iterable[str]) -> Vocabulary:
    """One term per line; order defines the dimension index."""
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
    return Vocabulary(tuple(terms))


def write_docword(corpus: Corpus, out: IO[str]) -> None:
    """Inverse of parse_bag_of_words; requires raw counts."""
    if corpus.documents is None:
        raise RangeError("corpus has no raw counts to serialize")
    entries = sum(len(d.counts) for d in corpus.documents)
    out.write(f"{len(corpus)}\n{corpus.dims}\n{entries}\n")
    for doc in corpus.documents:
        for word, count in sorted(doc.counts.items()):
            out.write(f"{doc.doc_id + 1} {word + 1} {count}\n")


def split_queries(
    corpus: Corpus, k: int = 10, seed: int = 0, overlap: bool = False
) -> tuple[list[int], list[int]]:
    """Pick k query doc ids; the rest (or all, with overlap) are targets."""
    if not 1 <= k <= len(corpus):
        raise RangeError(f"k={k} outside [1, {len(corpus)}]")
    rng = np.random.default_rng(seed)
    queries = sorted(int(i) for i in rng.choice(len(corpus), size=k, replace=False))
    if overlap:
        targets = list(range(len(corpus)))
    else:
        chosen = set(queries)
        targets = [i for i in range(len(corpus)) if i not in chosen]
    return queries, targets


def save_cache(corpus: Corpus, path: str | Path) -> None:
    docs = corpus.vectors
    entries = np.empty(docs.indices.size, dtype=_CACHE_ENTRY)
    entries["index"] = docs.indices
    entries["weight"] = docs.weights
    # each document's nnz goes before the first word of its entries
    body = np.insert(entries.view("<u4"), 3 * docs.indptr[:-1], docs.nnz)
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<III", CACHE_VERSION, len(docs), corpus.dims))
        fh.write(body.tobytes())


def load_cache(path: str | Path) -> Corpus:
    """The corpus a cache file holds, read into one PackedDocs with the
    checks a DocumentVector makes: every index below the width, and indices
    strictly increasing within a document."""
    data = Path(path).read_bytes()
    if data[: len(CACHE_MAGIC)] != CACHE_MAGIC:
        raise ParseError(f"{path}: not a corpus cache (bad magic)")
    off = len(CACHE_MAGIC)
    try:
        version, n_docs, dims = struct.unpack_from("<III", data, off)
    except struct.error:
        raise ParseError(f"{path}: truncated cache header")
    if version != CACHE_VERSION:
        raise ParseError(f"{path}: unsupported cache version {version}")
    off += 12
    body = off
    counts = []
    for _ in range(n_docs):
        try:
            (nnz,) = struct.unpack_from("<I", data, off)
        except struct.error:
            raise ParseError(f"{path}: truncated cache body")
        counts.append(nnz)
        off += 4 + nnz * _CACHE_ENTRY.itemsize
    if off > len(data):
        raise ParseError(f"{path}: truncated cache body")
    if off != len(data):
        raise ParseError(f"{path}: trailing bytes after last document")
    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.array(counts, dtype=np.int64), out=indptr[1:])
    # the body is 4-byte words: document i's nnz at word i + 3 * indptr[i],
    # then its entries, three words each
    words = np.frombuffer(data, dtype="<u4", offset=body)
    entries = np.delete(words, np.arange(n_docs) + 3 * indptr[:-1]).view(_CACHE_ENTRY)
    docs = PackedDocs(
        dims,
        indptr,
        entries["index"].astype(np.int64),
        entries["weight"].astype(np.float64),
    )
    if np.any(docs.indices >= dims):
        raise RangeError(f"index out of range for dims={dims}")
    owner = docs.owner
    if np.any((np.diff(docs.indices) <= 0) & (owner[1:] == owner[:-1])):
        raise RangeError("indices must be strictly increasing")
    return Corpus(dims, None, docs)
