"""Two-party detection sessions.

The querying side (Alice) holds the query documents; the responding side
(Bob) holds the target corpus.  After a one-round-trip Hello/HelloAck
handshake, each query runs filter-then-refine:

1. Alice chooses f dimensions, masks the query's projection onto them and
   sends it with their indexes.  Bob answers for every document with the
   masked product pieces and the projected squared norm.  Alice recovers
   each f-dimensional product and keeps only documents whose similarity
   upper bound reaches the tolerance.
2. Survivor ids go back with the full-width masked query; Bob answers with
   s = z . v_j for every survivor and t_j = A^T v_j for the survivors whose
   t he has not sent before in this session; the recovered products are
   exact cosines (documents are unit vectors) and decide similarity.

BASE skips step 1 and treats every document as a survivor.  One fresh mask
per query and step; the same masked vector serves all of Bob's documents
for that query.  The mask is not secret as built: it is seeded from values
that all cross the wire (the seed in Hello, the query id in each query),
so Bob can regenerate it and unmask the query.
Survivor ids necessarily reveal to Bob which of his documents passed the
filter; LF and HF additionally reveal the chosen dimension indexes of each
query.  Sending t_j once per session rather than with every reply
discloses nothing new: t_j does not depend on the query, and protocol
version 1 sent the same values on every query that j survived.

Alice alone selects the f dimensions, for every method, and each filter
query names them; Bob answers the set he is given.  GF and HF select from
the document frequencies of both corpora: Bob's counts come with HelloAck
and Alice adds her own, which never cross the wire, so Bob sees only the
GF or HF index sets chosen from the sum.  For RP the set discloses nothing
new either: Bob can derive it from the seed in Hello.  Hello does not
carry the tolerance, which Alice alone uses.

This is protocol version 7 (``PROTOCOL_VERSION``, see ``messages`` for the
layout), whose A is the subsampled Hadamard matrix of ``masking``.  Bob
refuses a Hello of any other version at the handshake.

Both rounds are computed with array operations.  Bob's corpus is packed
(``PackedDocs``) once per corpus, not once per session, and shared
read-only by every session over it.  He answers a filter query with one
projection of the whole corpus, read from its term-major view: built once
per corpus, on the first filter query any session makes, and shared
read-only too, it lets each projection touch only the entries on the f
chosen dimensions, written term by term into an (f, m) array whose
transpose is the projection.  In the full round Bob keeps one flag per
document for "t sent", computes t_j only the first time document j
survives, and s_j = z . v_j per query.  Alice's queries come packed too,
and she reads their document frequencies from them.  She also holds them as one dense
block, from which she selects and projects, and masks the full-width
vectors of all her queries with one transform (A R, R stacking the
per-query masks), made the first time a query reaches the full round.
For each t_j that arrives she keeps only t_j R, one float per query, and
recovers pair (q, j) as s_j - (t_j R)_q; she bounds and recovers all
pairs of a query at once.  A session's outcome is two
queries x targets arrays: the recovered cosines (NaN for a pair the filter
dismissed) and the similar mask.  Neither side holds A; each holds the
small filter matrix A_fs as explicit entries, built once per session.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from math import isnan

import numpy as np

from ..errors import ProtocolError, RangeError, SessionError, SsddError
from ..masking import SharedRandomMatrix, mask, recover
from ..selection import (
    SelectionMethod,
    aggregate_whole_vector,
    select_gf,
    select_hf,
    select_lf,
    select_rp,
)
from ..vectors import FeatureIndexSet, PackedDocs, project
from .messages import (
    Bye,
    FilterQuery,
    FilterReply,
    FullQuery,
    FullReply,
    Hello,
    HelloAck,
    decode_message,
    encode_message,
)
from .transport import make_local_pair

__all__ = [
    "PROTOCOL_VERSION",
    "SessionConfig",
    "SimilarityDecision",
    "SessionMetrics",
    "DetectionReport",
    "evaluate_filter",
    "AliceSession",
    "BobResponder",
    "run_detection",
    "run_local_detection",
]

logger = logging.getLogger(__name__)

PROTOCOL_VERSION = 7


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of a session.

    Hello carries all but the tolerance ``epsilon`` to the responder; it
    stays with the querying side, which alone decides, and is None on the
    responder's side (``from_hello``).  The filter budget ``f`` lies in
    [1, n] for a method that filters and in [0, n] under BASE, which does
    not use it.  Every random choice of the session derives from ``seed``:
    A is keyed by it, A_fs by seed + 1 and the RP set by seed + 2 (mod
    2**64), and each secret mask by the first two with the query id.
    """

    n: int
    epsilon: float | None
    method: SelectionMethod = SelectionMethod.BASE
    f: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise RangeError(f"n must be positive, got {self.n}")
        if self.epsilon is not None and not 0.0 <= self.epsilon <= 1.0:
            raise RangeError(f"tolerance {self.epsilon} outside [0, 1]")
        low = 1 if self.method.uses_filter else 0
        if not low <= self.f <= self.n:
            raise RangeError(f"f={self.f} outside [{low}, {self.n}]")
        if not 0 <= self.seed < 2**64:
            raise RangeError("seed must fit in 64 bits")

    def hello(self) -> Hello:
        return Hello(
            version=PROTOCOL_VERSION,
            n=self.n,
            f=self.f,
            method=int(self.method),
            seed=self.seed,
        )

    @classmethod
    def from_hello(cls, msg: Hello) -> "SessionConfig":
        if msg.version != PROTOCOL_VERSION:
            raise ProtocolError(f"unsupported protocol version {msg.version}")
        try:
            method = SelectionMethod(msg.method)
        except ValueError:
            raise ProtocolError(f"unknown method code {msg.method}") from None
        try:
            return cls(n=msg.n, epsilon=None, method=method, f=msg.f, seed=msg.seed)
        except RangeError as exc:
            raise ProtocolError(f"bad handshake: {exc}") from exc


def evaluate_filter(delta_fs, norm_u2, norm_v2):
    """Upper bound on the cosine from the f-dimensional pieces.

    The projected squared distance ``norm_u2 - 2*delta_fs + norm_v2`` never
    exceeds the full squared distance, so ``1 - distance/2`` bounds the true
    cosine from above for unit vectors; a pair whose bound misses the
    tolerance cannot be similar.  The distance is clamped at zero against
    rounding.  Scalars give one pair's bound; arrays (broadcast against
    each other) give every pair's bound elementwise.
    """
    return 1.0 - np.maximum(norm_u2 - 2.0 * delta_fs + norm_v2, 0.0) / 2.0


# kept for perfbench, which reads ``DetectionReport.decisions``
@dataclass(frozen=True)
class SimilarityDecision:
    """Verdict for one (query, target) pair.

    A filtered pair carries no cosine.  Pairs with a degenerate (all-zero)
    query or target are never similar and report cosine 0.
    """

    query_id: int
    target_id: int
    similar: bool
    cosine: float | None
    filtered: bool


@dataclass
class SessionMetrics:
    pairs_total: int = 0
    pairs_filtered: int = 0
    full_products: int = 0
    bytes_sent_alice: int = 0
    bytes_sent_bob: int = 0
    wall_time: float = 0.0
    scalar_mult_count: int = 0

    @property
    def filter_ratio(self) -> float:
        if self.pairs_total == 0:
            return 0.0
        return self.pairs_filtered / self.pairs_total


@dataclass
class DetectionReport:
    """Outcome of a session as queries x targets arrays.

    ``cosines`` holds each pair's recovered cosine, NaN where the filter
    dismissed the pair or its query was never reached; ``similar`` is the
    verdict, which the plaintext ``OracleResult.similar`` checks.  The first
    ``decided`` queries were decided; an aborted session keeps the rows it
    finished.
    """

    config: SessionConfig
    target_count: int
    cosines: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    similar: np.ndarray = field(default_factory=lambda: np.empty((0, 0), bool))
    decided: int = 0
    metrics: SessionMetrics = field(default_factory=SessionMetrics)
    aborted: bool = False

    # kept for perfbench, which judges a run by its decisions
    @property
    def decisions(self) -> list[SimilarityDecision]:
        """One decision per pair of the decided queries, query-major."""
        cosines = self.cosines[: self.decided].tolist()
        similar = self.similar[: self.decided].tolist()
        return [
            SimilarityDecision(q, t, s, None if isnan(c) else c, isnan(c))
            for q, (row, verdicts) in enumerate(zip(cosines, similar))
            for t, (c, s) in enumerate(zip(row, verdicts))
        ]


def _subseed(config: SessionConfig, k: int) -> int:
    """Key ``k`` of the session, seed + k mod 2**64: 1 keys A_fs, 2 the RP set."""
    return (config.seed + k) % 2**64


def _filter_matrix(config: SessionConfig) -> np.ndarray:
    """The entries of A_fs (f x ceil(f/2), keyed by seed + 1) as float64.

    Both rounds of the filter step multiply by them directly: at f << n a
    dense product beats one transform per index set."""
    fs_matrix = SharedRandomMatrix(_subseed(config, 1), config.f)
    return fs_matrix.rows_for(np.arange(config.f)).astype(np.float64)


def _secret_mask(
    config: SessionConfig, query_id: int, step: int, cols: int
) -> np.ndarray:
    """Alice's mask r for one query and step (1 filter, 2 full).

    Every value it is seeded from crosses the wire (the seed in Hello, the
    query id in each query), so Bob can regenerate r and read u = z - A r.
    """
    seq = np.random.SeedSequence(
        entropy=[config.seed, _subseed(config, 1), query_id, step]
    )
    return np.random.default_rng(seq).uniform(-1.0, 1.0, size=cols)


class BobResponder:
    """Target-corpus side of a session: answers masked queries.

    One instance serves one session and drops its arrays, and its reference
    to the corpus, when ``serve`` returns.  The corpus (a loaded
    ``Corpus.vectors``, say) is shared read-only with every other session
    over it, and names the session's dims; ``dims``, when given, must
    match.  A filter query names its index set, whatever the method, and
    is answered from the projection P (m x f) of the packed corpus onto
    that set: s = P z, t = P A_fs and the squared row norms.  P is read
    from the corpus's term-major view, built once per corpus and shared
    read-only, so it costs the entries on the f chosen dimensions, not a
    scan of the corpus; it is the transpose of an (f, m) array filled one
    term at a time.  P, t and the norms of the last set are kept,
    read-only, and reused while queries name the same set: under RP and
    GF, whose set is fixed, they are computed once per session.

    In the full round, t_j = A^T v_j is computed and sent the first time
    document j survives; ``_sent`` marks those documents.

    ``scalar_mult_count`` tallies the multiplications of the
    paper's cost model: nnz * (1 + cols) per document response, plus nnz
    for its projected norm in the filter round, whether or not t was
    computed and sent earlier in the session.
    """

    def __init__(self, docs: PackedDocs, dims: int | None = None):
        if dims is not None and dims != docs.dims:
            raise RangeError(f"target documents have dims={docs.dims}, not {dims}")
        self._docs = docs
        self.dims = docs.dims
        self.doc_count = len(self._docs)
        self.config: SessionConfig | None = None
        self.scalar_mult_count = 0
        self._matrix: SharedRandomMatrix | None = None
        self._a_fs: np.ndarray | None = None
        # (indexes, P, t, norms, nnz) of the last index set answered
        self._session_filter: tuple | None = None
        self._sent = np.zeros(self.doc_count, dtype=bool)

    def serve(self, transport) -> None:
        """Answer frames until Bye or transport loss, then drop the corpus
        and every per-session array; ``scalar_mult_count`` stays."""
        try:
            while True:
                try:
                    frame = transport.recv_frame()
                except SessionError:
                    break
                msg = decode_message(frame)
                if isinstance(msg, Bye):
                    break
                reply = self.handle(msg)
                if reply is not None:
                    transport.send_frame(encode_message(reply))
        finally:
            transport.close()
            self._docs = self._sent = self._session_filter = None
            self._matrix = self._a_fs = None

    def handle(self, msg):
        if isinstance(msg, Hello):
            return self._on_hello(msg)
        if self.config is None:
            raise ProtocolError(
                f"{type(msg).__name__} before handshake"
            )
        if isinstance(msg, FilterQuery):
            return self._on_filter_query(msg)
        if isinstance(msg, FullQuery):
            return self._on_full_query(msg)
        raise ProtocolError(f"unexpected {type(msg).__name__}")

    def _on_hello(self, msg: Hello) -> HelloAck:
        if self.config is not None:
            raise ProtocolError("duplicate handshake")
        config = SessionConfig.from_hello(msg)
        if config.n != self.dims:
            raise ProtocolError(
                f"query side expects {config.n} dims, corpus has {self.dims}"
            )
        self.config = config
        self._matrix = SharedRandomMatrix(config.seed, config.n)
        if config.method.uses_filter:
            self._a_fs = _filter_matrix(config)
        # Bob's document counts, for Alice to select with under GF and HF
        if config.method.needs_whole_vector:
            df = self._docs.document_frequency
        else:
            df = np.zeros(0, dtype=np.int64)
        return HelloAck(bob_doc_count=self.doc_count, df=df)

    def _project(self, index_set: FeatureIndexSet) -> tuple:
        """Filter-round pieces of every document for one index set.

        Returns the projection P (m x f, the transpose of a term-major
        array), t = P A_fs, the squared row norms of P, and the number of
        corpus entries on the set's dimensions: P's stored entries, each of
        which the products multiply.
        """
        projected = project(self._docs, index_set)
        t = projected @ self._a_fs
        norm_v2 = np.einsum("ij,ij->i", projected, projected)
        nnz = int(self._docs.document_frequency[index_set.indexes].sum())
        return projected, t, norm_v2, nnz

    def _filter_pieces(self, msg: FilterQuery) -> tuple:
        """``_project`` of the query's index set, reused from the last query
        when it names the same set."""
        config = self.config
        if msg.indexes.size != config.f:
            raise ProtocolError(
                f"query carries {msg.indexes.size} indexes, expected {config.f}"
            )
        memo = self._session_filter
        if memo is not None and np.array_equal(memo[0], msg.indexes):
            return memo[1:]
        try:
            index_set = FeatureIndexSet(dims=config.n, indexes=msg.indexes)
        except RangeError as exc:
            raise ProtocolError(f"bad index set: {exc}") from exc
        self._session_filter = None  # the old pieces go before the new are built
        pieces = self._project(index_set)
        # later replies for the same set share these arrays
        for piece in pieces[:3]:
            piece.flags.writeable = False
        self._session_filter = (index_set.indexes.copy(), *pieces)
        return pieces

    def _on_filter_query(self, msg: FilterQuery) -> FilterReply:
        config = self.config
        if not config.method.uses_filter:
            raise ProtocolError("filter step under BASE")
        if msg.z.size != config.f:
            raise ProtocolError(f"masked width {msg.z.size}, expected {config.f}")
        projected, t, norm_v2, nnz = self._filter_pieces(msg)
        self.scalar_mult_count += nnz * (2 + self._a_fs.shape[1])
        return FilterReply(
            query_id=msg.query_id, s=projected @ msg.z, norm_v2=norm_v2, t=t
        )

    def _on_full_query(self, msg: FullQuery) -> FullReply:
        config = self.config
        if msg.z.size != config.n:
            raise ProtocolError(f"masked width {msg.z.size}, expected {config.n}")
        ids = msg.survivor_ids
        if ids.size and (ids.min() < 0 or ids.max() >= self.doc_count):
            raise ProtocolError("survivor id outside the corpus")
        if np.unique(ids).size != ids.size:
            raise ProtocolError("duplicate survivor id")
        survivors = self._docs.take(ids)
        t = self._matrix.transpose_apply_packed(self._docs.take(ids[~self._sent[ids]]))
        self._sent[ids] = True
        s = survivors.dot(msg.z)
        self.scalar_mult_count += survivors.indices.size * (1 + self._matrix.cols)
        return FullReply(query_id=msg.query_id, doc_ids=ids.copy(), s=s, t=t)


class AliceSession:
    """Query side of a session; drives the transport and scores pairs."""

    def __init__(self, config: SessionConfig, queries: PackedDocs, transport):
        if queries.dims != config.n:
            raise RangeError(
                f"query documents have dims={queries.dims}, the session n={config.n}"
            )
        if config.epsilon is None:
            raise RangeError("the querying side needs its tolerance")
        self.config = config
        self.queries = queries
        # row q is query q
        self._dense = queries.dense()
        self.transport = transport
        self.metrics = SessionMetrics()
        self.target_count = 0
        # row q belongs to query q; sized once the handshake names the targets
        self.cosines = np.empty((len(queries), 0))
        self.similar = np.empty((len(queries), 0), dtype=bool)
        self.decided = 0
        self._matrix = SharedRandomMatrix(config.seed, config.n)
        self._a_fs = _filter_matrix(config) if config.method.uses_filter else None
        self._whole: np.ndarray | None = None
        self._session_set: FeatureIndexSet | None = None
        # full-round masked vectors and secret masks, one column per query
        self._full_z: np.ndarray | None = None
        self._full_r: np.ndarray | None = None
        # row j holds t_j R once t_j has arrived (known[j]); zero_t[j] marks
        # a t_j that arrived all-zero
        self._tr = np.empty((0, len(queries)))
        self._known = np.zeros(0, dtype=bool)
        self._zero_t = np.zeros(0, dtype=bool)
        if config.method.per_query:
            logger.warning(
                "method %s sends each query's chosen dimension indexes to the "
                "responder; which terms dominate a query is disclosed",
                config.method.name,
            )

    def _send(self, msg) -> None:
        frame = encode_message(msg)
        self.metrics.bytes_sent_alice += len(frame)
        self.transport.send_frame(frame)

    def _recv(self):
        frame = self.transport.recv_frame()
        self.metrics.bytes_sent_bob += len(frame)
        return decode_message(frame)

    def handshake(self) -> None:
        """Hello, then HelloAck: Bob's document count and, under GF and HF,
        his document frequencies, which Alice adds to her own."""
        config = self.config
        self._send(config.hello())
        ack = self._recv()
        if not isinstance(ack, HelloAck):
            raise ProtocolError(f"expected HelloAck, got {type(ack).__name__}")
        method = config.method
        width = config.n if method.needs_whole_vector else 0
        if ack.df.size != width:
            raise ProtocolError(
                f"HelloAck carries {ack.df.size} document counts, expected {width}"
            )
        if method.needs_whole_vector:
            self._whole = aggregate_whole_vector(self.queries.document_frequency, ack.df)
        if method is SelectionMethod.RP:
            self._session_set = select_rp(_subseed(config, 2), config.n, config.f)
        elif method is SelectionMethod.GF:
            self._session_set = select_gf(self._whole, config.f)
        self.target_count = ack.bob_doc_count
        shape = (len(self.queries), self.target_count)
        self.cosines = np.full(shape, np.nan)
        self.similar = np.zeros(shape, dtype=bool)
        self._tr = np.empty((self.target_count, len(self.queries)))
        self._known = np.zeros(self.target_count, dtype=bool)
        self._zero_t = np.zeros(self.target_count, dtype=bool)

    def _query_index_set(self, query_id: int) -> FeatureIndexSet:
        """The index set of query ``query_id``."""
        method = self.config.method
        row = self._dense[query_id]
        if method is SelectionMethod.LF:
            return select_lf(row, self.config.f)
        if method is SelectionMethod.HF:
            return select_hf(row, self._whole, self.config.f)
        return self._session_set

    def _filter_step(self, query_id: int) -> np.ndarray:
        """Ids of the targets whose filter bound reaches the tolerance."""
        index_set = self._query_index_set(query_id)
        u_fs = self._dense[query_id, index_set.indexes]
        cols = self._a_fs.shape[1]
        r = _secret_mask(self.config, query_id, 1, cols)
        z = u_fs + self._a_fs @ r
        self._send(FilterQuery(query_id=query_id, indexes=index_set.indexes, z=z))
        reply = self._recv()
        if not isinstance(reply, FilterReply) or reply.query_id != query_id:
            raise ProtocolError("filter reply does not match the query")
        if len(reply.s) != self.target_count:
            raise ProtocolError(
                f"filter reply covers {len(reply.s)} documents, "
                f"expected {self.target_count}"
            )
        if reply.t.shape[1:] != (cols,):
            raise ProtocolError(
                f"filter reply t has shape {reply.t.shape}, expected width {cols}"
            )
        # a NaN or infinite s or t entry makes its pair's product non-finite
        delta = recover(reply.s, reply.t, r)
        if not (np.isfinite(delta).all() and np.isfinite(reply.norm_v2).all()):
            raise ProtocolError("filter reply carries a non-finite value")
        bound = evaluate_filter(delta, u_fs @ u_fs, reply.norm_v2)
        return np.flatnonzero(bound >= self.config.epsilon)

    def _full_round_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Masked full-width vectors and secret masks of all queries.

        Column q belongs to query q, whose mask is drawn from its own
        generator; A R for all queries takes one pass over A.
        """
        if self._full_z is None:
            cols = self._matrix.cols
            r = np.column_stack(
                [_secret_mask(self.config, q, 2, cols) for q in range(len(self.queries))]
            )
            self._full_z = mask(self._dense.T, self._matrix, r)
            self._full_r = r
        return self._full_z, self._full_r

    def _full_step(self, query_id: int, survivors: np.ndarray) -> np.ndarray:
        """Recovered cosines of the query with each survivor, in survivor order."""
        z, r = self._full_round_masks()
        self._send(
            FullQuery(query_id=query_id, survivor_ids=survivors, z=z[:, query_id])
        )
        reply = self._recv()
        if not isinstance(reply, FullReply) or reply.query_id != query_id:
            raise ProtocolError("full reply does not match the query")
        if not np.array_equal(reply.doc_ids, survivors):
            raise ProtocolError("full reply covers the wrong documents")
        new = survivors[~self._known[survivors]]
        if len(reply.t) != new.size:
            raise ProtocolError(
                f"full reply carries {len(reply.t)} t rows for {new.size} new survivors"
            )
        if new.size:
            if reply.t.shape[1:] != (r.shape[0],):
                raise ProtocolError(
                    f"full reply t has shape {reply.t.shape}, "
                    f"expected width {r.shape[0]}"
                )
            # one matrix-vector product per row, so a row's t_j R has the
            # same bits whichever other rows arrived with it
            self._tr[new] = np.matmul(reply.t[:, None, :], r)[:, 0]
            self._known[new] = True
            self._zero_t[new] = ~reply.t.any(axis=1)
        # a NaN or infinite s or new t entry makes its pair's product non-finite
        recovered = reply.s - self._tr[survivors, query_id]
        if not np.isfinite(recovered).all():
            raise ProtocolError("full reply carries a non-finite value")
        return recovered

    def run_query(self, query_id: int, query: PackedDocs) -> None:
        """Decide every pair of query ``query_id`` into row ``query_id`` of
        the cosine and similar arrays.  ``query`` is ``self.queries[query_id]``,
        a one-document ``PackedDocs`` passed on for callers that wrap this
        method; the packed queries are what the session reads.

        Survivors get their recovered cosine, or 0 and never similar for a
        degenerate query; an empty target is never similar either.  Filtered
        pairs keep NaN.
        """
        if self.target_count == 0:
            return
        started = time.perf_counter()
        if self.config.method.uses_filter:
            survivors = self._filter_step(query_id)
        else:
            survivors = np.arange(self.target_count)
        self.metrics.pairs_total += self.target_count
        self.metrics.pairs_filtered += self.target_count - survivors.size
        if survivors.size:
            recovered = self._full_step(query_id, survivors)
            self.metrics.full_products += survivors.size
            if self.queries.nnz[query_id] == 0:
                self.cosines[query_id, survivors] = 0.0
            else:
                # An empty v_j gives t_j = 0 and s = 0 exactly.  With +-1
                # entries a nonempty v_j can also cancel to t_j = 0, but its
                # s = z . v_j is then the pair's product itself, so such a
                # pair is taken for empty only when that product is 0:
                # never similar at a positive tolerance anyway.
                empty = self._zero_t[survivors] & (recovered == 0.0)
                self.cosines[query_id, survivors] = recovered
                self.similar[query_id, survivors] = (
                    recovered >= self.config.epsilon
                ) & ~empty
        self.metrics.wall_time += time.perf_counter() - started

    def run(self) -> DetectionReport:
        aborted = False
        try:
            self.handshake()
            for query_id in range(len(self.queries)):
                self.run_query(query_id, self.queries[query_id])
                self.decided = query_id + 1
            self._send(Bye())
        except (SsddError, OSError) as exc:
            logger.warning("session aborted: %s", exc)
            aborted = True
        return DetectionReport(
            config=self.config,
            target_count=self.target_count,
            cosines=self.cosines,
            similar=self.similar,
            decided=self.decided,
            metrics=self.metrics,
            aborted=aborted,
        )


def run_detection(
    queries: PackedDocs,
    config: SessionConfig,
    transport,
    responder: BobResponder | None = None,
) -> DetectionReport:
    """Drive a full session over an already-connected transport.

    When the caller can reach the responder object (in-process runs, a local
    server), its multiplication counter lands in the report; a remote
    responder keeps its own count.
    """
    session = AliceSession(config, queries, transport)
    report = session.run()
    if responder is not None:
        report.metrics.scalar_mult_count = responder.scalar_mult_count
    return report


def run_local_detection(
    queries: PackedDocs,
    config: SessionConfig,
    bob_vectors: PackedDocs,
    timeout: float = 60.0,
) -> DetectionReport:
    """Run both parties in this process over the queue transport."""
    alice_end, bob_end = make_local_pair(timeout)
    responder = BobResponder(bob_vectors, dims=config.n)
    server = threading.Thread(target=responder.serve, args=(bob_end,), daemon=True)
    server.start()
    try:
        report = run_detection(queries, config, alice_end, responder=responder)
    finally:
        alice_end.close()
        server.join(timeout=5.0)
    return report

