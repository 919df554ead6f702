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
   s = z . c_j for every survivor and t_j = A^T c_j for the survivors whose
   t he has not sent before in this session; the recovered products are
   the exact integers c_u . c_j and, with the squared norms, decide
   similarity exactly.

Both parties work on raw term counts c, and Alice's masks r are integers,
so every quantity is an integer that float64 holds exactly (``decide``
states the limits, which each party checks before it computes: Bob at the
Hello, Alice when her session is made).  The cosine does not change when
a vector is scaled, so counts give the verdicts unit vectors would.

BASE skips step 1 and treats every document as a survivor.  One fresh mask
per query and step; the same masked vector serves all of Bob's documents
for that query.  Alice draws every mask from her ``mask_seed``, which no
message carries, so Bob cannot regenerate r from the wire.  That does not
make z hide u: a document is sparse, and sparse recovery can read it from
z = u + A r once the range of A is projected out, as it can read c_j from
t_j = A^T c_j.  HelloAck discloses every ||c_j||^2 to Alice, which she
needs to normalise.  Survivor ids necessarily reveal to Bob which of his
documents passed the filter; LF and HF additionally reveal the chosen
dimension indexes of each query.  Sending t_j once per session rather
than with every reply discloses nothing new: t_j does not depend on the
query, so each later reply would repeat the same values.

Alice alone selects the f dimensions, for every method, and each filter
query names them; Bob answers the set he is given.  GF and HF select from
the document frequencies of both corpora: Bob's counts come with HelloAck
and Alice adds her own, which never cross the wire, so Bob sees only the
GF or HF index sets chosen from the sum.  For RP the set discloses nothing
new either: Bob can derive it from the seed in Hello.  Hello does not
carry the tolerance, which Alice alone uses.

This is protocol version 9 (``PROTOCOL_VERSION``, see ``messages`` for the
layout), whose A is the subsampled Hadamard matrix of ``masking``.  Bob
refuses a Hello of any other version at the handshake.  ``decide`` holds
the verdict rules and the limits of exact arithmetic.

Both rounds are computed with array operations.  Bob's corpus is packed
(``PackedDocs``) once per corpus, not once per session, and shared
read-only by every session over it.  He answers a filter query with one
projection of the whole corpus, read from its term-major view: built once
per corpus, on the first filter query any session makes, and shared
read-only too, it lets each projection touch only the entries on the f
chosen dimensions, one slice assignment per chosen term into an (f, m)
array whose transpose is the projection.  In the full round Bob keeps one
flag per document for "t sent", computes t_j only the first time document
j survives, and s_j = z . c_j per query.  Alice holds her queries packed
too, reads their document frequencies from them, and at the handshake
masks them ``masking.BATCH`` at a time, one transform (A R, R stacking
the per-query masks) per batch, into which each adds its entries; she
keeps each masked vector as the wire's int32.  A filtering method makes a
query's one dense row when it runs, to select and project from.
For each t_j that arrives she keeps only t_j R, one number per query, and
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

from ..decide import (
    FILTER_L1_LIMIT,
    L1_LIMIT,
    NORM2_LIMIT,
    check_tolerance,
    cosines,
    evaluate_filter,
    is_similar,
    recover,
    squared_norms,
)
from ..errors import ProtocolError, RangeError, SessionError, SsddError
from ..masking import BATCH, SharedRandomMatrix, mask
from ..selection import SelectionMethod, select_hf, select_rp, top_f, zscore
from ..vectors import PackedDocs, project
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
    "DISCLOSURE_WARNING",
    "AliceSession",
    "BobResponder",
    "run_local_detection",
]

logger = logging.getLogger(__name__)

PROTOCOL_VERSION = 9

# logged by every LF or HF session
DISCLOSURE_WARNING = (
    "methods LF and HF send each query's chosen dimension indexes to the "
    "responder; which terms dominate a query is disclosed"
)


@dataclass(frozen=True)
class SessionConfig:
    """Parameters of a session.

    Hello carries all but the tolerance ``epsilon`` and the ``mask_seed``
    to the responder; both stay with the querying side, and are None on
    the responder's side (``from_hello``).  The filter budget ``f`` lies in
    [1, n] for a method that filters and in [0, n] under BASE, which does
    not use it.  Every shared random choice of the session derives from
    ``seed``: A is keyed by it, A_fs by seed + 1 and the RP set by seed + 2
    (mod 2**64).  Alice's secret masks derive from ``mask_seed`` with the
    query id and the step; None, the default, draws it from the operating
    system's entropy when the session is made.
    """

    n: int
    epsilon: float | None
    method: SelectionMethod = SelectionMethod.BASE
    f: int = 0
    seed: int = 0
    mask_seed: int | None = None

    def __post_init__(self):
        if self.n < 1:
            raise RangeError(f"n must be positive, got {self.n}")
        if self.epsilon is not None:
            check_tolerance(self.epsilon)
        low = 1 if self.method.uses_filter else 0
        if not low <= self.f <= self.n:
            raise RangeError(f"f={self.f} outside [{low}, {self.n}]")
        if not 0 <= self.seed < 2**64:
            raise RangeError("seed must fit in 64 bits")
        if self.mask_seed is not None and self.mask_seed < 0:
            raise RangeError("mask seed cannot be negative")

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
    """Counters of a session, which ends by counting the pairs of its
    decided queries: a cosine is a full product, NaN a filtered pair.
    ``wall_time`` is the whole session, handshake and Bye included."""

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
    cosines: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    similar: np.ndarray = field(default_factory=lambda: np.empty((0, 0), bool))
    decided: int = 0
    metrics: SessionMetrics = field(default_factory=SessionMetrics)
    aborted: bool = False

    @property
    def target_count(self) -> int:
        """Bob's document count, the width of the arrays."""
        return self.cosines.shape[1]

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


def _mask_bits(max_count: int, cols: int) -> int:
    """The largest b for which max_count + cols * 2**b < 2**31: every entry
    of z = c + A r, r in [-2**b, 2**b], then fits int32."""
    room = (2**31 - 1 - max_count) // cols
    if room < 1:
        raise RangeError(f"query counts up to {max_count} leave no room for a mask below 2**31")
    return room.bit_length() - 1


def _secret_mask(mask_seed: int, query_id: int, step: int, cols: int, bits: int) -> np.ndarray:
    """Alice's mask r for one query and step (1 filter, 2 full): cols
    integers uniform on [-2**bits, 2**bits], as float64, from a generator
    keyed by her ``mask_seed``, which no message carries, with the query id
    and the step."""
    seq = np.random.SeedSequence(mask_seed, spawn_key=(query_id, step))
    draw = np.random.default_rng(seq).integers(-(1 << bits), 1 << bits, cols, endpoint=True)
    return draw.astype(np.float64)


class BobResponder:
    """Target-corpus side of a session: answers masked queries.

    One instance serves one session and drops its arrays, and its reference
    to the corpus, when ``serve`` returns.  The corpus (a loaded
    ``Corpus.vectors``, say) is shared read-only with every other session
    over it, and names the session's dims; ``dims``, when given, must
    match.  At the Hello Bob refuses a corpus past the limits of exact
    arithmetic (``decide``), and answers with every document's ||c_j||^2.
    A filter query names its index set, whatever the method, and
    is answered from the projection P (m x f) of the packed corpus onto
    that set: s = P z, t = P A_fs and the squared row norms.

    ``answer`` decodes each frame against ``_expect``, the table of what
    may arrive next, which is Bob's state machine: before the Hello, a
    Hello or a Bye; from the Hello on, a FullQuery of n masked entries,
    under a filtering method a FilterQuery of f indexes and f masked
    entries, or a Bye.  A frame of any other class is a ``ProtocolError``
    from its tag, and one of other widths a ``FrameError``, before any of
    its arrays is read.

    A set's order and range are checked in one place, ``_filter_pieces``:
    strictly increasing, within [0, n); anything else is a
    ``ProtocolError``.  A set equal to the last one answered passed the
    check then, so its pieces are reused without it.  P is read from the
    corpus's term-major view, built once per corpus and shared
    read-only, so it costs the entries on the f chosen dimensions, not a
    scan of the corpus: it is the transpose of an (f, m) array P^T, each
    of whose rows takes one chosen term's weights in one slice assignment.
    s = z P^T and the projected squared norms read P^T in that layout, and
    t = P A_fs comes out C-ordered, as the frame lays it out; on integers
    every order of these sums gives the same value.  Each entry of t is a
    signed sum of one document's counts, below 2^15 by the Hello's limit,
    so its GEMM runs in float32 (exact below 2^24) on a float32 copy of
    P^T; Bob holds A_fs as float32.
    P^T, t (as int16) and the norms (as uint32) of the last set are kept,
    read-only, and reused while queries name the same set: under RP and GF,
    whose set is fixed, they are computed once per session.

    In the full round, t_j = A^T c_j is computed and sent the first time
    document j survives; ``_sent`` marks those documents.  A query whose
    survivors are every document in order, as under BASE, is answered from
    the corpus itself, with no copy of its entries.  The reply's t
    is int16 unless some entry reaches 2^15 in magnitude, then int32, with
    the width code set to match; no entry of t_j exceeds the sum of c_j's
    counts, so only a reply with such a sum of 2^15 or more is scanned.
    ``answer`` gives each reply in the parts ``encode_message`` gives, as
    Alice sends her queries, so a reply's t goes out from the array itself,
    not from a copy in the frame.

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
        # (indexes, P^T, t, norms, nnz) of the last index set answered
        self._session_filter: tuple | None = None
        self._sent = np.zeros(self.doc_count, dtype=bool)
        # what may arrive next, with the header values Bob knows for it
        self._expect: dict = {Hello: {}, Bye: {}}

    def serve(self, transport) -> None:
        """Answer frames until Bye or transport loss, then drop the corpus
        and every per-session array; ``scalar_mult_count`` stays."""
        try:
            while True:
                try:
                    frame = transport.recv_frame()
                except SessionError:
                    break
                reply = self.answer(frame)
                if reply is None:
                    break
                transport.send_frame(reply)
        finally:
            transport.close()
            self._docs = self._sent = self._session_filter = None
            self._matrix = self._a_fs = None

    def answer(self, frame):
        """The reply to one frame, as the parts ``encode_message`` gives, or
        None at Bye.  The frame is decoded against ``_expect``, so
        ``handle`` sees only a message that Bob's state admits."""
        msg = decode_message(frame, self._expect)
        if isinstance(msg, Bye):
            return None
        return encode_message(self.handle(msg))

    def handle(self, msg):
        """The reply to a message that ``_expect`` admitted, Bye aside: the
        first Hello, or a query of the session's method and widths."""
        if isinstance(msg, Hello):
            return self._on_hello(msg)
        if isinstance(msg, FilterQuery):
            return self._on_filter_query(msg)
        return self._on_full_query(msg)

    def _on_hello(self, msg: Hello) -> HelloAck:
        config = SessionConfig.from_hello(msg)
        if config.n != self.dims:
            raise ProtocolError(
                f"query side expects {config.n} dims, corpus has {self.dims}"
            )
        l1_limit = FILTER_L1_LIMIT if config.method.uses_filter else L1_LIMIT
        norm2 = squared_norms(self._docs, "target documents", l1_limit)
        self.config = config
        self._matrix = SharedRandomMatrix(config.seed, config.n)
        self._expect = {FullQuery: {"w": config.n}, Bye: {}}
        if config.method.uses_filter:
            self._a_fs = _filter_matrix(config).astype(np.float32)
            self._expect[FilterQuery] = {"c": config.f, "w": config.f}
        # Bob's document counts, for Alice to select with under GF and HF
        if config.method.needs_whole_vector:
            df = self._docs.document_frequency
        else:
            df = np.zeros(0, dtype=np.int64)
        return HelloAck(df=df, norm2=norm2.astype(np.uint64))

    def _filter_pieces(self, msg: FilterQuery) -> tuple:
        """Filter-round pieces of every document for the query's index set,
        reused from the last query when it names the same set.

        Returns P^T (f x m, C-ordered, as ``project`` fills it), t = P A_fs
        as C-ordered int16, the squared row norms of P as uint32, and the
        number of corpus entries on the set's dimensions: P's stored
        entries, each of which the products multiply.  The Hello's limits
        bound every |t| by a document's count sum, below 2^15, and every
        norm below 2^32.
        """
        config = self.config
        indexes = msg.indexes
        memo = self._session_filter
        if memo is not None and np.array_equal(memo[0], indexes):
            return memo[1:]
        # the one check of a set's order and range; ``answer`` let through
        # f >= 1 indexes, so it has a first and a last one
        increasing = np.all(indexes[1:] > indexes[:-1])
        if not (increasing and indexes[0] >= 0 and indexes[-1] < config.n):
            raise ProtocolError(
                f"bad index set: indexes must strictly increase within [0, {config.n})"
            )
        self._session_filter = None  # the old pieces go before the new are built
        rows = project(self._docs, indexes).T
        t = (rows.astype(np.float32).T @ self._a_fs).astype(np.int16)
        norm_v2 = np.einsum("ij,ij->j", rows, rows).astype(np.uint32)
        nnz = int(self._docs.document_frequency[indexes].sum())
        # later replies for the same set share these arrays
        for piece in (rows, t, norm_v2):
            piece.flags.writeable = False
        self._session_filter = (indexes.copy(), rows, t, norm_v2, nnz)
        return rows, t, norm_v2, nnz

    def _on_filter_query(self, msg: FilterQuery) -> FilterReply:
        rows, t, norm_v2, nnz = self._filter_pieces(msg)
        self.scalar_mult_count += nnz * (2 + self._a_fs.shape[1])
        # exact integers below 2^53 by the Hello's limits, as the wire's i8
        s = (msg.z @ rows).astype(np.int64)
        return FilterReply(query_id=msg.query_id, s=s, norm_v2=norm_v2, t=t)

    def _on_full_query(self, msg: FullQuery) -> FullReply:
        ids = msg.survivor_ids
        if ids.size and (ids.min() < 0 or ids.max() >= self.doc_count):
            raise ProtocolError("survivor id outside the corpus")
        if ids.size and np.bincount(ids).max() > 1:
            raise ProtocolError("duplicate survivor id")
        # every document in order, as under BASE: the corpus itself
        every = ids.size == self.doc_count and np.array_equal(ids, np.arange(ids.size))
        survivors = self._docs if every else self._docs.take(ids)
        new = ids[~self._sent[ids]]
        if new.size:
            fresh = survivors if new.size == ids.size else self._docs.take(new)
            t = self._matrix.transpose_apply_packed(fresh)
            wide = self._docs.l1_norms[new].max() >= 2**15 and np.abs(t).max() >= 2**15
            t = t.astype(np.int32 if wide else np.int16)
            self._sent[new] = True
        else:
            t = np.empty((0, self._matrix.cols), np.int16)
        s = survivors.dot(msg.z).astype(np.int64)
        self.scalar_mult_count += survivors.indices.size * (1 + self._matrix.cols)
        return FullReply(
            query_id=msg.query_id, doc_ids=ids.copy(), s=s, t=t, t_bytes=t.itemsize
        )


class AliceSession:
    """Query side of a session; drives the transport and scores pairs into
    ``report``, the one ``DetectionReport`` of the session, which ``run``
    returns.  The queries must be counts within the limits of exact
    arithmetic (``decide``); the masks take the widest integer range,
    [-2**b, 2**b], that keeps every masked entry below 2**31."""

    def __init__(self, config: SessionConfig, queries: PackedDocs, transport):
        if queries.dims != config.n:
            raise RangeError(
                f"query documents have dims={queries.dims}, the session n={config.n}"
            )
        if config.epsilon is None:
            raise RangeError("the querying side needs its tolerance")
        self.config = config
        self.queries = queries
        self.transport = transport
        self._norm2 = squared_norms(queries, "query documents")
        # the handshake names the targets, and sizes the arrays for them
        shape = (len(queries), 0)
        self.report = DetectionReport(config, np.empty(shape), np.empty(shape, bool))
        self._matrix = SharedRandomMatrix(config.seed, config.n)
        self._a_fs = _filter_matrix(config) if config.method.uses_filter else None
        self._whole: np.ndarray | None = None
        seed = config.mask_seed
        self._mask_seed = np.random.SeedSequence().entropy if seed is None else seed
        top = int(np.abs(queries.weights).max()) if queries.weights.size else 0
        self._mask_bits = _mask_bits(top, self._matrix.cols)
        if config.method.per_query:
            logger.warning(DISCLOSURE_WARNING)

    def _send(self, msg) -> None:
        parts = encode_message(msg)
        self.report.metrics.bytes_sent_alice += sum(map(len, parts))
        self.transport.send_frame(parts)

    def _exchange(self, msg, kind, **known):
        """Send ``msg`` and return Bob's reply.  Alice's table of what may
        arrive next (``decode_message``) holds the one reply she waits for:
        a ``kind`` with the header values ``known``, the query id of ``msg``
        among them (Hello and HelloAck carry none)."""
        self._send(msg)
        frame = self.transport.recv_frame()
        self.report.metrics.bytes_sent_bob += len(frame)
        return decode_message(frame, {kind: known})

    def handshake(self) -> None:
        """Hello, then HelloAck: the squared norms of Bob's documents, which
        number them, and, under GF and HF, his document frequencies, which
        Alice adds to her own.  Once the ack is checked, everything the
        session needs once is made: the report's arrays, the per-target
        state of the full round and its masked vectors."""
        config = self.config
        method = config.method
        width = config.n if method.needs_whole_vector else 0
        ack = self._exchange(config.hello(), HelloAck, n=width)
        if ack.norm2.size and ack.norm2.max() >= NORM2_LIMIT:
            raise ProtocolError("HelloAck carries a squared norm of 2**32 or more")
        self._target_norm2 = ack.norm2
        if method.needs_whole_vector:
            self._whole = self.queries.document_frequency + ack.df
            if method is SelectionMethod.HF:
                self._whole = zscore(self._whole)
        report, queries, targets = self.report, len(self.queries), ack.norm2.size
        report.cosines = np.full((queries, targets), np.nan)
        report.similar = np.zeros((queries, targets), dtype=bool)
        # row j holds t_j R once t_j has arrived (known[j])
        self._tr = np.empty((targets, queries))
        self._known = np.zeros(targets, dtype=bool)
        # the full round's secret masks R, column q for query q, whose mask
        # comes from its own generator, and masked vectors, row q for query
        # q in the wire's i4 (below 2^31 by the mask width), so that each
        # FullQuery sends its row as it is.  A R is computed BATCH queries
        # at a time, each batch one transform, so that no float64 copy of
        # every z is held
        cols = self._matrix.cols
        self._full_r = np.empty((cols, queries))
        self._full_z = np.empty((queries, config.n), np.int32)
        for lo in range(0, queries, BATCH):
            batch = np.arange(lo, min(lo + BATCH, queries))
            for q in batch:
                self._full_r[:, q] = self._secret_mask(q, 2, cols)
            z = mask(self.queries.take(batch), self._matrix, self._full_r[:, batch])
            self._full_z[batch] = z.T

    def _secret_mask(self, query_id: int, step: int, cols: int) -> np.ndarray:
        return _secret_mask(self._mask_seed, query_id, step, cols, self._mask_bits)

    def _filter_step(self, query_id: int, row: np.ndarray) -> np.ndarray:
        """Ids of the targets whose filter bound reaches the tolerance, for
        the query with dense row ``row``; only the index set differs by
        method.  Under HF ``_whole`` is already z-scored, once per session."""
        config = self.config
        if config.method is SelectionMethod.LF:
            indexes = top_f(row, config.f)
        elif config.method is SelectionMethod.HF:
            indexes = select_hf(row, self._whole, config.f)
        elif config.method is SelectionMethod.GF:
            indexes = top_f(self._whole, config.f)
        else:
            indexes = select_rp(_subseed(config, 2), config.n, config.f)
        u_fs = row[indexes]
        cols = self._a_fs.shape[1]
        r = self._secret_mask(query_id, 1, cols)
        z = u_fs + self._a_fs @ r
        msg = FilterQuery(query_id=query_id, indexes=indexes, z=z)
        reply = self._exchange(
            msg, FilterReply, query_id=query_id, m=self.report.target_count, w=cols
        )
        bound = evaluate_filter(
            recover(reply.s, reply.t, r),
            u_fs @ u_fs,
            reply.norm_v2,
            self._norm2[query_id],
            self._target_norm2,
        )
        return np.flatnonzero(bound >= config.epsilon)

    def _full_step(self, query_id: int, survivors: np.ndarray) -> np.ndarray:
        """The exact products c_u . c_j of the query with each survivor, in
        survivor order."""
        r, z = self._full_r, self._full_z[query_id]
        msg = FullQuery(query_id=query_id, survivor_ids=survivors, z=z)
        new = survivors[~self._known[survivors]]
        reply = self._exchange(
            msg, FullReply, query_id=query_id, k=survivors.size, k_new=new.size, w=r.shape[0]
        )
        if not np.array_equal(reply.doc_ids, survivors):
            raise ProtocolError("full reply covers the wrong documents")
        if new.size:
            # an entry of t_j is at most ||c_j||_1, so |t_j R| < 2**53
            if reply.t_bytes > 2 and np.abs(reply.t).max() > L1_LIMIT:
                raise ProtocolError(f"full reply t holds an entry above {L1_LIMIT}")
            self._tr[new] = reply.t @ r
            self._known[new] = True
        return reply.s - self._tr[survivors, query_id]

    def run_query(self, query_id: int, query: PackedDocs) -> None:
        """Decide every pair of query ``query_id`` into row ``query_id`` of
        the report's arrays.  ``query`` is ``self.queries[query_id]``, a
        one-document ``PackedDocs``: a filtering method makes its dense row
        to select and project from.

        Survivors get their cosine from the exact product and the squared
        norms, and the exact verdict; a pair with an empty document has
        cosine 0 and is never similar.  Filtered pairs keep NaN.
        """
        report = self.report
        if report.target_count == 0:
            return
        if self.config.method.uses_filter:
            survivors = self._filter_step(query_id, query.dense()[0])
        else:
            survivors = np.arange(report.target_count)
        if survivors.size:
            delta = self._full_step(query_id, survivors)
            norm_u2, norm_v2 = self._norm2[query_id], self._target_norm2[survivors]
            report.cosines[query_id, survivors] = cosines(delta, norm_u2, norm_v2)
            report.similar[query_id, survivors] = is_similar(
                delta, norm_u2, norm_v2, self.config.epsilon
            )

    def run(self) -> DetectionReport:
        report = self.report
        started = time.perf_counter()
        try:
            self.handshake()
            for query_id in range(len(self.queries)):
                self.run_query(query_id, self.queries[query_id])
                report.decided = query_id + 1
            self._send(Bye())
        except (SsddError, OSError) as exc:
            logger.warning("session aborted: %s", exc)
            report.aborted = True
        done = report.cosines[: report.decided]
        metrics = report.metrics
        metrics.pairs_total = done.size
        metrics.full_products = int(np.count_nonzero(~np.isnan(done)))
        metrics.pairs_filtered = metrics.pairs_total - metrics.full_products
        metrics.wall_time = time.perf_counter() - started
        return report


def run_local_detection(
    queries: PackedDocs, config: SessionConfig, bob_vectors: PackedDocs
) -> DetectionReport:
    """Run both parties in this process over the queue transport.

    A remote run is ``AliceSession(config, queries, transport).run()`` over
    a connected transport.  Its responder keeps its own multiplication
    count; this function, which holds its responder, copies the count into
    the report."""
    alice_end, bob_end = make_local_pair()
    responder = BobResponder(bob_vectors, dims=config.n)
    server = threading.Thread(target=responder.serve, args=(bob_end,), daemon=True)
    server.start()
    try:
        report = AliceSession(config, queries, alice_end).run()
    finally:
        alice_end.close()
        server.join(timeout=5.0)
    report.metrics.scalar_mult_count = responder.scalar_mult_count
    return report
