"""The filter round over exact integer pieces: the bound that Alice computes
in float64 carries a declared slack that covers its roundings, so it is
never below the exact bound, and the round dismisses no pair that the exact
bound keeps."""

import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ssdd.corpus import split_queries
from ssdd.decide import evaluate_filter, recover
from ssdd.oracle import oracle_detect
from ssdd.protocol.messages import FilterQuery, FilterReply, decode_message
from ssdd.protocol.session import (
    AliceSession,
    BobResponder,
    SessionConfig,
    _filter_matrix,
    _mask_bits,
    _secret_mask,
)
from ssdd.protocol.transport import make_local_pair
from ssdd.selection import SelectionMethod
from ssdd.vectors import PackedDocs

from conftest import frame_of, missed_and_extra, pack, synth_corpus

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # declared only by the test extra
    given = None


def reaches_exact_bound(bound, delta, proj_u2, proj_v2, norm_u2, norm_v2) -> bool:
    """Whether the float ``bound`` reaches every float tolerance that the
    exact bound of one pair reaches,

        E = 1 - (proj_u2 / norm_u2 - 2 delta / sqrt(norm_u2 norm_v2) + proj_v2 / norm_v2) / 2,

    clamped at 1, a zero norm read as 1: the float after ``bound`` lies
    above E, or ``bound`` is 1.  Decided in rational arithmetic: with X the
    exact proj_u2 / norm_u2 + proj_v2 / norm_v2 - 2 (1 - that next float),
    it lies above E iff X > 2 delta / sqrt(P), P = norm_u2 norm_v2, which
    compares signs and then X^2 P with 4 delta^2."""
    if bound == 1.0:
        return True
    norm_u2, norm_v2 = max(int(norm_u2), 1), max(int(norm_v2), 1)
    above = Fraction(float(np.nextafter(bound, np.inf)))
    x = Fraction(int(proj_u2), norm_u2) + Fraction(int(proj_v2), norm_v2) - 2 * (1 - above)
    delta, product = int(delta), norm_u2 * norm_v2
    if delta < 0:
        return x >= 0 or x * x * product < 4 * delta * delta
    return x > 0 and x * x * product > 4 * delta * delta


def check_bounds(u, v, idx) -> None:
    """``evaluate_filter`` on the pieces of the count vectors ``u`` (rows)
    and ``v`` projected onto ``idx``, for every pair, against the exact
    bound: it reaches every float tolerance that the exact bound does."""
    u_fs, v_fs = u[:, idx], v[:, idx]
    delta = u_fs @ v_fs.T
    pu, pv = (u_fs * u_fs).sum(1), (v_fs * v_fs).sum(1)
    nu, nv = (u * u).sum(1), (v * v).sum(1)
    bound = evaluate_filter(
        delta.astype(np.float64), pu[:, None].astype(np.float64), pv.astype(np.float64),
        nu[:, None].astype(np.float64), nv.astype(np.float64),
    )
    for i, j in np.ndindex(bound.shape):
        assert reaches_exact_bound(bound[i, j], delta[i, j], pu[i], pv[j], nu[i], nv[j]), (i, j)


def random_counts(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """Count vectors of a scale drawn per call, from 1 to 2**15, with a
    fifth to all of their entries zero; the squared norms stay below
    2**32, as a session requires."""
    top = int(2 ** rng.uniform(0, 15))
    counts = rng.integers(0, top + 1, (rows, n)) * (rng.random((rows, n)) < rng.uniform(0.0, 0.8))
    while (counts * counts).sum(1).max() >= 2**32:
        counts //= 2
    return counts


class TestAllowance:
    def test_random_small_cases(self):
        """Pairs of 1-5 by 1-5 count vectors of up to 47 terms, each
        projected onto a random set; empty vectors included."""
        rng = np.random.default_rng(83)
        for _ in range(300):
            n = int(rng.integers(1, 48))
            u = random_counts(rng, int(rng.integers(1, 6)), n)
            v = random_counts(rng, int(rng.integers(1, 6)), n)
            idx = np.sort(rng.choice(n, int(rng.integers(1, n + 1)), replace=False))
            check_bounds(u, v, idx)

    def test_pieces_of_one_document(self):
        """A responder's pieces, recovered by Alice from an integer mask as
        wide as a session draws it, are the exact projected products, and
        their bound is never below the exact one."""
        rng = np.random.default_rng(84)
        n, f = 60, 12
        config = SessionConfig(n=n, epsilon=0.5, method=SelectionMethod.RP, f=f, seed=9)
        a_fs = _filter_matrix(config)
        for _ in range(40):
            u, v = random_counts(rng, 1, n), random_counts(rng, 3, n)
            v[2] = 0  # a document of no projection
            # a filter round's targets sum their counts below 2**15
            while v.sum(1).max() >= 2**15:
                v //= 2
            targets = pack([doc_of(row) for row in v], n)
            responder = BobResponder(targets, dims=n)
            ack = responder.handle(config.hello())
            idx = np.sort(rng.choice(n, f, replace=False))
            bits = _mask_bits(int(u.max()), (n + 1) // 2)
            r = _secret_mask(int(rng.integers(2**32)), 0, 1, a_fs.shape[1], bits)
            u_fs = u[0, idx].astype(np.float64)
            z = u_fs + a_fs @ r
            reply = decode_message(frame_of(responder.handle(FilterQuery(0, idx, z))))
            delta = recover(reply.s, reply.t, r)
            np.testing.assert_array_equal(delta, v[:, idx] @ u[0, idx])
            bound = evaluate_filter(delta, u_fs @ u_fs, reply.norm_v2, (u * u).sum(), ack.norm2)
            for j in range(3):
                assert reaches_exact_bound(
                    bound[j], delta[j], u_fs @ u_fs, reply.norm_v2[j], (u * u).sum(), ack.norm2[j]
                ), j

    if given is not None:

        @settings(max_examples=150, deadline=None)
        @given(st.data())
        def test_drawn_cases(self, data):
            """hypothesis draws the count vectors and the index set, zero
            and largest counts included."""
            n = data.draw(st.integers(1, 30))
            count = st.integers(0, 2**15)

            def vector():
                return np.array(data.draw(st.lists(count, min_size=n, max_size=n)), np.int64)

            u, v = vector(), vector()
            if (u * u).sum() >= 2**32 or (v * v).sum() >= 2**32:
                return
            idx = np.flatnonzero(np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))))
            if idx.size:
                check_bounds(u[None], v[None], idx)

    def test_bounding_holds_no_matrix(self):
        """At kos-hf's shape, 3,420 documents and 35 mask entries, Alice's
        recovery and bound allocate nothing of t's size, and the recovered
        products are exact."""
        rng = np.random.default_rng(88)
        m, cols = 3420, 35
        r = rng.integers(-(2**17), 2**17, cols, endpoint=True).astype(np.float64)
        t = rng.integers(-(2**10), 2**10, (m, cols)).astype(np.int16)
        product = rng.integers(-(2**20), 2**20, m)
        s = product + t.astype(np.int64) @ r.astype(np.int64)
        sent = FilterReply(query_id=0, s=s, norm_v2=rng.integers(0, 2**20, m), t=t)
        reply = decode_message(frame_of(sent))
        tracemalloc.start()
        try:
            delta = recover(reply.s, reply.t, r)
            evaluate_filter(delta, 400.0, reply.norm_v2, 900.0, reply.norm_v2 + 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * cols * 2, peak / (m * cols * 2)
        np.testing.assert_array_equal(delta, product)


def doc_of(row: np.ndarray) -> PackedDocs:
    """One count vector as a one-document ``PackedDocs``."""
    nz = np.flatnonzero(row)
    return PackedDocs(row.size, np.array([0, nz.size]), nz, row[nz])


class RecordingBob(BobResponder):
    """An honest responder that keeps each filter query and its reply as
    computed."""

    def __init__(self, vectors):
        super().__init__(vectors)
        self.filter_rounds = []

    def _on_filter_query(self, msg):
        reply = super()._on_filter_query(msg)
        self.filter_rounds.append((msg, reply))
        return reply


@pytest.mark.parametrize(
    "method",
    [SelectionMethod.RP, SelectionMethod.LF, SelectionMethod.GF, SelectionMethod.HF],
    ids=lambda m: m.name,
)
def test_survivors_contain_those_of_the_float64_pieces(method):
    """One session per filtering method on a seeded corpus.  Bob computes
    his pieces as float64 integers, and the wire carries them unchanged:
    the pairs that survive are exactly those whose bound from Bob's pieces
    reaches the tolerance, every such bound is at least the exact one, and
    so the survivors contain every pair whose exact bound reaches the
    tolerance.  The verdicts equal the plaintext oracle's for every
    pair."""
    corpus = synth_corpus(n_docs=150, dims=800, seed=86, mean_terms=50)
    query_ids, target_ids = split_queries(corpus, k=8, seed=2)
    queries = corpus.vectors.take(query_ids)
    targets = corpus.vectors.take(target_ids)
    config = SessionConfig(n=800, epsilon=0.7, method=method, f=40, seed=5, mask_seed=12)
    bob = RecordingBob(targets)
    alice_end, bob_end = make_local_pair(timeout=5.0)
    worker = threading.Thread(target=bob.serve, args=(bob_end,), daemon=True)
    worker.start()
    try:
        report = AliceSession(config, queries, alice_end).run()
    finally:
        alice_end.close()
        worker.join(timeout=5.0)
    assert not worker.is_alive()
    assert not report.aborted and report.decided == len(queries)

    dense = queries.dense()
    cols = _filter_matrix(config).shape[1]
    bits = _mask_bits(int(queries.weights.max()), (config.n + 1) // 2)
    norm_u2, norm_v2 = queries.squared_norms, targets.squared_norms
    assert len(bob.filter_rounds) == len(queries)
    kept = 0
    for msg, reply in bob.filter_rounds:
        q = msg.query_id
        r = _secret_mask(config.mask_seed, q, 1, cols, bits)
        u_fs = dense[q, msg.indexes]
        projected = np.zeros(config.n)
        projected[msg.indexes] = u_fs
        delta = recover(reply.s, reply.t, r)
        np.testing.assert_array_equal(delta, targets.dot(projected))
        bound = evaluate_filter(delta, u_fs @ u_fs, reply.norm_v2, norm_u2[q], norm_v2)
        float64 = bound >= config.epsilon
        np.testing.assert_array_equal(float64, ~np.isnan(report.cosines[q]))
        for j, b in enumerate(bound):
            assert reaches_exact_bound(
                b, delta[j], u_fs @ u_fs, reply.norm_v2[j], norm_u2[q], norm_v2[j]
            ), (q, j)
        kept += int(float64.sum())
    assert 0 < kept < report.cosines.size

    oracle = oracle_detect(queries, targets, config.epsilon)
    assert missed_and_extra(report.similar, oracle.similar) == ([], [])
    assert oracle.similar.any()
