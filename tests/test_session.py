"""Protocol engine behavior: filtering, sessions, transports, metrics."""

import dataclasses
import logging
import socket
import struct
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from ssdd import masking
from ssdd.corpus import load_cache, save_cache, split_queries
from ssdd.decide import cosines, evaluate_filter, recover
from ssdd.errors import (
    DimensionError,
    FrameError,
    ProtocolError,
    RangeError,
    SessionError,
)
from ssdd.masking import SharedRandomMatrix, mask
from ssdd.oracle import oracle_detect
from ssdd.protocol.messages import (
    MAX_FRAME_SIZE,
    MSG_HELLO,
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
from ssdd.protocol import session as session_module
from ssdd.protocol.session import (
    PROTOCOL_VERSION,
    AliceSession,
    BobResponder,
    DetectionReport,
    SessionConfig,
    SessionMetrics,
    _secret_mask,
    run_local_detection,
)
from ssdd.protocol import transport as transport_module
from ssdd.protocol.transport import (
    TcpServer,
    TcpTransport,
    connect_tcp,
    make_local_pair,
)
from ssdd.selection import SelectionMethod, select_hf, select_rp, top_f, zscore
from ssdd.vectors import PackedDocs, project

from conftest import (
    build_document_vector,
    frame_of,
    missed_and_extra,
    pack,
    random_document,
    random_unit_dense,
    respond,
    synth_corpus,
)


def config_for(method, n=500, f=50, epsilon=0.8):
    return SessionConfig(
        n=n,
        epsilon=epsilon,
        method=method,
        f=f if method.uses_filter else 0,
        seed=11,
    )


class TestSessionConfig:
    def test_valid_round_trip_through_hello(self):
        """Hello carries every field but the tolerance and the mask seed,
        which the responder's copy leaves None; the querying side needs the
        tolerance."""
        config = dataclasses.replace(config_for(SelectionMethod.GF), mask_seed=99)
        bob_side = SessionConfig.from_hello(config.hello())
        assert bob_side == dataclasses.replace(config, epsilon=None, mask_seed=None)
        assert len(dataclasses.fields(SessionConfig)) == 6
        with pytest.raises(RangeError, match="tolerance"):
            AliceSession(bob_side, pack([], config.n), transport=None)

    def test_rejects_bad_parameters(self):
        with pytest.raises(RangeError):
            SessionConfig(n=0, epsilon=0.8)
        with pytest.raises(RangeError):
            SessionConfig(n=4, epsilon=1.2)
        with pytest.raises(RangeError):
            SessionConfig(n=4, epsilon=0.8, method=SelectionMethod.RP, f=0)
        with pytest.raises(RangeError):
            SessionConfig(n=4, epsilon=0.8, method=SelectionMethod.RP, f=5)
        with pytest.raises(RangeError):
            SessionConfig(n=4, epsilon=0.8, seed=-1)
        with pytest.raises(RangeError):
            SessionConfig(n=4, epsilon=0.8, seed=2**64)
        with pytest.raises(RangeError, match="mask seed"):
            SessionConfig(n=4, epsilon=0.8, mask_seed=-1)
        hello = SessionConfig(n=4, epsilon=0.8).hello()
        assert hello.version == PROTOCOL_VERSION == 9
        for version in (1, 2, 3, 4, 5, 6, 7, 8, 10):
            with pytest.raises(ProtocolError, match="version"):
                SessionConfig.from_hello(dataclasses.replace(hello, version=version))
        assert SessionConfig.from_hello(hello) == SessionConfig(n=4, epsilon=None)

    def test_base_needs_no_budget(self):
        config = SessionConfig(n=4, epsilon=0.5)
        assert config.f == 0

    @pytest.mark.parametrize("method", list(SelectionMethod), ids=lambda m: m.name)
    def test_rejects_a_budget_the_wire_cannot_carry(self, method):
        """f lies in [0, n] under every method ([1, n] when it filters), so a
        Hello always encodes; BASE used to take f=-1 and fail in encoding."""
        for f in (-1, 5, 99):
            with pytest.raises(RangeError, match=f"f={f}"):
                SessionConfig(n=4, epsilon=0.5, method=method, f=f)
        for f in range(1, 5):
            config = SessionConfig(n=4, epsilon=0.5, method=method, f=f)
            hello = decode_message(frame_of(config.hello()))
            assert SessionConfig.from_hello(hello) == dataclasses.replace(config, epsilon=None)

    def test_from_hello_rejects_a_budget_outside_n(self):
        hello = SessionConfig(n=4, epsilon=0.5).hello()
        for f in (5, 99):
            with pytest.raises(ProtocolError, match=f"f={f}"):
                SessionConfig.from_hello(dataclasses.replace(hello, f=f))
        responder = BobResponder(pack([build_document_vector({0: 1}, 4)], 4), dims=4)
        with pytest.raises(ProtocolError, match="f=5"):
            responder.handle(dataclasses.replace(hello, f=5))
        assert responder.config is None

    def test_any_64_bit_seed_is_valid(self):
        """The derived keys wrap mod 2**64: seed 2**64 - 1 keys A_fs with 0
        and the RP set with 1."""
        config = SessionConfig(
            n=40, epsilon=0.5, method=SelectionMethod.RP, f=8, seed=2**64 - 1
        )
        assert SessionConfig.from_hello(config.hello()).seed == 2**64 - 1
        assert session_module._subseed(config, 1) == 0
        assert session_module._subseed(config, 2) == 1
        docs = pack([build_document_vector({i: 2, i + 1: 1}, 40) for i in range(6)], 40)
        report = run_local_detection(docs, config, docs)
        oracle = oracle_detect(docs, docs, 0.5)
        assert missed_and_extra(report.similar, oracle.similar) == ([], [])

    def test_from_hello_rejects_unknown_method(self):
        hello = config_for(SelectionMethod.RP).hello()
        bad = type(hello)(**{**hello.__dict__, "method": 9})
        with pytest.raises(ProtocolError):
            SessionConfig.from_hello(bad)

    def test_version_1_hello_is_refused(self):
        """A version-1 peer expects every t with every reply; the responder
        refuses it at the handshake."""
        hello = dataclasses.replace(config_for(SelectionMethod.BASE).hello(), version=1)
        with pytest.raises(ProtocolError, match="version"):
            SessionConfig.from_hello(hello)
        responder = BobResponder(pack([build_document_vector({0: 1}, 500)], 500), dims=500)
        with pytest.raises(ProtocolError, match="version"):
            responder.handle(hello)
        assert responder.config is None

    def test_version_2_hello_is_refused(self):
        """A version-2 peer leaves the RP and GF index sets off its filter
        queries; the responder refuses it at the handshake."""
        hello = dataclasses.replace(config_for(SelectionMethod.RP).hello(), version=2)
        responder = BobResponder(pack([build_document_vector({0: 1}, 500)], 500), dims=500)
        with pytest.raises(ProtocolError, match="version"):
            responder.handle(hello)
        assert responder.config is None

    def test_version_3_hello_is_refused(self):
        """A version-3 peer masks with a different A, so its products would
        not recover.  Its Hello, with the tolerance and three seeds, does not
        decode; announced in the current layout it is refused at the
        handshake."""
        body = struct.pack("<HIIBdQQQ", 3, 500, 50, int(SelectionMethod.RP), 0.8, 11, 12, 13)
        v3 = struct.pack("<IB", 1 + len(body), MSG_HELLO) + body
        with pytest.raises(FrameError):
            decode_message(v3)
        hello = dataclasses.replace(config_for(SelectionMethod.RP).hello(), version=3)
        responder = BobResponder(pack([build_document_vector({0: 1}, 500)], 500), dims=500)
        with pytest.raises(ProtocolError, match="version"):
            responder.handle(hello)
        assert responder.config is None

    def test_version_4_hello_is_refused(self):
        """A version-4 peer lays each reply's entries side by side.  Its
        replies have the sizes of today's and would decode to the wrong
        values, so the responder refuses it at the handshake."""
        hello = dataclasses.replace(config_for(SelectionMethod.HF).hello(), version=4)
        responder = BobResponder(pack([build_document_vector({0: 1}, 500)], 500), dims=500)
        with pytest.raises(ProtocolError, match="version"):
            responder.handle(hello)
        assert responder.config is None

    def test_version_5_hello_is_refused(self):
        """A version-5 peer sends its document counts after the handshake
        and expects the responder's in return.  Its Hello, 8 bytes longer
        (three seeds), does not decode; announced in the current layout it
        is refused at the handshake."""
        body = struct.pack("<HIIBQQ", 5, 500, 50, int(SelectionMethod.GF), 11, 12)
        v5 = struct.pack("<IB", 1 + len(body), MSG_HELLO) + body
        with pytest.raises(FrameError):
            decode_message(v5)
        hello = dataclasses.replace(config_for(SelectionMethod.GF).hello(), version=5)
        responder = BobResponder(pack([build_document_vector({0: 1}, 500)], 500), dims=500)
        with pytest.raises(ProtocolError, match="version"):
            responder.handle(hello)
        assert responder.config is None

    def test_version_6_hello_is_refused(self):
        """A version-6 peer's Hello has today's layout, but it derives a
        different A from the seed (one Philox bit per entry), so neither
        side could recover the other's products: the responder refuses it
        at the handshake."""
        hello = dataclasses.replace(config_for(SelectionMethod.HF).hello(), version=6)
        assert decode_message(frame_of(hello)) == hello
        responder = BobResponder(pack([build_document_vector({0: 1}, 500)], 500), dims=500)
        with pytest.raises(ProtocolError, match="version"):
            responder.handle(hello)
        assert responder.config is None

    def test_version_8_hello_is_refused(self):
        """A version-8 peer sends unit vectors and float masks, and takes
        float32 filter pieces: its Hello has today's layout, and the
        responder refuses it by its version at the handshake."""
        hello = dataclasses.replace(config_for(SelectionMethod.HF).hello(), version=8)
        assert decode_message(frame_of(hello)) == hello
        responder = BobResponder(pack([build_document_vector({0: 1}, 500)], 500), dims=500)
        with pytest.raises(ProtocolError, match="unsupported protocol version 8"):
            responder.handle(hello)
        assert responder.config is None

    def test_from_hello_rejects_bad_version(self):
        hello = config_for(SelectionMethod.RP).hello()
        bad = type(hello)(**{**hello.__dict__, "version": PROTOCOL_VERSION + 1})
        with pytest.raises(ProtocolError):
            SessionConfig.from_hello(bad)


class TestEvaluateFilter:
    """The bound from the f-dimensional pieces: with unit norms the pieces
    are those of unit vectors, and counts give the bound of their unit
    vectors."""

    def test_reference_values(self):
        # squared distance 1 - 2 * 0.5 + 0.5 = 0.5
        bound = evaluate_filter(0.5, 1.0, 0.5, 1.0, 1.0)
        assert bound == pytest.approx(0.75, abs=1e-12)
        assert not bound >= 0.8
        # u = (2, 1, 2), v = (2, 0, 1) projected onto the first two
        # dimensions: 1 - (5/9 - 2 * 4 / sqrt(45) + 4/5) / 2 = 0.9185...
        bound = evaluate_filter(4, 5, 4, 9, 5)
        assert bound == pytest.approx(1 - (5 / 9 - 8 / 45**0.5 + 4 / 5) / 2, abs=1e-13)
        assert bound >= 6 / 45**0.5  # the cosine

    def test_passing_pair(self):
        bound = evaluate_filter(0.9, 1.0, 0.9, 1.0, 1.0)
        assert bound == pytest.approx(0.95, abs=1e-12)
        assert bound >= 0.8

    def test_boundary_counts_as_pass(self):
        """An exact bound at the tolerance passes: the slack only raises it.
        u = (2, 1), v = (1, 2) on both dimensions: 1 - (1 - 2 * 4/5 + 1) / 2
        = 4/5 exactly, and cos = 4/5."""
        bound = evaluate_filter(4, 5, 5, 5, 5)
        assert bound >= 0.8
        assert bound == pytest.approx(0.8, abs=1e-14)
        assert evaluate_filter(0.5, 1.0, 0.4, 1.0, 1.0) >= 0.8

    def test_negative_distance_clamps_to_perfect_bound(self):
        # squared distance 1 - 2.4 + 1 < 0, clamped to 0
        bound = evaluate_filter(1.2, 1.0, 1.0, 1.0, 1.0)
        assert bound == 1.0
        assert bound >= 0.5
        # an identical pair's distance is 0, or within the slack of it
        assert evaluate_filter(25, 25, 25, 50, 50) == 1.0

    def test_empty_documents_read_as_norm_one(self):
        """An empty document has pieces and norm 0, and its norm is read as
        1: the bound is 1 - (the other's projected share) / 2, finite, and
        1 when both are empty.  The full round decides such a pair."""
        assert evaluate_filter(0, 0, 0, 0, 0) == 1.0
        assert evaluate_filter(0, 0, 0, 0, 7) == 1.0
        assert evaluate_filter(0, 3, 0, 3, 0) == pytest.approx(0.5, abs=1e-14)
        assert evaluate_filter(0, 3, 0, 3, 0) >= 0.5

    def test_bound_dominates_true_cosine(self):
        """The projected bound never sits below the full cosine of two count
        vectors, whatever index set is chosen, by more than the cosine's own
        rounding."""
        rng = np.random.default_rng(7)
        n = 40
        for _ in range(300):
            u = rng.integers(0, 8, n) * (rng.random(n) < 0.5)
            v = rng.integers(0, 8, n) * (rng.random(n) < 0.5)
            f = int(rng.integers(1, n + 1))
            idx = np.sort(rng.choice(n, f, replace=False))
            u_fs, v_fs = u[idx], v[idx]
            bound = evaluate_filter(
                u_fs @ v_fs, u_fs @ u_fs, v_fs @ v_fs, u @ u, v @ v
            )
            cosine = (u @ v) / np.sqrt(max(float(u @ u) * float(v @ v), 1.0))
            assert bound >= cosine - 2.0**-50

    def test_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(8)
        norm_v2 = rng.integers(1, 1000, 300).astype(np.float64)
        proj_v2 = np.floor(norm_v2 * rng.random(300))
        delta = rng.integers(-50, 400, 300).astype(np.float64)
        delta[:10] = 2000.0  # negative distances, clamped
        norm_u2, proj_u2, epsilon = 900.0, 500.0, 0.6
        bound = evaluate_filter(delta, proj_u2, proj_v2, norm_u2, norm_v2)
        passed = bound >= epsilon
        assert passed.shape == (300,)
        assert passed.any() and not passed.all()
        assert (bound[:10] == 1.0).all()
        for i in range(300):
            one = evaluate_filter(float(delta[i]), proj_u2, proj_v2[i], norm_u2, norm_v2[i])
            assert bound[i] == one
            assert passed[i] == (one >= epsilon)


class TestSessionMetrics:
    def test_filter_ratio(self):
        assert SessionMetrics().filter_ratio == 0.0
        assert SessionMetrics(pairs_total=100, pairs_filtered=30).filter_ratio == 0.3


def decide_pair(u, v, config):
    """The one decision of a single-query, single-target local session."""
    report = run_local_detection(pack([u], config.n), config, pack([v], config.n))
    assert not report.aborted and len(report.decisions) == 1
    return report.decisions[0]


def pair_with_explicit_indexes(u, v, indexes, config):
    """Alice's two rounds for one pair, sending ``indexes`` with the filter
    query whatever the method, answered by ``BobResponder.handle``.

    Returns whether the filter bound reaches the tolerance, and the
    recovered full-width cosine.
    """
    responder = BobResponder(pack([v], config.n), dims=config.n)
    ack = responder.handle(config.hello())
    indexes = np.asarray(indexes, dtype=np.int64)
    rng = np.random.default_rng(7)
    fs_matrix = SharedRandomMatrix(config.seed + 1, config.f)
    u_fs = u.dense()[0][indexes]
    norm_u2, (norm_v2,) = u.squared_norms[0], ack.norm2
    r = rng.integers(-(2**17), 2**17, fs_matrix.cols, endpoint=True).astype(np.float64)
    reply = responder.handle(
        FilterQuery(query_id=0, indexes=indexes, z=u_fs + fs_matrix.matvec(r))
    )
    delta_fs = recover(reply.s, reply.t, r)
    bound = evaluate_filter(delta_fs, u_fs @ u_fs, reply.norm_v2, norm_u2, norm_v2)
    matrix = SharedRandomMatrix(config.seed, config.n)
    r = rng.integers(-(2**17), 2**17, matrix.cols, endpoint=True).astype(np.float64)
    z = mask(u, matrix, r[:, None])[:, 0]
    reply = responder.handle(FullQuery(query_id=0, survivor_ids=np.array([0]), z=z))
    delta = recover(reply.s, reply.t, r)[0]
    assert delta == u.dot(v.dense())[0, 0]  # exact
    return bool(bound[0] >= config.epsilon), float(cosines(delta, norm_u2, norm_v2))


class TestBasePair:
    def test_identical_documents_are_similar(self):
        doc = build_document_vector({0: 2, 3: 1}, 6)
        decision = decide_pair(doc, doc, SessionConfig(n=6, epsilon=0.8))
        assert decision.similar
        assert not decision.filtered
        assert decision.cosine == 1.0

    def test_orthogonal_documents_are_not(self):
        u = build_document_vector({0: 1}, 4)
        v = build_document_vector({1: 1}, 4)
        decision = decide_pair(u, v, SessionConfig(n=4, epsilon=0.8))
        assert not decision.similar
        assert decision.cosine == 0.0

    def test_empty_query_scores_zero(self):
        u = build_document_vector({}, 4)
        v = build_document_vector({1: 1}, 4)
        decision = decide_pair(u, v, SessionConfig(n=4, epsilon=0.0))
        assert not decision.similar
        assert decision.cosine == 0.0

    def test_empty_target_scores_zero(self):
        u = build_document_vector({0: 1}, 4)
        v = build_document_vector({}, 4)
        decision = decide_pair(u, v, SessionConfig(n=4, epsilon=0.8))
        assert not decision.similar
        assert decision.cosine == 0.0

    def test_filter_method_is_forced_down(self):
        """An identical pair survives the RP filter and decides as under BASE."""
        doc = build_document_vector({0: 1, 1: 1}, 6)
        config = SessionConfig(n=6, epsilon=0.8, method=SelectionMethod.RP, f=2)
        filtered = decide_pair(doc, doc, config)
        base = decide_pair(doc, doc, SessionConfig(n=6, epsilon=0.8))
        assert filtered.similar and not filtered.filtered
        assert base.similar and not base.filtered
        assert filtered.cosine == base.cosine == 1.0


class TestFsPair:
    def test_dissimilar_pair_is_filtered(self):
        u = build_document_vector({0: 1}, 6)
        v = build_document_vector({5: 1}, 6)
        config = SessionConfig(n=6, epsilon=0.6, method=SelectionMethod.RP, f=2)
        passed, cosine = pair_with_explicit_indexes(u, v, [0, 1], config)
        assert not passed
        assert cosine == 0.0

    def test_similar_pair_survives_and_scores(self):
        doc = build_document_vector({0: 1, 1: 1}, 6)
        config = SessionConfig(n=6, epsilon=0.8, method=SelectionMethod.RP, f=2)
        passed, cosine = pair_with_explicit_indexes(doc, doc, [0, 1], config)
        assert passed
        assert cosine == 1.0

    def test_index_set_defaults_to_the_method(self):
        u = build_document_vector({0: 3, 1: 1, 2: 2}, 4)
        config = SessionConfig(n=4, epsilon=0.5, method=SelectionMethod.LF, f=2)
        decision = decide_pair(u, u, config)
        assert decision.similar
        assert decision.cosine == 1.0

    def test_rejects_base(self):
        """Under BASE a filter query is out of turn, refused from its tag."""
        responder = BobResponder(pack([build_document_vector({0: 1}, 4)], 4), dims=4)
        responder.answer(frame_of(SessionConfig(n=4, epsilon=0.5).hello()))
        query = FilterQuery(query_id=0, indexes=np.array([0, 1]), z=np.zeros(1))
        with pytest.raises(ProtocolError, match="unexpected FilterQuery, expected FullQuery or Bye$"):
            responder.answer(frame_of(query))


class TestDetectionAgainstOracle:
    @pytest.mark.parametrize("method", list(SelectionMethod), ids=lambda m: m.name)
    def test_matches_plaintext_oracle(self, small_corpus, method):
        query_ids, target_ids = split_queries(small_corpus, k=10, seed=5)
        queries = small_corpus.vectors.take(query_ids)
        targets = small_corpus.vectors.take(target_ids)
        config = config_for(method)
        oracle = oracle_detect(queries, targets, config.epsilon)
        report = run_detection_locally(queries, config, targets)
        assert missed_and_extra(report.similar, oracle.similar) == ([], [])
        for d in report.decisions:
            if not d.filtered:
                assert d.cosine == oracle.cosines[(d.query_id, d.target_id)]

    @pytest.mark.parametrize("method", list(SelectionMethod), ids=lambda m: m.name)
    def test_metrics_invariants(self, small_corpus, method):
        query_ids, target_ids = split_queries(small_corpus, k=10, seed=5)
        queries = small_corpus.vectors.take(query_ids)
        targets = small_corpus.vectors.take(target_ids)
        report = run_detection_locally(queries, config_for(method), targets)
        m = report.metrics
        assert m.pairs_total == len(queries) * len(targets)
        assert m.pairs_filtered + m.full_products == m.pairs_total
        # plain ints, which json and csv write as numbers
        assert {type(m.pairs_total), type(m.pairs_filtered), type(m.full_products)} == {int}
        if method is SelectionMethod.BASE:
            assert m.pairs_filtered == 0
        assert m.bytes_sent_alice > 0 and m.bytes_sent_bob > 0
        assert m.scalar_mult_count > 0
        assert m.wall_time > 0.0
        assert not report.aborted

    def test_decisions_come_in_pair_order(self, small_corpus):
        query_ids, target_ids = split_queries(small_corpus, k=4, seed=5)
        queries = small_corpus.vectors.take(query_ids)
        targets = small_corpus.vectors.take(target_ids)
        report = run_detection_locally(queries, config_for(SelectionMethod.HF), targets)
        expected = [
            (q, t) for q in range(len(queries)) for t in range(len(targets))
        ]
        assert [(d.query_id, d.target_id) for d in report.decisions] == expected

    def test_repeat_runs_are_identical(self, small_corpus):
        query_ids, target_ids = split_queries(small_corpus, k=6, seed=5)
        queries = small_corpus.vectors.take(query_ids)
        targets = small_corpus.vectors.take(target_ids)
        config = config_for(SelectionMethod.HF, f=40)
        first = run_detection_locally(queries, config, targets)
        second = run_detection_locally(queries, config, targets)
        assert first.decisions == second.decisions
        for name in (
            "pairs_total",
            "pairs_filtered",
            "full_products",
            "bytes_sent_alice",
            "bytes_sent_bob",
            "scalar_mult_count",
        ):
            assert getattr(first.metrics, name) == getattr(second.metrics, name)


    def test_cosines_do_not_depend_on_the_other_survivors(self):
        """A pair's recovered cosine has the same bits whether its target is
        served alone, with a few others or with all of them: each new t_j R
        is a product of its own, on a KOS-shaped corpus (n = 6906, 10
        queries x 190 targets) where a GEMM's rows would differ by ~1e-13."""
        corpus = synth_corpus(n_docs=200, dims=6906, seed=101, mean_terms=90)
        query_ids, target_ids = split_queries(corpus, k=10, seed=5)
        queries = corpus.vectors.take(query_ids)
        targets = corpus.vectors.take(target_ids)
        config = SessionConfig(
            n=6906, epsilon=0.8, method=SelectionMethod.BASE, seed=3
        )
        full = run_detection_locally(queries, config, targets).cosines
        for subset in ([5], [5, 17, 33], np.arange(0, len(targets), 7)):
            part = run_detection_locally(queries, config, targets.take(subset))
            np.testing.assert_array_equal(part.cosines, full[:, subset])

def run_detection_locally(queries, config, targets):
    report = run_local_detection(queries, config, targets)
    assert not report.aborted
    return report


class TestTraffic:
    def setup_method(self):
        u = build_document_vector({i: 2 for i in range(20)}, 400)
        far = build_document_vector({i: 2 for i in range(200, 220)}, 400)
        self.u, self.far, self.both = pack([u], 400), pack([far], 400), pack([u, far], 400)

    def test_filtered_pair_costs_less_than_base(self):
        base = run_local_detection(self.u, config_for(SelectionMethod.BASE, n=400), self.far)
        lf = run_local_detection(
            self.u, config_for(SelectionMethod.LF, n=400, f=20), self.far
        )
        assert lf.metrics.pairs_filtered == 1
        assert lf.metrics.full_products == 0
        assert lf.metrics.bytes_sent_alice < base.metrics.bytes_sent_alice
        assert lf.metrics.bytes_sent_bob < base.metrics.bytes_sent_bob

    def test_surviving_pair_costs_more_than_base(self):
        base = run_local_detection(self.u, config_for(SelectionMethod.BASE, n=400), self.u)
        lf = run_local_detection(
            self.u, config_for(SelectionMethod.LF, n=400, f=20), self.u
        )
        assert lf.metrics.pairs_filtered == 0
        assert lf.metrics.bytes_sent_alice > base.metrics.bytes_sent_alice
        assert lf.metrics.bytes_sent_bob > base.metrics.bytes_sent_bob


    @pytest.mark.parametrize(
        "method", [SelectionMethod.GF, SelectionMethod.HF], ids=lambda m: m.name
    )
    def test_every_frame_counts_in_the_byte_totals(self, method):
        """Every frame counts, HelloAck's document counts included: totals
        equal the bytes moved."""
        alice_end, bob_end = make_local_pair(timeout=5.0)
        moved = {"sent": 0, "received": 0}
        send, recv = alice_end.send_frame, alice_end.recv_frame

        def counted_send(parts):
            moved["sent"] += sum(map(len, parts))
            send(parts)

        def counted_recv():
            frame = recv()
            moved["received"] += len(frame)
            return frame

        alice_end.send_frame, alice_end.recv_frame = counted_send, counted_recv
        responder = BobResponder(self.both, dims=400)
        worker = threading.Thread(target=responder.serve, args=(bob_end,))
        worker.start()
        config = config_for(method, n=400, f=20)
        report = AliceSession(config, self.u, alice_end).run()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert not report.aborted
        df_frame = 4 + 1 + 8 + 4 * 400 + 8 * 2
        assert report.metrics.bytes_sent_alice == moved["sent"] > df_frame
        assert report.metrics.bytes_sent_bob == moved["received"] > df_frame

    def test_gf_alice_sends_hello_queries_and_bye(self):
        """Under GF Alice's bytes are her Hello, one filter and one full query
        and Bye: her document counts stay with her."""
        n, f = 400, 20
        bob = RecordingBob(self.both, n)
        report = run_against(bob, self.u, config_for(SelectionMethod.GF, n=n, f=f))
        assert not report.aborted
        assert [type(m) for m in bob.received] == [Hello, FilterQuery, FullQuery]
        k = report.metrics.full_products
        hello, bye = 4 + 1 + 19, 4 + 1
        filter_query = 4 + 1 + 8 + 4 * f + 4 * f
        full_query = 4 + 1 + 8 + 4 * k + 4 * n
        assert report.metrics.bytes_sent_alice == hello + filter_query + full_query + bye

    @pytest.mark.parametrize("method", list(SelectionMethod), ids=lambda m: m.name)
    def test_both_parties_encode_through_the_session_module(
        self, small_corpus, method, monkeypatch
    ):
        """Alice's frames and Bob's replies are all encoded by the name
        that session.py calls, which a tracer wraps to time every encode:
        Hello, each query message and Bye, and HelloAck and one reply per
        query message."""
        encoded = []

        def counting_encode(msg):
            encoded.append(type(msg))
            return encode_message(msg)

        monkeypatch.setattr(session_module, "encode_message", counting_encode)
        query_ids, target_ids = split_queries(small_corpus, k=4, seed=5)
        run_detection_locally(
            small_corpus.vectors.take(query_ids),
            config_for(method, f=40),
            small_corpus.vectors.take(target_ids),
        )
        query_messages = encoded.count(FilterQuery) + encoded.count(FullQuery)
        assert query_messages > 0
        assert encoded.count(FilterReply) == encoded.count(FilterQuery)
        assert encoded.count(FullReply) == encoded.count(FullQuery)
        assert len(encoded) == (2 + query_messages) + (1 + query_messages)
        assert encoded.count(HelloAck) == encoded.count(Hello) == encoded.count(Bye) == 1


class TestTcpAgreement:
    def test_tcp_and_local_runs_agree(self, small_corpus):
        query_ids, target_ids = split_queries(small_corpus, k=5, seed=9)
        queries = small_corpus.vectors.take(query_ids)
        targets = small_corpus.vectors.take(target_ids)
        config = config_for(SelectionMethod.HF, f=40)
        local = run_detection_locally(queries, config, targets)
        server = TcpServer(lambda: BobResponder(targets, dims=config.n))
        with server:
            transport = connect_tcp(server.host, server.port)
            try:
                over_tcp = AliceSession(config, queries, transport).run()
            finally:
                transport.close()
        assert not over_tcp.aborted
        assert over_tcp.decisions == local.decisions
        assert over_tcp.metrics.bytes_sent_alice == local.metrics.bytes_sent_alice
        assert over_tcp.metrics.bytes_sent_bob == local.metrics.bytes_sent_bob
        assert len(server.responders) == 1
        assert server.responders[0].scalar_mult_count == local.metrics.scalar_mult_count

    def test_base_session_over_tcp_sends_the_local_frames(self, small_corpus):
        """BASE's first FullReply carries every target's t, which Bob sends
        from the array itself: Alice receives the frames of a local run."""
        query_ids, target_ids = split_queries(small_corpus, k=4, seed=5)
        queries = small_corpus.vectors.take(query_ids)
        targets = small_corpus.vectors.take(target_ids)
        # a fixed mask seed, so that both runs send the same masked vectors
        config = dataclasses.replace(config_for(SelectionMethod.BASE, f=0), mask_seed=4)
        runs = []
        for over_tcp in (False, True):
            sent_parts = []

            class PartsBob(BobResponder):
                def handle(self, msg):
                    reply = super().handle(msg)
                    if reply is not None:
                        sent_parts.append(len(encode_message(reply)))
                    return reply

            if over_tcp:
                server = TcpServer(lambda: PartsBob(targets, dims=config.n)).start()
                alice_end = connect_tcp(server.host, server.port, timeout=5.0)
            else:
                alice_end, bob_end = make_local_pair(timeout=5.0)
                worker = threading.Thread(
                    target=PartsBob(targets, dims=config.n).serve, args=(bob_end,)
                )
                worker.start()
            recorder = FrameRecorder(alice_end)
            try:
                report = AliceSession(config, queries, recorder).run()
            finally:
                recorder.close()
                if over_tcp:
                    server.stop()
                else:
                    worker.join(timeout=5.0)
            assert not report.aborted
            assert sent_parts[1] == 2  # query 0's reply: a head, then t
            runs.append((report, recorder))
        (local, local_frames), (tcp, tcp_frames) = runs
        assert tcp.decisions == local.decisions
        assert len(tcp_frames.received) == 1 + len(queries)
        assert tcp_frames.sent == local_frames.sent
        assert tcp_frames.received == local_frames.received
        t = decode_message(tcp_frames.received[1]).t
        assert t.shape == (len(targets), (config.n + 1) // 2)


class FrameRecorder:
    """A transport end that keeps, as bytes, every frame it sends and
    receives."""

    def __init__(self, transport):
        self.transport = transport
        self.sent, self.received = [], []

    def send_frame(self, parts) -> None:
        self.sent.append(b"".join(parts))
        self.transport.send_frame(parts)

    def recv_frame(self) -> bytes:
        frame = self.transport.recv_frame()
        self.received.append(bytes(frame))
        return frame

    def close(self) -> None:
        self.transport.close()


class TestSharedCorpus:
    """Sessions over one loaded corpus share its packed arrays and view."""

    @pytest.fixture
    def loaded(self, small_corpus, tmp_path):
        path = tmp_path / "bob.bin"
        save_cache(small_corpus.subset(range(2, 60)), path)
        return load_cache(path)

    def test_sequential_sessions_read_one_view(self, small_corpus, loaded):
        queries = small_corpus.vectors.take(np.arange(5))
        config = config_for(SelectionMethod.HF, f=40, epsilon=0.3)
        seen = []

        class WatchedBob(BobResponder):
            def handle(self, msg):
                reply = super().handle(msg)
                if isinstance(msg, FilterQuery):
                    seen.append((self._docs, vars(self._docs)["_by_term"]))
                return reply

        with TcpServer(lambda: WatchedBob(loaded.vectors, dims=loaded.dims)) as server:
            for _ in range(2):
                transport = connect_tcp(server.host, server.port)
                try:
                    report = AliceSession(config, queries, transport).run()
                finally:
                    transport.close()
                assert not report.aborted
        assert server.sessions == 2 and len(seen) == 10
        assert all(docs is loaded.vectors for docs, _ in seen)
        assert all(view is seen[0][1] for _, view in seen)

    def test_concurrent_sessions_equal_solo_runs(self, small_corpus, loaded):
        """HF and BASE sessions at once over one corpus, its view not yet
        built, each give the bits of a run alone over its own copy."""
        queries = small_corpus.vectors.take(np.arange(5))
        configs = [
            config_for(method, f=40, epsilon=0.3)
            for method in (SelectionMethod.HF, SelectionMethod.BASE) * 2
        ]
        copy = loaded.vectors.take(np.arange(len(loaded)))
        solo = [run_detection_locally(queries, c, copy) for c in configs]
        assert "_by_term" not in vars(loaded.vectors)
        start = threading.Barrier(len(configs))
        reports = [None] * len(configs)

        def session(k):
            start.wait(timeout=10.0)
            transport = connect_tcp(server.host, server.port)
            try:
                reports[k] = AliceSession(configs[k], queries, transport).run()
            finally:
                transport.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with TcpServer(lambda: BobResponder(loaded.vectors, dims=loaded.dims)) as server:
                threads = [threading.Thread(target=session, args=(k,)) for k in range(len(configs))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert server.sessions == len(configs)
        for report, alone in zip(reports, solo, strict=True):
            assert not report.aborted
            assert report.cosines.tobytes() == alone.cosines.tobytes()
            np.testing.assert_array_equal(report.similar, alone.similar)
            assert report.metrics.bytes_sent_alice == alone.metrics.bytes_sent_alice
            assert report.metrics.bytes_sent_bob == alone.metrics.bytes_sent_bob


def holds_array(value) -> bool:
    """Whether ``value`` is, or directly holds, a numpy array; a dataclass
    is searched through all its attributes, cached ones included."""
    if isinstance(value, np.ndarray):
        return True
    if isinstance(value, (tuple, list)):
        return any(holds_array(v) for v in value)
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return any(holds_array(v) for v in vars(value).values())
    return False


class TestFinishedResponders:
    def test_server_keeps_counters_not_arrays(self, small_corpus):
        """A TcpServer keeps each finished responder for its multiplication
        count; the packed corpus and the session's arrays are dropped."""
        queries = small_corpus.vectors.take(np.arange(3))
        targets = small_corpus.vectors.take(np.arange(3, len(small_corpus)))
        config = config_for(SelectionMethod.GF, f=40, epsilon=0.3)
        with TcpServer(lambda: BobResponder(targets, dims=config.n)) as server:
            for _ in range(2):
                transport = connect_tcp(server.host, server.port)
                try:
                    report = AliceSession(config, queries, transport).run()
                finally:
                    transport.close()
                assert not report.aborted
        assert len(server.responders) == 2
        for responder in server.responders:
            assert responder.scalar_mult_count > 0
            assert [k for k, v in vars(responder).items() if holds_array(v)] == []

    def test_server_keeps_only_the_latest_responders(self, small_corpus, monkeypatch):
        queries = small_corpus.vectors.take(np.arange(2))
        targets = small_corpus.vectors.take(np.arange(2, len(small_corpus)))
        config = config_for(SelectionMethod.HF, f=40, epsilon=0.3)
        monkeypatch.setattr(transport_module, "KEPT_RESPONDERS", 2)
        made = []

        def factory():
            made.append(BobResponder(targets, dims=config.n))
            return made[-1]

        with TcpServer(factory) as server:
            for _ in range(3):
                transport = connect_tcp(server.host, server.port)
                try:
                    report = AliceSession(config, queries, transport).run()
                finally:
                    transport.close()
                assert not report.aborted
                assert server.responders[-1] is made[-1]
        assert server.sessions == 3
        assert list(server.responders) == made[1:]
        assert server.responders[0] is made[1]
        for responder in server.responders:
            assert [k for k, v in vars(responder).items() if holds_array(v)] == []

    @pytest.mark.parametrize(
        "method", [SelectionMethod.RP, SelectionMethod.HF], ids=lambda m: m.name
    )
    def test_filter_memo_is_dropped(self, small_corpus, method):
        """Bob keeps the last index set's pieces while the session runs and
        drops them with the corpus when ``serve`` returns."""
        queries = small_corpus.vectors.take(np.arange(3))
        targets = small_corpus.vectors.take(np.arange(3, len(small_corpus)))
        config = config_for(method, f=40, epsilon=0.3)
        memo_held = []

        class WatchedBob(BobResponder):
            def handle(self, msg):
                reply = super().handle(msg)
                if isinstance(msg, FilterQuery):
                    memo_held.append(self._session_filter is not None)
                return reply

        bob = WatchedBob(targets, dims=config.n)
        report = run_against(bob, queries, config)
        assert not report.aborted and report.decided == 3
        assert memo_held == [True, True, True]
        assert bob._session_filter is None
        assert [k for k, v in vars(bob).items() if holds_array(v)] == []


@pytest.fixture
def tcp_pair():
    """A TcpTransport and the raw socket at the other end of its loopback
    connection."""
    with socket.create_server(("127.0.0.1", 0)) as listener:
        near = socket.create_connection(listener.getsockname()[:2], timeout=5.0)
        far, _ = listener.accept()
    far.settimeout(5.0)
    transport = TcpTransport(near)
    try:
        yield transport, far
    finally:
        transport.close()
        far.close()


class TestTcpTransport:
    def test_frame_sent_in_small_pieces_arrives_intact(self, tcp_pair):
        transport, far = tcp_pair
        body = np.random.default_rng(1).bytes(300_000)
        frame = struct.pack("<I", len(body)) + body

        def send_in_pieces():
            for lo in range(0, 8):  # the header a byte at a time
                far.sendall(frame[lo : lo + 1])
                time.sleep(0.002)
            for lo in range(8, len(frame), 997):
                far.sendall(frame[lo : lo + 997])

        sender = threading.Thread(target=send_in_pieces)
        sender.start()
        try:
            assert transport.recv_frame() == frame
        finally:
            sender.join()

    def test_parts_arrive_as_one_frame(self, tcp_pair):
        transport, far = tcp_pair
        t = np.random.default_rng(2).integers(-(2**15), 2**15, (40, 3000)).astype(np.int16)
        reply = FullReply(query_id=1, doc_ids=np.arange(40), s=np.ones(40), t=t)
        parts = encode_message(reply)
        assert len(parts) == 2
        receiver = TcpTransport(far)
        sender = threading.Thread(target=transport.send_frame, args=(parts,))
        sender.start()
        try:
            assert receiver.recv_frame() == parts[0] + t.tobytes()
        finally:
            sender.join()

    def test_over_limit_reply_sends_no_byte(self, tcp_pair):
        transport, far = tcp_pair
        k, cols = 1 << 10, 1 << 19  # k * cols * 2 bytes = 1 GiB of t alone
        reply = FullReply(
            query_id=0,
            doc_ids=np.broadcast_to(np.int64(0), (k,)),
            s=np.broadcast_to(0.0, (k,)),
            t=np.broadcast_to(0.0, (k, cols)),
        )
        with pytest.raises(FrameError, match="exceeds the limit"):
            transport.send_frame(encode_message(reply))
        transport.close()
        assert far.recv(1) == b""

    def test_oversized_declared_length_rejected_before_allocating(self, tcp_pair):
        transport, far = tcp_pair
        far.sendall(struct.pack("<I", MAX_FRAME_SIZE + 1))
        tracemalloc.start()
        try:
            with pytest.raises(FrameError, match="exceeds the limit"):
                transport.recv_frame()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_declared_length_commits_no_memory_before_the_body(self, tcp_pair):
        transport, far = tcp_pair
        far.sendall(struct.pack("<I", MAX_FRAME_SIZE) + b"x" * 100_000)
        far.close()
        tracemalloc.start()
        try:
            with pytest.raises(SessionError, match="mid-frame"):
                transport.recv_frame()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_peer_closing_mid_frame_aborts(self, tcp_pair):
        transport, far = tcp_pair
        far.sendall(struct.pack("<I", 100) + b"x" * 40)
        far.close()
        with pytest.raises(SessionError, match="mid-frame"):
            transport.recv_frame()

    def test_silent_peer_times_out(self):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            transport = connect_tcp(*listener.getsockname()[:2], timeout=0.05)
            far, _ = listener.accept()
        try:
            with pytest.raises(SessionError, match="socket error: timed out"):
                transport.recv_frame()
        finally:
            transport.close()
            far.close()

    def test_sending_to_a_closed_peer_aborts(self, tcp_pair):
        # the first frames can still fill the socket buffer; a later one
        # meets the peer's reset
        transport, far = tcp_pair
        far.close()
        with pytest.raises(SessionError, match="socket error: "):
            for _ in range(100):
                transport.send_frame([b"x" * 65536])
                time.sleep(0.01)


class TestLocalTransport:
    def test_a_one_part_frame_is_enqueued_as_itself(self):
        alice_end, bob_end = make_local_pair(timeout=1.0)
        (frame,) = encode_message(Bye())
        alice_end.send_frame([frame])
        assert bob_end.recv_frame() is frame

    def test_parts_arrive_as_one_frame(self):
        alice_end, bob_end = make_local_pair(timeout=1.0)
        t = np.arange(12, dtype=np.int16).reshape(3, 4)
        reply = FullReply(query_id=2, doc_ids=np.arange(3), s=np.ones(3), t=t)
        parts = encode_message(reply)
        assert len(parts) == 2
        alice_end.send_frame(parts)
        frame = bob_end.recv_frame()
        assert frame == parts[0] + t.tobytes()
        assert not np.shares_memory(np.frombuffer(frame, np.uint8), t)

    def test_send_after_close_is_refused(self):
        alice_end, _ = make_local_pair()
        alice_end.close()
        with pytest.raises(SessionError, match="transport is closed"):
            alice_end.send_frame([b"frame"])

    def test_silent_peer_times_out(self):
        alice_end, _ = make_local_pair(timeout=0.05)
        with pytest.raises(SessionError, match="timed out waiting for the peer"):
            alice_end.recv_frame()


class TestTcpServer:
    def test_failed_session_is_logged_and_the_next_is_served(self, caplog):
        doc = pack([build_document_vector({0: 1, 1: 1}, 6)], 6)
        config = SessionConfig(n=6, epsilon=0.8)

        class Exploding:
            def serve(self, transport):
                raise RuntimeError("responder exploded")

        made = []

        def factory():
            made.append(Exploding() if not made else BobResponder(doc, dims=6))
            return made[-1]

        with caplog.at_level(logging.ERROR, logger="ssdd.protocol.transport"):
            with TcpServer(factory) as server:
                first = connect_tcp(server.host, server.port, timeout=5.0)
                try:
                    assert AliceSession(config, doc, first).run().aborted
                finally:
                    first.close()
                second = connect_tcp(server.host, server.port, timeout=5.0)
                try:
                    report = AliceSession(config, doc, second).run()
                finally:
                    second.close()
        assert "responder exploded" in caplog.text
        assert "Traceback" in caplog.text
        assert not report.aborted
        assert report.decisions[0].similar
        assert len(made) == 2

    def test_leaving_with_waits_for_a_running_session(self):
        started, finished = threading.Event(), threading.Event()

        class Slow:
            def serve(self, transport):
                started.set()
                time.sleep(0.5)  # longer than the server's 0.2 s poll
                finished.set()

        with TcpServer(Slow) as server:
            client = connect_tcp(server.host, server.port, timeout=5.0)
            try:
                assert started.wait(timeout=5.0)
            finally:
                client.close()
        assert finished.is_set()

    def test_stop_without_start_returns(self):
        server = TcpServer(lambda: None)
        stopper = threading.Thread(target=server.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive(), "stop() on a server never started hung"


class TestAbort:
    def test_peer_gone_before_handshake(self):
        a_end, b_end = make_local_pair(timeout=1.0)
        b_end.close()
        doc = pack([build_document_vector({0: 1}, 4)], 4)
        report = AliceSession(SessionConfig(n=4, epsilon=0.5), doc, a_end).run()
        assert report.aborted
        assert report.decisions == []
        assert report.target_count == 0

    def test_responder_rejecting_handshake_aborts_the_run(self):
        a_end, b_end = make_local_pair(timeout=2.0)
        responder = BobResponder(pack([build_document_vector({0: 1}, 300)], 300), dims=300)

        def serve_quietly():
            try:
                responder.serve(b_end)
            except ProtocolError:
                pass

        worker = threading.Thread(target=serve_quietly, daemon=True)
        worker.start()
        doc = pack([build_document_vector({0: 1}, 500)], 500)
        report = AliceSession(SessionConfig(n=500, epsilon=0.5), doc, a_end).run()
        worker.join(timeout=5.0)
        assert report.aborted
        assert report.target_count == 0


class TestResponderValidation:
    def make(self, method=SelectionMethod.RP, n=6, f=2, docs=2):
        vectors = pack([build_document_vector({i: 1, i + 1: 2}, n) for i in range(docs)], n)
        responder = BobResponder(vectors, dims=n)
        config = SessionConfig(
            n=n, epsilon=0.8, method=method, f=f if method.uses_filter else 0
        )
        return responder, config

    def test_query_before_handshake(self):
        responder, _ = self.make()
        query = FilterQuery(query_id=0, indexes=np.empty(0, np.int64), z=np.zeros(2))
        with pytest.raises(ProtocolError, match="unexpected FilterQuery, expected Hello or Bye$"):
            responder.answer(frame_of(query))

    def test_dims_mismatch(self):
        responder, _ = self.make(n=6)
        other = SessionConfig(n=7, epsilon=0.8)
        with pytest.raises(ProtocolError, match="dims"):
            responder.handle(other.hello())

    def test_duplicate_handshake(self):
        responder, config = self.make()
        responder.answer(frame_of(config.hello()))
        with pytest.raises(ProtocolError, match="unexpected Hello, expected FullQuery or Bye or FilterQuery$"):
            responder.answer(frame_of(config.hello()))

    @pytest.mark.parametrize(
        "method",
        [SelectionMethod.RP, SelectionMethod.LF, SelectionMethod.GF, SelectionMethod.HF],
        ids=lambda m: m.name,
    )
    def test_lf_without_indexes(self, method):
        """Every filter query names its f indexes, whatever the method;
        the responder derives no set of its own."""
        responder, config = self.make(method=method)
        responder.answer(frame_of(config.hello()))
        query = FilterQuery(query_id=0, indexes=np.empty(0, np.int64), z=np.zeros(2))
        with pytest.raises(ProtocolError, match="FilterQuery: c is 0, expected 2"):
            responder.answer(frame_of(query))

    def test_wrong_index_count(self):
        responder, config = self.make(method=SelectionMethod.LF)
        responder.answer(frame_of(config.hello()))
        query = FilterQuery(
            query_id=0, indexes=np.array([1], dtype=np.int64), z=np.zeros(2)
        )
        with pytest.raises(ProtocolError, match="FilterQuery: c is 1, expected 2"):
            responder.answer(frame_of(query))

    def test_duplicate_indexes(self):
        """Bob's one check of a set off the wire refuses a repeated index,
        a decreasing set and an index outside [0, n) (n = 6), whether or not
        he answered another set before."""
        responder, config = self.make(method=SelectionMethod.LF)
        responder.handle(config.hello())
        good = FilterQuery(query_id=0, indexes=np.array([0, 5], dtype=np.int64), z=np.zeros(2))
        for indexes in ([3, 3], [4, 2], [-1, 2], [2, 6]):
            query = FilterQuery(
                query_id=1, indexes=np.array(indexes, dtype=np.int64), z=np.zeros(2)
            )
            with pytest.raises(ProtocolError, match="bad index set"):
                responder.handle(query)
            responder.handle(good)
            with pytest.raises(ProtocolError, match="bad index set"):
                responder.handle(query)

    def test_wrong_masked_width(self):
        responder, config = self.make()
        responder.answer(frame_of(config.hello()))
        query = FilterQuery(query_id=0, indexes=np.array([0, 1]), z=np.zeros(3))
        with pytest.raises(ProtocolError, match="FilterQuery: w is 3, expected 2"):
            responder.answer(frame_of(query))

    def test_wrong_full_width(self):
        responder, config = self.make()
        responder.answer(frame_of(config.hello()))
        query = FullQuery(query_id=0, survivor_ids=np.array([0]), z=np.zeros(5))
        with pytest.raises(ProtocolError, match="FullQuery: w is 5, expected 6"):
            responder.answer(frame_of(query))

    def test_wide_full_query_is_refused_before_its_arrays(self):
        """A FullQuery whose z is n + 1 wide, 4 MB at n = 2^20, is refused
        from its header: answering it allocates nothing of its size."""
        n = 2**20
        responder = BobResponder(pack([], n))
        responder.answer(frame_of(SessionConfig(n=n, epsilon=0.5).hello()))
        query = FullQuery(query_id=0, survivor_ids=np.empty(0, np.int64), z=np.zeros(n + 1, np.int32))
        frame = frame_of(query)
        tracemalloc.start()
        try:
            with pytest.raises(FrameError, match=f"FullQuery: w is {n + 1}, expected {n}"):
                responder.answer(frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10

    @pytest.mark.parametrize(
        "msg",
        [Bye(), HelloAck(df=np.empty(0, np.int64), norm2=np.zeros(2))],
        ids=["bye", "hello-ack"],
    )
    def test_unexpected_message(self, msg):
        """After the handshake Bob admits queries and Bye alone: a Bye ends
        the session, before ``handle`` is asked, and a HelloAck is refused
        from its tag."""
        responder, config = self.make()
        responder.answer(frame_of(config.hello()))
        if isinstance(msg, Bye):
            assert responder.answer(frame_of(msg)) is None
        else:
            with pytest.raises(ProtocolError, match=f"unexpected {type(msg).__name__}"):
                responder.answer(frame_of(msg))

    def test_filter_step_under_base(self):
        responder, config = self.make(method=SelectionMethod.BASE)
        responder.answer(frame_of(config.hello()))
        query = FilterQuery(query_id=0, indexes=np.empty(0, np.int64), z=np.zeros(2))
        with pytest.raises(ProtocolError, match="unexpected FilterQuery, expected FullQuery or Bye$"):
            responder.answer(frame_of(query))

    def test_bye_before_hello_ends_serve_quietly(self):
        """A Bye is admitted before the Hello too: ``serve`` returns, with no
        reply and no error, and closes the transport."""
        responder, _ = self.make()
        assert responder.answer(frame_of(Bye())) is None
        alice_end, bob_end = make_local_pair(timeout=5.0)
        alice_end.send_frame(encode_message(Bye()))
        responder.serve(bob_end)
        with pytest.raises(SessionError, match="peer closed"):
            alice_end.recv_frame()

    def test_duplicate_survivor_id(self):
        """Refused wherever the repeat stands, before any t is marked sent."""
        for ids in ([1, 1], [3, 0, 3], [0, 2, 1, 3, 2]):
            responder, config = self.make(docs=4)
            responder.handle(config.hello())
            query = FullQuery(
                query_id=0, survivor_ids=np.array(ids, dtype=np.int64), z=np.zeros(6)
            )
            with pytest.raises(ProtocolError, match="duplicate survivor"):
                responder.handle(query)
            assert not responder._sent.any()

    def test_survivor_id_out_of_range(self):
        responder, config = self.make(docs=2)
        responder.handle(config.hello())
        query = FullQuery(
            query_id=0, survivor_ids=np.array([7], dtype=np.int64), z=np.zeros(6)
        )
        with pytest.raises(ProtocolError, match="survivor"):
            responder.handle(query)

    def test_empty_corpus_names_its_dims(self):
        """An empty packed corpus carries its dims; an explicit dims is only
        checked against it."""
        assert BobResponder(pack([], 4)).dims == 4
        assert BobResponder(pack([], 4), dims=4).dims == 4
        with pytest.raises(RangeError, match="dims=4, not 5"):
            BobResponder(pack([], 4), dims=5)

    def test_empty_corpus_is_served_without_dims(self):
        """A session against an empty corpus given without dims decides a
        (queries x 0) report."""
        queries = pack([build_document_vector({0: 1}, 4)] * 3, 4)
        config = SessionConfig(n=4, epsilon=0.5)
        alice_end, bob_end = make_local_pair(timeout=5.0)
        worker = threading.Thread(target=BobResponder(pack([], 4)).serve, args=(bob_end,))
        worker.start()
        try:
            report = AliceSession(config, queries, alice_end).run()
        finally:
            alice_end.close()
            worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert not report.aborted and report.target_count == 0
        assert report.cosines.shape == report.similar.shape == (3, 0)
        assert report.decided == 3 and report.decisions == []

    def test_mixed_dims_rejected(self):
        docs = [build_document_vector({0: 1}, 4), build_document_vector({0: 1}, 5)]
        with pytest.raises(DimensionError):
            pack(docs, 4)
        with pytest.raises(RangeError, match="dims=4, not 5"):
            BobResponder(pack(docs[:1], 4), dims=5)


class TestDisclosureWarnings:
    def test_per_query_methods_warn(self, caplog):
        doc = pack([build_document_vector({0: 1}, 10)], 10)
        config = SessionConfig(n=10, epsilon=0.8, method=SelectionMethod.LF, f=2)
        with caplog.at_level(logging.WARNING, logger="ssdd.protocol.session"):
            AliceSession(config, doc, transport=None)
        assert "disclosed" in caplog.text

    def test_session_fixed_methods_do_not(self, caplog):
        doc = pack([build_document_vector({0: 1}, 10)], 10)
        config = SessionConfig(n=10, epsilon=0.8, method=SelectionMethod.RP, f=2)
        with caplog.at_level(logging.WARNING, logger="ssdd.protocol.session"):
            AliceSession(config, doc, transport=None)
        assert caplog.text == ""

    def test_dims_mismatch_rejected_up_front(self):
        doc = pack([build_document_vector({0: 1}, 9)], 9)
        config = SessionConfig(n=10, epsilon=0.8)
        with pytest.raises(RangeError):
            AliceSession(config, doc, transport=None)


N_EQ, F_EQ = 60, 6


def _equivalence_corpus(index_set: np.ndarray) -> list[PackedDocs]:
    """Random documents, one with no term in ``index_set``, one empty."""
    rng = np.random.default_rng(41)
    docs = [random_document(rng, N_EQ, int(rng.integers(1, 15))) for _ in range(10)]
    outside = np.setdiff1d(np.arange(N_EQ), index_set)[:4]
    docs.append(build_document_vector({int(i): 2 for i in outside}, N_EQ))
    docs.append(build_document_vector({}, N_EQ))
    return docs


class TestResponderMatchesRespond:
    """Bob's array answers equal the per-document respond() reference."""

    def config(self, method):
        return SessionConfig(
            n=N_EQ, epsilon=0.5, method=method, f=F_EQ if method.uses_filter else 0,
            seed=21,
        )

    def assert_filter_reply(self, reply, docs, index_set, config, z):
        """Bob's pieces equal the per-document reference exactly, in the
        frame's layout and dtypes: s as int64, the norms as uint32 and t as
        C-ordered int16, lent to the frame as it is."""
        fs_matrix = SharedRandomMatrix(config.seed + 1, config.f)
        assert reply.s.shape == (len(docs),)
        assert reply.t.shape == (len(docs), fs_matrix.cols)
        assert (reply.s.dtype, reply.norm_v2.dtype, reply.t.dtype) == (np.int64, np.uint32, np.int16)
        assert reply.t.flags.c_contiguous
        for j, doc in enumerate(docs):
            values = doc.dense()[0][index_set]
            nz = np.flatnonzero(values)
            sparse = PackedDocs(index_set.size, np.array([0, nz.size]), nz, values[nz])
            s, t = respond(z, sparse, fs_matrix)
            assert reply.s[j] == s
            assert reply.norm_v2[j] == values @ values
            np.testing.assert_array_equal(reply.t[j], t)

    def assert_full_reply(self, reply, docs, ids, config, z, sent):
        """s for every survivor; t, in survivor order, only for the survivors
        not in ``sent``, which then joins it."""
        matrix = SharedRandomMatrix(config.seed, config.n)
        np.testing.assert_array_equal(reply.doc_ids, ids)
        new = [doc_id for doc_id in ids if doc_id not in sent]
        assert reply.t.shape == (len(new), matrix.cols)
        for i, doc_id in enumerate(ids):
            s, _ = respond(z, docs[doc_id], matrix)
            assert reply.s[i] == s
        assert reply.t.dtype == np.int16 and reply.t_bytes == 2
        for row, doc_id in enumerate(new):
            _, t = respond(z, docs[doc_id], matrix)
            np.testing.assert_array_equal(reply.t[row], t)
        sent.update(new)

    @pytest.mark.parametrize(
        "method",
        [SelectionMethod.RP, SelectionMethod.GF, SelectionMethod.LF, SelectionMethod.HF],
        ids=lambda m: m.name,
    )
    def test_filter_replies(self, method):
        self.check_filter_replies(method)

    @pytest.mark.parametrize(
        "method", [SelectionMethod.RP, SelectionMethod.GF], ids=lambda m: m.name
    )
    def test_responder_selects_nothing(self, method, monkeypatch):
        """Bob answers the RP and GF sets he is given without deriving them:
        every selection function he could reach raises."""

        def refuse(*args):
            raise AssertionError("the responder selected an index set")

        for name in ("select_rp", "top_f", "select_hf"):
            monkeypatch.setattr(session_module, name, refuse)
        self.check_filter_replies(method)

    def test_repeated_set_is_projected_once(self, monkeypatch):
        """Bob projects once while queries name the same set and again when
        the set changes; the count and the replies are as if he kept
        nothing."""
        config = self.config(SelectionMethod.RP)
        first, second = np.arange(F_EQ), np.arange(1, F_EQ + 1)
        sets = [first, first, first, second, second, first]
        docs = _equivalence_corpus(first)
        projected = []

        def counting(packed, index_set):
            projected.append(index_set.tolist())
            return project(packed, index_set)

        monkeypatch.setattr(session_module, "project", counting)
        responder = BobResponder(pack(docs, N_EQ), dims=N_EQ)
        responder.handle(config.hello())
        rng = np.random.default_rng(8)
        expected_count = 0
        for query_id, indexes in enumerate(sets):
            z = rng.integers(-(2**20), 2**20, F_EQ).astype(np.float64)
            # a fresh array each time, as decoding gives
            reply = responder.handle(
                FilterQuery(query_id=query_id, indexes=indexes.copy(), z=z)
            )
            self.assert_filter_reply(reply, docs, indexes, config, z)
            nnz = sum(int(np.count_nonzero(d.dense()[0][indexes])) for d in docs)
            expected_count += nnz * (2 + (F_EQ + 1) // 2)
        assert projected == [first.tolist(), second.tolist(), first.tolist()]
        assert responder.scalar_mult_count == expected_count

    def check_filter_replies(self, method):
        config = self.config(method)
        if method is SelectionMethod.RP:
            index_set = select_rp(config.seed + 2, N_EQ, F_EQ)
        else:
            index_set = np.arange(F_EQ)
        docs = _equivalence_corpus(index_set)
        responder = BobResponder(pack(docs, N_EQ), dims=N_EQ)
        ack = responder.handle(config.hello())
        if method.needs_whole_vector:
            mine = pack(docs, N_EQ).document_frequency
            np.testing.assert_array_equal(ack.df, mine)
            if method is SelectionMethod.GF:
                alice_counts = np.zeros(N_EQ, dtype=np.int64)
                alice_counts[:F_EQ] = 1000  # makes the GF set the first F_EQ dims
                chosen = top_f(alice_counts + ack.df, F_EQ)
                np.testing.assert_array_equal(chosen, index_set)
        else:
            assert ack.df.size == 0
        rng = np.random.default_rng(5)
        for query_id in range(3):
            z = rng.integers(-(2**20), 2**20, F_EQ).astype(np.float64)
            reply = responder.handle(
                FilterQuery(query_id=query_id, indexes=index_set, z=z)
            )
            self.assert_filter_reply(reply, docs, index_set, config, z)

    def full_replies(self, monkeypatch):
        """Four full queries with repeating survivors; returns the t rows Bob
        computed and the documents whose t he sent."""
        config = self.config(SelectionMethod.BASE)
        docs = _equivalence_corpus(np.arange(F_EQ))
        responder = BobResponder(pack(docs, N_EQ), dims=N_EQ)
        responder.handle(config.hello())
        computed = []
        transpose_apply_packed = SharedRandomMatrix.transpose_apply_packed

        def counting(matrix, docs):
            t = transpose_apply_packed(matrix, docs)
            computed.extend(t)
            return t

        monkeypatch.setattr(SharedRandomMatrix, "transpose_apply_packed", counting)
        rng = np.random.default_rng(6)
        survivor_sets = ([0, 3, 10, 11], [3, 4], [], [11, 0, 3, 4])
        sent = set()
        for query_id, ids in enumerate(survivor_sets):
            ids = np.array(ids, dtype=np.int64)
            z = rng.integers(-(2**20), 2**20, N_EQ).astype(np.float64)
            reply = responder.handle(FullQuery(query_id=query_id, survivor_ids=ids, z=z))
            self.assert_full_reply(reply, docs, ids, config, z, sent)
        return computed, sent

    def test_full_replies_compute_each_transpose_once(self, monkeypatch):
        """Each distinct survivor's t is computed, and sent, exactly once."""
        computed, sent = self.full_replies(monkeypatch)
        assert sent == {0, 3, 4, 10, 11}
        assert len(computed) == len(sent)

    def test_base_session_transforms_on_query_zero_alone(self, small_corpus, monkeypatch):
        """Under BASE every target survives every query, so Bob computes
        every t in one transform, for query 0, and each later FullReply
        carries none (k_new = 0); the decisions are the oracle's."""
        query_ids, target_ids = split_queries(small_corpus, k=4, seed=5)
        queries = small_corpus.vectors.take(query_ids)
        targets = small_corpus.vectors.take(target_ids)
        transformed, replies = [], []
        transpose_apply_packed = SharedRandomMatrix.transpose_apply_packed
        on_full_query = BobResponder._on_full_query

        def counting(matrix, docs):
            transformed.append(len(docs))
            return transpose_apply_packed(matrix, docs)

        def recording(responder, msg):
            replies.append(on_full_query(responder, msg))
            return replies[-1]

        monkeypatch.setattr(SharedRandomMatrix, "transpose_apply_packed", counting)
        monkeypatch.setattr(BobResponder, "_on_full_query", recording)
        config = config_for(SelectionMethod.BASE)
        report = run_detection_locally(queries, config, targets)
        assert transformed == [len(targets)]
        assert [reply.query_id for reply in replies] == [0, 1, 2, 3]
        assert [reply.t.shape[0] for reply in replies] == [len(targets), 0, 0, 0]
        assert all(reply.t.shape[1] == (config.n + 1) // 2 for reply in replies)
        oracle = oracle_detect(queries, targets, config.epsilon)
        assert missed_and_extra(report.similar, oracle.similar) == ([], [])

    @pytest.mark.parametrize(
        "method", [SelectionMethod.RP, SelectionMethod.LF], ids=lambda m: m.name
    )
    def test_empty_corpus(self, method):
        config = self.config(method)
        responder = BobResponder(pack([], N_EQ), dims=N_EQ)
        assert responder.handle(config.hello()).norm2.size == 0
        reply = responder.handle(
            FilterQuery(query_id=0, indexes=np.arange(F_EQ), z=np.ones(F_EQ))
        )
        assert reply.s.shape == (0,) and reply.norm_v2.shape == (0,)
        assert reply.t.shape == (0, (F_EQ + 1) // 2)
        reply = responder.handle(
            FullQuery(query_id=0, survivor_ids=np.empty(0, np.int64), z=np.ones(N_EQ))
        )
        assert reply.s.shape == (0,) and reply.t.shape == (0, (N_EQ + 1) // 2)
        assert responder.scalar_mult_count == 0


class TestMultiplicationCount:
    """The count is the paper's cost model: nnz * (1 + cols) per document
    response, plus nnz per projected norm in the filter round."""

    @pytest.mark.parametrize(
        "method", [SelectionMethod.BASE, SelectionMethod.HF], ids=lambda m: m.name
    )
    def test_count_follows_the_cost_model(self, small_corpus, method):
        query_ids, target_ids = split_queries(small_corpus, k=6, seed=5)
        queries = small_corpus.vectors.take(query_ids)
        targets = small_corpus.vectors.take(target_ids)
        config = config_for(method)
        report = run_detection_locally(queries, config, targets)
        cols, fs_cols = (config.n + 1) // 2, (config.f + 1) // 2
        expected = sum(
            targets[d.target_id].nnz[0] * (1 + cols)
            for d in report.decisions
            if not d.filtered
        )
        if method.uses_filter:
            assert 0 < report.metrics.pairs_filtered < report.metrics.pairs_total
            whole = zscore(queries.document_frequency + targets.document_frequency)
            for query in queries:
                index_set = select_hf(query.dense()[0], whole, config.f)
                for target in targets:
                    nnz = int(np.count_nonzero(target.dense()[0][index_set]))
                    expected += nnz * (2 + fs_cols)
        assert type(report.metrics.scalar_mult_count) is int
        assert report.metrics.scalar_mult_count == expected


class TestSharedMatrices:
    @pytest.mark.parametrize(
        "method", [SelectionMethod.BASE, SelectionMethod.HF], ids=lambda m: m.name
    )
    def test_both_sides_build_the_same_matrices(self, method):
        """From one Hello, Alice and Bob derive the same A, keyed by the
        seed, and under a filtering method the same A_fs, keyed by seed + 1
        (here wrapping around to 0)."""
        f = 9 if method.uses_filter else 0
        config = SessionConfig(n=70, epsilon=0.8, method=method, f=f, seed=2**64 - 1)
        alice = AliceSession(config, pack([build_document_vector({0: 1}, 70)], 70), None)
        bob = BobResponder(pack([build_document_vector({1: 1}, 70)], 70), dims=70)
        bob.handle(config.hello())
        a = SharedRandomMatrix(2**64 - 1, 70).rows_for(np.arange(70))
        for side in (alice, bob):
            np.testing.assert_array_equal(side._matrix.rows_for(np.arange(70)), a)
            if method.uses_filter:
                a_fs = SharedRandomMatrix(0, 9).rows_for(np.arange(9))
                np.testing.assert_array_equal(side._a_fs, a_fs)
            else:
                assert side._a_fs is None


class PoisonedBob(BobResponder):
    """An honest responder that then writes ``value`` into the last entry of
    ``piece``, as float64, in its reply of type ``kind`` to query
    ``query_id``."""

    def __init__(self, vectors, dims, kind, piece, value, query_id=0):
        super().__init__(vectors, dims=dims)
        self.poison = (kind, piece, value, query_id)

    def handle(self, msg):
        reply = super().handle(msg)
        kind, piece, value, query_id = self.poison
        if isinstance(reply, kind) and reply.query_id == query_id:
            poisoned = getattr(reply, piece).astype(np.float64)
            poisoned.flat[-1] = value
            reply = dataclasses.replace(reply, **{piece: poisoned})
        return reply


def run_against(responder, queries, config, refused=()):
    """Alice's session against ``responder``; ``serve`` may end on one of
    the exceptions ``refused`` names, which must then have been raised."""
    alice_end, bob_end = make_local_pair(timeout=5.0)
    raised = []

    def serve():
        try:
            responder.serve(bob_end)
        except refused as exc:
            raised.append(exc)

    worker = threading.Thread(target=serve, daemon=True)
    worker.start()
    try:
        report = AliceSession(config, queries, alice_end).run()
    finally:
        alice_end.close()
        worker.join(timeout=5.0)
    assert bool(raised) == bool(refused), raised
    return report


NON_FINITE = pytest.mark.parametrize(
    "value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"]
)


class TestNonFiniteReplies:
    """A NaN or infinite number cannot leave Bob: his encoder refuses the
    reply, which ends his session, and Alice aborts instead of deciding
    the pair with it."""

    def setup_method(self):
        docs = [build_document_vector({i: 2, i + 1: 1}, 40) for i in range(6)]
        self.targets, self.queries = pack(docs, 40), pack(docs[:2], 40)

    @NON_FINITE
    @pytest.mark.parametrize("piece", ["s", "t", "norm_v2"])
    def test_filter_reply(self, piece, value):
        config = config_for(SelectionMethod.RP, n=40, f=8)
        bob = PoisonedBob(self.targets, 40, FilterReply, piece, value)
        report = run_against(bob, self.queries, config, refused=FrameError)
        assert report.aborted
        assert report.decided == 0 and report.decisions == []

    @NON_FINITE
    @pytest.mark.parametrize("piece", ["s", "t"])
    def test_full_reply(self, piece, value):
        config = config_for(SelectionMethod.BASE, n=40)
        bob = PoisonedBob(self.targets, 40, FullReply, piece, value)
        report = run_against(bob, self.queries, config, refused=FrameError)
        assert report.aborted
        assert report.decided == 0 and report.decisions == []


class TestInexactReplies:
    """Alice aborts on a value that the wire carries but exact arithmetic
    cannot hold, logging which, before she decides a pair with it: an s of
    2^53 or more in magnitude, an i4 t entry above ``decide.L1_LIMIT``, a
    squared norm of 2^32 or more."""

    def setup_method(self):
        docs = [build_document_vector({i: 2, i + 1: 1}, 40) for i in range(6)]
        self.targets, self.queries = pack(docs, 40), pack(docs[:2], 40)

    def run(self, caplog, bob, method, message):
        with caplog.at_level(logging.WARNING, logger="ssdd.protocol.session"):
            report = run_against(bob, self.queries, config_for(method, n=40, f=8))
        assert report.aborted
        assert report.decided == 0 and report.decisions == []
        assert message in caplog.text

    @pytest.mark.parametrize("value", [2.0**53, -(2.0**53), 2.0**62, -(2.0**63)])
    @pytest.mark.parametrize(
        "method, kind", [(SelectionMethod.RP, FilterReply), (SelectionMethod.BASE, FullReply)],
        ids=["filter", "full"],
    )
    def test_s_past_2_53(self, caplog, method, kind, value):
        bob = PoisonedBob(self.targets, 40, kind, "s", value)
        self.run(caplog, bob, method, f"{kind.__name__} s holds a value of 2**53 or more")

    def test_wide_t_past_the_count_limit(self, caplog):
        def widen(reply):
            t = reply.t.astype(np.int32)
            t[0, 0] = 2**22 + 1
            return dataclasses.replace(reply, t=t, t_bytes=4)

        bob = MisreplyingBob(self.targets, 40, FullReply, widen)
        self.run(caplog, bob, SelectionMethod.BASE, "full reply t holds an entry above 4194304")

    def test_norm_past_2_32(self, caplog):
        def inflate(ack):
            return dataclasses.replace(ack, norm2=ack.norm2 + 2.0**32)

        bob = MisreplyingBob(self.targets, 40, HelloAck, inflate)
        self.run(caplog, bob, SelectionMethod.BASE, "squared norm of 2**32 or more")


EMPTY_CELLS = [(method, epsilon) for epsilon in (0.0, 0.5) for method in SelectionMethod]


class TestEmptyTargets:
    """An empty target is never similar, as in the oracle: at tolerance 0
    its recovered cosine 0 reaches the tolerance, but its t_j arrived
    all-zero and its s is 0, and Alice remembers the zero t_j on later
    queries, which do not resend it.  An empty query is never similar
    either, under every method, and its cosines are 0."""

    @pytest.mark.parametrize(
        "method, epsilon",
        EMPTY_CELLS,
        ids=[m.name if e == 0.0 else f"{m.name}-{e}" for m, e in EMPTY_CELLS],
    )
    def test_empty_target_at_zero_tolerance(self, method, epsilon):
        queries = pack([build_document_vector({0: 1, 1: 1}, 10), build_document_vector({}, 10)], 10)
        targets = pack([build_document_vector({}, 10), build_document_vector({0: 1}, 10)], 10)
        config = config_for(method, n=10, f=2, epsilon=epsilon)
        report = run_local_detection(queries, config, targets)
        assert not report.aborted and report.decided == 2
        oracle = oracle_detect(queries, targets, epsilon)
        assert missed_and_extra(report.similar, oracle.similar) == ([], [])
        assert np.argwhere(report.similar).tolist() == [[0, 1]]
        assert report.cosines[:, 0].tolist() == [0.0, 0.0]
        assert report.cosines[1].tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cancelling_target_is_not_empty(self, seed):
        """With +-1 entries a nonempty v_j can give t_j = A^T v_j = 0
        exactly: here rows 0 and 1 of A are negatives of each other.  Its
        s = z . v_j is then u . v_j, so the identical pair is still similar."""
        doc = build_document_vector({0: 1, 1: 1}, 4)
        rows = SharedRandomMatrix(seed, 4).rows_for(np.arange(2))
        assert (rows[0] == -rows[1]).all()
        config = SessionConfig(n=4, epsilon=0.8, seed=seed)
        queries, targets = pack([doc, doc], 4), pack([doc], 4)
        report = run_local_detection(queries, config, targets)
        oracle = oracle_detect(queries, targets, 0.8)
        assert missed_and_extra(report.similar, oracle.similar) == ([], [])
        assert report.similar.tolist() == [[True], [True]]
        assert report.cosines.tolist() == [[1.0], [1.0]]

    def test_cancelling_target_at_zero_tolerance(self):
        """The cancelling target above with an orthogonal query: the pair's
        cosine is 0, so the oracle calls it similar at tolerance 0.  Its
        t_j = 0 and s_j = 0 look like an empty target's, but Alice tells
        them apart by the squared norm HelloAck carries, under every
        method."""
        queries = pack([build_document_vector({2: 1}, 4)], 4)
        targets = pack([build_document_vector({0: 1, 1: 1}, 4)], 4)
        oracle = oracle_detect(queries, targets, 0.0)
        assert oracle.similar.tolist() == [[True]]
        for seed in (0, 1):
            rows = SharedRandomMatrix(seed, 4).rows_for(np.arange(2))
            assert (rows[0] == -rows[1]).all()
            for method in SelectionMethod:
                f = 2 if method.uses_filter else 0
                config = SessionConfig(n=4, epsilon=0.0, method=method, f=f, seed=seed)
                report = run_local_detection(queries, config, targets)
                assert report.similar.tolist() == oracle.similar.tolist(), (seed, method)


class TestReportArrays:
    def test_abort_keeps_the_finished_rows(self):
        docs = [build_document_vector({i: 2, i + 1: 1}, 40) for i in range(6)]
        config = config_for(SelectionMethod.BASE, n=40)
        bob = PoisonedBob(pack(docs, 40), 40, FullReply, "s", 2.0**53, query_id=1)
        report = run_against(bob, pack(docs[:3], 40), config)
        assert report.aborted
        assert report.decided == 1
        assert report.cosines.shape == report.similar.shape == (3, 6)
        assert [(d.query_id, d.target_id) for d in report.decisions] == [
            (0, t) for t in range(6)
        ]
        assert not any(d.filtered for d in report.decisions)
        assert report.decisions[0].similar and report.decisions[0].cosine > 0.99
        # rows past the abort stay undecided
        assert np.isnan(report.cosines[1:]).all()
        assert not report.similar[1:].any()
        assert np.argwhere(report.similar).tolist() == [[0, 0]]

    @pytest.mark.parametrize("query_id", [0, 1])
    @pytest.mark.parametrize(
        "method", [SelectionMethod.BASE, SelectionMethod.LF], ids=lambda m: m.name
    )
    def test_abort_counts_the_decided_queries_only(self, method, query_id):
        """The query whose full reply aborts the session adds to no counter;
        under LF each query keeps one of the six targets."""
        docs = pack([build_document_vector({i: 2, i + 1: 1}, 40) for i in range(6)], 40)
        bob = PoisonedBob(docs, 40, FullReply, "s", 2.0**53, query_id=query_id)
        report = run_against(bob, docs.take([0, 4, 0]), config_for(method, n=40, f=8))
        assert report.aborted and report.decided == query_id
        metrics = report.metrics
        assert metrics.pairs_total == 6 * query_id
        assert metrics.pairs_filtered + metrics.full_products == metrics.pairs_total
        assert metrics.full_products == (6 if method is SelectionMethod.BASE else 1) * query_id

    def test_filtered_is_nan_is_no_cosine(self, small_corpus):
        query_ids, target_ids = split_queries(small_corpus, k=6, seed=5)
        queries = pack(
            [small_corpus.vectors[i] for i in query_ids]
            + [build_document_vector({}, small_corpus.dims)],
            small_corpus.dims,
        )
        targets = small_corpus.vectors.take(target_ids)
        report = run_detection_locally(queries, config_for(SelectionMethod.HF), targets)
        assert report.decided == len(queries)
        decisions = report.decisions
        filtered = np.array([d.filtered for d in decisions])
        no_cosine = np.array([d.cosine is None for d in decisions])
        nan = np.isnan(report.cosines).ravel()
        assert 0 < filtered.sum() < filtered.size
        np.testing.assert_array_equal(filtered, nan)
        np.testing.assert_array_equal(no_cosine, nan)
        np.testing.assert_array_equal(
            [d.similar for d in decisions], report.similar.ravel()
        )
        assert not (report.similar & np.isnan(report.cosines)).any()
        assert report.metrics.pairs_filtered == filtered.sum()
        # the degenerate query's survivors score 0 and are never similar
        last = report.cosines[-1]
        assert (last[~np.isnan(last)] == 0.0).all()
        assert not report.similar[-1].any()

    def test_no_queries(self):
        """A session of no queries shakes hands, says Bye and reports a
        (0 x targets) outcome."""
        targets = pack([build_document_vector({i: 1}, 6) for i in range(2)], 6)
        report = run_local_detection(pack([], 6), SessionConfig(n=6, epsilon=0.8), targets)
        assert not report.aborted and report.decided == 0
        assert report.cosines.shape == report.similar.shape == (0, 2)
        assert report.metrics.pairs_total == 0

    def test_similar_pairs_are_query_major(self):
        similar = np.array(
            [[False, True, True], [True, False, False], [False, False, True]]
        )
        report = DetectionReport(
            config=SessionConfig(n=4, epsilon=0.5),
            cosines=np.where(similar, 0.9, 0.1),
            similar=similar,
            decided=3,
        )
        pairs = np.argwhere(report.similar).tolist()
        assert pairs == [[0, 1], [0, 2], [1, 0], [2, 2]]
        assert pairs == [
            [d.query_id, d.target_id] for d in report.decisions if d.similar
        ]

    def test_session_similar_pairs_are_query_major(self, small_corpus):
        query_ids, target_ids = split_queries(small_corpus, k=10, seed=5)
        queries = small_corpus.vectors.take(query_ids)
        targets = small_corpus.vectors.take(target_ids)
        report = run_detection_locally(queries, config_for(SelectionMethod.BASE), targets)
        pairs = np.argwhere(report.similar).tolist()
        assert len({q for q, _ in pairs}) > 1
        assert pairs == sorted(pairs)
        assert pairs == [[d.query_id, d.target_id] for d in report.decisions if d.similar]
        assert all(type(q) is int and type(t) is int for q, t in pairs)


class ReshapedBob(BobResponder):
    """An honest responder that then replaces ``t`` in each reply of type
    ``kind``, or only in its reply to ``query_id``, by ``reshape(t)``."""

    def __init__(self, vectors, dims, kind, reshape, query_id=None):
        super().__init__(vectors, dims=dims)
        self.kind, self.reshape, self.query_id = kind, reshape, query_id

    def handle(self, msg):
        reply = super().handle(msg)
        if isinstance(reply, self.kind) and self.query_id in (None, reply.query_id):
            reply = dataclasses.replace(reply, t=self.reshape(reply.t))
        return reply


WRONG_WIDTH = pytest.mark.parametrize(
    "reshape",
    [lambda t: np.hstack([t, t]), lambda t: t[:, :-1]],
    ids=["too-wide", "too-narrow"],
)


class TestWrongWidthReplies:
    """A reply whose t is not ceil(f/2) or ceil(n/2) wide aborts the session."""

    def setup_method(self):
        docs = [build_document_vector({i: 2, i + 1: 1}, 40) for i in range(6)]
        self.targets, self.queries = pack(docs, 40), pack(docs[:2], 40)

    @WRONG_WIDTH
    def test_filter_reply(self, reshape):
        config = config_for(SelectionMethod.RP, n=40, f=8)
        report = run_against(
            ReshapedBob(self.targets, 40, FilterReply, reshape), self.queries, config
        )
        assert report.aborted
        assert report.decided == 0

    @WRONG_WIDTH
    @pytest.mark.parametrize(
        "method", [SelectionMethod.BASE, SelectionMethod.HF], ids=lambda m: m.name
    )
    def test_full_reply(self, reshape, method):
        config = config_for(method, n=40, f=8, epsilon=0.1)
        report = run_against(
            ReshapedBob(self.targets, 40, FullReply, reshape), self.queries, config
        )
        assert report.aborted
        assert report.decided == 0


class TestWrongWidthHelloAck:
    """Alice aborts on a HelloAck whose df is not n counts under GF and HF,
    or not empty under the other methods."""

    @pytest.mark.parametrize(
        "method, width",
        [
            (SelectionMethod.GF, 0),
            (SelectionMethod.HF, 0),
            (SelectionMethod.HF, 39),
            (SelectionMethod.BASE, 40),
            (SelectionMethod.RP, 1),
        ],
        ids=["gf-none", "hf-none", "hf-short", "base-whole", "rp-one"],
    )
    def test_handshake(self, method, width):
        class WrongDfBob(BobResponder):
            def handle(self, msg):
                reply = super().handle(msg)
                if isinstance(reply, HelloAck):
                    reply = dataclasses.replace(reply, df=np.ones(width, np.int64))
                return reply

        docs = [build_document_vector({i: 2, i + 1: 1}, 40) for i in range(6)]
        alice_end, bob_end = make_local_pair(timeout=5.0)
        worker = threading.Thread(
            target=WrongDfBob(pack(docs, 40), dims=40).serve, args=(bob_end,), daemon=True
        )
        worker.start()
        alice = AliceSession(config_for(method, n=40, f=8), pack(docs[:2], 40), alice_end)
        try:
            expected = 40 if method.needs_whole_vector else 0
            with pytest.raises(ProtocolError, match=f"HelloAck: n is {width}, expected {expected}$"):
                alice.handshake()
        finally:
            alice_end.close()
            worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert alice.report.target_count == 0


class MisreplyingBob(BobResponder):
    """An honest responder that then replaces each reply of type ``kind`` by
    ``change(reply)``."""

    def __init__(self, vectors, dims, kind, change):
        super().__init__(vectors, dims=dims)
        self.kind, self.change = kind, change

    def handle(self, msg):
        reply = super().handle(msg)
        return self.change(reply) if isinstance(reply, self.kind) else reply


def shift_query_id(reply):
    return dataclasses.replace(reply, query_id=reply.query_id + 1)


def drop_last_document(reply):
    return dataclasses.replace(
        reply, s=reply.s[:-1], norm_v2=reply.norm_v2[:-1], t=reply.t[:-1]
    )


def reverse_doc_ids(reply):
    return dataclasses.replace(reply, doc_ids=reply.doc_ids[::-1].copy())


def full_reply_instead(reply):
    """A FullReply to the filter query, which Alice refuses from its tag:
    her table admits the FilterReply she waits for alone."""
    return FullReply(
        query_id=reply.query_id, doc_ids=np.arange(reply.s.size), s=reply.s,
        t=np.empty((0, 1), np.int16),
    )


class TestReplyChecks:
    """Each check Alice makes of a reply's type, query id and documents
    aborts the session before it decides a pair, and the logged warning
    names the check."""

    @pytest.mark.parametrize(
        "method, kind, change, message",
        [
            (
                SelectionMethod.BASE,
                HelloAck,
                lambda ack: Bye(),
                "unexpected Bye, expected HelloAck",
            ),
            (
                SelectionMethod.RP,
                FilterReply,
                shift_query_id,
                "FilterReply: query_id is 1, expected 0",
            ),
            (
                SelectionMethod.RP,
                FilterReply,
                full_reply_instead,
                "unexpected FullReply, expected FilterReply",
            ),
            (
                SelectionMethod.RP,
                FilterReply,
                drop_last_document,
                "FilterReply: m is 5, expected 6",
            ),
            (
                SelectionMethod.BASE,
                FullReply,
                shift_query_id,
                "FullReply: query_id is 1, expected 0",
            ),
            (
                SelectionMethod.BASE,
                FullReply,
                reverse_doc_ids,
                "full reply covers the wrong documents",
            ),
        ],
        ids=[
            "hello-bye", "filter-id", "filter-as-full", "filter-short", "full-id",
            "full-reversed",
        ],
    )
    def test_reply_is_refused(self, caplog, method, kind, change, message):
        docs = [build_document_vector({i: 2, i + 1: 1}, 40) for i in range(6)]
        bob = MisreplyingBob(pack(docs, 40), 40, kind, change)
        with caplog.at_level(logging.WARNING, logger="ssdd.protocol.session"):
            report = run_against(bob, pack(docs[:2], 40), config_for(method, n=40, f=8))
        assert report.aborted
        assert report.decided == 0 and report.decisions == []
        assert report.metrics.pairs_total == 0
        assert f"session aborted: {message}" in caplog.text


BIG_N = 2**20


def big_frame(kind):
    """A consistent frame of ``kind`` at n = 2^20 whose payload is at least
    4 MB; a Hello carries no array, so its 4 MB are trailing bytes."""
    n, m = BIG_N, BIG_N // 2
    if kind is Hello:
        body = bytes(frame_of(SessionConfig(n=n, epsilon=0.5).hello())[4:]) + bytes(4 << 20)
        return struct.pack("<I", len(body)) + body
    msg = {
        HelloAck: lambda: HelloAck(df=np.ones(n, np.uint32), norm2=np.zeros(0, np.uint64)),
        FilterQuery: lambda: FilterQuery(0, np.arange(8), np.zeros(n, np.int32)),
        FilterReply: lambda: FilterReply(
            0, np.zeros(m, np.int64), np.zeros(m, np.uint32), np.zeros((m, 4), np.int16)
        ),
        FullQuery: lambda: FullQuery(0, np.empty(0, np.int64), np.zeros(n, np.int32)),
        FullReply: lambda: FullReply(
            0, np.arange(m), np.zeros(m, np.int64), np.empty((0, 1), np.int16)
        ),
    }[kind]()
    return frame_of(msg)


def traced_peak(call):
    """The tracemalloc peak, in bytes, of ``call()``."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestOutOfTurnFrames:
    """A frame that the receiver's table does not admit now is refused from
    its tag: a multi-MB payload costs the receiver no allocation of its
    size."""

    REFUSED = {
        "before-hello": (HelloAck, FilterQuery, FilterReply, FullQuery, FullReply),
        "after-base-hello": (Hello, HelloAck, FilterQuery, FilterReply, FullReply),
        "after-filtering-hello": (Hello, HelloAck, FilterReply, FullReply),
    }

    @pytest.mark.parametrize(
        "state, kind",
        [(state, kind) for state, kinds in REFUSED.items() for kind in kinds],
        ids=lambda value: value if isinstance(value, str) else value.__name__,
    )
    def test_bob_refuses_from_the_tag(self, state, kind):
        responder = BobResponder(pack([], BIG_N))
        if state != "before-hello":
            method = SelectionMethod.BASE if state == "after-base-hello" else SelectionMethod.RP
            config = SessionConfig(n=BIG_N, epsilon=0.5, method=method, f=8 if method.uses_filter else 0)
            responder.answer(frame_of(config.hello()))
        frame = big_frame(kind)
        assert len(frame) >= 4 << 20

        def refused():
            with pytest.raises(ProtocolError, match=f"^unexpected {kind.__name__}, expected "):
                responder.answer(frame)

        assert traced_peak(refused) < 64 << 10

    def test_alice_refuses_a_full_reply_to_a_filter_query(self):
        """Alice waits for the FilterReply alone; a Bob that sends a FullReply
        of 6 MB instead is refused before she reads any of its arrays."""
        config = SessionConfig(n=BIG_N, epsilon=0.5, method=SelectionMethod.RP, f=8, mask_seed=0)
        alice_end, bob_end = make_local_pair(timeout=5.0)
        alice = AliceSession(config, build_document_vector({0: 1}, BIG_N), alice_end)
        frame = big_frame(FullReply)
        bob_end.send_frame([frame])
        query = FilterQuery(query_id=0, indexes=np.arange(8), z=np.zeros(8, np.int32))

        def refused():
            with pytest.raises(ProtocolError, match="^unexpected FullReply, expected FilterReply$"):
                alice._exchange(query, FilterReply, query_id=0, m=3, w=4)

        assert traced_peak(refused) < 64 << 10
        assert alice.report.metrics.bytes_sent_bob == len(frame)


class RecordingBob(BobResponder):
    """An honest responder that keeps every message it handles and every
    reply it gives."""

    def __init__(self, vectors, dims):
        super().__init__(vectors, dims=dims)
        self.received = []
        self.replies = []

    def handle(self, msg):
        self.received.append(msg)
        self.replies.append(super().handle(msg))
        return self.replies[-1]


class ForgetfulBob(BobResponder):
    """Forgets which t it sent, so every full reply carries every survivor's
    t, as in protocol version 1."""

    def handle(self, msg):
        self._sent[:] = False
        return super().handle(msg)


class TestTransposeOncePerSession:
    """Each t_j = A^T c_j crosses the wire once per session; Alice aborts,
    keeping the rows she finished, on a reply that resends a t she holds or
    omits a new one, and when Bob's encoder refuses a non-finite one."""

    def setup_method(self):
        self.docs = pack([build_document_vector({i: 2, i + 1: 1}, 40) for i in range(6)], 40)
        # under LF, query 0 and 2 survive with target 0 only, query 1 with
        # target 4 only: query 1 brings a new t, query 2 none
        self.queries = self.docs.take([0, 4, 0])
        self.lf = config_for(SelectionMethod.LF, n=40, f=8)

    def test_lf_survivors(self):
        bob = RecordingBob(self.docs, 40)
        report = run_against(bob, self.queries, self.lf)
        assert not report.aborted and report.decided == 3
        full = [m for m in bob.replies if isinstance(m, FullReply)]
        assert [m.doc_ids.tolist() for m in full] == [[0], [4], [0]]
        assert [len(m.t) for m in full] == [1, 1, 0]
        assert np.argwhere(report.similar).tolist() == [[0, 0], [1, 4], [2, 0]]

    def assert_aborted_after(self, report, decided):
        assert report.aborted
        assert report.decided == decided
        assert np.argwhere(report.similar).tolist() == [[0, 0], [1, 4]][:decided]
        assert np.isnan(report.cosines[decided:]).all()

    def test_resent_t(self):
        config = config_for(SelectionMethod.BASE, n=40)
        report = run_against(ForgetfulBob(self.docs, 40), self.docs.take([0, 1]), config)
        assert report.aborted and report.decided == 1
        assert np.argwhere(report.similar).tolist() == [[0, 0]]
        report = run_against(ForgetfulBob(self.docs, 40), self.queries, self.lf)
        self.assert_aborted_after(report, 2)

    def test_omitted_t(self):
        bob = ReshapedBob(self.docs, 40, FullReply, lambda t: t[:0], query_id=1)
        self.assert_aborted_after(run_against(bob, self.queries, self.lf), 1)

    @NON_FINITE
    def test_non_finite_t_on_first_sight(self, value):
        bob = PoisonedBob(self.docs, 40, FullReply, "t", value, query_id=1)
        report = run_against(bob, self.queries, self.lf, refused=FrameError)
        self.assert_aborted_after(report, 1)

    @pytest.mark.parametrize(
        "method", [SelectionMethod.LF, SelectionMethod.HF], ids=lambda m: m.name
    )
    def test_repeating_survivors_get_each_t_once(self, small_corpus, method):
        query_ids, target_ids = split_queries(small_corpus, k=5, seed=5)
        queries = small_corpus.vectors.take(np.tile(query_ids, 2))
        targets = small_corpus.vectors.take(target_ids)
        config = config_for(method, epsilon=0.3)
        bob = RecordingBob(targets, config.n)
        report = run_against(bob, queries, config)
        assert not report.aborted and report.decided == len(queries)
        oracle = oracle_detect(queries, targets, 0.3)
        assert missed_and_extra(report.similar, oracle.similar) == ([], [])
        seen = set()
        survivors = 0
        for reply in (m for m in bob.replies if isinstance(m, FullReply)):
            ids = reply.doc_ids.tolist()
            new = [j for j in ids if j not in seen]
            assert reply.t.shape == (len(new), (config.n + 1) // 2)
            seen.update(ids)
            survivors += len(ids)
        assert survivors > len(seen) > 0

    def test_base_traffic_formula(self, small_corpus):
        """HelloAck with an empty df and a u8 norm per target, then per query
        a header and {doc_id, s} per target, plus one i2 t per target per
        session."""
        query_ids, target_ids = split_queries(small_corpus, k=3, seed=5)
        queries = small_corpus.vectors.take(query_ids)
        targets = small_corpus.vectors.take(target_ids[:7])
        config = config_for(SelectionMethod.BASE)
        report = run_detection_locally(queries, config, targets)
        q, m, cols = len(queries), len(targets), (config.n + 1) // 2
        hello_ack = 4 + 1 + 8 + 8 * m
        reply_head = 4 + 1 + 13
        expected = hello_ack + q * (reply_head + m * (4 + 8)) + m * cols * 2
        assert report.metrics.bytes_sent_bob == expected


def expected_mask(config, queries, query_id, step, cols):
    """The secret mask of one query and step (1 filter, 2 full): integers
    uniform on [-2^b, 2^b] from the session's mask seed, b the widest that
    keeps every masked entry of the queries below 2^31."""
    room = (2**31 - 1 - int(queries.weights.max())) // ((config.n + 1) // 2)
    bits = room.bit_length() - 1
    seq = np.random.SeedSequence(config.mask_seed, spawn_key=(query_id, step))
    draw = np.random.default_rng(seq).integers(-(2**bits), 2**bits, cols, endpoint=True)
    return draw.astype(np.float64)


class TestProjectionsPerSession:
    """Every filter query names the fixed RP or GF set, so Bob, who keeps
    the pieces of the last set, projects once per session; under HF each
    query names its own set and is projected anew."""

    @pytest.mark.parametrize(
        "method",
        [SelectionMethod.RP, SelectionMethod.GF, SelectionMethod.HF],
        ids=lambda m: m.name,
    )
    def test_projections_per_session(self, small_corpus, method, monkeypatch):
        query_ids, target_ids = split_queries(small_corpus, k=4, seed=5)
        queries = small_corpus.vectors.take(query_ids)
        targets = small_corpus.vectors.take(target_ids)
        config = config_for(method)
        projected = []

        def counting(packed, index_set):
            projected.append(index_set.tolist())
            return project(packed, index_set)

        monkeypatch.setattr(session_module, "project", counting)
        bob = RecordingBob(targets, config.n)
        report = run_against(bob, queries, config)
        assert not report.aborted and report.decided == len(queries)
        sets = [m.indexes.tolist() for m in bob.received if isinstance(m, FilterQuery)]
        assert len(sets) == len(queries) >= 3
        if method is SelectionMethod.HF:
            # consecutive queries name different sets, none reused
            assert all(a != b for a, b in zip(sets, sets[1:]))
            assert projected == sets
            return
        if method is SelectionMethod.RP:
            fixed = select_rp(config.seed + 2, config.n, config.f)
        else:
            whole = queries.document_frequency + targets.document_frequency
            fixed = top_f(whole, config.f)
        assert sets == [fixed.tolist()] * len(queries)
        assert projected == [fixed.tolist()]


class TestMaskDerivation:
    """Alice's masked vectors are z = u + A r, with r drawn from a generator
    keyed by her mask seed, which no message carries, with the query id and
    the step."""

    @pytest.mark.parametrize(
        "method", [SelectionMethod.BASE, SelectionMethod.RP], ids=lambda m: m.name
    )
    def test_sent_vectors_are_u_plus_a_r(self, small_corpus, method):
        query_ids, target_ids = split_queries(small_corpus, k=4, seed=5)
        queries = small_corpus.vectors.take(query_ids)
        # each query's own document among the targets, so every query
        # reaches the full round
        targets = small_corpus.vectors.take(np.concatenate((query_ids, target_ids[:20])))
        config = dataclasses.replace(config_for(method), mask_seed=2**70 + 3)
        bob = RecordingBob(targets, config.n)
        report = run_against(bob, queries, config)
        assert not report.aborted and report.decided == len(queries)
        matrix = SharedRandomMatrix(config.seed, config.n)
        a = matrix.rows_for(np.arange(matrix.rows))
        full = [m for m in bob.received if isinstance(m, FullQuery)]
        assert [m.query_id for m in full] == list(range(len(queries)))
        for msg in full:
            r = expected_mask(config, queries, msg.query_id, 2, matrix.cols)
            u = queries[msg.query_id].dense()[0]
            np.testing.assert_array_equal(msg.z, u + a @ r)
        filters = [m for m in bob.received if isinstance(m, FilterQuery)]
        if method is SelectionMethod.BASE:
            assert filters == []
            return
        assert [m.query_id for m in filters] == list(range(len(queries)))
        fs_matrix = SharedRandomMatrix(config.seed + 1, config.f)
        a_fs = fs_matrix.rows_for(np.arange(fs_matrix.rows))
        index_set = select_rp(config.seed + 2, config.n, config.f)
        for msg in filters:
            np.testing.assert_array_equal(msg.indexes, index_set)
            r = expected_mask(config, queries, msg.query_id, 1, fs_matrix.cols)
            u_fs = queries[msg.query_id].dense()[0][index_set]
            np.testing.assert_array_equal(msg.z, u_fs + a_fs @ r)

    @pytest.mark.parametrize("method", list(SelectionMethod), ids=lambda m: m.name)
    def test_full_vectors_have_the_bits_of_u_plus_a_r(self, small_corpus, method):
        """Every FullQuery z is u + A r to the bit, with A r from ``matvec``
        alone: scattering the packed queries into A R, ``masking.BATCH`` of
        20 queries at a time, gives each query the bits of its own dense
        sum.  CI runs this with one BLAS thread too."""
        query_ids, target_ids = split_queries(small_corpus, k=20, seed=5)
        queries = small_corpus.vectors.take(query_ids)
        targets = small_corpus.vectors.take(np.concatenate((query_ids, target_ids[:10])))
        config = dataclasses.replace(config_for(method), mask_seed=8)
        bob = RecordingBob(targets, config.n)
        report = run_against(bob, queries, config)
        assert not report.aborted and report.decided == len(queries)
        matrix = SharedRandomMatrix(config.seed, config.n)
        full = [m for m in bob.received if isinstance(m, FullQuery)]
        assert [m.query_id for m in full] == list(range(len(queries)))
        for msg in full:
            q = msg.query_id
            r = expected_mask(config, queries, q, 2, matrix.cols)
            expected = queries[q].dense()[0] + matrix.matvec(r)
            assert msg.z.tobytes() == expected.tobytes()


class AckOnly:
    """A transport that drops what it is sent and answers with one frame."""

    def __init__(self, frame):
        self.frame = frame

    def send_frame(self, parts):
        pass

    def recv_frame(self):
        return self.frame

    def close(self):
        pass


class TestAliceMemory:
    def test_handshake_grows_by_what_one_more_query_holds(self):
        """Alice's traced peak, over her construction and handshake against
        m targets, grows with each added query by no more than that query
        holds, plus slack.  Per query she holds
        - its masked vector z, n int32, as the wire takes it: 4n B;
        - its column of R, ceil(n / 2) float64: 4n B;
        - its column of t R, m float64: 8m B;
        - its report row, m float64 cosines and m bool verdicts: 9m B;
        so 8n + 17m B: she masks ``masking.BATCH`` queries at a time and
        holds no float64 z of every query.  Scattering a query's entries
        into A R makes temporaries of its entries, an owner index and the
        gathered values among them: 64 B per entry is slack for them.  Both
        sessions hold at least ``masking.BATCH`` queries, so ``matvec``'s
        (2, BATCH, N) buffer pair has its full size in both; 256 KiB once
        covers numpy's own buffers, such as a ufunc's 64 KiB casting buffer.
        A dense row per query, 8n B held from construction on, adds 1 MB
        over 64 queries at n = 2000: more than the slack, 64 * 64 nnz B +
        256 KiB (456 KiB), can take."""
        n, m, nnz = 2000, 300, 50
        small, large = masking.BATCH, masking.BATCH + 64
        rng = np.random.default_rng(38)
        queries = pack([random_document(rng, n, nnz) for _ in range(large)], n)
        config = SessionConfig(n=n, epsilon=0.8, method=SelectionMethod.HF, f=20)
        ack = frame_of(HelloAck(df=np.ones(n, np.int64), norm2=np.ones(m)))

        def peak(k):
            docs = queries.take(np.arange(k))
            docs.document_frequency  # held with the documents, not by Alice
            tracemalloc.start()
            try:
                AliceSession(config, docs, AckOnly(ack)).handshake()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        bound = (large - small) * (8 * n + 17 * m + 64 * nnz) + (256 << 10)
        assert peak(large) - peak(small) <= bound


class TestExactLimits:
    """Counts past the limits of exact arithmetic (``decide``) are refused
    by name, with the limit in the message: by Bob at the Hello, by Alice
    when her session is made, and by the oracle.  Small crafted counts
    reach each limit."""

    def responder(self, counts, n):
        return BobResponder(pack([build_document_vector(counts, n)], n), dims=n)

    def test_a_squared_norm_of_2_32(self):
        """A single count of 65,536 gives ||c||^2 = 2^32; 65,535 passes
        under BASE (a filter round refuses it for its sum)."""
        n = 8
        for method in SelectionMethod:
            config = config_for(method, n=n, f=2)
            bob = self.responder({3: 65_536}, n)
            with pytest.raises(RangeError, match=r"target documents .*\|\|c\|\|\^2 >= 2\*\*32"):
                bob.handle(config.hello())
            assert bob.config is None
            if not method.uses_filter:
                ack = self.responder({3: 65_535}, n).handle(config.hello())
                assert ack.norm2.tolist() == [65_535.0**2]
            with pytest.raises(RangeError, match=r"query documents .*\|\|c\|\|\^2 >= 2\*\*32"):
                AliceSession(config, pack([build_document_vector({1: 65_536}, n)], n), None)
        too_big = pack([build_document_vector({0: 50_000, 1: 50_000}, n)], n)
        with pytest.raises(RangeError, match=r"2\*\*32"):
            oracle_detect(too_big, pack([build_document_vector({0: 1}, n)], n), 0.5)
        with pytest.raises(RangeError, match=r"2\*\*32"):
            oracle_detect(pack([build_document_vector({0: 1}, n)], n), too_big, 0.5)

    def test_a_filter_round_target_summing_to_2_15(self):
        """A filtering method sends t as i2, so its targets' counts must sum
        below 2^15; BASE, whose t widens to i4, takes them."""
        n = 8
        counts = {0: 2**14, 5: 2**14}
        for method in SelectionMethod:
            config = config_for(method, n=n, f=2)
            if method.uses_filter:
                with pytest.raises(RangeError, match="sum to more than 32767"):
                    self.responder(counts, n).handle(config.hello())
                self.responder({0: 2**14, 5: 2**14 - 1}, n).handle(config.hello())
            else:
                self.responder(counts, n).handle(config.hello())

    def test_a_target_summing_past_2_22(self):
        """Under BASE every |s| and |t . r| stays below 2^53 while a
        target's counts sum to at most 2^22: 8,193 counts of 512 sum past
        it with ||c||^2 below 2^32."""
        n = 8_200
        counts = {i: 512 for i in range(8_193)}
        assert sum(counts.values()) > 2**22 and 8_193 * 512**2 < 2**32
        with pytest.raises(RangeError, match="sum to more than 4194304"):
            self.responder(counts, n).handle(SessionConfig(n=n, epsilon=0.5).hello())
        fewer = {i: 512 for i in range(8_192)}
        self.responder(fewer, n).handle(SessionConfig(n=n, epsilon=0.5).hello())

    def test_a_weight_that_is_not_an_integer(self):
        n = 6
        half = PackedDocs(n, np.array([0, 1]), np.array([2]), np.array([0.5]))
        whole = pack([build_document_vector({2: 3}, n)], n)
        with pytest.raises(RangeError, match="target documents hold a weight that is not an integer"):
            BobResponder(half, dims=n).handle(SessionConfig(n=n, epsilon=0.5).hello())
        with pytest.raises(RangeError, match="query documents hold a weight that is not an integer"):
            AliceSession(SessionConfig(n=n, epsilon=0.5), half, None)
        with pytest.raises(RangeError, match="not an integer"):
            oracle_detect(whole, half, 0.5)
        # integral floats are counts
        floats = PackedDocs(n, np.array([0, 1]), np.array([2]), np.array([3.0]))
        assert oracle_detect(whole, floats, 1.0).similar.tolist() == [[True]]

    def test_the_largest_counts_stay_exact(self):
        """At the limits every product recovers exactly, and each method
        decides as the oracle does at tolerance 1, where only a cosine of
        exactly 1 counts, and just below it: counts of 65,535 under BASE,
        targets summing to 2^15 - 1 under the filtering methods."""
        n = 40
        near = [{0: 65_535, 3: 1}, {0: 65_535, 3: 2}]
        cases = {
            False: (near, near + [{0: 65_535}]),
            True: ([{3: 2**14, 7: 2**14 - 1}], [{3: 2**14, 7: 2**14 - 1}, {3: 2**14 - 1, 7: 2**14}]),
        }
        for filtering, (query_counts, target_counts) in cases.items():
            queries = pack([build_document_vector(c, n) for c in query_counts], n)
            targets = pack([build_document_vector(c, n) for c in target_counts], n)
            # the near pairs' cosines lie within 2e-9 of 1
            for epsilon in (1.0, 1 - 1e-10):
                oracle = oracle_detect(queries, targets, epsilon)
                assert oracle.similar.any() and not oracle.similar.all()
                for method in SelectionMethod:
                    if method.uses_filter != filtering:
                        continue
                    config = config_for(method, n=n, f=4, epsilon=epsilon)
                    report = run_local_detection(queries, config, targets)
                    assert not report.aborted
                    assert missed_and_extra(report.similar, oracle.similar) == ([], []), method


class TestFilterPiecesExact:
    def test_filter_pieces_equal_an_int64_reference(self):
        """Bob's filter pieces on a KOS-wide corpus with counts up to a
        filter round's limit equal an int64 reference exactly, whatever
        order BLAS and numpy sum them in: t = P A_fs, C-ordered int16, and
        the projected squared norms, uint32."""
        rng = np.random.default_rng(17)
        n, f, m = 6906, 69, 300
        docs = []
        for _ in range(m):
            terms = rng.choice(n, int(rng.integers(1, 200)), replace=False)
            counts = rng.integers(1, 2**15 // terms.size, terms.size)
            docs.append(build_document_vector(dict(zip(terms.tolist(), counts.tolist())), n))
        config = SessionConfig(n=n, epsilon=0.5, method=SelectionMethod.HF, f=f, seed=4)
        responder = BobResponder(pack(docs, n), dims=n)
        responder.handle(config.hello())
        a_fs = SharedRandomMatrix(config.seed + 1, f).rows_for(np.arange(f)).astype(np.int64)
        dense = pack(docs, n).dense().astype(np.int64)
        for query_id in range(3):
            indexes = np.sort(rng.choice(n, f, replace=False))
            z = rng.integers(-(2**30), 2**30, f)
            reply = responder.handle(FilterQuery(query_id, indexes, z.astype(np.float64)))
            p = dense[:, indexes]
            assert reply.t.dtype == np.int16 and reply.t.flags.c_contiguous
            np.testing.assert_array_equal(reply.t, p @ a_fs)
            assert reply.norm_v2.dtype == np.uint32
            np.testing.assert_array_equal(reply.norm_v2, (p * p).sum(1))
            np.testing.assert_array_equal(reply.s, p @ z)
