"""The filter round over float32 pieces: the allowance Alice adds keeps the
bound an upper bound, so the rounding dismisses no pair that Bob's float64
pieces would keep."""

import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ssdd.corpus import split_queries
from ssdd.decide import _TINY32, _U32, evaluate_filter, recover, widen_filter_pieces
from ssdd.oracle import oracle_detect
from ssdd.protocol.messages import FilterReply, decode_message
from ssdd.protocol.session import (
    AliceSession,
    BobResponder,
    SessionConfig,
    _filter_matrix,
    _secret_mask,
)
from ssdd.protocol.transport import make_local_pair
from ssdd.selection import SelectionMethod

from conftest import frame_of, missed_and_extra, synth_corpus

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # declared only by the test extra
    given = None


def exact_bound(delta, norm_u2, norm_v2) -> Fraction:
    """``evaluate_filter`` of one pair in exact arithmetic."""
    return 1 - max(norm_u2 - 2 * delta + norm_v2, Fraction(0)) / 2


def check_allowance(s, t, norm_v2, r, norm_u2) -> None:
    """Bob's float64 pieces ``s``, ``t`` and ``norm_v2`` cross the wire as
    float32.  Computed exactly with Fractions, Alice's widened product is
    never below the unrounded pieces' product, her lowered norm never above
    theirs, and so her bound never below theirs; in float64 too, her bound
    is never below ``evaluate_filter`` of the unrounded float64 recovery."""
    sent = FilterReply(query_id=0, s=s, norm_v2=norm_v2, t=t)
    reply = decode_message(frame_of(sent))
    delta, norm = widen_filter_pieces(reply.s, reply.t, reply.norm_v2, r)
    u2 = Fraction(norm_u2)
    exact_r = [Fraction(x) for x in r]
    for j in range(len(s)):
        exact = Fraction(s[j]) - sum(Fraction(x) * y for x, y in zip(t[j], exact_r))
        assert Fraction(delta[j]) >= exact and Fraction(norm[j]) <= Fraction(norm_v2[j]), j
        widened = exact_bound(Fraction(delta[j]), u2, Fraction(norm[j]))
        assert widened >= exact_bound(exact, u2, Fraction(norm_v2[j])), j
    float64 = evaluate_filter(recover(s, t, r), norm_u2, norm_v2)
    assert (evaluate_filter(delta, norm_u2, norm) >= float64).all()


def random_case(rng: np.random.Generator):
    """Pieces for 1-5 documents over 1-47 mask entries, and a mask as Alice
    draws it.  Each case has a scale, from below float32's subnormals
    (which round to zero) to 2**90, and a spread of magnitudes around it,
    up to 2**100; a fifth of the entries are zero."""
    m, cols = int(rng.integers(1, 6)), int(rng.integers(1, 48))
    scale, spread = rng.uniform(-160.0, 90.0), rng.uniform(0.0, 100.0)

    def reals(shape):
        exponent = np.minimum(scale + rng.uniform(-spread, spread, shape), 100.0)
        x = rng.standard_normal(shape) * 2.0**exponent
        return np.where(rng.random(shape) < 0.2, 0.0, x)

    return (
        reals(m),
        reals((m, cols)),
        np.abs(reals(m)),
        rng.uniform(-1.0, 1.0, cols),
        float(np.abs(reals(()))),
    )


class TestAllowance:
    def test_random_small_cases(self):
        rng = np.random.default_rng(83)
        for _ in range(300):
            check_allowance(*random_case(rng))

    def test_pieces_of_one_document(self):
        """A unit document's pieces, s and norm_v2 consistent with t, at
        the scale a session sends them; a document of no projection."""
        rng = np.random.default_rng(84)
        for _ in range(100):
            cols = int(rng.integers(1, 48))
            p = rng.random((3, 2 * cols)) * (rng.random((3, 2 * cols)) < 0.3)
            p[2] = 0.0
            p /= np.maximum(np.linalg.norm(p, axis=1, keepdims=True), 1.0)
            a_fs = rng.choice([-1.0, 1.0], (2 * cols, cols))
            u_fs = rng.random(2 * cols) / np.sqrt(2 * cols)
            r = rng.uniform(-1.0, 1.0, cols)
            z = u_fs + a_fs @ r
            pieces = (p @ z, p @ a_fs, np.einsum("ij,ij->i", p, p))
            check_allowance(*pieces, r, float(u_fs @ u_fs))

    if given is not None:

        @settings(max_examples=150, deadline=None)
        @given(st.data())
        def test_drawn_cases(self, data):
            """hypothesis draws the pieces, subnormal and zero entries
            included."""
            m = data.draw(st.integers(1, 4))
            cols = data.draw(st.integers(1, 40))
            real = st.floats(-1e30, 1e30, width=64)
            size = st.floats(0.0, 1e30, width=64)

            def array(element, count):
                return np.array(data.draw(st.lists(element, min_size=count, max_size=count)))

            s, t, norm_v2 = array(real, m), array(real, m * cols).reshape(m, cols), array(size, m)
            r = array(st.floats(-1.0, 1.0, width=64), cols)
            check_allowance(s, t, norm_v2, r, data.draw(size))

    def test_widening_holds_no_matrix(self):
        """At kos-hf's shape, 3,420 documents and 35 mask entries, widening
        allocates nothing of t's size: it takes |t| in place, in the reply
        it consumes, and gives the bits of the allocating formula."""
        rng = np.random.default_rng(88)
        m, cols = 3420, 35
        sent = FilterReply(
            query_id=0, s=rng.standard_normal(m), norm_v2=rng.random(m),
            t=rng.standard_normal((m, cols)),
        )
        frame = frame_of(sent)
        r = rng.uniform(-1.0, 1.0, cols)
        reply = decode_message(frame)
        tracemalloc.start()
        try:
            delta, norm = widen_filter_pieces(reply.s, reply.t, reply.norm_v2, r)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * cols * 8, peak / (m * cols * 8)
        rounded = decode_message(frame)
        err = np.abs(rounded.t) @ np.abs(r) + np.abs(rounded.s)
        expected = recover(rounded.s, rounded.t, r)
        expected += err * (_U32 / (1.0 - _U32)) + (1.0 + np.abs(r).sum()) * _TINY32
        np.testing.assert_array_equal(delta, expected)
        np.testing.assert_array_equal(norm, rounded.norm_v2 * (1.0 - 2.0 * _U32) - _TINY32)


class RecordingBob(BobResponder):
    """An honest responder that keeps each filter query and its reply as
    computed, before the wire rounds it to float32."""

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
    """One session per filtering method on a seeded corpus: every pair whose
    bound from Bob's unrounded pieces reaches the tolerance survives, and
    the verdicts equal the plaintext oracle's away from the tolerance."""
    corpus = synth_corpus(n_docs=150, dims=800, seed=86, mean_terms=50)
    query_ids, target_ids = split_queries(corpus, k=8, seed=2)
    queries = corpus.vectors.take(query_ids)
    targets = corpus.vectors.take(target_ids)
    config = SessionConfig(n=800, epsilon=0.7, method=method, f=40, seed=5)
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
    assert len(bob.filter_rounds) == len(queries)
    kept = 0
    for msg, reply in bob.filter_rounds:
        q = msg.query_id
        r = _secret_mask(config, q, 1, cols)
        u_fs = dense[q, msg.indexes]
        bound = evaluate_filter(recover(reply.s, reply.t, r), u_fs @ u_fs, reply.norm_v2)
        float64 = bound >= config.epsilon
        survived = ~np.isnan(report.cosines[q])
        assert not (float64 & ~survived).any(), q
        kept += int(float64.sum())
    assert 0 < kept < report.cosines.size

    oracle = oracle_detect(queries, targets, config.epsilon)
    cosines = np.array(list(oracle.cosines.values())).reshape(oracle.similar.shape)
    clear = np.abs(cosines - config.epsilon) > 1e-9
    assert clear.mean() > 0.99
    assert missed_and_extra(report.similar & clear, oracle.similar & clear) == ([], [])
    assert oracle.similar.any()
