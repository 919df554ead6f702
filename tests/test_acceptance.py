"""Whole-system acceptance checks.

Each test covers one contract point end to end and reports a single verdict
line (PASS, FAIL, or SKIP) in the terminal summary, with hard assertions
behind it.  Tolerances and time budgets are fixed here on purpose; loosening
them is a behavior change, not a test fix.
"""

import functools
import struct
import threading
import time

import numpy as np
import pytest

from ssdd.corpus import parse_bag_of_words, split_queries
from ssdd.decide import evaluate_filter, recover
from ssdd.errors import FrameError, ProtocolError
from ssdd.masking import (
    SharedRandomMatrix,
    mask,
)
from ssdd.oracle import oracle_detect
from ssdd.protocol.messages import decode_message
from ssdd.protocol.session import (
    AliceSession,
    BobResponder,
    SessionConfig,
    run_local_detection,
)
from ssdd.protocol.transport import TcpServer, connect_tcp, make_local_pair
from ssdd.selection import SelectionMethod
from ssdd.vectors import PackedDocs

from conftest import (
    build_document_vector,
    data_file,
    dot,
    frame_of,
    missed_and_extra,
    pack,
    random_document,
    random_unit_dense,
    record_acceptance,
    respond,
    synth_corpus,
)
from test_messages import random_message

TOLERANCES = (0.75, 0.80, 0.85, 0.90, 0.95)


def criterion(name):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except pytest.skip.Exception as exc:
                record_acceptance(f"{name}: SKIP ({exc})")
                raise
            except BaseException:
                record_acceptance(f"{name}: FAIL")
                raise
            suffix = f" ({detail})" if detail else ""
            record_acceptance(f"{name}: PASS{suffix}")

        return inner

    return wrap


@pytest.fixture(scope="module")
def eval_corpus():
    """200 documents over 6906 dims: the real corpus when present, else a
    deterministic synthetic one with the same shape."""
    path = data_file("docword.kos.txt")
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            corpus = parse_bag_of_words(fh)
        return corpus.subset(range(200))
    return synth_corpus(n_docs=200, dims=6906, seed=101, mean_terms=90)


@criterion("masked products are exact")
def test_01_masked_products_are_exact():
    """On counts with integer masks as wide as a session draws them, every
    recovered product is the exact integer u . v."""
    started = time.perf_counter()
    rng = np.random.default_rng(401)
    worst = 0.0
    for n, trials in ((3, 400), (100, 400), (5000, 200)):
        matrix = SharedRandomMatrix(900 + n, n)
        bits = ((2**31 - 1 - 12) // matrix.cols).bit_length() - 1
        for _ in range(trials):
            nnz_cap = min(n, 40)
            u = random_document(rng, n, int(rng.integers(1, nnz_cap + 1)))
            v = random_document(rng, n, int(rng.integers(1, nnz_cap + 1)))
            r = rng.integers(-(2**bits), 2**bits, matrix.cols, endpoint=True).astype(np.float64)
            z = mask(u, matrix, r[:, None])[:, 0]
            got = recover(*respond(z, v, matrix), r)
            want = dot(u, v)
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - started
    assert worst == 0.0, f"worst error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    return f"1000 trials, every product exact, {elapsed:.1f}s"


@criterion("filter bound never dismisses a similar pair")
def test_02_filter_bound_never_dismisses():
    started = time.perf_counter()
    rng = np.random.default_rng(402)
    n = 60
    worst_slack = np.inf
    for _ in range(10_000):
        u = rng.integers(0, 20, n) * (rng.random(n) < 0.4)
        v = rng.integers(0, 20, n) * (rng.random(n) < 0.4)
        f = int(rng.integers(1, n + 1))
        idx = np.sort(rng.choice(n, f, replace=False))
        u_fs, v_fs = u[idx], v[idx]
        bound = evaluate_filter(u_fs @ v_fs, u_fs @ u_fs, v_fs @ v_fs, u @ u, v @ v)
        cosine = (u @ v) / np.sqrt(max(float(u @ u) * float(v @ v), 1.0))
        worst_slack = min(worst_slack, bound - cosine)
    elapsed = time.perf_counter() - started
    # the cosine itself is rounded, by at most an ulp of 1
    assert worst_slack >= -(2.0**-50), f"bound fell {-worst_slack:.3e} below a cosine"
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    return f"10000 pairs, minimum slack {worst_slack:+.1e}, {elapsed:.1f}s"


@criterion("every method reproduces the plaintext decisions")
def test_03_methods_match_plaintext_decisions(eval_corpus):
    started = time.perf_counter()
    query_ids, target_ids = split_queries(eval_corpus, k=10, seed=17)
    queries = eval_corpus.vectors.take(query_ids)
    targets = eval_corpus.vectors.take(target_ids)
    truth = oracle_detect(queries, targets, 0.0)
    margin = min(
        abs(c - e) for c in truth.cosines.values() for e in TOLERANCES
    )
    assert margin > 1e-9, "a pair sits on a tolerance boundary"
    runs = 0
    for method in SelectionMethod:
        for epsilon in TOLERANCES:
            config = SessionConfig(
                n=eval_corpus.dims,
                epsilon=epsilon,
                method=method,
                f=70 if method.uses_filter else 0,
                seed=3,
            )
            report = run_local_detection(queries, config, targets)
            assert not report.aborted
            expected = oracle_detect(queries, targets, epsilon).similar
            missed, extra = missed_and_extra(report.similar, expected)
            assert not missed and not extra, (
                f"{method.name} at {epsilon}: missing={missed} extra={extra}"
            )
            m = report.metrics
            assert m.pairs_filtered + m.full_products == m.pairs_total
            if method is SelectionMethod.BASE:
                assert m.pairs_filtered == 0
            runs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    return (
        f"{runs} runs over {len(queries)}x{len(targets)} pairs, "
        f"worst boundary margin {margin:.1e}, {elapsed:.1f}s"
    )


@criterion("exchanged document frequencies equal the union counts")
def test_04_df_exchange_matches_union(small_corpus):
    """Alice's GF handshake adds her own counts to the ones Bob's HelloAck
    carries; the sum is the document frequency of the whole corpus."""
    started = time.perf_counter()
    rng = np.random.default_rng(404)
    expected = small_corpus.vectors.document_frequency
    config = SessionConfig(
        n=small_corpus.dims, epsilon=0.8, method=SelectionMethod.GF, f=10
    )
    for _ in range(100):
        ids = rng.permutation(len(small_corpus))
        cut = int(rng.integers(1, len(small_corpus)))
        half_a = small_corpus.vectors.take(ids[:cut])
        half_b = small_corpus.vectors.take(ids[cut:])
        a_end, b_end = make_local_pair(timeout=5.0)
        bob = BobResponder(half_b, dims=small_corpus.dims)
        worker = threading.Thread(target=bob.serve, args=(b_end,))
        worker.start()
        alice = AliceSession(config, half_a, a_end)
        alice.handshake()
        a_end.close()
        worker.join(timeout=5.0)
        assert not worker.is_alive()
        assert np.array_equal(alice._whole, expected)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    return f"100 random splits, exact, {elapsed:.1f}s"


@criterion("cosine equals one minus half the squared distance")
def test_05_cosine_distance_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(405)
    n = 80
    worst = 0.0
    for _ in range(1000):
        u = random_unit_dense(rng, n)
        v = random_unit_dense(rng, n)
        cos = float(u @ v)
        d2 = float(np.sum((u - v) ** 2))
        worst = max(worst, abs(cos - (1.0 - d2 / 2.0)))
    elapsed = time.perf_counter() - started
    assert worst <= 1e-9, f"identity off by {worst:.3e}"
    assert elapsed < 2.0, f"took {elapsed:.1f}s"
    return f"1000 pairs, worst gap {worst:.1e}, {elapsed:.1f}s"


@criterion("corpus-aware selection filters better than random")
def test_06_selection_effectiveness_trend(eval_corpus):
    query_ids, target_ids = split_queries(eval_corpus, k=10, seed=17)
    queries = eval_corpus.vectors.take(query_ids)
    targets = eval_corpus.vectors.take(target_ids)
    f = max(1, round(eval_corpus.dims * 0.01))
    outcomes = {}
    for method in SelectionMethod:
        config = SessionConfig(
            n=eval_corpus.dims,
            epsilon=0.80,
            method=method,
            f=f if method.uses_filter else 0,
            seed=3,
        )
        report = run_local_detection(queries, config, targets)
        assert not report.aborted
        outcomes[method] = report.metrics
        record_acceptance(
            f"    {method.name.lower():4s} f={config.f:3d} "
            f"filtered={report.metrics.pairs_filtered:4d}/"
            f"{report.metrics.pairs_total} "
            f"full={report.metrics.full_products:4d} "
            f"mults={report.metrics.scalar_mult_count}"
        )
    hf = outcomes[SelectionMethod.HF]
    rp = outcomes[SelectionMethod.RP]
    assert hf.filter_ratio >= rp.filter_ratio, (
        f"HF ratio {hf.filter_ratio:.3f} below RP {rp.filter_ratio:.3f}"
    )
    assert hf.full_products <= 0.5 * hf.pairs_total, (
        f"HF still ran {hf.full_products} of {hf.pairs_total} full products"
    )
    return (
        f"f={f}, HF ratio {hf.filter_ratio:.3f} vs RP {rp.filter_ratio:.3f}"
    )


@criterion("a filtered workload costs a small fraction of full scans")
def test_07_filtered_workload_cost_scaling():
    started = time.perf_counter()
    rng = np.random.default_rng(407)
    n, f = 2000, 70
    shared = list(range(800, 810))
    queries = []
    for _ in range(5):
        support = set(
            int(i) for i in rng.choice(800, size=60, replace=False)
        ) | set(shared)
        queries.append(build_document_vector({i: 1 for i in support}, n))
        assert queries[-1].nnz[0] == 70
    bob_docs = []
    for _ in range(40):
        support = set(
            1000 + int(i) for i in rng.choice(1000, size=90, replace=False)
        ) | set(shared)
        bob_docs.append(build_document_vector({i: 1 for i in support}, n))
    fs_config = SessionConfig(
        n=n, epsilon=0.8, method=SelectionMethod.LF, f=f, seed=71
    )
    base_config = SessionConfig(n=n, epsilon=0.8, seed=71)
    queries, bob_docs = pack(queries, n), pack(bob_docs, n)
    fs_report = run_local_detection(queries, fs_config, bob_docs)
    base_report = run_local_detection(queries, base_config, bob_docs)
    assert not fs_report.aborted and not base_report.aborted
    assert fs_report.metrics.pairs_filtered == fs_report.metrics.pairs_total, (
        "workload must be fully filtered for the cost comparison to hold"
    )
    assert base_report.metrics.full_products == base_report.metrics.pairs_total
    fs_cost = fs_report.metrics.scalar_mult_count
    base_cost = base_report.metrics.scalar_mult_count
    bound = 1.1 * (f / n) * base_cost
    assert fs_cost > 0
    assert fs_cost <= bound, f"{fs_cost} multiplications exceed {bound:.0f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    return (
        f"{fs_cost} vs {base_cost} multiplications "
        f"(bound {bound:.0f}), {elapsed:.1f}s"
    )


@criterion("local and tcp transports give identical runs")
def test_08_transports_agree():
    started = time.perf_counter()
    corpus = synth_corpus(n_docs=100, dims=800, seed=203, mean_terms=50)
    queries = corpus.vectors.take(np.arange(50))
    targets = corpus.vectors.take(np.arange(50, len(corpus)))
    config = SessionConfig(
        n=corpus.dims,
        epsilon=0.8,
        method=SelectionMethod.HF,
        f=40,
        seed=81,
    )
    local = run_local_detection(queries, config, targets)
    assert not local.aborted
    server = TcpServer(lambda: BobResponder(targets, dims=corpus.dims))
    with server:
        transport = connect_tcp(server.host, server.port)
        try:
            remote = AliceSession(config, queries, transport).run()
        finally:
            transport.close()
    assert not remote.aborted
    assert remote.decisions == local.decisions
    for field in ("pairs_total", "pairs_filtered", "full_products",
                  "bytes_sent_alice", "bytes_sent_bob"):
        assert getattr(remote.metrics, field) == getattr(local.metrics, field), field
    assert server.responders[0].scalar_mult_count == local.metrics.scalar_mult_count
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    return (
        f"{local.metrics.pairs_total} pairs, "
        f"{len(local.decisions)} identical decisions, {elapsed:.1f}s"
    )


@criterion("wire frames survive round trips and reject corruption")
def test_09_wire_round_trip_and_rejection():
    started = time.perf_counter()
    rng = np.random.default_rng(409)
    for i in range(1000):
        msg = random_message(rng)
        frame = frame_of(msg)
        assert frame_of(decode_message(frame)) == frame
        if i % 5 == 0:
            with pytest.raises(FrameError):
                decode_message(frame[:-1])
        if i % 5 == 1:
            bad = struct.pack("<I", len(frame) - 4 + 1) + frame[4:]
            with pytest.raises(FrameError):
                decode_message(bad)
        if i % 5 == 2:
            bad = frame[:4] + bytes([0x77]) + frame[5:]
            with pytest.raises(ProtocolError):
                decode_message(bad)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0, f"took {elapsed:.1f}s"
    return f"1000 round trips plus 600 corruptions, {elapsed:.1f}s"


@criterion("real corpus headers parse to the published shapes")
def test_10_real_dataset_shapes():
    expectations = {
        "docword.kos.txt": dict(documents=3430, dims=6906, total_tokens=467714),
        "docword.nips.txt": dict(documents=1500, dims=12419),
    }
    found = {name: data_file(name) for name in expectations}
    present = {n: p for n, p in found.items() if p is not None}
    if not present:
        pytest.skip("no real corpus files available")
    checked = []
    for name, path in present.items():
        with open(path, "r", encoding="utf-8") as fh:
            corpus = parse_bag_of_words(fh)
        stats = dict(
            documents=len(corpus),
            dims=corpus.dims,
            total_tokens=int(corpus.vectors.weights.sum()),
        )
        for field, value in expectations[name].items():
            assert stats[field] == value, (
                f"{name}: {field} is {stats[field]}, expected {value}"
            )
        checked.append(name)
    return f"checked {', '.join(sorted(checked))}"


@criterion("every method's verdicts equal the oracle's exactly")
def test_11_exact_verdicts_at_every_tolerance(small_corpus):
    """Every method at tolerances 0, 1e-300, 0.5, 0.8 and 1 decides every
    pair as the plaintext oracle does, and its filter round dismisses no
    pair the oracle calls similar.  The targets hold each query itself, a
    multiple of one (cosine exactly 1), an empty document and pairs of
    product exactly 0; a second, n = 4 corpus holds a nonempty target whose
    t_j cancels to 0 under seeds 0 and 1."""
    started = time.perf_counter()
    dims = small_corpus.dims
    queries = small_corpus.vectors.take(np.arange(8))
    first = queries[0]
    double = PackedDocs(dims, first.indptr, first.indices, 2 * first.weights)
    unused = np.setdiff1d(np.arange(dims), queries.indices)[:5]
    disjoint = build_document_vector({int(i): 2 for i in unused}, dims)
    targets = pack(
        [queries, small_corpus.vectors.take(np.arange(30, 50)), double, disjoint,
         build_document_vector({}, dims)],
        dims,
    )
    products = targets.dot(queries.dense())
    nonempty = (queries.nnz > 0)[:, None] & (targets.nnz > 0)
    assert ((products == 0) & nonempty).any(), "no pair of product exactly 0"
    cancelling = pack([build_document_vector({0: 1, 1: 1}, 4)], 4)
    orthogonal = pack([build_document_vector({2: 1}, 4), build_document_vector({0: 3, 1: 3}, 4)], 4)
    cases = [(queries, targets, 3, 25)] + [(orthogonal, cancelling, seed, 2) for seed in (0, 1)]
    runs = 0
    for query_docs, target_docs, seed, f in cases:
        for epsilon in (0.0, 1e-300, 0.5, 0.8, 1.0):
            oracle = oracle_detect(query_docs, target_docs, epsilon)
            for method in SelectionMethod:
                config = SessionConfig(
                    n=query_docs.dims, epsilon=epsilon, method=method,
                    f=f if method.uses_filter else 0, seed=seed,
                )
                report = run_local_detection(query_docs, config, target_docs)
                assert not report.aborted
                where = f"{method.name} at {epsilon}, seed {seed}"
                assert missed_and_extra(report.similar, oracle.similar) == ([], []), where
                assert not (oracle.similar & np.isnan(report.cosines)).any(), where
                runs += 1
    assert oracle_detect(queries, targets, 1.0).similar[0, [0, 28]].all()
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    return f"{runs} runs, every verdict the oracle's, {elapsed:.1f}s"
