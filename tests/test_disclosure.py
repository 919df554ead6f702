"""What the messages disclose: pins of leaks in the protocol as built.

Each test plays one semi-honest party and recovers the other party's data
from the frames it received, using only public code and the values on the
wire.  A change that closes a leak turns its test around.
"""

import threading

import numpy as np

from ssdd.masking import SharedRandomMatrix
from ssdd.protocol.messages import Bye, FilterQuery, FullQuery, Hello, decode_message
from ssdd.protocol.session import AliceSession, BobResponder, SessionConfig
from ssdd.protocol.transport import make_local_pair
from ssdd.selection import SelectionMethod

from conftest import pack, random_document


class Eavesdropper:
    """A transport end that keeps every frame it receives."""

    def __init__(self, transport):
        self.transport = transport
        self.frames = []

    def recv_frame(self) -> bytes:
        frame = self.transport.recv_frame()
        self.frames.append(frame)
        return frame

    def send_frame(self, parts: list) -> None:
        self.transport.send_frame(parts)

    def close(self) -> None:
        self.transport.close()


def bob_view(queries, targets, config):
    """Run a session against an honest Bob; return the messages he received."""
    alice_end, bob_end = make_local_pair(timeout=5.0)
    bob_end = Eavesdropper(bob_end)
    bob = BobResponder(pack(targets, config.n), dims=config.n)
    worker = threading.Thread(target=bob.serve, args=(bob_end,), daemon=True)
    worker.start()
    try:
        report = AliceSession(config, pack(queries, config.n), alice_end).run()
    finally:
        alice_end.close()
        worker.join(timeout=5.0)
    assert not worker.is_alive()
    assert not report.aborted
    return [decode_message(frame) for frame in bob_end.frames]


class TestFullQueryMask:
    def test_bob_regenerates_r_and_reads_every_query(self):
        """The full-round mask r is seeded from the seed, seed + 1, query_id
        and the step, and all of them cross the wire: Bob regenerates r and
        reads u = z - A r to rounding error."""
        rng = np.random.default_rng(41)
        n = 300
        queries = [random_document(rng, n, int(rng.integers(5, 40))) for _ in range(3)]
        targets = [random_document(rng, n, int(rng.integers(5, 40))) for _ in range(4)]
        config = SessionConfig(n=n, epsilon=0.8, seed=77)
        received = bob_view(queries, targets, config)

        hello = received[0]
        assert isinstance(hello, Hello)
        matrix = SharedRandomMatrix(hello.seed, hello.n)
        a = matrix.rows_for(np.arange(matrix.rows))
        full = [m for m in received if isinstance(m, FullQuery)]
        assert [m.query_id for m in full] == [0, 1, 2]
        for msg in full:
            seq = np.random.SeedSequence(
                [hello.seed, hello.seed + 1, msg.query_id, 2]
            )
            r = np.random.default_rng(seq).uniform(-1.0, 1.0, matrix.cols)
            u = msg.z - a @ r
            query = queries[msg.query_id]
            np.testing.assert_allclose(u, query.dense()[0], rtol=0, atol=1e-12)
            np.testing.assert_array_equal(np.flatnonzero(np.abs(u) > 1e-9), query.indices)


class TestDocumentFrequencies:
    def test_alice_counts_never_reach_bob(self):
        """Under GF Alice adds her document counts to the ones Bob's HelloAck
        carries, on her side: Bob receives the Hello, then per query the
        index set chosen from the sum, masked vectors and survivor ids."""
        rng = np.random.default_rng(43)
        n, f = 300, 12
        queries = [random_document(rng, n, int(rng.integers(5, 40))) for _ in range(3)]
        targets = queries + [random_document(rng, n, 20) for _ in range(4)]
        config = SessionConfig(n=n, epsilon=0.8, method=SelectionMethod.GF, f=f)
        received = bob_view(queries, targets, config)
        assert [type(m) for m in received] == [Hello] + [FilterQuery, FullQuery] * 3 + [Bye]
        for msg in received[1:-1:2]:
            assert msg.indexes.size == msg.z.size == f
