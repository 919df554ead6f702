"""Wire-format round trips, frozen layouts, and corrupted-frame rejection."""

import struct
import tracemalloc

import numpy as np
import pytest

from ssdd.errors import FrameError, ProtocolError, SsddError
from ssdd.protocol.messages import (
    MSG_BYE,
    MSG_FILTER_QUERY,
    MSG_FILTER_REPLY,
    MSG_FULL_QUERY,
    MSG_FULL_REPLY,
    MSG_HELLO,
    MSG_HELLO_ACK,
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


def random_message(rng: np.random.Generator):
    kind = int(rng.integers(0, 8))
    if kind == 0:
        return Hello(
            version=1,
            n=int(rng.integers(1, 1 << 20)),
            f=int(rng.integers(0, 1 << 10)),
            method=int(rng.integers(0, 5)),
            seed=int(rng.integers(0, 1 << 63)),
        )
    if kind in (1, 2):  # without df, then with a df of 0 to 49 counts
        return HelloAck(
            bob_doc_count=int(rng.integers(0, 1 << 24)),
            df=rng.integers(0, 1000, 0 if kind == 1 else int(rng.integers(0, 50))),
        )
    if kind == 3:
        f = int(rng.integers(1, 40))
        explicit = rng.random() < 0.5
        return FilterQuery(
            query_id=int(rng.integers(0, 1000)),
            indexes=np.sort(rng.choice(1000, f, replace=False)).astype(np.int64)
            if explicit
            else np.empty(0, np.int64),
            z=rng.standard_normal(f),
        )
    if kind == 4:
        m = int(rng.integers(0, 20))
        cols = int(rng.integers(1, 30))
        return FilterReply(
            query_id=int(rng.integers(0, 1000)),
            s=rng.standard_normal(m),
            norm_v2=rng.random(m),
            t=rng.standard_normal((m, cols)),
        )
    if kind == 5:
        n = int(rng.integers(1, 60))
        k = int(rng.integers(0, 15))
        return FullQuery(
            query_id=int(rng.integers(0, 1000)),
            survivor_ids=np.sort(rng.choice(100, k, replace=False)).astype(np.int64),
            z=rng.standard_normal(n),
        )
    if kind == 6:
        k = int(rng.integers(0, 15))
        k_new = int(rng.integers(0, k + 1))
        cols = int(rng.integers(1, 40))
        return FullReply(
            query_id=int(rng.integers(0, 1000)),
            doc_ids=np.sort(rng.choice(100, k, replace=False)).astype(np.int64),
            s=rng.standard_normal(k),
            t=rng.standard_normal((k_new, cols)),
        )
    return Bye()


class TestRoundTrip:
    def test_randomized_round_trips_bit_exact(self):
        rng = np.random.default_rng(50)
        for _ in range(500):
            msg = random_message(rng)
            frame = encode_message(msg)
            again = decode_message(frame)
            assert type(again) is type(msg)
            assert encode_message(again) == frame, f"round trip changed {type(msg).__name__}"

    def test_empty_reply_round_trips(self):
        reply = FilterReply(
            query_id=3, s=np.empty(0), norm_v2=np.empty(0), t=np.empty((0, 5))
        )
        frame = encode_message(reply)
        assert encode_message(decode_message(frame)) == frame


    def test_nan_round_trips(self):
        t = np.array([[np.nan, 1.0], [2.0, np.nan]])
        filter_reply = FilterReply(
            query_id=1, s=np.array([np.nan, 0.5]), norm_v2=np.array([0.1, 0.2]), t=t
        )
        full_reply = FullReply(
            query_id=2, doc_ids=np.array([0, 3], dtype=np.int64), s=np.zeros(2), t=t
        )
        for reply in (filter_reply, full_reply):
            frame = encode_message(reply)
            again = decode_message(frame)
            assert encode_message(again) == frame
            assert np.isnan(again.t[0, 0]) and again.t[0, 1] == 1.0

    def test_empty_full_reply_round_trips(self):
        reply = FullReply(
            query_id=8, doc_ids=np.empty(0, np.int64), s=np.empty(0), t=np.empty((0, 4))
        )
        frame = encode_message(reply)
        again = decode_message(frame)
        assert encode_message(again) == frame
        assert again.doc_ids.size == 0 and again.t.size == 0

    def test_strided_and_mixed_dtype_arrays_round_trip(self):
        """Encoding copies through views: a transposed or Fortran-ordered t,
        a float32 s and 32-bit ids each arrive as the same values."""
        rng = np.random.default_rng(52)
        t = rng.standard_normal((5, 3))
        s = rng.standard_normal(3).astype(np.float32)
        for t_in in (t.T, np.asfortranarray(t.T)):
            assert not t_in.flags.c_contiguous
            reply = FilterReply(query_id=1, s=s, norm_v2=np.arange(3), t=t_in)
            again = decode_message(encode_message(reply))
            np.testing.assert_array_equal(again.t, t.T)
            np.testing.assert_array_equal(again.s, s.astype(np.float64))
            np.testing.assert_array_equal(again.norm_v2, [0.0, 1.0, 2.0])
        for ids in (np.array([4, 0, 9], np.uint32), np.array([4, 0, 9], np.int32)):
            reply = FullReply(query_id=2, doc_ids=ids, s=s, t=t[1:3, ::-1])
            again = decode_message(encode_message(reply))
            assert again.doc_ids.dtype == np.int64
            np.testing.assert_array_equal(again.doc_ids, [4, 0, 9])
            np.testing.assert_array_equal(again.s, s.astype(np.float64))
            np.testing.assert_array_equal(again.t, t[1:3, ::-1])
            query = FullQuery(query_id=3, survivor_ids=ids[::2], z=t[:, 0])
            again = decode_message(encode_message(query))
            np.testing.assert_array_equal(again.survivor_ids, [4, 9])
            np.testing.assert_array_equal(again.z, t[:, 0])

    def test_decoded_message_does_not_alias_its_frame(self):
        reply = FilterReply(
            query_id=4,
            s=np.array([0.5, -1.0]),
            norm_v2=np.array([1.0, 2.0]),
            t=np.arange(6.0).reshape(2, 3),
        )
        frame = encode_message(reply)
        again = decode_message(frame)
        frame[5:] = bytes(len(frame) - 5)
        assert encode_message(again) == encode_message(reply)

    def test_encoding_allocates_one_frame(self):
        rng = np.random.default_rng(51)
        reply = FilterReply(
            query_id=1, s=rng.random(500), norm_v2=rng.random(500), t=rng.random((500, 35))
        )
        tracemalloc.start()
        try:
            frame = encode_message(reply)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * len(frame), peak / len(frame)


class TestFrozenLayouts:
    def test_hello_layout(self):
        msg = Hello(
            version=1,
            n=6906,
            f=70,
            method=4,
            seed=2**64 - 1,
        )
        frame = encode_message(msg)
        body = struct.pack("<HIIBQ", 1, 6906, 70, 4, 2**64 - 1)
        assert frame == struct.pack("<I", 1 + len(body)) + bytes([MSG_HELLO]) + body
        assert len(body) == 19

    def test_hello_ack_layout(self):
        """Under BASE, RP and LF the document count and an empty df."""
        msg = HelloAck(bob_doc_count=190, df=np.empty(0, np.int64))
        expected = struct.pack("<I", 9) + bytes([MSG_HELLO_ACK]) + struct.pack("<II", 190, 0)
        assert encode_message(msg) == expected
        assert encode_message(decode_message(expected)) == expected

    def test_hello_ack_layout_with_df(self):
        """Under GF and HF the document count, then n and the n counts."""
        msg = HelloAck(bob_doc_count=190, df=np.array([7, 0, 2], dtype=np.int64))
        expected = (
            struct.pack("<I", 1 + 4 + 4 + 12)
            + bytes([MSG_HELLO_ACK])
            + struct.pack("<II", 190, 3)
            + struct.pack("<III", 7, 0, 2)
        )
        assert encode_message(msg) == expected
        assert encode_message(decode_message(expected)) == expected

    def test_bye_layout(self):
        assert encode_message(Bye()) == struct.pack("<I", 1) + bytes([MSG_BYE])

    def test_filter_query_layout_with_indexes(self):
        msg = FilterQuery(
            query_id=4, indexes=np.array([9, 2], dtype=np.int64), z=np.array([0.5, -2.0])
        )
        body = struct.pack("<IIII", 4, 2, 9, 2) + struct.pack("<dd", 0.5, -2.0)
        assert encode_message(msg) == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FILTER_QUERY]) + body
        )

    def test_filter_query_layout_without_indexes(self):
        msg = FilterQuery(
            query_id=7, indexes=np.empty(0, np.int64), z=np.array([1.0, 0.25, 3.0])
        )
        body = struct.pack("<II", 7, 0) + struct.pack("<ddd", 1.0, 0.25, 3.0)
        assert encode_message(msg) == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FILTER_QUERY]) + body
        )

    def test_full_query_layout(self):
        msg = FullQuery(
            query_id=3,
            survivor_ids=np.array([0, 5, 6], dtype=np.int64),
            z=np.array([1.5, -0.5]),
        )
        body = struct.pack("<IIIII", 3, 3, 0, 5, 6) + struct.pack("<dd", 1.5, -0.5)
        assert encode_message(msg) == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FULL_QUERY]) + body
        )

    def test_full_reply_layout(self):
        """Header, the survivors' doc_ids, their s, then the new survivors'
        t rows."""
        msg = FullReply(
            query_id=9,
            doc_ids=np.array([4, 11, 12], dtype=np.int64),
            s=np.array([0.75, -1.25, 2.0]),
            t=np.array([[1.0, 2.0, 3.0], [-4.0, 0.0, 0.5]]),
        )
        body = (
            struct.pack("<III", 9, 3, 2)
            + struct.pack("<III", 4, 11, 12)
            + struct.pack("<ddd", 0.75, -1.25, 2.0)
            + struct.pack("<ddd", 1.0, 2.0, 3.0)
            + struct.pack("<ddd", -4.0, 0.0, 0.5)
        )
        assert MSG_FULL_REPLY == 0x22
        frame = encode_message(msg)
        assert frame == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FULL_REPLY]) + body
        )
        assert encode_message(decode_message(frame)) == frame

    def test_full_reply_layout_without_t(self):
        """Every survivor's t already crossed: k_new is 0 and no t follows."""
        msg = FullReply(
            query_id=2,
            doc_ids=np.array([0, 7], dtype=np.int64),
            s=np.array([0.5, -0.5]),
            t=np.empty((0, 3)),
        )
        body = struct.pack("<III", 2, 2, 0) + struct.pack("<IIdd", 0, 7, 0.5, -0.5)
        frame = encode_message(msg)
        assert frame == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FULL_REPLY]) + body
        )
        again = decode_message(frame)
        assert encode_message(again) == frame and again.t.shape[0] == 0
        np.testing.assert_array_equal(again.doc_ids, [0, 7])

    def test_full_reply_entry_size(self):
        """For 4-dimensional vectors each survivor takes 4 + 8 bytes and each
        new t row ceil(4/2)*8 bytes."""
        k, k_new, cols = 3, 2, 2
        msg = FullReply(
            query_id=9,
            doc_ids=np.arange(k, dtype=np.int64),
            s=np.zeros(k),
            t=np.zeros((k_new, cols)),
        )
        frame = encode_message(msg)
        body_len = 12 + k * (4 + 8) + k_new * cols * 8
        assert len(frame) == 4 + 1 + body_len
        assert struct.unpack_from("<I", frame)[0] == 1 + body_len

    def test_filter_reply_layout(self):
        msg = FilterReply(
            query_id=1,
            s=np.array([2.5]),
            norm_v2=np.array([0.5]),
            t=np.array([[1.0, -1.0]]),
        )
        expected_body = struct.pack("<II", 1, 1) + struct.pack(
            "<dddd", 2.5, 0.5, 1.0, -1.0
        )
        assert encode_message(msg) == (
            struct.pack("<I", 1 + len(expected_body))
            + bytes([MSG_FILTER_REPLY])
            + expected_body
        )

    def test_filter_reply_layout_is_columnar(self):
        """Every document's s, then every norm_v2, then the t rows: with
        more than one document this differs from entries side by side."""
        msg = FilterReply(
            query_id=6,
            s=np.array([2.5, -0.5, 1.0]),
            norm_v2=np.array([0.5, 0.25, 4.0]),
            t=np.array([[1.0, -1.0], [3.0, 0.0], [-2.0, 8.0]]),
        )
        body = (
            struct.pack("<II", 6, 3)
            + struct.pack("<ddd", 2.5, -0.5, 1.0)
            + struct.pack("<ddd", 0.5, 0.25, 4.0)
            + struct.pack("<dddddd", 1.0, -1.0, 3.0, 0.0, -2.0, 8.0)
        )
        frame = encode_message(msg)
        assert frame == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FILTER_REPLY]) + body
        )
        assert encode_message(decode_message(frame)) == frame


class TestRejection:
    def test_truncated_frames(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            frame = encode_message(random_message(rng))
            with pytest.raises(FrameError):
                decode_message(frame[: len(frame) - 1])

    def test_declared_length_mismatch(self):
        frame = bytearray(encode_message(HelloAck(5, np.empty(0, np.int64))))
        frame[0:4] = struct.pack("<I", 99)
        with pytest.raises(FrameError):
            decode_message(bytes(frame))

    def test_unknown_tag(self):
        frame = struct.pack("<I", 1) + bytes([0x77])
        with pytest.raises(ProtocolError):
            decode_message(frame)

    def test_bye_with_body(self):
        frame = struct.pack("<I", 3) + bytes([MSG_BYE]) + b"xx"
        with pytest.raises(FrameError):
            decode_message(frame)

    def test_hello_wrong_size(self):
        frame = struct.pack("<I", 6) + bytes([MSG_HELLO]) + b"\x00" * 5
        with pytest.raises(FrameError):
            decode_message(frame)

    def test_filter_reply_non_divisible_body(self):
        body = struct.pack("<II", 1, 3) + b"\x00" * 50  # 50 % 3 != 0
        frame = struct.pack("<I", 1 + len(body)) + bytes([MSG_FILTER_REPLY]) + body
        with pytest.raises(FrameError):
            decode_message(frame)

    def test_filter_reply_bad_entry_size(self):
        body = struct.pack("<II", 1, 2) + b"\x00" * 20  # entry of 10 bytes
        frame = struct.pack("<I", 1 + len(body)) + bytes([MSG_FILTER_REPLY]) + body
        with pytest.raises(FrameError):
            decode_message(frame)

    def test_version_5_df_vector_tag_is_unknown(self):
        """Tag 0x03 carried one side's document counts; version 6 sends the
        responder's in HelloAck and has no such message."""
        body = struct.pack("<I", 3) + struct.pack("<III", 7, 0, 2)
        frame = struct.pack("<I", 1 + len(body)) + bytes([0x03]) + body
        with pytest.raises(ProtocolError, match="0x03"):
            decode_message(frame)

    def test_hello_ack_df_disagrees_with_its_count(self):
        """The count announces three entries; the body holds two."""
        body = struct.pack("<II", 190, 3) + struct.pack("<II", 7, 0)
        frame = struct.pack("<I", 1 + len(body)) + bytes([MSG_HELLO_ACK]) + body
        with pytest.raises(FrameError):
            decode_message(frame)

    def test_version_1_full_reply_tag_is_unknown(self):
        """Tag 0x21 carried a t with every survivor; version 2 has no such
        message."""
        body = struct.pack("<II", 9, 1) + struct.pack("<Idd", 4, 0.75, 1.0)
        frame = struct.pack("<I", 1 + len(body)) + bytes([0x21]) + body
        with pytest.raises(ProtocolError, match="0x21"):
            decode_message(frame)

    @pytest.mark.parametrize(
        "t_values", [0, 9], ids=["no-rows", "three-rows-of-three"]
    )
    def test_full_reply_t_rows_disagree_with_header(self, t_values):
        """The header announces two t rows; the body holds none, or nine
        values that two equal rows cannot hold."""
        body = (
            struct.pack("<III", 1, 2, 2)
            + struct.pack("<IIdd", 0, 1, 0.5, 0.25)
            + struct.pack(f"<{t_values}d", *range(t_values))
        )
        frame = struct.pack("<I", 1 + len(body)) + bytes([MSG_FULL_REPLY]) + body
        with pytest.raises(FrameError):
            decode_message(frame)

    def test_full_reply_t_width_mismatch(self):
        """A t block one value short of two rows of equal width."""
        msg = FullReply(
            query_id=1, doc_ids=np.array([0, 1]), s=np.zeros(2), t=np.ones((2, 3))
        )
        frame = bytearray(encode_message(msg)[:-8])
        frame[0:4] = struct.pack("<I", len(frame) - 4)
        with pytest.raises(FrameError):
            decode_message(bytes(frame))

    def test_empty_frame(self):
        with pytest.raises(FrameError):
            decode_message(b"")
        with pytest.raises(FrameError):
            decode_message(struct.pack("<I", 0))


class TestUnrepresentableValues:
    """Encoding refuses what the layout cannot carry, with FrameError."""

    def test_negative_survivor_id(self):
        msg = FullQuery(query_id=0, survivor_ids=np.array([3, -1]), z=np.zeros(2))
        with pytest.raises(FrameError, match="survivor_ids"):
            encode_message(msg)

    def test_df_count_past_u32(self):
        with pytest.raises(FrameError, match="df"):
            encode_message(HelloAck(bob_doc_count=2, df=np.array([1, 2**32 + 7])))

    def test_index_past_u32_and_non_integer_indexes(self):
        for indexes in (np.array([2**32]), np.array([1.0, 2.0])):
            msg = FilterQuery(query_id=0, indexes=indexes, z=np.zeros(2))
            with pytest.raises(FrameError, match="indexes"):
                encode_message(msg)

    def test_negative_reply_doc_id(self):
        msg = FullReply(
            query_id=0, doc_ids=np.array([-1]), s=np.zeros(1), t=np.zeros((1, 2))
        )
        with pytest.raises(FrameError, match="doc_ids"):
            encode_message(msg)

    @pytest.mark.parametrize(
        "msg",
        [
            FilterQuery(query_id=-1, indexes=np.empty(0, np.int64), z=np.zeros(2)),
            FullReply(
                query_id=2**32, doc_ids=np.empty(0, np.int64), s=np.empty(0),
                t=np.empty((0, 1)),
            ),
            HelloAck(bob_doc_count=-3, df=np.empty(0, np.int64)),
            Hello(1, 2**32, 1, 0, 0),
            Hello(1, 4, 1, 256, 0),
            Hello(1, 4, 1, 0, 2**64),
        ],
        ids=["query_id=-1", "query_id=2**32", "doc_count=-3", "n=2**32",
             "method=256", "seed=2**64"],
    )
    def test_header_field_out_of_range(self, msg):
        with pytest.raises(FrameError, match="header"):
            encode_message(msg)

    def test_reply_arrays_of_mismatched_length(self):
        bad = [
            FilterReply(query_id=0, s=np.zeros(2), norm_v2=np.zeros(3), t=np.zeros((2, 4))),
            FilterReply(query_id=0, s=np.zeros(2), norm_v2=np.zeros(2), t=np.zeros((3, 4))),
            FilterReply(query_id=0, s=np.zeros(2), norm_v2=np.zeros(2), t=np.zeros(2)),
            FullReply(query_id=0, doc_ids=np.arange(2), s=np.zeros(1), t=np.zeros((2, 1))),
            FullReply(query_id=0, doc_ids=np.arange(2), s=np.zeros(2), t=np.zeros(2)),
        ]
        for msg in bad:
            with pytest.raises(FrameError, match="shape"):
                encode_message(msg)

    def test_two_dimensional_query_vector(self):
        msg = FullQuery(query_id=0, survivor_ids=np.arange(2), z=np.zeros((2, 2)))
        with pytest.raises(FrameError, match="shape"):
            encode_message(msg)

    def test_oversized_frames_rejected_before_allocating(self):
        """Broadcast views stand for over-limit payloads without memory."""
        k, cols = 1 << 10, 1 << 17  # k * cols * 8 bytes = 1 GiB of t alone
        reply = FullReply(
            query_id=0,
            doc_ids=np.broadcast_to(np.int64(0), (k,)),
            s=np.broadcast_to(0.0, (k,)),
            t=np.broadcast_to(0.0, (k, cols)),
        )
        query = FullQuery(
            query_id=0,
            survivor_ids=np.empty(0, np.int64),
            z=np.broadcast_to(0.0, (1 << 27,)),
        )
        tracemalloc.start()
        try:
            for msg in (reply, query):
                with pytest.raises(FrameError, match="exceeds the limit"):
                    encode_message(msg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_errors_are_package_errors(self):
        """Sessions abort cleanly on SsddError; a bare struct.error would escape."""
        with pytest.raises(SsddError):
            encode_message(HelloAck(bob_doc_count=2**40, df=np.empty(0, np.int64)))
