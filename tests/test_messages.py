"""Wire-format round trips, frozen layouts, and corrupted-frame rejection."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from ssdd.errors import FrameError, ProtocolError, SsddError
from ssdd.protocol.messages import (
    MAX_FRAME_SIZE,
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

from conftest import frame_of


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
            frame = frame_of(msg)
            again = decode_message(frame)
            assert type(again) is type(msg)
            assert frame_of(again) == frame, f"round trip changed {type(msg).__name__}"

    def test_empty_reply_round_trips(self):
        reply = FilterReply(
            query_id=3, s=np.empty(0), norm_v2=np.empty(0), t=np.empty((0, 5))
        )
        frame = frame_of(reply)
        assert frame_of(decode_message(frame)) == frame


    def test_nan_round_trips(self):
        t = np.array([[np.nan, 1.0], [2.0, np.nan]])
        filter_reply = FilterReply(
            query_id=1, s=np.array([np.nan, 0.5]), norm_v2=np.array([0.1, 0.2]), t=t
        )
        full_reply = FullReply(
            query_id=2, doc_ids=np.array([0, 3], dtype=np.int64), s=np.zeros(2), t=t
        )
        for reply in (filter_reply, full_reply):
            frame = frame_of(reply)
            again = decode_message(frame)
            assert frame_of(again) == frame
            assert np.isnan(again.t[0, 0]) and again.t[0, 1] == 1.0

    def test_empty_full_reply_round_trips(self):
        reply = FullReply(
            query_id=8, doc_ids=np.empty(0, np.int64), s=np.empty(0), t=np.empty((0, 4))
        )
        frame = frame_of(reply)
        again = decode_message(frame)
        assert frame_of(again) == frame
        assert again.doc_ids.size == 0 and again.t.size == 0

    def test_strided_and_mixed_dtype_arrays_round_trip(self):
        """Encoding copies through views: a transposed or Fortran-ordered t,
        a float32 s and 32-bit ids each arrive as the same values.  The
        FilterReply's t holds float32-exact values, since its fields are
        f32; FullReply and FullQuery carry float64 ones."""
        rng = np.random.default_rng(52)
        t = rng.standard_normal((5, 3))
        t32 = t.astype(np.float32).astype(np.float64)
        s = rng.standard_normal(3).astype(np.float32)
        for t_in in (t32.T, np.asfortranarray(t32.T)):
            assert not t_in.flags.c_contiguous
            reply = FilterReply(query_id=1, s=s, norm_v2=np.arange(3), t=t_in)
            again = decode_message(frame_of(reply))
            np.testing.assert_array_equal(again.t, t32.T)
            np.testing.assert_array_equal(again.s, s.astype(np.float64))
            np.testing.assert_array_equal(again.norm_v2, [0.0, 1.0, 2.0])
        for ids in (np.array([4, 0, 9], np.uint32), np.array([4, 0, 9], np.int32)):
            reply = FullReply(query_id=2, doc_ids=ids, s=s, t=t[1:3, ::-1])
            again = decode_message(frame_of(reply))
            assert again.doc_ids.dtype == np.int64
            np.testing.assert_array_equal(again.doc_ids, [4, 0, 9])
            np.testing.assert_array_equal(again.s, s.astype(np.float64))
            np.testing.assert_array_equal(again.t, t[1:3, ::-1])
            query = FullQuery(query_id=3, survivor_ids=ids[::2], z=t[:, 0])
            again = decode_message(frame_of(query))
            np.testing.assert_array_equal(again.survivor_ids, [4, 9])
            np.testing.assert_array_equal(again.z, t[:, 0])

    def test_decoded_message_does_not_alias_its_frame(self):
        reply = FilterReply(
            query_id=4,
            s=np.array([0.5, -1.0]),
            norm_v2=np.array([1.0, 2.0]),
            t=np.arange(6.0).reshape(2, 3),
        )
        frame = frame_of(reply)
        again = decode_message(frame)
        frame[5:] = bytes(len(frame) - 5)
        assert frame_of(again) == frame_of(reply)

    def test_encoding_allocates_one_frame(self):
        rng = np.random.default_rng(51)
        reply = FilterReply(
            query_id=1, s=rng.random(500), norm_v2=rng.random(500), t=rng.random((500, 35))
        )
        tracemalloc.start()
        try:
            parts = encode_message(reply)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (frame,) = parts  # f4 on the wire: every array is cast
        assert peak <= 1.1 * len(frame), peak / len(frame)

    def test_layout_of_t_does_not_change_the_frame(self):
        """The responder hands over an F-ordered t, the transpose of its own
        product: it, and a strided view, encode to the bytes of the
        C-ordered copy, each rounded to f32 in one cast into the frame."""
        rng = np.random.default_rng(53)
        s, norm_v2 = rng.standard_normal(500), rng.random(500)
        t = rng.standard_normal((500, 35))
        expected = frame_of(FilterReply(query_id=1, s=s, norm_v2=norm_v2, t=t))
        layouts = (np.empty((35, 500)).T, np.empty((500, 35))[::-1], np.empty((1000, 70))[::2, ::2])
        for t_in in layouts:
            t_in[...] = t
            assert not t_in.flags.c_contiguous
            reply = FilterReply(query_id=1, s=s, norm_v2=norm_v2, t=t_in)
            tracemalloc.start()
            try:
                parts = encode_message(reply)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            (frame,) = parts
            assert frame == expected
            assert peak <= 1.1 * len(frame), peak / len(frame)


def full_reply_with(t):
    k = t.shape[0] + 2
    rng = np.random.default_rng(k)
    return FullReply(
        query_id=7, doc_ids=np.arange(k) * 3, s=rng.standard_normal(k), t=t
    )


def full_reply_bytes(reply):
    """A FullReply's frame written field by field, without the encoder."""
    body = (
        struct.pack("<III", reply.query_id, len(reply.doc_ids), len(reply.t))
        + np.asarray(reply.doc_ids, "<u4").tobytes()
        + np.asarray(reply.s, "<f8").tobytes()
        + np.asarray(reply.t, "<f8").tobytes()
    )
    return struct.pack("<IB", 1 + len(body), MSG_FULL_REPLY) + body


class TestEncodeParts:
    """``encode_message`` gives a frame as buffers to send back to back: a
    new head, then the last array lent as itself where the wire takes it
    as is."""

    def test_every_message_type_joins_to_the_frame(self):
        """Each random message's parts join to a frame that declares its
        own length and encodes again, once decoded, to the same bytes.  A
        query's z and a FullReply's non-empty t are lent; HelloAck's int64
        df and FilterReply's f4 arrays are cast."""
        rng = np.random.default_rng(61)
        kinds = set()
        for _ in range(400):
            msg = random_message(rng)
            kinds.add(type(msg))
            parts = encode_message(msg)
            assert isinstance(parts[0], bytearray)
            arrays = [v for v in vars(msg).values() if isinstance(v, np.ndarray)]
            assert not any(np.shares_memory(parts[0], a) for a in arrays)
            lent = isinstance(msg, (FilterQuery, FullQuery)) or (
                isinstance(msg, FullReply) and msg.t.size > 0
            )
            assert len(parts) == 1 + lent, type(msg).__name__
            if lent:
                assert np.shares_memory(parts[1], arrays[-1])
            frame = b"".join(parts)
            assert struct.unpack_from("<I", frame)[0] == len(frame) - 4
            assert frame_of(decode_message(frame)) == frame
        assert len(kinds) == 7

    def test_layouts_of_t_join_to_the_frame(self):
        rng = np.random.default_rng(62)
        t = rng.standard_normal((6, 9))
        layouts = {
            "C": t.copy(),
            "F": np.asfortranarray(t),
            "strided": np.repeat(t, 2, axis=1)[:, ::2],
            ">f8": t.astype(">f8"),
            "k_new = 0": np.empty((0, 9)),
        }
        for name, t_in in layouts.items():
            reply = full_reply_with(t_in)
            parts = encode_message(reply)
            assert b"".join(parts) == full_reply_bytes(reply), name
            lent = name == "C"
            assert len(parts) == 1 + lent, name
            assert np.shares_memory(parts[-1], t_in) == lent, name
            assert not np.shares_memory(parts[0], t_in), name

    def test_only_a_wire_ready_last_array_is_lent(self):
        """A C-contiguous <f8 array that is not last, or a last one of
        another dtype, is cast into the head like any other."""
        rng = np.random.default_rng(63)
        query = FullQuery(query_id=1, survivor_ids=np.arange(3), z=rng.standard_normal(40))
        parts = encode_message(query)
        assert len(parts) == 2 and np.shares_memory(parts[1], query.z)
        reply = FilterReply(
            query_id=1, s=rng.random(4), norm_v2=rng.random(4), t=rng.random((4, 3))
        )
        assert len(encode_message(reply)) == 1  # f4 on the wire
        t = rng.standard_normal((3, 5))
        reply = full_reply_with(t)
        assert reply.s.flags.c_contiguous and reply.s.dtype == "<f8"
        head, lent = encode_message(reply)
        assert not np.shares_memory(head, reply.s)
        assert np.shares_memory(lent, t) and len(lent) == t.nbytes

    def test_a_full_reply_allocates_only_its_head(self):
        t = np.random.default_rng(64).standard_normal((190, 3453))
        reply = full_reply_with(t)
        tracemalloc.start()
        try:
            parts = encode_message(reply)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 << 10, peak
        head, lent = parts
        assert head + lent == full_reply_bytes(reply)


class TestFrozenLayouts:
    def test_hello_layout(self):
        msg = Hello(
            version=1,
            n=6906,
            f=70,
            method=4,
            seed=2**64 - 1,
        )
        frame = frame_of(msg)
        body = struct.pack("<HIIBQ", 1, 6906, 70, 4, 2**64 - 1)
        assert frame == struct.pack("<I", 1 + len(body)) + bytes([MSG_HELLO]) + body
        assert len(body) == 19

    def test_hello_ack_layout(self):
        """Under BASE, RP and LF the document count and an empty df."""
        msg = HelloAck(bob_doc_count=190, df=np.empty(0, np.int64))
        expected = struct.pack("<I", 9) + bytes([MSG_HELLO_ACK]) + struct.pack("<II", 190, 0)
        assert frame_of(msg) == expected
        assert frame_of(decode_message(expected)) == expected

    def test_hello_ack_layout_with_df(self):
        """Under GF and HF the document count, then n and the n counts."""
        msg = HelloAck(bob_doc_count=190, df=np.array([7, 0, 2], dtype=np.int64))
        expected = (
            struct.pack("<I", 1 + 4 + 4 + 12)
            + bytes([MSG_HELLO_ACK])
            + struct.pack("<II", 190, 3)
            + struct.pack("<III", 7, 0, 2)
        )
        assert frame_of(msg) == expected
        assert frame_of(decode_message(expected)) == expected

    def test_bye_layout(self):
        assert frame_of(Bye()) == struct.pack("<I", 1) + bytes([MSG_BYE])

    def test_filter_query_layout_with_indexes(self):
        msg = FilterQuery(
            query_id=4, indexes=np.array([9, 2], dtype=np.int64), z=np.array([0.5, -2.0])
        )
        body = struct.pack("<IIII", 4, 2, 9, 2) + struct.pack("<dd", 0.5, -2.0)
        assert frame_of(msg) == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FILTER_QUERY]) + body
        )

    def test_filter_query_layout_without_indexes(self):
        msg = FilterQuery(
            query_id=7, indexes=np.empty(0, np.int64), z=np.array([1.0, 0.25, 3.0])
        )
        body = struct.pack("<II", 7, 0) + struct.pack("<ddd", 1.0, 0.25, 3.0)
        assert frame_of(msg) == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FILTER_QUERY]) + body
        )

    def test_full_query_layout(self):
        msg = FullQuery(
            query_id=3,
            survivor_ids=np.array([0, 5, 6], dtype=np.int64),
            z=np.array([1.5, -0.5]),
        )
        body = struct.pack("<IIIII", 3, 3, 0, 5, 6) + struct.pack("<dd", 1.5, -0.5)
        assert frame_of(msg) == (
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
        frame = frame_of(msg)
        assert frame == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FULL_REPLY]) + body
        )
        assert frame_of(decode_message(frame)) == frame

    def test_full_reply_layout_without_t(self):
        """Every survivor's t already crossed: k_new is 0 and no t follows."""
        msg = FullReply(
            query_id=2,
            doc_ids=np.array([0, 7], dtype=np.int64),
            s=np.array([0.5, -0.5]),
            t=np.empty((0, 3)),
        )
        body = struct.pack("<III", 2, 2, 0) + struct.pack("<IIdd", 0, 7, 0.5, -0.5)
        frame = frame_of(msg)
        assert frame == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FULL_REPLY]) + body
        )
        again = decode_message(frame)
        assert frame_of(again) == frame and again.t.shape[0] == 0
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
        frame = frame_of(msg)
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
            "<ffff", 2.5, 0.5, 1.0, -1.0
        )
        assert frame_of(msg) == (
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
            + struct.pack("<fff", 2.5, -0.5, 1.0)
            + struct.pack("<fff", 0.5, 0.25, 4.0)
            + struct.pack("<ffffff", 1.0, -1.0, 3.0, 0.0, -2.0, 8.0)
        )
        frame = frame_of(msg)
        assert frame == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FILTER_REPLY]) + body
        )
        assert frame_of(decode_message(frame)) == frame


class TestRejection:
    def test_truncated_frames(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            frame = frame_of(random_message(rng))
            with pytest.raises(FrameError):
                decode_message(frame[: len(frame) - 1])

    def test_declared_length_mismatch(self):
        frame = bytearray(frame_of(HelloAck(5, np.empty(0, np.int64))))
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
        frame = bytearray(frame_of(msg)[:-8])
        frame[0:4] = struct.pack("<I", len(frame) - 4)
        with pytest.raises(FrameError):
            decode_message(bytes(frame))

    def test_empty_frame(self):
        with pytest.raises(FrameError):
            decode_message(b"")
        with pytest.raises(FrameError):
            decode_message(struct.pack("<I", 0))

    def test_over_limit_declared_length_before_any_length_check(self):
        """A header that declares more than MAX_FRAME_SIZE is refused for
        that, although its five bytes hold no payload."""
        frame = struct.pack("<IB", MAX_FRAME_SIZE + 1, MSG_HELLO)
        with pytest.raises(FrameError, match="exceeds the limit"):
            decode_message(frame)

    @pytest.mark.parametrize("value", [object(), "Hello", None], ids=["object", "str", "none"])
    def test_non_message_is_not_encoded(self, value):
        with pytest.raises(ProtocolError, match=f"cannot encode {type(value).__name__}"):
            encode_message(value)


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

    @pytest.mark.parametrize("piece", ["s", "norm_v2", "t"])
    @pytest.mark.parametrize(
        "values", [[0.5, 1e39], [-1e39, 0.5], [np.inf, 1e39]],
        ids=["1e39", "-1e39", "inf-and-1e39"],
    )
    def test_filter_reply_real_past_f32(self, piece, values):
        """A finite real beyond f32's largest would be cast to infinity; it
        is refused instead, also beside an infinity."""
        pieces = {"s": np.zeros(2), "norm_v2": np.zeros(2), "t": np.zeros((2, 1))}
        pieces[piece] = np.reshape(values, pieces[piece].shape)
        with pytest.raises(FrameError, match=f"FilterReply.{piece} holds a value that <f4 cannot"):
            encode_message(FilterReply(query_id=0, **pieces))

    def test_filter_reply_f32_extremes_cross(self):
        """f32's largest and smallest values, the infinities and values that
        round to them cross as f32 holds them."""
        top = float(np.finfo(np.float32).max)
        s = np.array([top, -top, np.inf, -np.inf, 1e-46, -2.0**-149])
        reply = FilterReply(query_id=0, s=s, norm_v2=np.zeros(6), t=np.zeros((6, 1)))
        again = decode_message(frame_of(reply))
        np.testing.assert_array_equal(again.s, s.astype(np.float32))
        np.testing.assert_array_equal(again.s, [top, -top, np.inf, -np.inf, 0.0, -2.0**-149])

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


class TestF32Boundary:
    """An f32 field refuses exactly the finite reals that rounding to nearest
    makes infinite: from (2 - 2^-24) * 2^127, halfway from f32's largest to
    2^128, outwards."""

    TOP = float(np.finfo(np.float32).max)
    HALFWAY = (2.0 - 2.0**-24) * 2.0**127

    def encode(self, s):
        s = np.asarray(s, dtype=np.float64)
        reply = FilterReply(query_id=0, s=s, norm_v2=np.zeros(s.size), t=np.zeros((s.size, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return frame_of(reply)

    def test_below_halfway_crosses_as_the_largest(self):
        below = [self.TOP * (1 + 2.0**-25), np.nextafter(self.HALFWAY, 0.0)]
        assert self.TOP < below[0] < below[1] < self.HALFWAY
        s = np.array(below + [-x for x in below])
        again = decode_message(self.encode(s))
        np.testing.assert_array_equal(again.s, [self.TOP] * 2 + [-self.TOP] * 2)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("where", [0, 1, 999])
    def test_first_overflowing_value_is_refused(self, sign, where):
        s = np.zeros(1000)
        s[where] = sign * self.HALFWAY
        with pytest.raises(FrameError, match="FilterReply.s holds a value that <f4 cannot"):
            self.encode(s)

    def test_nan_and_infinities_cross_without_a_warning(self):
        s = np.array([np.nan, np.inf, -np.inf, self.TOP, 0.0])
        again = decode_message(self.encode(s))
        assert np.isnan(again.s[0])
        np.testing.assert_array_equal(again.s[1:], [np.inf, -np.inf, self.TOP, 0.0])
