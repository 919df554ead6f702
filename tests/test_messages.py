"""Wire-format round trips, frozen layouts, and corrupted-frame rejection."""

import dataclasses
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

# where a body starts in a frame: after the length prefix and the tag
HEADER_AT = 5


def ints(rng: np.random.Generator, dtype: str, shape) -> np.ndarray:
    """Integers uniform over the whole range of ``dtype`` (below 2**53 for
    a 64-bit one, which decoding widens to float64), as that dtype."""
    info = np.iinfo(dtype)
    low, high = max(int(info.min), -(2**53)), min(int(info.max), 2**53)
    return rng.integers(low, high, shape, endpoint=True).astype(dtype)


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
            df=rng.integers(0, 1000, 0 if kind == 1 else int(rng.integers(0, 50))),
            norm2=ints(rng, "<u8", int(rng.integers(0, 20))),
        )
    if kind == 3:
        f = int(rng.integers(1, 40))
        explicit = rng.random() < 0.5
        return FilterQuery(
            query_id=int(rng.integers(0, 1000)),
            indexes=np.sort(rng.choice(1000, f, replace=False)).astype(np.int64)
            if explicit
            else np.empty(0, np.int64),
            z=ints(rng, "<i4", f),
        )
    if kind == 4:
        m = int(rng.integers(0, 20))
        cols = int(rng.integers(1, 30))
        return FilterReply(
            query_id=int(rng.integers(0, 1000)),
            s=ints(rng, "<i8", m),
            norm_v2=ints(rng, "<u4", m),
            t=ints(rng, "<i2", (m, cols)),
        )
    if kind == 5:
        n = int(rng.integers(1, 60))
        k = int(rng.integers(0, 15))
        return FullQuery(
            query_id=int(rng.integers(0, 1000)),
            survivor_ids=np.sort(rng.choice(100, k, replace=False)).astype(np.int64),
            z=ints(rng, "<i4", n),
        )
    if kind == 6:
        k = int(rng.integers(0, 15))
        k_new = int(rng.integers(0, k + 1))
        cols = int(rng.integers(1, 40))
        t_bytes = int(rng.choice([2, 4]))
        return FullReply(
            query_id=int(rng.integers(0, 1000)),
            doc_ids=np.sort(rng.choice(100, k, replace=False)).astype(np.int64),
            s=ints(rng, "<i8", k),
            t=ints(rng, f"<i{t_bytes}", (k_new, cols)),
            t_bytes=t_bytes,
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

    def test_decoded_integers_are_exact(self):
        """Decoding gives each u4 array as int64 and every other array as
        float64, which holds each value of every field exactly: the
        extremes of i2, i4 and u4, and i8 and u8 values up to 2**53."""
        t2 = np.array([[-(2**15), 2**15 - 1]], np.int16)
        t4 = np.array([[-(2**31), 2**31 - 1]], np.int32)
        big = np.array([-(2**53), 2**53 - 1])
        for t, t_bytes in ((t2, 2), (t4, 4)):
            reply = FullReply(query_id=1, doc_ids=np.array([0, 2**32 - 1]), s=big, t=t,
                              t_bytes=t_bytes)
            again = decode_message(frame_of(reply))
            assert again.doc_ids.dtype == np.int64 and again.t.dtype == np.float64
            assert again.t_bytes == t_bytes
            assert again.doc_ids.tolist() == [0, 2**32 - 1]
            assert again.s.tolist() == big.tolist() and again.t.tolist() == t.tolist()
        ack = decode_message(frame_of(HelloAck(df=np.array([2**32 - 1]), norm2=np.array([2**53]))))
        assert ack.df.tolist() == [2**32 - 1] and ack.norm2.tolist() == [2.0**53]

    def test_nan_and_fractions_do_not_round_trip(self):
        """No field carries a value that is not an integer: NaN, the
        infinities and a fraction are each refused, in every query and
        reply array and in HelloAck's norms, with no warning from the
        cast.  (Version 8's real fields carried NaN.)"""
        replies = (
            FilterReply(query_id=1, s=np.zeros(2), norm_v2=np.zeros(2), t=np.zeros((2, 2))),
            FullReply(query_id=2, doc_ids=np.array([0, 3]), s=np.zeros(2), t=np.zeros((2, 2))),
        )
        for value in (np.nan, np.inf, -np.inf, 0.5, -2.5):
            for reply, field in ((r, f) for r in replies for f in ("s", "t")):
                array = getattr(reply, field).copy()
                array.flat[-1] = value
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(FrameError, match=f"{field} holds a value"):
                        encode_message(dataclasses.replace(reply, **{field: array}))
            for query in (
                FilterQuery(query_id=0, indexes=np.arange(2), z=np.array([1.0, value])),
                FullQuery(query_id=0, survivor_ids=np.arange(2), z=np.array([value, 1.0])),
            ):
                with pytest.raises(FrameError, match="z holds a value"):
                    encode_message(query)
            ack = HelloAck(df=np.zeros(0), norm2=np.array([1.0, value]))
            with pytest.raises(FrameError, match="norm2 holds a value"):
                encode_message(ack)

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
        an int32 or integral float64 s and 32-bit ids each arrive as the
        same values."""
        rng = np.random.default_rng(52)
        t = rng.integers(-(2**15), 2**15, (5, 3)).astype(np.float64)
        for s in (rng.integers(-(2**31), 2**31, 3).astype(np.int32), t[:3, 0].copy()):
            for t_in in (t.T, np.asfortranarray(t.T), t.astype(np.int16).T):
                assert not t_in.flags.c_contiguous
                reply = FilterReply(query_id=1, s=s, norm_v2=np.arange(3), t=t_in)
                again = decode_message(frame_of(reply))
                np.testing.assert_array_equal(again.t, t.T)
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
            s=np.array([5.0, -1.0]),
            norm_v2=np.array([1.0, 2.0]),
            t=np.arange(6.0).reshape(2, 3),
        )
        frame = frame_of(reply)
        again = decode_message(frame)
        frame[5:] = bytes(len(frame) - 5)
        assert frame_of(again) == frame_of(reply)

    def test_encoding_allocates_one_frame(self):
        """A reply whose arrays all need a cast, float64 pieces into i8, u4
        and i2, is one frame, and encoding it allocates about that frame
        and no more: the check that each value arrived unchanged costs no
        array of the values' size."""
        rng = np.random.default_rng(51)
        reply = FilterReply(
            query_id=1,
            s=rng.integers(-(2**40), 2**40, 500).astype(np.float64),
            norm_v2=rng.integers(0, 2**32, 500).astype(np.float64),
            t=rng.integers(-(2**15), 2**15, (500, 35)).astype(np.float64),
        )
        tracemalloc.start()
        try:
            parts = encode_message(reply)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        (frame,) = parts  # every array is cast
        assert peak <= 1.1 * len(frame), peak / len(frame)

    def test_layout_of_t_does_not_change_the_frame(self):
        """An F-ordered t and strided views encode to the bytes of the
        C-ordered copy, each cast to i2 in one pass into the frame."""
        rng = np.random.default_rng(53)
        s = rng.integers(-(2**40), 2**40, 500).astype(np.float64)
        norm_v2 = rng.integers(0, 2**32, 500).astype(np.float64)
        t = rng.integers(-(2**15), 2**15, (500, 35)).astype(np.float64)
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


def full_reply_with(t, t_bytes=2):
    k = t.shape[0] + 2
    rng = np.random.default_rng(k)
    s = rng.integers(-(2**53), 2**53, k).astype(np.float64)
    return FullReply(query_id=7, doc_ids=np.arange(k) * 3, s=s, t=t, t_bytes=t_bytes)


def full_reply_bytes(reply):
    """A FullReply's frame written field by field, without the encoder."""
    body = (
        struct.pack("<IBII", reply.query_id, reply.t_bytes, len(reply.doc_ids), len(reply.t))
        + np.asarray(reply.doc_ids, "<u4").tobytes()
        + np.asarray(reply.s, "<i8").tobytes()
        + np.asarray(reply.t, f"<i{reply.t_bytes}").tobytes()
    )
    return struct.pack("<IB", 1 + len(body), MSG_FULL_REPLY) + body


class TestEncodeParts:
    """``encode_message`` gives a frame as buffers to send back to back: a
    new head, then the last array lent as itself where the wire takes it
    as is."""

    def test_every_message_type_joins_to_the_frame(self):
        """Each random message's parts join to a frame that declares its
        own length and encodes again, once decoded, to the same bytes.  A
        random message's arrays have their fields' dtypes, so the last one
        is lent unless it is empty: a query's z, a reply's t, HelloAck's
        norms."""
        rng = np.random.default_rng(61)
        kinds = set()
        for _ in range(400):
            msg = random_message(rng)
            kinds.add(type(msg))
            parts = encode_message(msg)
            assert isinstance(parts[0], bytearray)
            arrays = [v for v in vars(msg).values() if isinstance(v, np.ndarray)]
            assert not any(np.shares_memory(parts[0], a) for a in arrays)
            lent = bool(arrays) and arrays[-1].size > 0
            assert len(parts) == 1 + lent, type(msg).__name__
            if lent:
                assert np.shares_memory(parts[1], arrays[-1])
            frame = b"".join(parts)
            assert struct.unpack_from("<I", frame)[0] == len(frame) - 4
            assert frame_of(decode_message(frame)) == frame
        assert len(kinds) == 7

    def test_layouts_of_t_join_to_the_frame(self):
        rng = np.random.default_rng(62)
        t = rng.integers(-(2**15), 2**15, (6, 9)).astype(np.int16)
        layouts = {
            "C": t.copy(),
            "F": np.asfortranarray(t),
            "strided": np.repeat(t, 2, axis=1)[:, ::2],
            ">i2": t.astype(">i2"),
            "<f8": t.astype("<f8"),
            "<i4": t.astype("<i4"),
            "k_new = 0": np.empty((0, 9), np.int16),
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
        """A C-contiguous array of its field's dtype that is not last, or a
        last one of another dtype, is cast into the head like any other."""
        rng = np.random.default_rng(63)
        z = rng.integers(-(2**31), 2**31, 40).astype("<i4")
        query = FullQuery(query_id=1, survivor_ids=np.arange(3), z=z)
        parts = encode_message(query)
        assert len(parts) == 2 and np.shares_memory(parts[1], query.z)
        query = FullQuery(query_id=1, survivor_ids=np.arange(3), z=z.astype(np.float64))
        assert len(encode_message(query)) == 1
        reply = FilterReply(
            query_id=1, s=np.arange(4), norm_v2=np.arange(4), t=np.ones((4, 3))
        )
        assert len(encode_message(reply)) == 1  # a float64 t is cast to i2
        t = rng.integers(-(2**15), 2**15, (3, 5)).astype(np.int16)
        reply = full_reply_with(t.astype(np.int64))
        reply.s = reply.s.astype("<i8")
        assert reply.s.flags.c_contiguous and reply.s.dtype == "<i8"
        (head,) = encode_message(reply)
        assert not np.shares_memory(head, reply.s)
        reply = full_reply_with(t)
        head, lent = encode_message(reply)
        assert np.shares_memory(lent, t) and len(lent) == t.nbytes

    def test_a_full_reply_allocates_only_its_head(self):
        t = np.random.default_rng(64).integers(-(2**15), 2**15, (190, 3453)).astype(np.int16)
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
        """Under BASE, RP and LF: n = 0, the document count m, no df, and
        each document's squared norm."""
        msg = HelloAck(df=np.empty(0, np.int64), norm2=np.array([14, 2**40 + 1]))
        body = struct.pack("<II", 0, 2) + struct.pack("<QQ", 14, 2**40 + 1)
        expected = struct.pack("<I", 1 + len(body)) + bytes([MSG_HELLO_ACK]) + body
        assert frame_of(msg) == expected
        assert frame_of(decode_message(expected)) == expected

    def test_hello_ack_layout_with_df(self):
        """Under GF and HF: n and m, the n counts, then the m norms."""
        msg = HelloAck(df=np.array([7, 0, 2], dtype=np.int64), norm2=np.array([9.0]))
        expected = (
            struct.pack("<I", 1 + 4 + 4 + 12 + 8)
            + bytes([MSG_HELLO_ACK])
            + struct.pack("<II", 3, 1)
            + struct.pack("<III", 7, 0, 2)
            + struct.pack("<Q", 9)
        )
        assert frame_of(msg) == expected
        assert frame_of(decode_message(expected)) == expected

    def test_bye_layout(self):
        assert frame_of(Bye()) == struct.pack("<I", 1) + bytes([MSG_BYE])

    def test_filter_query_layout_with_indexes(self):
        msg = FilterQuery(
            query_id=4, indexes=np.array([9, 2], dtype=np.int64), z=np.array([5.0, -2.0])
        )
        body = struct.pack("<IIII", 4, 2, 9, 2) + struct.pack("<ii", 5, -2)
        assert frame_of(msg) == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FILTER_QUERY]) + body
        )

    def test_filter_query_layout_without_indexes(self):
        msg = FilterQuery(
            query_id=7, indexes=np.empty(0, np.int64), z=np.array([1, -(2**31), 2**31 - 1])
        )
        body = struct.pack("<II", 7, 0) + struct.pack("<iii", 1, -(2**31), 2**31 - 1)
        assert frame_of(msg) == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FILTER_QUERY]) + body
        )

    def test_full_query_layout(self):
        msg = FullQuery(
            query_id=3,
            survivor_ids=np.array([0, 5, 6], dtype=np.int64),
            z=np.array([15.0, -5.0]),
        )
        body = struct.pack("<IIIII", 3, 3, 0, 5, 6) + struct.pack("<ii", 15, -5)
        assert frame_of(msg) == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FULL_QUERY]) + body
        )

    def test_full_reply_layout(self):
        """Header with the width code, the survivors' doc_ids, their s,
        then the new survivors' t rows, as i2 under code 2 and as i4 under
        code 4."""
        for code, fmt in ((2, "h"), (4, "i")):
            msg = FullReply(
                query_id=9,
                doc_ids=np.array([4, 11, 12], dtype=np.int64),
                s=np.array([75.0, -2.0**53, 2.0]),
                t=np.array([[1.0, 2.0, 3.0], [-4.0, 0.0, 5.0]]),
                t_bytes=code,
            )
            body = (
                struct.pack("<IBII", 9, code, 3, 2)
                + struct.pack("<III", 4, 11, 12)
                + struct.pack("<qqq", 75, -(2**53), 2)
                + struct.pack(f"<3{fmt}", 1, 2, 3)
                + struct.pack(f"<3{fmt}", -4, 0, 5)
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
            s=np.array([5.0, -5.0]),
            t=np.empty((0, 3)),
        )
        body = struct.pack("<IBII", 2, 2, 2, 0) + struct.pack("<IIqq", 0, 7, 5, -5)
        frame = frame_of(msg)
        assert frame == (
            struct.pack("<I", 1 + len(body)) + bytes([MSG_FULL_REPLY]) + body
        )
        again = decode_message(frame)
        assert frame_of(again) == frame and again.t.shape[0] == 0
        np.testing.assert_array_equal(again.doc_ids, [0, 7])

    def test_full_reply_entry_size(self):
        """For 4-dimensional vectors each survivor takes 4 + 8 bytes and each
        new t row ceil(4/2) entries of t_bytes each."""
        k, k_new, cols = 3, 2, 2
        for code in (2, 4):
            msg = FullReply(
                query_id=9,
                doc_ids=np.arange(k, dtype=np.int64),
                s=np.zeros(k),
                t=np.zeros((k_new, cols)),
                t_bytes=code,
            )
            frame = frame_of(msg)
            body_len = 13 + k * (4 + 8) + k_new * cols * code
            assert len(frame) == 4 + 1 + body_len
            assert struct.unpack_from("<I", frame)[0] == 1 + body_len

    def test_filter_reply_layout(self):
        msg = FilterReply(
            query_id=1,
            s=np.array([25.0]),
            norm_v2=np.array([5.0]),
            t=np.array([[1.0, -1.0]]),
        )
        expected_body = struct.pack("<II", 1, 1) + struct.pack("<qIhh", 25, 5, 1, -1)
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
            s=np.array([25.0, -5.0, 2.0**62]),
            norm_v2=np.array([5.0, 25.0, 2.0**32 - 1]),
            t=np.array([[1.0, -1.0], [3.0, 0.0], [-(2.0**15), 2.0**15 - 1]]),
        )
        body = (
            struct.pack("<II", 6, 3)
            + struct.pack("<qqq", 25, -5, 2**62)
            + struct.pack("<III", 5, 25, 2**32 - 1)
            + struct.pack("<hhhhhh", 1, -1, 3, 0, -(2**15), 2**15 - 1)
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
        frame = bytearray(frame_of(HelloAck(np.empty(0, np.int64), np.arange(5))))
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
        body = struct.pack("<II", 1, 2) + b"\x00" * 20  # two s and norm_v2 take 24
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
        body = struct.pack("<II", 3, 0) + struct.pack("<II", 7, 0)
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
            struct.pack("<IBII", 1, 2, 2, 2)
            + struct.pack("<IIqq", 0, 1, 5, 25)
            + struct.pack(f"<{t_values}h", *range(t_values))
        )
        frame = struct.pack("<I", 1 + len(body)) + bytes([MSG_FULL_REPLY]) + body
        with pytest.raises(FrameError):
            decode_message(frame)

    def test_full_reply_t_width_mismatch(self):
        """A t block one value short of two rows of equal width."""
        msg = FullReply(
            query_id=1, doc_ids=np.array([0, 1]), s=np.zeros(2), t=np.ones((2, 3))
        )
        frame = bytearray(frame_of(msg)[:-2])
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


# one message of each type that carries arrays, with every extent nonzero,
# and those extents by axis name, with the query id by field name
WITH_EXTENTS = [
    (HelloAck(df=np.arange(5), norm2=np.arange(3)), {"n": 5, "m": 3}),
    (
        FilterQuery(query_id=2, indexes=np.array([1, 4, 6]), z=np.arange(3)),
        {"query_id": 2, "c": 3, "w": 3},
    ),
    (
        FilterReply(query_id=2, s=np.arange(4), norm_v2=np.arange(4), t=np.ones((4, 2))),
        {"query_id": 2, "m": 4, "w": 2},
    ),
    (
        FullQuery(query_id=2, survivor_ids=np.array([0, 3]), z=np.arange(7)),
        {"query_id": 2, "k": 2, "w": 7},
    ),
    (
        FullReply(query_id=2, doc_ids=np.array([0, 3, 5]), s=np.arange(3), t=np.ones((2, 4))),
        {"query_id": 2, "k": 3, "k_new": 2, "w": 4},
    ),
]


class TestExpectedExtents:
    """A receiver's known header values are checked from the header, before
    any array is read, and so is the 2^53 rule for i8 and u8 entries; a
    frame of a class the receiver does not expect is refused from its tag,
    and with no ``expect`` every frame decodes as before."""

    @pytest.mark.parametrize(
        "msg", [Hello(9, 4, 1, 0, 0), Bye()] + [m for m, _ in WITH_EXTENTS],
        ids=lambda m: type(m).__name__,
    )
    def test_a_class_not_expected_is_refused_from_its_tag(self, msg):
        name = type(msg).__name__
        others = [cls for cls in (Hello, FullQuery, Bye) if cls is not type(msg)][:2]
        wanted = " or ".join(cls.__name__ for cls in others)
        with pytest.raises(ProtocolError, match=f"^unexpected {name}, expected {wanted}$") as info:
            decode_message(frame_of(msg), {cls: {} for cls in others})
        assert not isinstance(info.value, FrameError)

    @pytest.mark.parametrize(
        "msg, extents", WITH_EXTENTS, ids=[type(m).__name__ for m, _ in WITH_EXTENTS]
    )
    def test_true_extents_decode_as_without(self, msg, extents):
        frame = frame_of(msg)
        checked = decode_message(frame, {type(msg): extents})
        assert frame_of(checked) == frame_of(decode_message(frame)) == frame

    @pytest.mark.parametrize(
        "msg, extents", WITH_EXTENTS, ids=[type(m).__name__ for m, _ in WITH_EXTENTS]
    )
    def test_each_extent_off_by_one_is_refused(self, msg, extents):
        name = type(msg).__name__
        for axis, extent in extents.items():
            for wrong in (extent - 1, extent + 1):
                expect = {type(msg): {**extents, axis: wrong}}
                with pytest.raises(
                    FrameError, match=f"^{name}: {axis} is {extent}, expected {wrong}$"
                ):
                    decode_message(frame_of(msg), expect)

    def test_full_reply_without_t_decodes_under_any_width(self):
        """With k_new = 0 the width sizes only an empty t, which decodes as
        (0, 0) whatever width is expected."""
        msg = FullReply(query_id=1, doc_ids=np.array([4]), s=np.array([7]), t=np.empty((0, 3)))
        frame = frame_of(msg)
        again = decode_message(frame, {FullReply: {"k": 1, "k_new": 0, "w": 3}})
        assert again.t.shape == (0, 0)
        assert frame_of(again) == frame
        with pytest.raises(FrameError, match="FullReply: k_new is 0, expected 1"):
            decode_message(frame, {FullReply: {"k": 1, "k_new": 1, "w": 3}})

    @pytest.mark.parametrize(
        "kind, field",
        [(FilterReply, "s"), (FullReply, "s"), (HelloAck, "norm2")],
        ids=["filter-s", "full-s", "ack-norm2"],
    )
    def test_values_of_2_53_or_more_are_refused_when_expected(self, kind, field):
        """i8 and u8 entries pass below 2^53 in magnitude, at either end
        for i8, and are refused from there, -2^63 included, whose absolute
        value int64 cannot hold; without expected extents they decode as
        float64 as before."""
        msg = next(m for m, _ in WITH_EXTENTS if type(m) is kind)
        signed = field == "s"
        fits = [2**53 - 1, -(2**53) + 1] if signed else [2**53 - 1]
        past = [2**53, -(2**53), 2**63 - 1, -(2**63)] if signed else [2**53, 2**64 - 1]
        dtype = np.int64 if signed else np.uint64
        for value in fits + past:
            values = np.zeros(getattr(msg, field).shape, dtype)
            values[-1] = value
            frame = frame_of(dataclasses.replace(msg, **{field: values}))
            decode_message(frame)
            if value in fits:
                again = decode_message(frame, {kind: {}})
                assert getattr(again, field)[-1] == value
            else:
                with pytest.raises(
                    FrameError, match=rf"^{kind.__name__} {field} holds a value of 2\*\*53 or more"
                ):
                    decode_message(frame, {kind: {}})


class TestUnrepresentableValues:
    """Encoding refuses what the layout cannot carry, with FrameError."""

    def test_negative_survivor_id(self):
        msg = FullQuery(query_id=0, survivor_ids=np.array([3, -1]), z=np.zeros(2))
        with pytest.raises(FrameError, match="survivor_ids"):
            encode_message(msg)

    def test_df_count_past_u32(self):
        with pytest.raises(FrameError, match="df"):
            encode_message(HelloAck(df=np.array([1, 2**32 + 7]), norm2=np.zeros(2)))

    def test_index_past_u32_and_non_integer_indexes(self):
        for indexes in (np.array([2**32]), np.array([1.5, 2.0])):
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
            Hello(1, 2**32, 1, 0, 0),
            Hello(1, 4, 1, 256, 0),
            Hello(1, 4, 1, 0, 2**64),
            FullReply(query_id=0, doc_ids=np.empty(0), s=np.empty(0), t=np.empty((0, 1)),
                      t_bytes=3),
            FullReply(query_id=0, doc_ids=np.empty(0), s=np.empty(0), t=np.empty((0, 1)),
                      t_bytes=256),
        ],
        ids=["query_id=-1", "query_id=2**32", "n=2**32", "method=256", "seed=2**64",
             "t_bytes=3", "t_bytes=256"],
    )
    def test_header_field_out_of_range(self, msg):
        with pytest.raises(FrameError, match="header"):
            encode_message(msg)

    def test_unknown_width_code_is_refused_in_decoding(self):
        """A FullReply whose width code is neither 2 nor 4 does not decode."""
        frame = bytearray(frame_of(full_reply_with(np.ones((2, 3), np.int16))))
        for code in (0, 1, 3, 8):
            frame[HEADER_AT + 4] = code
            with pytest.raises(FrameError, match="t_bytes"):
                decode_message(bytes(frame))

    @pytest.mark.parametrize("piece", ["s", "norm_v2", "t"])
    @pytest.mark.parametrize(
        "values", [[0.5, 1e39], [-1e39, 0.5], [np.inf, 1e39]],
        ids=["1e39", "-1e39", "inf-and-1e39"],
    )
    def test_filter_reply_real_past_f32(self, piece, values):
        """A real past f32's largest, version 8's field, is past every
        integer field of version 9 too: refused, also beside an infinity."""
        pieces = {"s": np.zeros(2), "norm_v2": np.zeros(2), "t": np.zeros((2, 1))}
        pieces[piece] = np.reshape(values, pieces[piece].shape)
        dtype = {"s": "<i8", "norm_v2": "<u4", "t": "<i2"}[piece]
        with pytest.raises(FrameError, match=f"FilterReply.{piece} holds a value that {dtype} cannot"):
            encode_message(FilterReply(query_id=0, **pieces))

    def test_field_extremes_cross(self):
        """Each integer field's extremes cross, given as integers or as
        float64; one past them is refused."""
        s, t = np.array([-(2**63), 2**63 - 1024]), np.array([[-(2**15)], [2**15 - 1]])
        norm_v2 = np.array([0, 2**32 - 1])
        reply = FilterReply(query_id=0, s=s, norm_v2=norm_v2, t=t)
        body = struct.pack("<II", 0, 2) + struct.pack("<qqIIhh", *s, *norm_v2, *t.ravel())
        assert frame_of(reply)[HEADER_AT:] == body
        again = decode_message(frame_of(reply))
        np.testing.assert_array_equal(again.norm_v2, norm_v2)
        np.testing.assert_array_equal(again.t, t)
        floats = FilterReply(query_id=0, s=s.astype(float), norm_v2=norm_v2.astype(float),
                             t=t.astype(float))
        assert frame_of(floats) == frame_of(reply)
        for piece, past in (("norm_v2", [-1, 0]), ("norm_v2", [0, 2**32]),
                            ("t", [[-(2**15) - 1], [0]]), ("t", [[0], [2**15]])):
            bad = dataclasses.replace(reply, **{piece: np.array(past)})
            with pytest.raises(FrameError, match=f"FilterReply.{piece}"):
                encode_message(bad)
        for past in ([-(2**63) - 2048.0, 0.0], [0.0, 2.0**63]):
            with pytest.raises(FrameError, match="FilterReply.s"):
                encode_message(dataclasses.replace(floats, s=np.array(past)))

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
        k, cols = 1 << 10, 1 << 19  # k * cols * 2 bytes = 1 GiB of t alone
        reply = FullReply(
            query_id=0,
            doc_ids=np.broadcast_to(np.int64(0), (k,)),
            s=np.broadcast_to(0.0, (k,)),
            t=np.broadcast_to(0.0, (k, cols)),
        )
        query = FullQuery(
            query_id=0,
            survivor_ids=np.empty(0, np.int64),
            z=np.broadcast_to(0.0, (1 << 28,)),  # 1 GiB of i4
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
            encode_message(Hello(1, 2**40, 1, 0, 0))


class TestF32Boundary:
    """Version 8 sent FilterReply's s as f32, which refused the finite reals
    from (2 - 2^-24) * 2^127, halfway from f32's largest to 2^128, outwards.
    Version 9's i8 field refuses them too, and every real past i8."""

    HALFWAY = (2.0 - 2.0**-24) * 2.0**127

    def encode(self, s):
        s = np.asarray(s, dtype=np.float64)
        reply = FilterReply(query_id=0, s=s, norm_v2=np.zeros(s.size), t=np.zeros((s.size, 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return frame_of(reply)

    def test_largest_i8_values_cross(self):
        """The float64 values nearest i8's ends, -2^63 and 2^63 - 1024,
        cross as those integers."""
        s = np.array([-(2.0**63), np.nextafter(2.0**63, 0.0), 0.0])
        again = decode_message(self.encode(s))
        np.testing.assert_array_equal(again.s, s)
        frame = self.encode(s)
        assert frame[HEADER_AT + 8 : HEADER_AT + 32] == struct.pack("<qqq", -(2**63), 2**63 - 1024, 0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("where", [0, 1, 999])
    def test_first_overflowing_value_is_refused(self, sign, where):
        """f32's first overflowing value and i8's: 2^63, and the float64
        below -2^63."""
        first = 2.0**63 if sign > 0 else np.nextafter(-(2.0**63), -np.inf)
        for value in (sign * self.HALFWAY, first):
            s = np.zeros(1000)
            s[where] = value
            with pytest.raises(FrameError, match="FilterReply.s holds a value that <i8 cannot"):
                self.encode(s)

    def test_nan_and_infinities_are_refused_without_a_warning(self):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(FrameError, match="FilterReply.s holds a value that <i8 cannot"):
                self.encode([0.0, value, 1.0])
