"""Binary message encoding for the detection protocol.

Every frame is length-prefixed::

    [length: u32 LE] [tag: u8] [body ...]

where length counts the tag byte plus the body.  All integers are
little-endian, all reals are IEEE-754 binary64 little-endian.

Tag   Message      Body layout
----  -----------  -----------------------------------------------------------
0x01  Hello        version u16, n u32, f u32, method u8, epsilon f64,
                   matrix_seed u64, fs_matrix_seed u64, rp_seed u64
0x02  HelloAck     bob_doc_count u32
0x03  DfVector     n u32, counts u32[n]
0x10  FilterQuery  query_id u32, index_count u32, indexes u32[index_count],
                   z f64[f]
0x11  FilterReply  query_id u32, m u32, then m entries of
                   {s f64, norm_v2 f64, t f64[ceil(f/2)]}
0x20  FullQuery    query_id u32, survivor_count u32,
                   survivor_ids u32[survivor_count], z f64[n]
0x21  FullReply    query_id u32, k u32, then k entries of
                   {doc_id u32, s f64, t f64[ceil(n/2)]}
0xFF  Bye          (empty)

``_SPECS`` holds this table.  Reply entries follow the responder's
document-id order; decoding recovers the trailing f64 width from the body
length.  Encoding raises FrameError for what the layout cannot carry (an
integer outside its field, mismatched shapes, a frame over MAX_FRAME_SIZE),
decoding for any inconsistency; an unknown tag raises ProtocolError.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, fields

import numpy as np

from ..errors import FrameError, ProtocolError

__all__ = [
    "MSG_HELLO",
    "MSG_HELLO_ACK",
    "MSG_DF_VECTOR",
    "MSG_FILTER_QUERY",
    "MSG_FILTER_REPLY",
    "MSG_FULL_QUERY",
    "MSG_FULL_REPLY",
    "MSG_BYE",
    "Hello",
    "HelloAck",
    "DfVector",
    "FilterQuery",
    "FilterReply",
    "FullQuery",
    "FullReply",
    "Bye",
    "encode_message",
    "decode_message",
]

MSG_HELLO = 0x01
MSG_HELLO_ACK = 0x02
MSG_DF_VECTOR = 0x03
MSG_FILTER_QUERY = 0x10
MSG_FILTER_REPLY = 0x11
MSG_FULL_QUERY = 0x20
MSG_FULL_REPLY = 0x21
MSG_BYE = 0xFF

HEADER_SIZE = 4
MAX_FRAME_SIZE = 1 << 30


def _same(a, b) -> bool:
    if not isinstance(a, np.ndarray) and not isinstance(b, np.ndarray):
        return a == b
    a, b = np.asarray(a), np.asarray(b)
    empty = a.size == b.size == 0
    return empty or (a.shape == b.shape and np.array_equal(a, b, equal_nan=True))


class _Message:
    """Field-wise equality: arrays match by shape and value, NaN matching
    NaN, and any two empty arrays match."""

    def __eq__(self, other):
        return type(other) is type(self) and all(
            _same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self)
        )


@dataclass(frozen=True, eq=False)
class Hello(_Message):
    version: int
    n: int
    f: int
    method: int
    epsilon: float
    matrix_seed: int
    fs_matrix_seed: int
    rp_seed: int


@dataclass(frozen=True, eq=False)
class HelloAck(_Message):
    bob_doc_count: int


@dataclass(eq=False)
class DfVector(_Message):
    counts: np.ndarray


@dataclass(eq=False)
class FilterQuery(_Message):
    query_id: int
    indexes: np.ndarray  # empty when the responder derives the set itself
    z: np.ndarray


@dataclass(eq=False)
class FilterReply(_Message):
    query_id: int
    s: np.ndarray  # (m,)
    norm_v2: np.ndarray  # (m,)
    t: np.ndarray  # (m, ceil(f/2))


@dataclass(eq=False)
class FullQuery(_Message):
    query_id: int
    survivor_ids: np.ndarray
    z: np.ndarray


@dataclass(eq=False)
class FullReply(_Message):
    query_id: int
    doc_ids: np.ndarray  # (k,)
    s: np.ndarray  # (k,)
    t: np.ndarray  # (k, ceil(n/2))


@dataclass(frozen=True, eq=False)
class Bye(_Message):
    pass


def _fits(a: np.ndarray, dtype: str) -> bool:
    """Whether every value of ``a`` is representable as ``dtype``."""
    return dtype != "<u4" or a.size == 0 or (
        a.dtype.kind in "iu" and a.min() >= 0 and a.max() <= 0xFFFFFFFF
    )


class _Spec:
    """Wire layout of one message type.

    ``head`` packs the class's scalar fields in declaration order, then a
    u32 count when a tail follows.  The tail is one numpy structured array
    of the (field, dtype) pairs: one element holding count values and, if
    listed, an array filling the rest of the body; or, with ``entries``,
    count packed entries ending in a row that fills the rest.
    """

    def __init__(self, tag, cls, head, tail=(), entries=False):
        self.tag, self.cls, self.tail, self.entries = tag, cls, tail, entries
        self.names = [f.name for f in fields(cls) if f.name not in dict(self.tail)]
        self.head = struct.Struct(head + "I" * bool(self.tail))

    def layout(self, count: int, width: int) -> tuple[list, tuple, int]:
        """Tail fields and shape, and the payload size, known before a dtype."""
        if self.entries:
            shapes, shape = [()] * (len(self.tail) - 1) + [(width,)], (count,)
        else:
            shapes, shape = [(count,), (width,)][: len(self.tail)], ()
        items = [(f, dt, s) for (f, dt), s in zip(self.tail, shapes)]
        row = sum(np.dtype(dt).itemsize * math.prod(s) for _, dt, s in items)
        return items, shape, 1 + self.head.size + row * math.prod(shape)


_SPECS = {
    spec.tag: spec
    for spec in (
        _Spec(MSG_HELLO, Hello, "<HIIBdQQQ"),
        _Spec(MSG_HELLO_ACK, HelloAck, "<I"),
        _Spec(MSG_DF_VECTOR, DfVector, "<", [("counts", "<u4")]),
        _Spec(MSG_FILTER_QUERY, FilterQuery, "<I", [("indexes", "<u4"), ("z", "<f8")]),
        _Spec(MSG_FILTER_REPLY, FilterReply, "<I",
              [("s", "<f8"), ("norm_v2", "<f8"), ("t", "<f8")], entries=True),
        _Spec(MSG_FULL_QUERY, FullQuery, "<I", [("survivor_ids", "<u4"), ("z", "<f8")]),
        _Spec(MSG_FULL_REPLY, FullReply, "<I",
              [("doc_ids", "<u4"), ("s", "<f8"), ("t", "<f8")], entries=True),
        _Spec(MSG_BYE, Bye, "<"),
    )
}
_SPEC_OF = {spec.cls: spec for spec in _SPECS.values()}


def encode_message(msg: _Message) -> bytes:
    """Full frame (length prefix included) for one message."""
    spec = _SPEC_OF.get(type(msg))
    if spec is None:
        raise ProtocolError(f"cannot encode {type(msg).__name__}")
    name = spec.cls.__name__
    values = [np.asarray(getattr(msg, field)) for field, _ in spec.tail]
    count = values[0].shape[0] if values and values[0].ndim else 0
    width = values[-1].shape[-1] if values and values[-1].ndim else 0
    items, shape, size = spec.layout(count, width)
    if size > MAX_FRAME_SIZE:
        raise FrameError(f"{name} frame of {size} bytes exceeds the limit")
    try:
        head = struct.pack("<IB", size, spec.tag) + spec.head.pack(
            *(getattr(msg, field) for field in spec.names), *([count] if values else [])
        )
    except struct.error as exc:
        raise FrameError(f"{name} header cannot carry its fields: {exc}") from None
    tail = np.empty(shape, np.dtype(items))
    for value, (field, dt, _) in zip(values, items):
        if value.shape != tail[field].shape or not _fits(value, dt):
            want = f"{dt} of shape {tail[field].shape}"
            raise FrameError(f"{name}.{field} of shape {value.shape} is not {want}")
        tail[field] = value
    return b"".join((head, tail))


def decode_message(frame: bytes) -> _Message:
    """Decode one full frame (length prefix included)."""
    if len(frame) < HEADER_SIZE + 1:
        raise FrameError(f"frame of {len(frame)} bytes is too short")
    declared, tag = struct.unpack_from("<IB", frame)
    if declared > MAX_FRAME_SIZE:
        raise FrameError(f"declared payload of {declared} bytes exceeds the limit")
    if declared != len(frame) - HEADER_SIZE:
        raise FrameError(
            f"declared payload {declared} != actual {len(frame) - HEADER_SIZE}"
        )
    spec = _SPECS.get(tag)
    if spec is None:
        raise ProtocolError(f"unknown message tag 0x{tag:02x}")
    name = spec.cls.__name__
    body = memoryview(frame)[HEADER_SIZE + 1 :]
    if len(body) < spec.head.size:
        raise FrameError(f"{name}: body of {len(body)} bytes is too short")
    scalars = list(spec.head.unpack_from(body))
    count = scalars.pop() if spec.tail else 0
    # the payload takes base + width * step bytes; solve for the width
    base = spec.layout(count, 0)[2]
    step = spec.layout(count, 1)[2] - base
    width, odd = divmod(declared - base, step) if step else (0, declared - base)
    if width < 0 or odd:
        raise FrameError(f"{name}: {declared} payload bytes do not fit count {count}")
    items, shape, _ = spec.layout(count, width)
    tail = np.ndarray(shape, np.dtype(items), buffer=body, offset=spec.head.size)
    arrays = {f: tail[f].astype(np.int64 if dt == "<u4" else np.float64)
              for f, dt, _ in items}
    return spec.cls(**dict(zip(spec.names, scalars)), **arrays)
