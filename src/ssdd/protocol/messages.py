"""Binary message encoding for the detection protocol.

Every frame is length-prefixed::

    [length: u32 LE] [tag: u8] [body ...]

where length counts the tag byte plus the body.  All integers are
little-endian, and so are all reals: IEEE-754 binary32 (f32) in FilterReply,
binary64 (f64) everywhere else.  A body is a header of scalar fields and
counts, then its arrays end to end, each one contiguous and row-major.

Tag   Message      Body layout
----  -----------  -----------------------------------------------------------
0x01  Hello        version u16, n u32, f u32, method u8, seed u64
0x02  HelloAck     bob_doc_count u32, n u32, df u32[n]
0x10  FilterQuery  query_id u32, index_count u32, indexes u32[index_count],
                   z f64[f]
0x11  FilterReply  query_id u32, m u32, s f32[m], norm_v2 f32[m],
                   t f32[m][ceil(f/2)]
0x20  FullQuery    query_id u32, survivor_count u32,
                   survivor_ids u32[survivor_count], z f64[n]
0x22  FullReply    query_id u32, k u32, k_new u32, doc_ids u32[k], s f64[k],
                   t f64[k_new][ceil(n/2)]
0xFF  Bye          (empty)

``_SPECS`` holds this table.  Reply arrays follow the order of the
documents they answer for; decoding recovers the trailing width from the
body length, and every width on this wire is at least 1.  Encoding rounds
each real to its field's width, to nearest, and raises FrameError for what
the layout cannot carry (an integer outside its field, mismatched shapes, a
frame over MAX_FRAME_SIZE), decoding for any inconsistency; an unknown tag
raises ProtocolError.  A real field refuses exactly the finite reals that
the rounding would make infinite: in an f32 field, those of magnitude at
least (2 - 2^-24) * 2^127, halfway from f32's largest to 2^128.  A finite
real below that crosses as f32's largest, and NaN and the infinities cross
unchanged.  Encoding gives a frame as parts to send back to back: one new
buffer, into which each array is written in one cast, in whatever layout
it has, and then the last array's own memory instead of a cast when it is
already laid out as on the wire, such as a query's z or a FullReply's t.
Receivers see whole frames.  Decoding widens every real to float64 and
every integer to int64.

This is protocol version 8.  The handshake is one round trip: Hello
carries the one seed that both sides derive the masking matrices from,
and HelloAck carries the responder's document frequencies (n = the
dimensionality) when the method selects from them (GF, HF), and none
(n = 0) otherwise.  A FilterQuery always names its f dimension indexes
(index_count = f), whatever the selection method: the querying side alone
selects them.  A FullReply carries s = z . v_j for every survivor j, but
t_j = A^T v_j only for the k_new survivors whose t the responder has not
yet sent in this session, in survivor order: t_j does not depend on the
query, so the querying side keeps what it received.  FilterReply's three
arrays are f32: a filter round needs only an upper bound on each cosine,
and the querying side widens that bound by what the rounding to f32 may
have moved it (``decide.widen_filter_pieces``), so the reply takes half
the bytes and dismisses no pair that f64 pieces would keep.  The responder
refuses a Hello of any other version.
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
    "MSG_FILTER_QUERY",
    "MSG_FILTER_REPLY",
    "MSG_FULL_QUERY",
    "MSG_FULL_REPLY",
    "MSG_BYE",
    "Hello",
    "HelloAck",
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
MSG_FILTER_QUERY = 0x10
MSG_FILTER_REPLY = 0x11
MSG_FULL_QUERY = 0x20
MSG_FULL_REPLY = 0x22
MSG_BYE = 0xFF

HEADER_SIZE = 4
MAX_FRAME_SIZE = 1 << 30


class _Message:
    """A wire message.  Messages with array fields compare by identity: check
    a decoded one by encoding it again."""


@dataclass(frozen=True)
class Hello(_Message):
    version: int
    n: int
    f: int
    method: int
    seed: int


@dataclass(eq=False)
class HelloAck(_Message):
    bob_doc_count: int
    df: np.ndarray  # (n,) under GF and HF, else empty


@dataclass(eq=False)
class FilterQuery(_Message):
    query_id: int
    indexes: np.ndarray  # the f chosen dimensions, strictly increasing
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
    t: np.ndarray  # (k_new, ceil(n/2)): the survivors whose t is new


@dataclass(frozen=True)
class Bye(_Message):
    pass


def _fits_u4(a: np.ndarray) -> bool:
    """Whether every value of ``a`` is an integer in [0, 2**32)."""
    return a.size == 0 or (a.dtype.kind in "iu" and a.min() >= 0 and a.max() <= 0xFFFFFFFF)


def _cast_into(target: np.ndarray, value: np.ndarray) -> bool:
    """Write ``value`` into ``target``, each real rounded to target's width;
    False when the cast made a finite real infinite, which leaves ``target``
    written but not as the value says.  Only a real narrowed to fewer bytes
    can overflow.  Such a cast reports overflow under ``errstate`` (numpy
    1.24 on), and only then are the entries looked at, one by one, so a
    frame that can carry its values costs one pass."""
    if value.dtype.kind != "f" or value.dtype.itemsize <= target.itemsize:
        target[...] = value
        return True
    try:
        with np.errstate(all="ignore", over="raise"):
            target[...] = value
        return True
    except FloatingPointError:
        with np.errstate(all="ignore"):
            target[...] = value
        return not np.any(np.isinf(target) & np.isfinite(value))


class _Spec:
    """Wire layout of one message type.

    ``head`` packs the class's scalar fields in declaration order, then one
    u32 per count that the tail names, in order of first use.  The tail
    lists the arrays as ``(field, dtype, axes)``, axes being space-separated
    names of those counts and of "w", the trailing width.
    """

    def __init__(self, tag, cls, head, tail=()):
        self.tag, self.cls = tag, cls
        self.tail = [(field, np.dtype(dt), axes.split()) for field, dt, axes in tail]
        tail_fields = {field for field, _, _ in self.tail}
        self.names = [f.name for f in fields(cls) if f.name not in tail_fields]
        self.counts = list(
            dict.fromkeys(a for _, _, axes in self.tail for a in axes if a != "w")
        )
        self.head = struct.Struct(head + "I" * len(self.counts))

    def layout(self, sizes: dict) -> tuple[list, int]:
        """Each array's ``(field, dtype, shape, offset)`` for the given axis
        extents (0 where absent), offsets counted from the tag, and the
        payload size."""
        arrays, offset = [], 1 + self.head.size
        for field, dtype, axes in self.tail:
            shape = tuple(sizes.get(a, 0) for a in axes)
            arrays.append((field, dtype, shape, offset))
            offset += dtype.itemsize * math.prod(shape)
        return arrays, offset


_SPECS = {
    spec.tag: spec
    for spec in (
        _Spec(MSG_HELLO, Hello, "<HIIBQ"),
        _Spec(MSG_HELLO_ACK, HelloAck, "<I", [("df", "<u4", "n")]),
        _Spec(MSG_FILTER_QUERY, FilterQuery, "<I",
              [("indexes", "<u4", "c"), ("z", "<f8", "w")]),
        _Spec(MSG_FILTER_REPLY, FilterReply, "<I",
              [("s", "<f4", "m"), ("norm_v2", "<f4", "m"), ("t", "<f4", "m w")]),
        _Spec(MSG_FULL_QUERY, FullQuery, "<I",
              [("survivor_ids", "<u4", "k"), ("z", "<f8", "w")]),
        _Spec(MSG_FULL_REPLY, FullReply, "<I",
              [("doc_ids", "<u4", "k"), ("s", "<f8", "k"), ("t", "<f8", "k_new w")]),
        _Spec(MSG_BYE, Bye, "<"),
    )
}
_SPEC_OF = {spec.cls: spec for spec in _SPECS.values()}


def encode_message(msg: _Message) -> list:
    """Full frame (length prefix included) for one message, as buffers to
    send back to back.

    The first is one new buffer holding the prefix, the header and every
    array that needs a cast.  When the last array is already laid out as
    on the wire (C-contiguous, exactly its field's dtype) and is not empty,
    a second part is that array's own memory, not a copy.  The sender must
    not change the array before the frame has gone."""
    spec = _SPEC_OF.get(type(msg))
    if spec is None:
        raise ProtocolError(f"cannot encode {type(msg).__name__}")
    name = spec.cls.__name__
    values = {field: np.asarray(getattr(msg, field)) for field, _, _ in spec.tail}
    # each axis takes its extent from the first array that has it
    sizes = {}
    for field, _, axes in spec.tail:
        for axis, extent in zip(axes, values[field].shape):
            sizes.setdefault(axis, extent)
    arrays, size = spec.layout(sizes)
    if size > MAX_FRAME_SIZE:
        raise FrameError(f"{name} frame of {size} bytes exceeds the limit")
    lent, written = None, size
    if arrays:
        field, dtype, shape, offset = arrays[-1]
        value = values[field]
        wire_ready = value.dtype == dtype and value.flags.c_contiguous
        if value.size and value.shape == shape and wire_ready:
            lent, arrays, written = value, arrays[:-1], offset
    frame = bytearray(HEADER_SIZE + written)
    struct.pack_into("<IB", frame, 0, size, spec.tag)
    try:
        spec.head.pack_into(
            frame,
            HEADER_SIZE + 1,
            *(getattr(msg, field) for field in spec.names),
            *(sizes.get(count, 0) for count in spec.counts),
        )
    except struct.error as exc:
        raise FrameError(f"{name} header cannot carry its fields: {exc}") from None
    for field, dtype, shape, offset in arrays:
        value = values[field]
        if value.shape != shape:
            raise FrameError(f"{name}.{field} of shape {value.shape} is not of shape {shape}")
        target = np.ndarray(shape, dtype, buffer=frame, offset=HEADER_SIZE + offset)
        if (dtype == "<u4" and not _fits_u4(value)) or not _cast_into(target, value):
            raise FrameError(f"{name}.{field} holds a value that {dtype.str} cannot carry")
    return [frame] if lent is None else [frame, memoryview(lent).cast("B")]


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
    if declared < 1 + spec.head.size:
        raise FrameError(f"{name}: body of {declared - 1} bytes is too short")
    scalars = spec.head.unpack_from(frame, HEADER_SIZE + 1)
    sizes = dict(zip(spec.counts, scalars[len(spec.names) :]))
    # the payload takes base + width * step bytes; solve for the width
    base = spec.layout({**sizes, "w": 0})[1]
    step = spec.layout({**sizes, "w": 1})[1] - base
    width, odd = divmod(declared - base, step) if step else (0, declared - base)
    if width < 0 or odd or (step and not width):
        raise FrameError(f"{name}: {declared} payload bytes do not fit counts {sizes}")
    arrays, _ = spec.layout({**sizes, "w": width})
    values = {
        field: np.frombuffer(frame, dtype, math.prod(shape), HEADER_SIZE + offset)
        .reshape(shape)
        .astype(np.int64 if dtype == "<u4" else np.float64)
        for field, dtype, shape, offset in arrays
    }
    return spec.cls(**dict(zip(spec.names, scalars)), **values)
