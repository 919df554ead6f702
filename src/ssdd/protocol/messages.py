"""Binary message encoding for the detection protocol.

Every frame is length-prefixed::

    [length: u32 LE] [tag: u8] [body ...]

where length counts the tag byte plus the body.  All integers are
little-endian, and every value on the wire is an integer: signed (i2, i4,
i8) for the masked pieces, unsigned (u4, u8) for ids, indexes and counts.
A body is a header of scalar fields and counts, then its arrays end to end,
each one contiguous and row-major.

Tag   Message      Body layout
----  -----------  -----------------------------------------------------------
0x01  Hello        version u16, n u32, f u32, method u8, seed u64
0x02  HelloAck     n u32, m u32, df u32[n], norm2 u8[m]
0x10  FilterQuery  query_id u32, index_count u32, indexes u32[index_count],
                   z i4[f]
0x11  FilterReply  query_id u32, m u32, s i8[m], norm_v2 u4[m],
                   t i2[m][ceil(f/2)]
0x20  FullQuery    query_id u32, survivor_count u32,
                   survivor_ids u32[survivor_count], z i4[n]
0x22  FullReply    query_id u32, t_bytes u8, k u32, k_new u32, doc_ids u32[k],
                   s i8[k], t i(t_bytes)[k_new][ceil(n/2)]
0xFF  Bye          (empty)

``_SPECS`` holds this table.  FullReply's ``t_bytes`` is a width code,
which the sender sets: 2 when every entry of its t fits i2, else 4; no
other code is decoded.  Reply arrays follow the order of the documents
they answer for; decoding recovers the trailing width from the body
length, and every width on this wire is at least 1.  Encoding raises
FrameError for what the layout cannot carry (a value that is not an
integer or lies outside its field, NaN and the infinities included,
mismatched shapes, a frame over MAX_FRAME_SIZE), decoding for any
inconsistency; an unknown tag raises ProtocolError.  Encoding gives a
frame as parts to send back to back: one new buffer, into which each array
is written in one cast, in whatever layout it has, and checked
(``_cast_into``), and then the last array's own memory instead of a cast
when it is already laid out as on the wire, such as a reply's t.
Receivers see whole frames.  Decoding gives each u32 array (ids, indexes,
document frequencies) as int64 and every other array as float64, which
holds each of its integers exactly below 2^53.  A session is a fixed
sequence (Hello, HelloAck; per query FilterQuery and FilterReply under a
filtering method, FullQuery and FullReply; Bye), so a receiver's state
machine is one table, its ``expect`` (``decode_message``): the classes it
admits next, with the header values it knows.  A frame of any other class
is refused from its tag, and a listed one checked before any array is
widened.

This is protocol version 9, which runs on raw term counts with integer
masks (see ``decide``).  The handshake is one round trip: Hello carries the
one seed that both sides derive the masking matrices from, and HelloAck
carries the responder's m squared document norms ||c_j||^2 and, when the
method selects from them (GF, HF), his document frequencies (n = the
dimensionality), and none (n = 0) otherwise.  A FilterQuery always names
its f dimension indexes (index_count = f), whatever the selection method:
the querying side alone selects them.  A FullReply carries s = z . c_j for
every survivor j, but t_j = A^T c_j only for the k_new survivors whose t
the responder has not yet sent in this session, in survivor order: t_j
does not depend on the query, so the querying side keeps what it
received.  The responder refuses a Hello of any other version.
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
    df: np.ndarray  # (n,) under GF and HF, else empty
    norm2: np.ndarray  # (m,): ||c_j||^2 of each of the responder's documents


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
    t_bytes: int = 2  # the width code of t's entries: 2 or 4


@dataclass(frozen=True)
class Bye(_Message):
    pass


def _cast_into(target: np.ndarray, value: np.ndarray) -> bool:
    """Write ``value`` into ``target``; False unless every value arrived
    unchanged, which refuses a value that is not an integer (NaN and the
    infinities included) or lies outside target's range, and leaves
    ``target`` written but not as the value says.  A value whose dtype
    casts safely to target's is written with no look at its entries, and
    integers of a wider type are range-checked by their extremes.  Reals are
    compared with what was written a block of rows at a time, each block
    about 1/256 of the array, so that the check allocates a small fraction
    of the frame."""
    if np.can_cast(value.dtype, target.dtype):
        target[...] = value
        return True
    if value.dtype.kind in "iu":
        info = np.iinfo(target.dtype)
        fits = value.size == 0 or info.min <= int(value.min()) <= int(value.max()) <= info.max
        if fits:
            target[...] = value
        return bool(fits)
    with np.errstate(invalid="ignore"):
        target[...] = value
    step = max(1, max(64, target.size >> 8) // max(1, math.prod(target.shape[1:])))
    return all(
        (target[lo : lo + step] == value[lo : lo + step]).all()
        for lo in range(0, len(target), step)
    )


class _Spec:
    """Wire layout of one message type.

    ``head`` packs the class's scalar fields in declaration order, then one
    u32 per count that the tail names, in order of first use.  The tail
    lists the arrays as ``(field, dtype, axes)``, axes being space-separated
    names of those counts and of "w", the trailing width.  A dtype given as
    a dict is chosen by the value of the scalar field ``code``.
    """

    def __init__(self, tag, cls, head, tail=(), code=None):
        self.tag, self.cls, self.code = tag, cls, code
        self.tail = [
            (field, {k: np.dtype(v) for k, v in dt.items()} if isinstance(dt, dict)
             else np.dtype(dt), axes.split())
            for field, dt, axes in tail
        ]
        tail_fields = {field for field, _, _ in self.tail}
        self.names = [f.name for f in fields(cls) if f.name not in tail_fields]
        self.counts = list(
            dict.fromkeys(a for _, _, axes in self.tail for a in axes if a != "w")
        )
        self.head = struct.Struct(head + "I" * len(self.counts))

    def dtypes(self, scalars: dict) -> list:
        """Each array's dtype for a message with these scalar fields; a
        code with no dtype is a FrameError."""
        out = []
        for field, dtype, _ in self.tail:
            if isinstance(dtype, dict):
                value = scalars[self.code]
                if value not in dtype:
                    raise FrameError(
                        f"{self.cls.__name__} header field {self.code} {value} "
                        f"is not one of {sorted(dtype)}"
                    )
                dtype = dtype[value]
            out.append(dtype)
        return out

    def layout(self, sizes: dict, dtypes: list) -> tuple[list, int]:
        """Each array's ``(field, dtype, shape, offset)`` for the given axis
        extents (0 where absent) and dtypes, offsets counted from the tag,
        and the payload size."""
        arrays, offset = [], 1 + self.head.size
        for (field, _, axes), dtype in zip(self.tail, dtypes):
            shape = tuple(sizes.get(a, 0) for a in axes)
            arrays.append((field, dtype, shape, offset))
            offset += dtype.itemsize * math.prod(shape)
        return arrays, offset


_SPECS = {
    spec.tag: spec
    for spec in (
        _Spec(MSG_HELLO, Hello, "<HIIBQ"),
        _Spec(MSG_HELLO_ACK, HelloAck, "<", [("df", "<u4", "n"), ("norm2", "<u8", "m")]),
        _Spec(MSG_FILTER_QUERY, FilterQuery, "<I",
              [("indexes", "<u4", "c"), ("z", "<i4", "w")]),
        _Spec(MSG_FILTER_REPLY, FilterReply, "<I",
              [("s", "<i8", "m"), ("norm_v2", "<u4", "m"), ("t", "<i2", "m w")]),
        _Spec(MSG_FULL_QUERY, FullQuery, "<I",
              [("survivor_ids", "<u4", "k"), ("z", "<i4", "w")]),
        _Spec(MSG_FULL_REPLY, FullReply, "<IB",
              [("doc_ids", "<u4", "k"), ("s", "<i8", "k"),
               ("t", {2: "<i2", 4: "<i4"}, "k_new w")], code="t_bytes"),
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
    scalars = {field: getattr(msg, field) for field in spec.names}
    values = {field: np.asarray(getattr(msg, field)) for field, _, _ in spec.tail}
    # each axis takes its extent from the first array that has it
    sizes = {}
    for field, _, axes in spec.tail:
        for axis, extent in zip(axes, values[field].shape):
            sizes.setdefault(axis, extent)
    arrays, size = spec.layout(sizes, spec.dtypes(scalars))
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
            *scalars.values(),
            *(sizes.get(count, 0) for count in spec.counts),
        )
    except struct.error as exc:
        raise FrameError(f"{name} header cannot carry its fields: {exc}") from None
    for field, dtype, shape, offset in arrays:
        value = values[field]
        if value.shape != shape:
            raise FrameError(f"{name}.{field} of shape {value.shape} is not of shape {shape}")
        target = np.ndarray(shape, dtype, buffer=frame, offset=HEADER_SIZE + offset)
        if not _cast_into(target, value):
            raise FrameError(f"{name}.{field} holds a value that {dtype.str} cannot carry")
    return [frame] if lent is None else [frame, memoryview(lent).cast("B")]


def decode_message(frame: bytes, expect: dict | None = None) -> _Message:
    """Decode one full frame (length prefix included).

    ``expect`` maps each class that may arrive next to the header values
    its receiver knows, by field or axis name (a count of ``_SPECS`` or
    "w"), such as ``{FilterReply: {"query_id": q, "m": m, "w": cols}}``; a
    frame of another class is a ProtocolError.  A listed one must carry
    those values, "w" excepted where it sizes only empty arrays, and no i8
    or u8 entry of 2**53 or more in magnitude, which float64 could not hold
    exactly, or it is a FrameError before any array is widened.  With no
    ``expect`` any frame is checked for its own consistency alone."""
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
    if expect is not None and spec.cls not in expect:
        wanted = " or ".join(cls.__name__ for cls in expect)
        raise ProtocolError(f"unexpected {name}, expected {wanted}")
    if declared < 1 + spec.head.size:
        raise FrameError(f"{name}: body of {declared - 1} bytes is too short")
    head = spec.head.unpack_from(frame, HEADER_SIZE + 1)
    scalars = dict(zip(spec.names, head))
    sizes = dict(zip(spec.counts, head[len(spec.names) :]))
    dtypes = spec.dtypes(scalars)
    # the payload takes base + width * step bytes; solve for the width
    base = spec.layout({**sizes, "w": 0}, dtypes)[1]
    step = spec.layout({**sizes, "w": 1}, dtypes)[1] - base
    width, odd = divmod(declared - base, step) if step else (0, declared - base)
    if width < 0 or odd or (step and not width):
        raise FrameError(f"{name}: {declared} payload bytes do not fit counts {sizes}")
    sizes["w"] = width
    header = {**scalars, **sizes}
    for key, value in ({} if expect is None else expect[spec.cls]).items():
        if header[key] != value and (step or key != "w"):
            raise FrameError(f"{name}: {key} is {header[key]}, expected {value}")
    arrays, _ = spec.layout(sizes, dtypes)
    raw = {
        field: np.frombuffer(frame, dtype, math.prod(shape), HEADER_SIZE + offset).reshape(shape)
        for field, dtype, shape, offset in arrays
    }
    for field, value in raw.items():
        wide = expect is not None and value.itemsize == 8 and value.size
        if wide and not -(2**53) < int(value.min()) <= int(value.max()) < 2**53:
            raise FrameError(f"{name} {field} holds a value of 2**53 or more in magnitude")
    values = {f: v.astype(np.int64 if v.dtype == "<u4" else np.float64) for f, v in raw.items()}
    return spec.cls(**scalars, **values)
