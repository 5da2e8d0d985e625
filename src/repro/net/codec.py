"""Binary wire codec for the dining and detector layers.

Algorithm 1 exchanges exactly four dining message types plus the
heartbeat probes of the ◇P₁ implementation.  The codec keeps the paper's
Section 7 message-size accounting honest on a real wire: every id is an
unsigned LEB128 varint, so a frame costs O(log n) bits for an n-process
system — the same growth rate :func:`repro.core.messages.message_size_bits`
assigns it (the constant differs: real framing pays byte alignment and a
length prefix).

Frame layout (all varints unsigned LEB128, at most 64 bits)::

    frame   := length:uvarint payload          # length = len(payload)
    payload := tag:u8 src:uvarint dst:uvarint seq:uvarint body context?
    tag     := kind | TRACED?                  # TRACED = 0x80 flag bit
    kind    := 0x01 Ping .. 0x11 LrBusy        # tag column of _WIRE_TYPES
    body    := field*                          # the row's fields, in order
    field   := uvarint | f64-big-endian | str | flag
    str     := length:uvarint utf8-bytes       # length <= 64
    flag    := uvarint(0|1)
    context := trace:uvarint span:uvarint lamport:uvarint  # iff TRACED

**One table.**  ``_WIRE_TYPES`` below is the only place a message type
is declared: its tag, its class, and its body as ``(attribute, field
codec)`` pairs.  Encoding, decoding and :func:`frame_wire_bytes` are all
driven by that one row, so **to add a message type, add one row** (and
its golden vector); a new *kind of field* is one ``(write, read, size)``
triple beside the four that exist.  A frame is written into a single
``bytearray`` and decoded where it lies in the received chunk — no
per-field or per-frame intermediate copies.

The trace context is **optional and backward compatible**: a frame
without the ``TRACED`` flag is byte-identical to the historical
encoding (the golden vectors pin this), and tracing-enabled hosts only
pay the context bytes on the wire when a tracer is attached.  The
context is the sender's causal stamp (see
:mod:`repro.obs.tracing`): which request span emitted the message and
the sender's Lamport clock at the send, which is what lets a cluster
stitch one coherent cross-process trace out of per-host span logs.

``seq`` is the per-directed-channel sequence number (1-based, counting
every message on that channel regardless of layer).  It rides on the wire
so a receiver can assert the paper's channel assumption — FIFO, no loss,
no duplication — *live*: every arriving frame must carry exactly the next
expected sequence number.

The dining messages carry their sender pid in-band (``Ping.sender`` and
friends); the envelope's ``src`` is authoritative for routing, and
encoding refuses a message whose in-band sender disagrees with it, so a
decoded message always reconstructs bit-for-bit.

**Corrupt streams.**  :meth:`FrameDecoder.feed` raises
:class:`WireCodecError` at the first malformed frame; the frames that
completed before it ride on the exception (``exc.frames``) so a reader
can deliver them, and the stream must then be closed — framing is lost
(the decoder keeps the bytes from the bad frame on and fails again).
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence, Tuple

from repro.baselines.messages import (
    BakeryNumber,
    BakeryOk,
    BakeryQuery,
    BakeryRequest,
    LrBusy,
    LrRequest,
    RaReply,
    RaRequest,
)
from repro.core.messages import Ack, Fork, ForkRequest, Ping
from repro.detectors.heartbeat import Heartbeat
from repro.errors import ReproError
from repro.locks.messages import LeaseDenied, LeaseGrant, LeaseRelease, LeaseRequest

__all__ = [
    "FrameDecoder",
    "TAG_TRACED",
    "TraceTag",
    "WireCodecError",
    "WireMessage",
    "decode_frame",
    "decode_frame_ex",
    "decode_message",
    "decode_message_ex",
    "encode_frame",
    "encode_message",
    "frame_size_bits",
    "frame_wire_bytes",
]


class WireCodecError(ReproError):
    """Malformed frame, unknown tag, or unencodable message."""

    #: Set by :meth:`FrameDecoder.feed`: the frames of the same chunk
    #: that decoded cleanly before the fault.
    frames: Sequence[tuple] = ()


#: Flag bit: the payload carries a trailing trace-context block.
TAG_TRACED = 0x80

#: The wire form of a span context: ``(trace_id, span_id, lamport)``.
#: Kept a plain tuple so the codec stays free of observability imports;
#: :class:`repro.obs.tracing.SpanContext` is tuple-compatible with it.
TraceTag = Tuple[int, int, int]

#: Cap on the UTF-8 byte length of an in-frame string (resource names,
#: denial reasons); keeps every lease frame under MAX_PAYLOAD_BYTES.
MAX_STRING_BYTES = 64

#: Hard ceiling on one frame's payload (a dining frame is ~10 bytes; the
#: largest valid frame — 64-bit ids, a 64-byte resource, a full context —
#: is 136).  Keeps a corrupted length prefix from buffering unboundedly.
MAX_PAYLOAD_BYTES = 256

WireMessage = Tuple[int, int, int, object]  # (src, dst, seq, message)

_CONTINUATION_SHIFTS = (7, 14, 21, 28, 35, 42, 49, 56, 63)  # varint bytes 2..10
_BIG_ENDIAN_F64 = struct.Struct(">d")


# ----------------------------------------------------------------------
# Field codecs: ``(write(out, value), read(data, offset, end), size(value))``
# ----------------------------------------------------------------------
# Readers return ``(value, next_offset)``.  ``end`` is the frame's end in
# ``data``: sized fields check it; a varint that overruns it is caught by
# ``_read_payload``'s final offset check, or raises IndexError past ``data``.
def _write_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise WireCodecError(f"cannot encode negative value {value} as uvarint")
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data, offset: int, end: int = 0) -> Tuple[int, int]:
    """Decode one uvarint at ``offset``; IndexError if ``data`` runs out."""
    result = data[offset]
    if result < 0x80:
        return result, offset + 1
    result &= 0x7F
    for shift in _CONTINUATION_SHIFTS:
        offset += 1
        byte = data[offset]
        if byte < 0x80:
            if shift == 63 and byte > 1:
                break  # a tenth byte may only carry bit 63
            return result | byte << shift, offset + 1
        result |= (byte & 0x7F) << shift
    raise WireCodecError("varint exceeds 64 bits")


def _uvarint_size(value: int) -> int:
    if value < 0x80:
        if value < 0:
            raise WireCodecError(f"cannot encode negative value {value} as uvarint")
        return 1
    return (value.bit_length() + 6) // 7


def _write_string(out: bytearray, text: str) -> None:
    raw = text.encode("utf-8")
    if len(raw) > MAX_STRING_BYTES:
        raise WireCodecError(
            f"string of {len(raw)} UTF-8 bytes exceeds cap {MAX_STRING_BYTES}"
        )
    _write_uvarint(out, len(raw))
    out += raw


def _read_string(data, offset: int, end: int) -> Tuple[str, int]:
    length, offset = _read_uvarint(data, offset)
    if length > MAX_STRING_BYTES:
        raise WireCodecError(
            f"string of {length} UTF-8 bytes exceeds cap {MAX_STRING_BYTES}"
        )
    stop = offset + length
    if stop > end:
        raise WireCodecError("truncated string")
    try:
        return str(data[offset:stop], "utf-8"), stop
    except UnicodeDecodeError as exc:
        raise WireCodecError(f"malformed UTF-8 string: {exc}") from None


def _string_size(text: str) -> int:
    raw = len(text.encode("utf-8"))
    return _uvarint_size(raw) + raw


def _write_f64(out: bytearray, value: float) -> None:
    out += _BIG_ENDIAN_F64.pack(value)


def _read_f64(data, offset: int, end: int) -> Tuple[float, int]:
    if end - offset < 8:
        raise WireCodecError("truncated heartbeat timestamp")
    return _BIG_ENDIAN_F64.unpack_from(data, offset)[0], offset + 8


def _write_flag(out: bytearray, value: bool) -> None:
    out.append(1 if value else 0)


def _read_flag(data, offset: int, end: int) -> Tuple[bool, int]:
    value, offset = _read_uvarint(data, offset)
    if value > 1:
        raise WireCodecError(f"LrRequest blocking flag must be 0 or 1, got {value}")
    return bool(value), offset


_UVARINT = (_write_uvarint, _read_uvarint, _uvarint_size)
_STRING = (_write_string, _read_string, _string_size)
_F64 = (_write_f64, _read_f64, lambda value: 8)
_FLAG = (_write_flag, _read_flag, lambda value: 1)

# ----------------------------------------------------------------------
# The wire-type table
# ----------------------------------------------------------------------
#: ``(tag, class, (attribute, field codec)...)``: every message type the
#: wire carries, declared once.  ``sender`` is never listed — it rides in
#: the envelope's ``src`` and is passed first to every class that has it.
_WIRE_TYPES = (
    (0x01, Ping),
    (0x02, Ack),
    (0x03, ForkRequest, ("color", _UVARINT)),
    (0x04, Fork),
    (0x05, Heartbeat, ("sent_at", _F64)),
    (0x06, LeaseRequest, ("resource", _STRING), ("ttl_ms", _UVARINT)),
    (0x07, LeaseGrant, ("lease_id", _UVARINT), ("ttl_ms", _UVARINT)),
    (0x08, LeaseRelease, ("lease_id", _UVARINT)),
    (0x09, LeaseDenied, ("reason", _STRING)),
    (0x0A, BakeryQuery),
    (0x0B, BakeryNumber, ("number", _UVARINT)),
    (0x0C, BakeryRequest, ("number", _UVARINT)),
    (0x0D, BakeryOk),
    (0x0E, RaRequest, ("clock", _UVARINT)),
    (0x0F, RaReply),
    (0x10, LrRequest, ("blocking", _FLAG)),
    (0x11, LrBusy),
)


def _compile_body(cls, fields):
    """A row's ``(write_body, read_body, body_size)``; bodiless types share None."""
    if not fields:
        return None, None, None
    in_band = "sender" in cls.__dataclass_fields__

    def write_body(out: bytearray, message) -> None:
        for name, (write, _, _) in fields:
            write(out, getattr(message, name))

    def read_body(data, offset: int, end: int, src: int):
        values = [src] if in_band else []
        for _, (_, read, _) in fields:
            value, offset = read(data, offset, end)
            values.append(value)
        return cls(*values), offset

    def body_size(message) -> int:
        size = 0
        for name, (_, _, measure) in fields:
            size += measure(getattr(message, name))
        return size

    return write_body, read_body, body_size


_ROW_OF_TYPE = {}  # class -> (tag, write_body, body_size)
_ROW_OF_TAG = {}  # tag -> (class, read_body)
for _tag, _cls, *_fields in _WIRE_TYPES:
    _write_body, _read_body, _body_size = _compile_body(_cls, _fields)
    _ROW_OF_TYPE[_cls] = (_tag, _write_body, _body_size)
    _ROW_OF_TAG[_tag] = (_cls, _read_body)


def _row_of(message):
    try:
        return _ROW_OF_TYPE[type(message)]
    except KeyError:
        raise WireCodecError(
            f"no wire encoding for message type {type(message).__name__}"
        ) from None


# ----------------------------------------------------------------------
# Message payloads
# ----------------------------------------------------------------------
def _write_payload(
    out: bytearray, src: int, dst: int, seq: int, message, context: Optional[TraceTag]
) -> None:
    tag, write_body, _ = _row_of(message)
    sender = getattr(message, "sender", None)
    if sender is not None and sender != src:
        raise WireCodecError(
            f"in-band sender {sender} disagrees with envelope src {src}"
        )
    out.append(tag if context is None else tag | TAG_TRACED)
    _write_uvarint(out, src)
    _write_uvarint(out, dst)
    _write_uvarint(out, seq)
    if write_body is not None:
        write_body(out, message)
    if context is not None:
        trace_id, span_id, lamport = context
        _write_uvarint(out, trace_id)
        _write_uvarint(out, span_id)
        _write_uvarint(out, lamport)


def _read_payload(data, offset: int, end: int):
    """Decode the payload at ``data[offset:end]`` where it lies."""
    if offset >= end:
        raise WireCodecError("empty payload")
    first = data[offset]
    row = _ROW_OF_TAG.get(first & ~TAG_TRACED)
    if row is None:
        raise WireCodecError(f"unknown message tag 0x{first & ~TAG_TRACED:02x}")
    cls, read_body = row
    try:
        src, offset = _read_uvarint(data, offset + 1)
        dst, offset = _read_uvarint(data, offset)
        seq, offset = _read_uvarint(data, offset)
        if read_body is None:
            message = cls(src)
        else:
            message, offset = read_body(data, offset, end, src)
        context: Optional[TraceTag] = None
        if first & TAG_TRACED:
            trace_id, offset = _read_uvarint(data, offset)
            span_id, offset = _read_uvarint(data, offset)
            lamport, offset = _read_uvarint(data, offset)
            context = (trace_id, span_id, lamport)
    except IndexError:
        raise WireCodecError("truncated varint") from None
    if offset > end:  # a varint ran past this frame into the next
        raise WireCodecError("truncated varint")
    if offset < end:
        raise WireCodecError(f"{end - offset} trailing byte(s) after tag 0x{first:02x}")
    return src, dst, seq, message, context


def encode_message(
    src: int, dst: int, seq: int, message, context: Optional[TraceTag] = None
) -> bytes:
    """Encode one envelope payload (no length prefix).

    With ``context`` the payload gains the ``TRACED`` flag bit and a
    trailing ``trace span lamport`` varint block; without it the bytes
    are identical to the pre-tracing encoding.
    """
    out = bytearray()
    _write_payload(out, src, dst, seq, message, context)
    return bytes(out)


def decode_message_ex(payload: bytes) -> Tuple[int, int, int, object, Optional[TraceTag]]:
    """Decode one payload, surfacing the trace context when present."""
    return _read_payload(payload, 0, len(payload))


def decode_message(payload: bytes) -> WireMessage:
    """Inverse of :func:`encode_message` (any trace context is dropped)."""
    return _read_payload(payload, 0, len(payload))[:4]


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def encode_frame(
    src: int, dst: int, seq: int, message, context: Optional[TraceTag] = None
) -> bytes:
    """One length-prefixed frame, ready for a byte stream."""
    out = bytearray(1)  # the length byte, patched once the payload is known
    _write_payload(out, src, dst, seq, message, context)
    length = len(out) - 1
    if length < 0x80:  # every dining, lease and baseline frame
        out[0] = length
        return bytes(out)
    prefix = bytearray()
    _write_uvarint(prefix, length)
    del out[0]
    return bytes(prefix + out)


def decode_frame_ex(data: bytes):
    """Like :func:`decode_frame`, also returning the trace context (or None)."""
    try:
        length, offset = _read_uvarint(data, 0)
    except IndexError:
        raise WireCodecError("truncated varint") from None
    if len(data) - offset != length:
        raise WireCodecError(
            f"frame length {length} disagrees with {len(data) - offset} payload bytes"
        )
    return _read_payload(data, offset, len(data))


def decode_frame(data: bytes) -> WireMessage:
    """Decode exactly one frame; trailing bytes are an error."""
    return decode_frame_ex(data)[:4]


class FrameDecoder:
    """Incremental frame decoder for a byte stream.

    Feed arbitrary chunks; complete frames come out in order, decoded
    where they lie in the chunk.  Only an unfinished trailing frame stays
    buffered until its bytes arrive — exactly the reassembly a TCP reader
    needs.  A malformed frame raises (module docstring, "Corrupt streams").

    With ``capture_context=True`` every decoded frame is a 5-tuple
    ``(src, dst, seq, message, context)`` where ``context`` is the
    frame's trace tag or ``None``; the default keeps the historical
    4-tuple shape.
    """

    def __init__(self, *, capture_context: bool = False) -> None:
        self._tail = b""
        self._capture_context = capture_context

    def feed(self, data: bytes) -> List[WireMessage]:
        """Absorb ``data``; return every now-complete frame."""
        if self._tail:
            data = self._tail + data
        frames: List[WireMessage] = []
        capture = self._capture_context
        offset = 0
        size = len(data)
        try:
            while offset < size:
                length = data[offset]
                body = offset + 1
                if length > 0x7F:
                    try:
                        length, body = _read_uvarint(data, offset)
                    except IndexError:
                        break  # the prefix itself is split across chunks
                if length > MAX_PAYLOAD_BYTES:
                    raise WireCodecError(
                        f"frame payload of {length} bytes exceeds cap {MAX_PAYLOAD_BYTES}"
                    )
                end = body + length
                if end > size:
                    break
                frame = _read_payload(data, body, end)
                frames.append(frame if capture else frame[:4])
                offset = end
        except WireCodecError as exc:
            exc.frames = frames
            raise
        finally:
            self._tail = bytes(data[offset:])
        return frames

    @property
    def pending_bytes(self) -> int:
        """Bytes buffered awaiting the rest of a frame."""
        return len(self._tail)


def frame_wire_bytes(
    src: int, dst: int, seq: int, message, context: Optional[TraceTag] = None
) -> int:
    """Exact byte length of ``encode_frame(...)`` without building it.

    The live host's loopback fast path skips the encode/decode round trip
    entirely (the decoded tuple is already in hand) but still accounts
    frame sizes in its wire log; this computes the identical length from
    varint arithmetic alone, allocation-free.
    """
    _, _, body_size = _row_of(message)
    size = 1 + _uvarint_size(src) + _uvarint_size(dst) + _uvarint_size(seq)
    if body_size is not None:
        size += body_size(message)
    if context is not None:
        trace_id, span_id, lamport = context
        size += (
            _uvarint_size(trace_id) + _uvarint_size(span_id) + _uvarint_size(lamport)
        )
    return _uvarint_size(size) + size


def frame_size_bits(
    src: int, dst: int, seq: int, message, context: Optional[TraceTag] = None
) -> int:
    """Exact on-the-wire size of one frame, in bits.

    Used by tests to confirm the real encoding keeps the paper's O(log n)
    growth: for the dining types this is a constant plus the varint cost
    of two pids and a sequence number, each ⌈⌈log₂ x⌉/7⌉ bytes.
    """
    return 8 * frame_wire_bytes(src, dst, seq, message, context)
