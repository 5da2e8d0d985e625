"""Wire codec: round-trip identity, golden byte layouts, size accounting."""

import json
import math
import os

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.core.messages import Ack, Fork, ForkRequest, Ping, message_size_bits
from repro.detectors.heartbeat import Heartbeat
from repro.locks.messages import LeaseDenied, LeaseGrant, LeaseRelease, LeaseRequest
from repro.net.codec import (
    MAX_STRING_BYTES,
    FrameDecoder,
    WireCodecError,
    decode_frame,
    decode_frame_ex,
    decode_message,
    decode_message_ex,
    encode_frame,
    encode_message,
    frame_size_bits,
    frame_wire_bytes,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "fixtures", "wire_golden.json")

# The full range a uvarint may carry: the decoder caps at 64 bits.
U64_MAX = 2**64 - 1

pids = st.integers(min_value=0, max_value=U64_MAX)
seqs = st.integers(min_value=0, max_value=U64_MAX)
colors = st.integers(min_value=0, max_value=U64_MAX)
timestamps = st.floats(allow_nan=False, allow_infinity=False)
contexts = st.tuples(
    st.integers(min_value=0, max_value=U64_MAX),  # trace id
    st.integers(min_value=0, max_value=U64_MAX),  # span id
    st.integers(min_value=0, max_value=U64_MAX),  # lamport
)


ttls = st.integers(min_value=0, max_value=2**31 - 1)
lease_ids = st.integers(min_value=0, max_value=U64_MAX)
# Unicode strings whose UTF-8 encoding fits the in-frame cap.
short_strings = st.text(min_size=0, max_size=MAX_STRING_BYTES // 4)


@st.composite
def envelopes(draw):
    """(src, dst, seq, message) with adversarial ids, colors, timestamps."""
    src = draw(pids)
    dst = draw(pids)
    seq = draw(seqs)
    kind = draw(st.sampled_from((
        "ping", "ack", "fork_request", "fork", "heartbeat",
        "lease_request", "lease_grant", "lease_release", "lease_denied",
        "bakery_query", "bakery_number", "bakery_request", "bakery_ok",
        "ra_request", "ra_reply", "lr_request", "lr_busy",
    )))
    if kind == "ping":
        message = Ping(src)
    elif kind == "ack":
        message = Ack(src)
    elif kind == "fork_request":
        message = ForkRequest(src, draw(colors))
    elif kind == "fork":
        message = Fork(src)
    elif kind == "heartbeat":
        message = Heartbeat(sent_at=draw(timestamps))
    elif kind == "lease_request":
        message = LeaseRequest(src, draw(short_strings), draw(ttls))
    elif kind == "lease_grant":
        message = LeaseGrant(src, draw(lease_ids), draw(ttls))
    elif kind == "lease_release":
        message = LeaseRelease(src, draw(lease_ids))
    elif kind == "lease_denied":
        message = LeaseDenied(src, draw(short_strings))
    elif kind == "bakery_query":
        message = BakeryQuery(src)
    elif kind == "bakery_number":
        message = BakeryNumber(src, draw(seqs))
    elif kind == "bakery_request":
        message = BakeryRequest(src, draw(seqs))
    elif kind == "bakery_ok":
        message = BakeryOk(src)
    elif kind == "ra_request":
        message = RaRequest(src, draw(seqs))
    elif kind == "ra_reply":
        message = RaReply(src)
    elif kind == "lr_request":
        message = LrRequest(src, draw(st.booleans()))
    else:
        message = LrBusy(src)
    return src, dst, seq, message


# ----------------------------------------------------------------------
# Round trip (property-based)
# ----------------------------------------------------------------------
@settings(max_examples=300, deadline=None)
@given(envelopes())
def test_round_trip_identity(envelope):
    src, dst, seq, message = envelope
    payload = encode_message(src, dst, seq, message)
    assert decode_message(payload) == (src, dst, seq, message)


@settings(max_examples=100, deadline=None)
@given(envelopes())
def test_frame_round_trip(envelope):
    src, dst, seq, message = envelope
    assert decode_frame(encode_frame(src, dst, seq, message)) == envelope


@settings(max_examples=50, deadline=None)
@given(st.lists(envelopes(), min_size=1, max_size=20), st.integers(1, 7))
def test_stream_reassembly_in_arbitrary_chunks(batch, chunk):
    """A FrameDecoder fed arbitrary byte chunks yields every frame in order."""
    stream = b"".join(encode_frame(*e) for e in batch)
    decoder = FrameDecoder()
    decoded = []
    for offset in range(0, len(stream), chunk):
        decoded.extend(decoder.feed(stream[offset:offset + chunk]))
    assert decoded == batch
    assert decoder.pending_bytes == 0


@settings(max_examples=200, deadline=None)
@given(envelopes(), contexts)
def test_traced_round_trip_surfaces_context(envelope, context):
    """A tagged payload round-trips the trace context exactly — and the
    plain decoder still accepts it, silently dropping the tag."""
    src, dst, seq, message = envelope
    payload = encode_message(src, dst, seq, message, context)
    assert decode_message_ex(payload) == (src, dst, seq, message, context)
    assert decode_message(payload) == (src, dst, seq, message)


@settings(max_examples=100, deadline=None)
@given(envelopes())
def test_untagged_payload_decodes_with_none_context(envelope):
    src, dst, seq, message = envelope
    payload = encode_message(src, dst, seq, message)
    assert decode_message_ex(payload) == (src, dst, seq, message, None)


@settings(max_examples=100, deadline=None)
@given(envelopes(), contexts)
def test_context_is_pure_suffix(envelope, context):
    """Tagging costs exactly the flag bit plus the three context varints:
    strip them and the bytes are the historical untagged encoding."""
    plain = encode_message(*envelope)
    traced = encode_message(*envelope, context)
    assert len(traced) > len(plain)
    stripped = bytes((traced[0] & 0x7F,)) + traced[1:len(plain)]
    assert stripped == plain


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(envelopes(), st.none() | contexts), min_size=1, max_size=12),
       st.integers(1, 7))
def test_capture_context_stream_mixes_tagged_and_untagged(batch, chunk):
    """FrameDecoder(capture_context=True) yields 5-tuples for a stream
    freely mixing traced and untraced frames."""
    stream = b"".join(
        encode_frame(*envelope, context) for envelope, context in batch
    )
    decoder = FrameDecoder(capture_context=True)
    decoded = []
    for offset in range(0, len(stream), chunk):
        decoded.extend(decoder.feed(stream[offset:offset + chunk]))
    assert decoded == [(*envelope, context) for envelope, context in batch]
    assert decoder.pending_bytes == 0


def test_decode_frame_ex_matches_decode_frame_plus_context():
    context = (0x300000007, 2, 41)
    frame = encode_frame(3, 5, 1, Ping(3), context)
    assert decode_frame_ex(frame) == (3, 5, 1, Ping(3), context)
    assert decode_frame(frame) == (3, 5, 1, Ping(3))
    plain = encode_frame(3, 5, 1, Ping(3))
    assert decode_frame_ex(plain) == (3, 5, 1, Ping(3), None)


def test_decode_rejects_truncated_context():
    payload = encode_message(1, 2, 3, Ping(1), (7, 1, 9))
    with pytest.raises(WireCodecError):
        decode_message_ex(payload[:-1])


def test_heartbeat_nan_is_preserved():
    # NaN compares unequal to itself, so check the bit pattern explicitly.
    src, dst, seq, message = decode_message(
        encode_message(1, 2, 3, Heartbeat(sent_at=math.nan))
    )
    assert (src, dst, seq) == (1, 2, 3)
    assert math.isnan(message.sent_at)


# ----------------------------------------------------------------------
# Golden byte layouts
# ----------------------------------------------------------------------
def _golden_cases():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as stream:
        return json.load(stream)


@pytest.mark.parametrize("case", _golden_cases(), ids=lambda c: c["name"])
def test_golden_encoding(case):
    """The wire format is pinned: changing it must change this fixture."""
    message = {
        "Ping": lambda: Ping(case["src"]),
        "Ack": lambda: Ack(case["src"]),
        "ForkRequest": lambda: ForkRequest(case["src"], case["color"]),
        "Fork": lambda: Fork(case["src"]),
        "Heartbeat": lambda: Heartbeat(sent_at=case["sent_at"]),
        "LeaseRequest": lambda: LeaseRequest(
            case["src"], case["resource"], case["ttl_ms"]
        ),
        "LeaseGrant": lambda: LeaseGrant(
            case["src"], case["lease_id"], case["ttl_ms"]
        ),
        "LeaseRelease": lambda: LeaseRelease(case["src"], case["lease_id"]),
        "LeaseDenied": lambda: LeaseDenied(case["src"], case["reason"]),
        "BakeryQuery": lambda: BakeryQuery(case["src"]),
        "BakeryNumber": lambda: BakeryNumber(case["src"], case["number"]),
        "BakeryRequest": lambda: BakeryRequest(case["src"], case["number"]),
        "BakeryOk": lambda: BakeryOk(case["src"]),
        "RaRequest": lambda: RaRequest(case["src"], case["clock"]),
        "RaReply": lambda: RaReply(case["src"]),
        "LrRequest": lambda: LrRequest(case["src"], case["blocking"]),
        "LrBusy": lambda: LrBusy(case["src"]),
    }[case["type"]]()
    context = tuple(case["context"]) if "context" in case else None
    frame = encode_frame(case["src"], case["dst"], case["seq"], message, context)
    assert frame.hex() == case["frame_hex"]
    assert decode_frame(bytes.fromhex(case["frame_hex"])) == (
        case["src"], case["dst"], case["seq"], message,
    )
    assert decode_frame_ex(bytes.fromhex(case["frame_hex"])) == (
        case["src"], case["dst"], case["seq"], message, context,
    )


# ----------------------------------------------------------------------
# Size accounting (Section 7: O(log n) bits per message)
# ----------------------------------------------------------------------
def test_frame_size_grows_logarithmically_like_the_model():
    """Doubling n adds O(1) bytes per frame: same growth rate as the
    abstract accounting in core.messages.message_size_bits."""
    sizes = {}
    for exponent in range(1, 9):
        n = 2**exponent
        src, dst = n - 1, n - 2
        sizes[n] = frame_size_bits(src, dst, 1, Ping(src))
        assert message_size_bits(Ping(src), n_processes=n, n_colors=3) <= sizes[n]
    increments = [
        sizes[2 ** (e + 1)] - sizes[2**e] for e in range(1, 8)
    ]
    # Each doubling costs at most two extra varint bytes (one per pid).
    assert all(0 <= delta <= 16 for delta in increments)


def test_dining_frames_are_compact():
    # Small-system frames: a handful of bytes, exactly as Section 7 intends.
    assert len(encode_frame(3, 5, 1, Ping(3))) == 5
    assert len(encode_frame(3, 5, 1, ForkRequest(3, 1))) == 6


@settings(max_examples=200, deadline=None)
@given(envelopes(), st.none() | contexts)
def test_frame_wire_bytes_matches_encoded_length(envelope, context):
    """The allocation-free size calculator agrees with the real encoder
    byte-for-byte (the loopback fast path accounts sizes through it)."""
    src, dst, seq, message = envelope
    frame = encode_frame(src, dst, seq, message, context)
    assert frame_wire_bytes(src, dst, seq, message, context) == len(frame)


# ----------------------------------------------------------------------
# Malformed input
# ----------------------------------------------------------------------
def test_encode_rejects_mismatched_sender():
    with pytest.raises(WireCodecError):
        encode_message(1, 2, 3, Ping(9))


def test_encode_rejects_unknown_type():
    with pytest.raises(WireCodecError):
        encode_message(1, 2, 3, object())


def test_decode_rejects_unknown_tag():
    with pytest.raises(WireCodecError):
        decode_message(bytes([0x7F, 1, 2, 3]))


def test_decode_rejects_truncated_payload():
    payload = encode_message(1, 2, 3, Heartbeat(sent_at=0.25))
    with pytest.raises(WireCodecError):
        decode_message(payload[:-1])


def test_decode_rejects_trailing_bytes():
    payload = encode_message(1, 2, 3, Ping(1))
    with pytest.raises(WireCodecError):
        decode_message(payload + b"\x00")


def test_decoder_rejects_oversized_length_prefix():
    decoder = FrameDecoder()
    with pytest.raises(WireCodecError):
        decoder.feed(encode_frame(0, 0, 0, Ping(0)) + b"\xff\xff\x7f")


def test_decode_rejects_varint_wider_than_64_bits():
    """The cap is on the value, not the byte count: a tenth byte may carry
    bit 63 and nothing else (ten bytes could otherwise smuggle 70 bits)."""
    seventy_bits = b"\xff" * 9 + b"\x7f"
    with pytest.raises(WireCodecError, match="exceeds 64 bits"):
        decode_message(b"\x01" + seventy_bits + b"\x02\x03")
    with pytest.raises(WireCodecError, match="exceeds 64 bits"):
        decode_message(b"\x01" + b"\xff" * 9 + b"\x02" + b"\x02\x03")
    with pytest.raises(WireCodecError, match="exceeds 64 bits"):
        decode_message(b"\x01" + b"\xff" * 10 + b"\x01" + b"\x02\x03")
    payload = encode_message(U64_MAX, 2, 3, Ping(U64_MAX))
    assert payload[1:11] == b"\xff" * 9 + b"\x01"
    assert decode_message(payload) == (U64_MAX, 2, 3, Ping(U64_MAX))


def test_corrupt_stream_surrenders_the_frames_before_the_fault():
    """feed() raises at the malformed frame, but what decoded cleanly
    before it rides on the exception; the decoder stays poisoned."""
    good = [(1, 0, 1, Ping(1)), (1, 0, 2, ForkRequest(1, 3))]
    stream = b"".join(encode_frame(*e) for e in good) + b"\x02\x7f\x00"
    decoder = FrameDecoder()
    with pytest.raises(WireCodecError) as caught:
        decoder.feed(stream)
    assert caught.value.frames == good
    assert decoder.pending_bytes == 3
    with pytest.raises(WireCodecError) as again:
        decoder.feed(encode_frame(1, 0, 3, Ping(1)))
    assert again.value.frames == []


def test_encode_rejects_oversized_resource_name():
    with pytest.raises(WireCodecError):
        encode_message(1, 0, 1, LeaseRequest(1, "r" * (MAX_STRING_BYTES + 1), 100))


def test_decode_rejects_truncated_lease_string():
    payload = encode_message(1, 0, 1, LeaseRequest(1, "orders", 100))
    # Chop inside the resource's UTF-8 bytes: the string length prefix now
    # promises more bytes than the payload carries.
    with pytest.raises(WireCodecError):
        decode_message(payload[:6])


def test_lease_round_trip_unicode_resource():
    message = LeaseRequest(1048576, "café/α", 500)
    frame = encode_frame(1048576, 0, 1, message)
    assert decode_frame(frame) == (1048576, 0, 1, message)


# ----------------------------------------------------------------------
# Framing edges: two-byte length prefix, every split point, LEB128 reference
# ----------------------------------------------------------------------
def _reference_leb128(value):
    """Textbook unsigned LEB128, independent of the codec under test."""
    out = []
    while True:
        group = value % 128
        value //= 128
        if value == 0:
            out.append(group)
            return bytes(out)
        out.append(group + 128)


#: The largest frame the format allows: 64-bit ids, a 64-byte resource and
#: a full trace context push the payload past 127 bytes, so the length
#: prefix itself is a two-byte varint — which no generated frame reaches.
_WIDE = (U64_MAX, 2**63, 2**63 + 5, LeaseRequest(U64_MAX, "r" * MAX_STRING_BYTES, U64_MAX))
_WIDE_CONTEXT = (U64_MAX, 2**63, U64_MAX)


def test_two_byte_length_prefix_round_trips():
    frame = encode_frame(*_WIDE, _WIDE_CONTEXT)
    payload = encode_message(*_WIDE, _WIDE_CONTEXT)
    assert len(payload) >= 128
    assert frame == _reference_leb128(len(payload)) + payload
    assert frame[0] & 0x80 and not frame[1] & 0x80  # prefix is two bytes
    assert frame_wire_bytes(*_WIDE, _WIDE_CONTEXT) == len(frame)
    assert decode_frame_ex(frame) == (*_WIDE, _WIDE_CONTEXT)
    decoder = FrameDecoder(capture_context=True)
    assert decoder.feed(frame) == [(*_WIDE, _WIDE_CONTEXT)]
    assert decoder.pending_bytes == 0


def test_stream_split_at_every_byte_offset():
    """Cut a multi-frame stream in two at each offset — inside the
    two-byte length prefix, inside a multi-byte seq, inside the string,
    inside the context: the same frames come out, and ``pending_bytes``
    is exactly the unfinished frame's bytes after the first half."""
    batch = [
        ((3, 5, 1, Ping(3)), None),
        ((3, 5, 300_000, ForkRequest(3, 200)), (0x300000007, 2, 70_000)),
        (_WIDE, _WIDE_CONTEXT),
        ((1, 2, 2**14, Heartbeat(sent_at=0.25)), None),
        ((5, 3, 2, Fork(5)), (7, 1, 9)),
    ]
    frames = [encode_frame(*envelope, context) for envelope, context in batch]
    stream = b"".join(frames)
    expected = [(*envelope, context) for envelope, context in batch]
    boundaries = [sum(map(len, frames[:i])) for i in range(len(frames) + 1)]
    for cut in range(len(stream) + 1):
        decoder = FrameDecoder(capture_context=True)
        first = decoder.feed(stream[:cut])
        complete = max(b for b in boundaries if b <= cut)
        assert first == expected[: boundaries.index(complete)]
        assert decoder.pending_bytes == cut - complete
        assert first + decoder.feed(stream[cut:]) == expected
        assert decoder.pending_bytes == 0
    # ... and one byte at a time, the pending count never loses a byte.
    decoder = FrameDecoder(capture_context=True)
    decoded = []
    for index in range(len(stream)):
        decoded.extend(decoder.feed(stream[index:index + 1]))
        assert decoder.pending_bytes == index + 1 - max(
            b for b in boundaries if b <= index + 1
        )
    assert decoded == expected


@pytest.mark.parametrize("field", ["src", "dst", "seq", "color", "trace", "span", "lamport"])
@pytest.mark.parametrize("exponent", [7, 14, 63])
def test_envelope_fields_match_reference_leb128_at_boundaries(field, exponent):
    """Each varint field, just below / at / just above a byte-count
    boundary, is byte-for-byte the reference encoding."""
    for value in (2**exponent - 1, 2**exponent, 2**exponent + 1):
        values = dict(src=3, dst=5, seq=1, color=2, trace=7, span=1, lamport=9)
        values[field] = value
        message = ForkRequest(values["src"], values["color"])
        context = (values["trace"], values["span"], values["lamport"])
        payload = b"\x83" + b"".join(
            _reference_leb128(values[name])
            for name in ("src", "dst", "seq", "color", "trace", "span", "lamport")
        )
        envelope = (values["src"], values["dst"], values["seq"], message)
        assert encode_message(*envelope, context) == payload
        assert encode_frame(*envelope, context) == _reference_leb128(len(payload)) + payload
        assert decode_message_ex(payload) == (*envelope, context)
        assert frame_wire_bytes(*envelope, context) == len(payload) + 1
