"""Live asyncio runtime: Algorithm 1 over real transports.

The discrete-event kernel (:mod:`repro.sim`) executes the actors under a
virtual clock; this package hosts the **same actor objects, unchanged**
over wall-clock time and real byte streams:

* :mod:`repro.net.codec` — the compact binary wire format for the four
  dining message types plus detector heartbeats (length-prefixed frames,
  varint ids: O(log n) bits on the wire, matching the paper's accounting
  in :func:`repro.core.messages.message_size_bits`);
* :mod:`repro.net.substrate` — :class:`LiveSubstrate`, the asyncio
  implementation of the :class:`repro.core.substrate.Substrate` protocol
  (wall-clock ``now``, ``loop.call_later`` timers, ``call_soon`` guard
  re-evaluation);
* :mod:`repro.net.host` — :class:`AsyncHost`, which runs one or many
  actors in one event loop with per-edge FIFO links (in-process loopback,
  TCP, or Unix sockets), a wall-clock heartbeat ◇P₁, live invariant
  checking, wire logging, and crash injection via connection kill;
* :mod:`repro.net.cluster` — the multi-process launcher behind
  ``repro cluster`` / ``repro serve``: spawns one OS process per host,
  merges the traces and wire logs afterwards, and renders the
  safety/fairness verdict plus Prometheus metrics.
"""

from repro.net.codec import (
    FrameDecoder,
    WireCodecError,
    decode_message,
    encode_frame,
    encode_message,
    frame_size_bits,
)
from repro.net.host import AsyncHost, HostConfig
from repro.net.substrate import LiveSubstrate, LiveTimer

__all__ = [
    "AsyncHost",
    "FrameDecoder",
    "HostConfig",
    "LiveSubstrate",
    "LiveTimer",
    "WireCodecError",
    "decode_message",
    "encode_frame",
    "encode_message",
    "frame_size_bits",
]
