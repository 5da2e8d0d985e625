"""Async lease client: many concurrent sessions over one connection.

A :class:`LockClient` owns one socket to one serving host and
multiplexes any number of concurrent acquire/release **sessions** over
it — one background reader task demultiplexes replies by their ``dst``
session id, so ten thousand in-flight acquires cost one connection and
one task, not ten thousand sockets.

Session ids are allocated from the client's private block (disjoint
blocks per client instance keep a fleet of loadgen connections from
colliding on the service's session table).  Each acquire is one
:class:`~repro.locks.messages.LeaseRequest` answered by a grant or a
denial; the grant carries the serving diner's *eating-span* trace
context, surfaced on the outcome so callers can verify the causal chain
client-request → diner-phase → grant.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.locks.messages import (
    SESSION_BASE,
    LeaseDenied,
    LeaseGrant,
    LeaseRelease,
    LeaseRequest,
)
from repro.net.codec import FrameDecoder, WireCodecError, encode_frame

__all__ = ["LeaseOutcome", "LockClient"]

#: Session-id block size per client instance (disjoint ranges, no locks).
SESSION_BLOCK = 1 << 20


@dataclass(slots=True)
class LeaseOutcome:
    """What one acquire produced.

    ``granted`` with ``lease_id``/``pid``/``ttl_ms`` on success;
    ``reason`` on denial.  ``context`` is the grant frame's trace context
    ``(trace_id, span_id, lamport)`` — ``span_id == 5`` is the serving
    diner's eating span.  ``latency`` is client-observed seconds from
    request write to reply.
    """

    session: int
    resource: str
    granted: bool
    reason: Optional[str] = None
    lease_id: int = 0
    pid: int = 0
    ttl_ms: int = 0
    context: Optional[Tuple[int, int, int]] = None
    latency: float = 0.0


class LockClient:
    """One connection to one serving host; any number of sessions."""

    def __init__(
        self,
        transport: str,
        address,
        *,
        client_index: int = 0,
    ) -> None:
        if transport not in ("unix", "tcp"):
            raise ValueError(f"client transport must be unix or tcp, not {transport!r}")
        self.transport = transport
        self.address = address
        self._next_session = SESSION_BASE + client_index * SESSION_BLOCK
        self._pending: Dict[int, asyncio.Future] = {}
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._closed = False

    # ------------------------------------------------------------------
    async def connect(self) -> "LockClient":
        if self.transport == "unix":
            self._reader, self._writer = await asyncio.open_unix_connection(
                path=str(self.address)
            )
        else:
            host, port = self.address
            self._reader, self._writer = await asyncio.open_connection(
                str(host), int(port)
            )
        self._reader_task = asyncio.ensure_future(self._read_loop())
        return self

    async def close(self) -> None:
        self._closed = True
        if self._writer is not None and not self._writer.is_closing():
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except Exception:  # pragma: no cover - platform-dependent teardown
                pass
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._fail_pending(ConnectionError("client closed"))

    async def __aenter__(self) -> "LockClient":
        return await self.connect()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    async def acquire(
        self, resource: str, ttl_ms: int, *, timeout: float = 10.0
    ) -> LeaseOutcome:
        """Ask for a lease; resolves on the grant or denial frame."""
        session = self._next_session
        self._next_session += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[session] = future
        started = time.perf_counter()
        try:
            if not self._send(session, 1, LeaseRequest(session, resource, ttl_ms)):
                raise ConnectionError("lease connection is closed")
            message, context = await asyncio.wait_for(future, timeout)
        finally:
            self._pending.pop(session, None)
        latency = time.perf_counter() - started
        if type(message) is LeaseGrant:
            return LeaseOutcome(
                session=session,
                resource=resource,
                granted=True,
                lease_id=message.lease_id,
                pid=message.sender,
                ttl_ms=message.ttl_ms,
                context=None if context is None else tuple(context),
                latency=latency,
            )
        return LeaseOutcome(
            session=session,
            resource=resource,
            granted=False,
            reason=message.reason if type(message) is LeaseDenied else "protocol",
            latency=latency,
        )

    async def release(self, outcome: LeaseOutcome) -> None:
        """Return a granted lease early; fire-and-forget, so a closed connection is fine."""
        if not outcome.granted:
            raise ValueError("cannot release a denied outcome")
        self._send(outcome.session, 2, LeaseRelease(outcome.session, outcome.lease_id))

    # ------------------------------------------------------------------
    def _send(self, session: int, seq: int, message) -> bool:
        writer = self._writer
        if writer is None or writer.is_closing():
            return False
        writer.write(encode_frame(session, 0, seq, message))
        return True

    async def _read_loop(self) -> None:
        decoder = FrameDecoder(capture_context=True)
        reader = self._reader
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                for _src, dst, _seq, message, context in decoder.feed(data):
                    future = self._pending.get(dst)
                    if future is not None and not future.done():
                        future.set_result((message, context))
        except (asyncio.CancelledError, WireCodecError, OSError):
            pass
        finally:
            if not self._closed:
                # Close our side too, so a later acquire fails at once.
                self._writer.close()
                self._fail_pending(ConnectionError("lease connection lost"))

    def _fail_pending(self, error: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()
