"""AsyncHost: Algorithm 1 actors on a real asyncio event loop.

One :class:`AsyncHost` owns one event loop and hosts one or more
**unchanged** :class:`~repro.core.diner.DinerActor` objects through
:class:`~repro.net.substrate.LiveSubstrate`.  Everything the simulator
kernel provided under virtual time is re-realised under wall-clock time:

* **Links** — actors on the same host are linked through
  ``loop.call_soon`` (asyncio's FIFO ready queue preserves send order;
  the message object is handed over and only its would-be frame size is
  accounted); actors on different hosts are linked through the binary
  codec and one TCP or Unix-socket connection per directed host pair
  (TCP byte ordering makes every directed channel FIFO).
* **◇P₁** — the same :class:`~repro.detectors.heartbeat.HeartbeatDetector`
  used under the kernel, now driven by wall-clock timers: heartbeats every
  ``heartbeat_interval`` seconds, adaptive per-neighbor deadlines.
* **Crash injection** — a scheduled :meth:`~repro.core.substrate.Actor.crash`
  freezes the actor (no more steps, deliveries dropped); once *every*
  local pid is down the host severs its connections, which is what a
  process crash looks like from the rest of the cluster.
* **Live checking** — the same :func:`repro.checks.standard_suite` the
  simulator kernel runs, fed online from this host's vantage point:
  state probes after every local step, message events on fully local
  edges, and deliver/drop events for inbound cross-host traffic
  (per-directed-channel sequence numbers ride in every frame, so the
  FIFO/no-loss assumption is asserted live).  Cross-host edges are
  re-judged post-hoc from the merged wire logs (see
  :mod:`repro.net.cluster`), through the identical checkers.
* **Observability** — the same metric names as the simulator
  (``net.messages_sent_total``, ``net.in_transit``, ``dining.*``) in a
  :class:`~repro.obs.metrics.MetricsRegistry`, plus an append-only wire
  log of every send/deliver/drop with wall-clock timestamps.

Exceptions raised inside actor steps or checkers are captured as run
violations (never thrown through the event loop), so a run always
completes and reports everything it saw.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.checks import (
    CHANNEL_BOUND,
    CheckConfig,
    DeliverEvent,
    DropEvent,
    ProbeEvent,
    SendEvent,
    Verdict,
    Violation,
    annotate_violations,
    wire_to_dict,
)
from repro.core.assembly import Wiring, schedule
from repro.core.diner import DinerActor
from repro.core.substrate import ProcessId
from repro.core.workload import AlwaysHungry, Workload
from repro.detectors.heartbeat import HeartbeatDetector
from repro.errors import ConfigurationError
from repro.graphs.coloring import Coloring
from repro.graphs.conflict import ConflictGraph
from repro.graphs.membership import MembershipLog
from repro.locks.messages import LeaseDenied
from repro.net.codec import (
    FrameDecoder,
    WireCodecError,
    encode_frame,
    frame_wire_bytes,
)
from repro.net.substrate import LiveSubstrate
from repro.obs.flight import FlightRecorder
from repro.obs.instrument import (
    DELIVERED,
    DROPPED,
    SENT,
    NetworkInstrument,
    TraceInstrument,
    render_in_transit,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import (
    LIFECYCLE_RECORDS,
    Span,
    SpanAssembler,
    completed_meals,
    dump_spans,
    flush_span_metrics,
    span_to_dict,
)
from repro.sim.monitors import message_layer
from repro.sim.rng import RandomStreams
from repro.trace.events import Crash, PhaseChange
from repro.trace.recorder import TraceRecorder
from repro.trace.serialize import dump_path, record_to_dict

__all__ = ["AsyncHost", "HostConfig", "run_host"]


@dataclass
class HostConfig:
    """Numeric knobs of a live run; one instance is shared by a cluster.

    Defaults are scaled for second-long demonstration runs: eating lasts
    50 ms and the detector heartbeats every 250 ms, so a 2-second run
    sees dozens of meals and several detector periods.
    """

    duration: float = 2.0
    seed: int = 0
    eat_time: float = 0.05
    think_time: float = 0.01
    max_sessions: Optional[int] = None
    heartbeat_interval: float = 0.25
    initial_timeout: float = 0.75
    timeout_increment: float = 0.25
    channel_bound: int = 4
    connect_timeout: float = 10.0
    #: Request tracing: span assembly plus the optional trace-context tag
    #: on every outbound frame (untraced peers decode them regardless).
    tracing: bool = True
    #: Serve Prometheus text on ``http://127.0.0.1:<port>/metrics`` while
    #: the host runs (0 = pick a free port; None = no endpoint).
    scrape_port: Optional[int] = None
    #: Dump the flight-recorder rings here on a FAIL verdict or any
    #: recorded violation (None = recorder off).
    flight_dir: Optional[str] = None
    flight_capacity: int = 512


class AsyncHost:
    """Hosts a subset of a conflict graph's diners on one event loop.

    Parameters
    ----------
    graph:
        The full conflict graph (every host knows the whole topology).
    placement:
        pid -> host index, for routing; this host runs the pids placed
        on ``host_index`` (``local_pids``, later joiners included).
        Defaults to everything local (single-host loopback mode).
    host_index, addresses, transport:
        This host's identity, the host-index -> address map, and the link
        kind: ``loopback`` (in-process only), ``unix`` (address is a
        socket path), or ``tcp`` (address is a ``[host, port]`` pair).
    epoch:
        Shared wall-clock zero (``time.time()`` units), so ``now`` is
        cross-process comparable and all hosts start their actors
        together.  ``None`` leaves it to :meth:`run`: the ``barrier``
        given there (the cluster launcher's readiness handshake), else
        the instant the transport is up.
    crash_times:
        pid -> crash instant (seconds after the epoch) for local pids.
    inject_latency:
        Optional adversarial delay hook for *local* edges:
        ``inject_latency(src, dst, message, now)`` returns extra wall
        seconds to hold the message before delivery.  When set, every
        local delivery routes through ``loop.call_later`` and is clamped
        to the channel's latest scheduled delivery, so injected jitter
        can never reorder a FIFO channel.  The fuzz engine uses this to
        run the same latency adversaries the kernel runs.
    diner_factory:
        Optional substitute actor constructor with the
        :class:`~repro.core.diner.DinerActor` signature (the mutation
        harness injects seeded bugs through it).
    detector:
        Optional detector *factory* with the kernel table's contract —
        called with the (union) graph.  ``None`` keeps the live default,
        a :class:`~repro.detectors.heartbeat.HeartbeatDetector`; the
        bake-off passes :class:`~repro.detectors.null.NullDetector` for
        the crash-oblivious classical baselines.
    """

    def __init__(
        self,
        graph: ConflictGraph,
        *,
        config: Optional[HostConfig] = None,
        placement: Optional[Mapping[ProcessId, int]] = None,
        host_index: int = 0,
        addresses: Optional[Mapping[int, object]] = None,
        transport: str = "loopback",
        epoch: Optional[float] = None,
        crash_times: Optional[Mapping[ProcessId, float]] = None,
        workload: Optional[Workload] = None,
        coloring: Optional[Coloring] = None,
        registry: Optional[MetricsRegistry] = None,
        run: str = "live",
        inject_latency=None,
        diner_factory=None,
        detector=None,
        membership: Optional[MembershipLog] = None,
    ) -> None:
        if transport not in ("loopback", "unix", "tcp"):
            raise ConfigurationError(f"unknown transport {transport!r}")
        self.graph = graph
        self.config = config or HostConfig()
        self.host_index = int(host_index)
        self.transport = transport
        self._addresses = dict(addresses or {})
        self._epoch: Optional[float] = epoch
        self._finished = False
        self.loop: Optional[asyncio.AbstractEventLoop] = None
        #: Inbound frames wait for the actors' start (and a known epoch).
        self._started = asyncio.Event()

        # One wiring for every substrate (repro.core.assembly), exactly
        # as the kernel table derives it.  Delta times are in host
        # seconds (seconds after the run epoch — callers scale plan time
        # before handing the log over).
        self.wiring = wiring = Wiring(graph, membership, coloring, diner_factory)
        self.membership = wiring.membership
        self.timeline = wiring.timeline
        self.union_graph = union = wiring.union
        self.coloring = wiring.coloring
        if wiring.dynamic and transport != "loopback":
            # rejoin and edge churn rely on this host's authoritative
            # per-channel sequence counters to fence stale traffic; on a
            # multi-host cluster only join/leave have that property.
            for delta in self.membership:
                if delta.verb in ("rejoin", "add_edge", "remove_edge"):
                    raise ConfigurationError(
                        f"membership verb {delta.verb!r} requires loopback "
                        "transport (single-host run)"
                    )

        self._placement: Dict[ProcessId, int] = (
            dict(placement)
            if placement is not None
            else {pid: self.host_index for pid in union.nodes}
        )
        for pid in union.nodes:
            if pid not in self._placement:
                raise ConfigurationError(f"placement does not cover process {pid}")
        self.local_pids: Tuple[ProcessId, ...] = tuple(
            pid for pid in union.nodes if self._placement[pid] == self.host_index
        )
        if not self.local_pids:
            raise ConfigurationError(f"host {self.host_index} owns no diners")
        if transport == "loopback":
            remote = [p for p in union.nodes if self._placement[p] != self.host_index]
            if remote:
                raise ConfigurationError(
                    f"loopback transport cannot reach remote pids {remote}"
                )

        self.streams = RandomStreams(self.config.seed)
        if detector is None:
            self.detector = HeartbeatDetector(
                union,
                interval=self.config.heartbeat_interval,
                initial_timeout=self.config.initial_timeout,
                timeout_increment=self.config.timeout_increment,
            )
        else:
            # A factory with the kernel table's detector contract:
            # called with the (union) graph, so crash-oblivious baselines
            # can run live with NullDetector and spend zero heartbeats.
            self.detector = detector(union)
        self.workload = workload if workload is not None else AlwaysHungry(
            eat_time=self.config.eat_time,
            think_time=self.config.think_time,
            max_sessions=self.config.max_sessions,
        )
        self.trace = TraceRecorder()

        self.registry = registry if registry is not None else MetricsRegistry(profile=False)
        self._run = run
        self._net_probe = NetworkInstrument(self.registry)
        self._trace_probe = TraceInstrument(self.registry, self)
        self._trace_probe.attach(self.trace)
        self.registry.add_finalizer(self._flush_probes)

        self.diners: Dict[ProcessId, DinerActor] = {}
        for pid in self.local_pids:
            if pid not in graph:
                continue  # joins later; its actor spawns at delta time
            diner = wiring.build_diner(self, pid)
            diner.bind_substrate(LiveSubstrate(self, pid))
            self.diners[pid] = diner

        self._inject_latency = inject_latency
        # Latest scheduled (delayed) delivery per local directed channel;
        # clamping against it keeps injected jitter FIFO-safe.
        self._delay_front: Dict[Tuple[ProcessId, ProcessId], float] = {}
        # Channel fences (dynamic membership): deliveries on a fenced
        # directed channel with seq <= fence are dropped — the live
        # analogue of the kernel network's rejoin/edge-rebuild hygiene.
        self._fences: Dict[Tuple[ProcessId, ProcessId], int] = {}

        local = set(self.local_pids)
        inside = tuple(
            edge for edge in sorted(union.edges) if edge[0] in local and edge[1] in local
        )

        self._crash_times: Dict[ProcessId, float] = {
            pid: float(t)
            for pid, t in (crash_times or {}).items()
            if pid in local
        }

        # The same substrate-agnostic suite the kernel runs, judging what
        # this host can see: local edges exactly, inbound remote channels
        # from the receiving side.  Violations are collected, never
        # raised — a live run always completes and reports what it saw.
        self.checks = wiring.build_suite(
            inside,
            CheckConfig(
                channel_bound=self.config.channel_bound,
                correct=tuple(
                    pid
                    for pid in self.local_pids
                    if pid not in self._crash_times and pid in wiring.residents
                ),
                crash_time_of=self._crash_times.get,
            ),
            self.diners,
            self._on_check_violation,
        )
        self._probe = ProbeEvent(0.0, self.diners)
        # Per-pid partial probes: a step at one diner can only change that
        # diner's own flags and the fork/token state of its incident
        # edges, so post-step checking restricts to those (the full-scan
        # probe remains for steps without a single responsible pid).
        self._pid_probes: Dict[ProcessId, ProbeEvent] = {
            pid: ProbeEvent(
                0.0,
                self.diners,
                edges=tuple(e for e in inside if pid in e),
                pairs=((pid, None),),
            )
            for pid in self.local_pids
        }
        # ``observe`` is looked up on every record, never captured: the
        # performance ledger rebinds ``host.checks.observe`` on the
        # instance after construction to time the live feed.
        self.trace.add_listener(
            lambda record: self.checks.observe(record), types=(PhaseChange, Crash)
        )
        self._end: Optional[float] = None

        self._next_seq: Dict[Tuple[ProcessId, ProcessId], int] = {}
        #: The wire log: every send/deliver/drop this host saw, as the
        #: very message events its suite observed.  Both endpoints of a
        #: cross-host edge stamp with the same machine's shared-epoch
        #: clock, so merged logs reconstruct exact per-edge occupancy
        #: with no skew correction.
        self.wire_events: List[Union[SendEvent, DeliverEvent, DropEvent]] = []
        self.violations: List[str] = []

        # Request tracing: lifecycle records drive the span assembler;
        # message stamps ride the wire as the codec's optional context
        # block, so cross-host spans merge without a shared clock oracle.
        self.tracer: Optional[SpanAssembler] = None
        self.spans: List[Span] = []
        if self.config.tracing:
            self.tracer = SpanAssembler()
            self.trace.add_listener(self.tracer.on_record, types=LIFECYCLE_RECORDS)

        self.flight: Optional[FlightRecorder] = None
        if self.config.flight_dir is not None:
            self.flight = FlightRecorder(self.config.flight_capacity)
            self.trace.add_listener(self._on_flight_record)

        self._server = None
        self._scrape_server = None
        self.scrape_address: Optional[Tuple[str, int]] = None
        self._writers: Dict[int, asyncio.StreamWriter] = {}
        self._reader_tasks: List[asyncio.Task] = []
        self._conn_writers: List[asyncio.StreamWriter] = []
        # Outbound coalescing: frames for a peer accumulate in one buffer
        # and a single call_soon flushes the batch — one syscall per loop
        # turn per peer instead of one writer.write per frame.
        self._out_buffers: Dict[int, bytearray] = {}
        #: Installed by :meth:`repro.locks.service.LockService.install`.
        self.lock_service = None

    # ------------------------------------------------------------------
    # Substrate surface (consumed by LiveSubstrate)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall-clock seconds since the shared run epoch."""
        if self._epoch is None:
            return 0.0
        return time.time() - self._epoch

    @property
    def placement(self) -> Dict[ProcessId, int]:
        """The pid -> host-index routing map (read-only by convention)."""
        return self._placement

    def at(self, instant: float, fn, label: str = "") -> None:
        """Run ``fn`` (guarded) at host time ``instant`` on the running loop.

        A due instant goes on the ready queue, not the timer heap, so it
        keeps its turn among the loop's other ``call_soon`` work.
        """
        loop = asyncio.get_running_loop()
        delay = instant - self.now
        if delay > 0:
            loop.call_later(delay, self.guarded(fn, label))
        else:
            loop.call_soon(self.guarded(fn, label))

    def guarded(self, callback, label: str = "", pid: Optional[ProcessId] = None):
        """Wrap an actor callback: capture exceptions, then run checkers.

        With ``pid`` the post-step probe restricts to that diner's state
        and incident edges (a timer or reevaluation callback can only
        have changed its own actor); without it the full scan runs.
        """

        def step() -> None:
            if self._finished:
                return
            try:
                callback()
            except Exception as exc:  # noqa: BLE001 - every actor fault is a finding
                self._record_violation(f"{label or 'step'}: {exc}")
                return
            self._after_step(pid)

        return step

    def transmit(self, src: ProcessId, dst: ProcessId, message) -> None:
        """Route one message: local FIFO queue or the peer connection.

        Local edges never touch the codec: the decoded form is what the
        receiving actor wants, so the message object rides ``call_soon``
        directly and only its *would-be* frame size is accounted
        (:func:`frame_wire_bytes` — exact, allocation-free).  Remote
        edges encode once and coalesce into the peer's output buffer.
        """
        if self._finished:
            return
        key = (src, dst)
        seq = self._next_seq.get(key, 0) + 1
        self._next_seq[key] = seq
        now = self.now
        context = None if self.tracer is None else self.tracer.send(now, src)
        name = type(message).__name__
        layer = message_layer(message)
        cells = self._net_probe.type_cells(message)
        cells[SENT] += 1
        peer = self._placement[dst]
        if peer == self.host_index:
            bits = 8 * frame_wire_bytes(src, dst, seq, message, context)
            event = SendEvent(now, src, dst, name, layer, seq, bits)
            self._wire(event)
            # Local edge: both endpoints observable, so the Section 7
            # bound checker (and the gauge rendered from it) is exact here.
            self.checks.observe(event)
            if self._inject_latency is None:
                self.loop.call_soon(self._receive, src, dst, seq, message, context)
            else:
                # Once a channel carries injected delays, every delivery on
                # it goes through call_later and is clamped to the channel
                # front — mixing call_soon with call_later could reorder.
                # Work in loop time: call_later schedules on the loop's
                # monotonic clock, and equal deadlines are not stable in
                # its timer heap — the front is therefore kept in loop
                # coordinates and each delivery lands strictly after it.
                delay = float(self._inject_latency(src, dst, message, now) or 0.0)
                when = self.loop.time() + max(0.0, delay)
                front = self._delay_front.get(key)
                if front is not None and when <= front:
                    when = front + 1e-6
                self._delay_front[key] = when
                self.loop.call_at(when, self._receive, src, dst, seq, message, context)
        else:
            # Remote edge: only this end is observable, so the send is
            # logged but not judged (per-edge occupancy is exact only
            # where both endpoints are local; the cluster merge owns it).
            frame = encode_frame(src, dst, seq, message, context)
            bits = 8 * len(frame)
            self._wire(SendEvent(now, src, dst, name, layer, seq, bits))
            writer = self._writers.get(peer)
            if writer is None or writer.is_closing():
                # The peer is gone (crashed hosts sever their links, and
                # hosts wind down independently): the message is lost in
                # transit, exactly a crash-model drop.
                self._wire(DropEvent(now, src, dst, name, layer, seq, bits))
                cells[DROPPED] += 1
            else:
                self._buffer_frame(peer, frame)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _buffer_frame(self, peer: int, frame: bytes) -> None:
        """Append to the peer's output buffer; flush once per loop turn."""
        buffer = self._out_buffers.get(peer)
        if buffer is None:
            self._out_buffers[peer] = bytearray(frame)
            self.loop.call_soon(self._flush_peer, peer)
        else:
            buffer += frame

    def _flush_peer(self, peer: int) -> None:
        # The buffer is handed to the transport, not copied: a peer has
        # an entry here exactly while a flush is scheduled for it.
        buffer = self._out_buffers.pop(peer, None)
        if buffer is None:
            return
        writer = self._writers.get(peer)
        if writer is not None and not writer.is_closing():
            writer.write(buffer)

    def _flush_all_peers(self) -> None:
        for peer in list(self._out_buffers):
            self._flush_peer(peer)

    def _receive(
        self,
        src: ProcessId,
        dst: ProcessId,
        seq: int,
        message,
        context: Optional[Tuple[int, int, int]] = None,
    ) -> None:
        if self._finished:
            return
        actor = self.diners.get(dst)
        now = self.now
        name = type(message).__name__
        if actor is None and (self.timeline is None or dst not in self.union_graph):
            self._record_violation(f"frame for non-local pid {dst} ({name} from {src})")
            return
        fence = self._fences.get((src, dst))
        # Three ways a frame dies at delivery.  Stale traffic from before
        # a rejoin or edge rebuild (seq at or below the channel fence),
        # exactly like the kernel network's channel fence.  A destination
        # of a dynamic run that has not joined yet or has left for good:
        # detector probing keeps flowing to such pids by design, so this
        # is a drop, not a fault.  A crashed actor.
        if (fence is not None and 0 < seq <= fence) or actor is None or actor.crashed:
            self._drop(src, dst, seq, message, now)
            return
        event = DeliverEvent(now, src, dst, name, message_layer(message), seq)
        self._wire(event)
        if self.tracer is not None:
            self.tracer.receive(now, src, dst, name, context)
        self.checks.observe(event)
        self._net_probe.type_cells(message)[DELIVERED] += 1
        try:
            actor.deliver(src, message)
        except Exception as exc:  # noqa: BLE001 - every actor fault is a finding
            self._record_violation(f"deliver {name} {src}->{dst}: {exc}")
            return
        self._after_step(dst)

    def _drop(self, src: ProcessId, dst: ProcessId, seq: int, message, now: float) -> None:
        """Log, judge and count one message discarded at delivery."""
        event = DropEvent(
            now, src, dst, type(message).__name__, message_layer(message), seq
        )
        self._wire(event)
        # The FIFO checker judges the carried seq either way; channel
        # occupancy only retires sends it actually saw (local edges).
        self.checks.observe(event)
        self._net_probe.type_cells(message)[DROPPED] += 1

    # ------------------------------------------------------------------
    # Checking
    # ------------------------------------------------------------------
    def _after_step(self, pid: Optional[ProcessId] = None) -> None:
        probe = self._probe if pid is None else self._pid_probes.get(pid, self._probe)
        probe.time = self.now
        self.checks.observe(probe)

    def _on_flight_record(self, record) -> None:
        self.flight.record_trace(record_to_dict(record))

    def _wire(self, event) -> None:
        self.wire_events.append(event)
        if self.flight is not None:
            self.flight.record_wire(wire_to_dict(event))

    def _on_check_violation(self, violation: Violation) -> None:
        self._record_violation(f"{violation.prop}: {violation.detail}")

    def _record_violation(self, detail: str) -> None:
        self.violations.append(detail)

    def _flush_probes(self) -> None:
        self._net_probe.flush()
        render_in_transit(
            self.registry, self.checks.checker(CHANNEL_BOUND).occupancy, self._run
        )
        self._trace_probe.flush()

    # ------------------------------------------------------------------
    # Transport lifecycle
    # ------------------------------------------------------------------
    def _peer_hosts(self) -> Tuple[int, ...]:
        """Host indices this host exchanges messages with.

        Peering is over the union graph: an edge that only exists after
        a join still needs its socket, and pre-dialing everything at
        start-up keeps the mid-run join path free of connect retries.
        """
        peers = set()
        for pid in self.local_pids:
            for neighbor in self.union_graph.neighbors(pid):
                owner = self._placement[neighbor]
                if owner != self.host_index:
                    peers.add(owner)
        return tuple(sorted(peers))

    async def _start_scrape(self) -> None:
        if self.config.scrape_port is None:
            return
        self._scrape_server = await asyncio.start_server(
            self._serve_scrape, host="127.0.0.1", port=int(self.config.scrape_port)
        )
        self.scrape_address = self._scrape_server.sockets[0].getsockname()[:2]

    async def _serve_scrape(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer one HTTP scrape with the registry's Prometheus text.

        Any request path gets the exposition (``/metrics`` by
        convention); the snapshot runs the registry finalizers, so
        mid-run scrapes see freshly flushed gauges and counters.
        """
        from repro.obs.report import render_prometheus

        try:
            while True:
                line = await reader.readline()
                if not line or line in (b"\r\n", b"\n"):
                    break
            body = render_prometheus(self.registry.snapshot()).encode("utf-8")
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
                + f"Content-Length: {len(body)}\r\n".encode("ascii")
                + b"Connection: close\r\n\r\n"
                + body
            )
            await writer.drain()
        except Exception:  # pragma: no cover - a dead scraper is not a finding
            pass
        finally:
            writer.close()

    async def _start_transport(self) -> None:
        if self.transport == "loopback":
            return
        address = self._addresses.get(self.host_index)
        if address is None:
            raise ConfigurationError(f"no address for host {self.host_index}")
        if self.transport == "unix":
            self._server = await asyncio.start_unix_server(
                self._on_connection, path=str(address)
            )
        else:
            bind_host, port = address
            self._server = await asyncio.start_server(
                self._on_connection, host=str(bind_host), port=int(port)
            )
        for peer in self._peer_hosts():
            self._writers[peer] = await self._dial(peer)

    async def _dial(self, peer: int) -> asyncio.StreamWriter:
        """Connect to ``peer``, retrying while the cluster is still coming up."""
        address = self._addresses.get(peer)
        if address is None:
            raise ConfigurationError(f"no address for peer host {peer}")
        deadline = time.time() + self.config.connect_timeout
        while True:
            try:
                if self.transport == "unix":
                    _, writer = await asyncio.open_unix_connection(path=str(address))
                else:
                    bind_host, port = address
                    _, writer = await asyncio.open_connection(str(bind_host), int(port))
                return writer
            except OSError:
                if time.time() >= deadline:
                    raise ConfigurationError(
                        f"host {self.host_index} could not reach host {peer} "
                        f"at {address!r} within {self.config.connect_timeout}s"
                    ) from None
                await asyncio.sleep(0.05)

    def _on_connection(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._conn_writers.append(writer)
        self._reader_tasks.append(
            asyncio.ensure_future(self._read_connection(reader, writer))
        )

    async def _read_connection(
        self,
        reader: asyncio.StreamReader,
        writer: Optional[asyncio.StreamWriter] = None,
    ) -> None:
        """Single reader per connection, multiplexing every session on it.

        Dining frames go to the local actors; ``layer="locks"`` frames go
        to the lease service with this connection's writer for replies
        (they never enter the dining checkers or the wire log — client
        sessions are not conflict-graph channels).  EOF or reset abandons
        every session bound to the connection, which is what starts the
        TTL-reclaim clock for a crashed client.

        A malformed frame ends the connection: the frames that arrived
        intact before it are still delivered, one finding is recorded,
        and the socket is closed — framing is lost, and a sender left
        writing to a reader that is gone would never see its drops.
        """
        decoder = FrameDecoder(capture_context=True)
        try:
            await self._started.wait()
            while True:
                data = await reader.read(65536)
                if not data:
                    return
                fault = None
                try:
                    frames = decoder.feed(data)
                except WireCodecError as exc:
                    frames, fault = exc.frames, exc
                for src, dst, seq, message, context in frames:
                    if message_layer(message) == "locks":
                        service = self.lock_service
                        if service is None:
                            if writer is not None and not writer.is_closing():
                                writer.write(
                                    encode_frame(0, src, 0, LeaseDenied(0, "no-service"))
                                )
                        else:
                            service.on_frame(src, message, writer)
                    else:
                        self._receive(src, dst, seq, message, context)
                if fault is not None:
                    self._record_violation(f"corrupt inbound stream: {fault}")
                    if writer is not None:
                        writer.close()
                    return
        finally:
            if self.lock_service is not None and writer is not None:
                self.lock_service.on_connection_lost(writer)

    def _kill_connections(self) -> None:
        """Sever every link: what the cluster sees when this host 'crashes'."""
        if self._server is not None:
            self._server.close()
        for writer in self._writers.values():
            if not writer.is_closing():
                writer.close()
        for writer in self._conn_writers:
            if not writer.is_closing():
                writer.close()
        for task in self._reader_tasks:
            task.cancel()

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    async def run(self, barrier=None) -> "AsyncHost":
        """Connect, run every local actor for ``config.duration``, wind down.

        Without an epoch, a ``barrier`` coroutine function supplies it."""
        self.loop = asyncio.get_running_loop()
        await self._start_scrape()
        await self._start_transport()
        if self._epoch is None:
            self._epoch = await barrier() if barrier is not None else time.time()
        start_delay = self._epoch - time.time()
        if start_delay > 0:
            await asyncio.sleep(start_delay)

        for pid, actor in sorted(self.diners.items()):
            self.guarded(actor.on_start, label=f"start@{pid}", pid=pid)()
        schedule(self, self._crash_times)
        self._started.set()

        remaining = self._epoch + self.config.duration - time.time()
        if remaining > 0:
            await asyncio.sleep(remaining)
        await self._shutdown()
        return self

    # ------------------------------------------------------------------
    # Dynamic membership: the seat repro.core.assembly.apply_delta acts on
    # ------------------------------------------------------------------
    def hosts(self, pid: ProcessId) -> bool:
        return self._placement[pid] == self.host_index

    def spawn(self, pid: ProcessId, neighbors, *, replace: bool) -> None:
        """Build, bind, and start a fresh incarnation of ``pid``."""
        diner = self.wiring.build_diner(self, pid, neighbors)
        diner.bind_substrate(LiveSubstrate(self, pid))
        self.diners[pid] = diner
        if replace:
            self._fence(key for key in self._next_seq if pid in key)
        label = ("rejoin" if replace else "join") + f"@{pid}"

        def start() -> None:
            diner.on_start()
            diner.reevaluate()

        self.guarded(start, label=label, pid=pid)()

    def retire(self, pid: ProcessId) -> None:
        actor = self.diners.get(pid)
        if actor is None or actor.crashed:
            return
        actor.crash()  # the actor freezes; its deliveries drop
        # The host severs its connections only once every local pid is
        # down — a pid that joins later is not hosted yet, and its
        # cross-host neighbors still need the sockets to reach it.
        if all(p in self.diners and self.diners[p].crashed for p in self.local_pids):
            self._kill_connections()

    def fence_edge(self, a: ProcessId, b: ProcessId) -> None:
        self._fence(((a, b), (b, a)))

    def _fence(self, channels) -> None:
        """Fence directed channels at their current seq (see ``_receive``)
        and in the channel-bound count."""
        occupancy = self.checks.checker(CHANNEL_BOUND).occupancy
        for key in channels:
            seq = self._next_seq.get(key)
            if seq:
                self._fences[key] = seq
                occupancy.fence(*key)

    async def _shutdown(self) -> None:
        if self.lock_service is not None:
            self.lock_service.shutdown()
            for lease in self.lock_service.core.leaked_leases():
                self._record_violation(
                    f"locks: leaked lease {lease.lease_id} on {lease.resource} "
                    f"(session {lease.session}, diner {lease.pid} not eating)"
                )
        self._finished = True
        self._end = self.now
        self._flush_all_peers()
        self._kill_connections()
        if self._server is not None:
            try:
                await self._server.wait_closed()
            except Exception:  # pragma: no cover - platform-dependent teardown
                pass
        await asyncio.sleep(0)  # let cancelled reader tasks unwind
        if self.tracer is not None:
            self.spans = self.tracer.finish(self._end)
            flush_span_metrics(self.spans, self.registry)
        self.registry.finalize()
        self._maybe_dump_flight()
        if self._scrape_server is not None:
            self._scrape_server.close()
            try:
                await self._scrape_server.wait_closed()
            except Exception:  # pragma: no cover - platform-dependent teardown
                pass

    def _maybe_dump_flight(self) -> None:
        """Dump the flight rings when the run ends badly (FAIL or fault)."""
        if self.flight is None:
            return
        verdict = self.verdict()
        crashed = sorted(pid for pid, d in self.diners.items() if d.crashed)
        unplanned = [pid for pid in crashed if pid not in self._crash_times]
        if verdict.ok and not self.violations and not unplanned:
            return
        if self.spans:
            for span in self.spans[-self.flight.capacity:]:
                self.flight.record_span(span_to_dict(span))
        reason = (
            "verdict-fail" if not verdict.ok
            else "violations" if self.violations
            else "unplanned-crash"
        )
        self.flight.dump(
            self.config.flight_dir,
            reason=reason,
            context={
                "host_index": self.host_index,
                "local_pids": list(self.local_pids),
                "violations": list(self.violations[:20]),
                "crashed": crashed,
                "horizon": self._end,
            },
        )

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def verdict(self) -> Verdict:
        """This host's view of the run, judged by the standard suite.

        Eventual properties are informational here (no settle/patience
        windows are set at host scope); the cluster merges per-host
        verdicts with a re-judged merged-stream verdict and applies the
        windows there.
        """
        horizon = self._end if self._end is not None else (
            self.now if self._epoch is not None else None
        )
        verdict = self.checks.finalize(horizon)
        if self.spans:
            # Name the violating request: every witness gains the
            # trace-id/span-id of the request span covering it.
            verdict = annotate_violations(verdict, self.spans)
        return verdict

    def result(self) -> Dict[str, object]:
        """Compact machine-readable summary of this host's run."""
        return {
            "host_index": self.host_index,
            "local_pids": list(self.local_pids),
            "epoch": self._epoch,
            "duration": self.config.duration,
            "transport": self.transport,
            "meals": {str(pid): d.meals_eaten for pid, d in sorted(self.diners.items())},
            "crashed": sorted(pid for pid, d in self.diners.items() if d.crashed),
            "violations": list(self.violations),
            "verdict": self.verdict().to_json(),
            "wire_events": len(self.wire_events),
            "spans": len(self.spans),
            "span_meals": completed_meals(self.spans),
            "scrape_address": list(self.scrape_address) if self.scrape_address else None,
            "false_suspicion_retractions": (
                self.detector.total_false_retractions()
                if hasattr(self.detector, "total_false_retractions")
                else 0
            ),
            "locks": (
                None if self.lock_service is None else self.lock_service.core.snapshot()
            ),
        }

    def write_outputs(self, directory: str) -> None:
        """Dump trace, wire log, metrics snapshot, and result summary."""
        os.makedirs(directory, exist_ok=True)
        dump_path(self.trace, os.path.join(directory, "trace.jsonl"))
        if self.spans:
            dump_spans(os.path.join(directory, "spans.jsonl"), self.spans)
        with open(os.path.join(directory, "wire.jsonl"), "w", encoding="utf-8") as stream:
            for event in self.wire_events:
                stream.write(json.dumps(wire_to_dict(event), sort_keys=True))
                stream.write("\n")
        with open(os.path.join(directory, "metrics.json"), "w", encoding="utf-8") as stream:
            json.dump(self.registry.snapshot(), stream, indent=2, sort_keys=True)
            stream.write("\n")
        with open(os.path.join(directory, "result.json"), "w", encoding="utf-8") as stream:
            json.dump(self.result(), stream, indent=2, sort_keys=True)
            stream.write("\n")


def run_host(host: AsyncHost) -> Dict[str, object]:
    """Run one host to completion on a fresh event loop; returns its result."""
    asyncio.run(host.run())
    return host.result()
