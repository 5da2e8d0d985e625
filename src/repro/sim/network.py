"""Reliable FIFO message-passing network.

The paper assumes reliable FIFO channels: every message sent to a correct
process is eventually delivered, in send order, without loss, duplication,
or corruption.  :class:`Network` implements exactly that on top of the
kernel:

* **Reliability** — every send schedules exactly one delivery event.
* **FIFO** — the delivery time of each message is clamped to be no earlier
  than the previously scheduled delivery on the same directed channel;
  combined with the kernel's stable tie-breaking this preserves send order
  even when a later message samples a shorter delay.
* **Crash semantics** — messages addressed to a process that has crashed
  by delivery time are dropped (counted, for quiescence analysis), and the
  network refuses sends *from* crashed processes.

Monitors (:mod:`repro.sim.monitors`) observe every send/deliver/drop, which
is how the Section 7 channel-capacity and quiescence experiments measure
in-transit occupancy without touching the algorithms.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, CrashedProcessError, SimulationError
from repro.sim.actor import Actor, KernelSubstrate, ProcessId
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator
from repro.sim.latency import FixedLatency, LatencyModel, channel_stream_name
from repro.timebase import Instant


class NetworkMonitor:
    """Observer interface for network traffic; all hooks optional."""

    def on_send(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        """A message entered the channel ``src -> dst``."""

    def on_deliver(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        """A message left the channel and was handed to the destination."""

    def on_drop(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        """A message was discarded because the destination had crashed."""


class _Delivery:
    """A pooled, reusable delivery record (arena-style reuse).

    One callable object per *in-flight* message instead of one closure per
    *send*: when the delivery fires it returns itself to the network's
    free list before touching the receiver, unless it already holds as
    many spares as there are messages in flight (a t = 0 burst leaves no
    pool behind), while a closure-based scheme allocates (closure + cell)
    on every single send.
    """

    __slots__ = ("_network", "src", "dst", "message", "seq", "channel")

    def __init__(self, network: "Network") -> None:
        self._network = network
        self.src: ProcessId = -1
        self.dst: ProcessId = -1
        self.message = None
        self.seq = 0
        self.channel = 0

    def __call__(self) -> None:
        network = self._network
        src = self.src
        dst = self.dst
        message = self.message
        # Monitors read the consumed sequence number and channel id from
        # the network while their on_deliver/on_drop hook runs.
        network.delivering_seq = self.seq
        network.delivering_channel = self.channel
        # Recycle before delivering: the queue entry referencing this
        # record is already popped, and the receiver's reaction may send
        # (and thus want a fresh record) immediately.
        self.message = None
        pool = network._pool
        if len(pool) < network.sent_count - network.delivered_count - network.dropped_count:
            pool.append(self)
        receiver = network._actors[dst]
        now = network._sim._now
        fences = network._fences
        if fences:
            # A fenced channel (a rejoin replaced the endpoint, or the
            # edge itself was torn down and rebuilt) drops every message
            # sequenced at or before the fence: traffic from a dead
            # topology epoch must not reach the fresh incarnation.
            fence = fences.get(self.channel)
            if fence is not None and self.seq <= fence:
                network.dropped_count += 1
                for monitor in network._monitors:
                    monitor.on_drop(src, dst, message, now)
                return
        if receiver.crashed:
            network.dropped_count += 1
            for monitor in network._monitors:
                monitor.on_drop(src, dst, message, now)
            return
        network.delivered_count += 1
        monitors = network._monitors
        if monitors:
            for monitor in monitors:
                monitor.on_deliver(src, dst, message, now)
        receiver.deliver(src, message)


class Network:
    """Message fabric connecting :class:`~repro.sim.actor.Actor` objects.

    Each directed channel gets a dense integer id the first time either
    direction is used: ``a -> b`` and ``b -> a`` open together as ids
    ``2k`` (lower pid first) and ``2k + 1``, so a channel's reverse is
    ``id ^ 1``.  Per-channel state lives in arrays indexed by that id
    (:meth:`channel_table`), not in objects keyed by ``(src, dst)``.
    """

    def __init__(
        self,
        sim: Simulator,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self._sim = sim
        self._latency: LatencyModel = latency if latency is not None else FixedLatency(1.0)
        # Constant-latency fast path: FixedLatency validated its delay at
        # construction, so the per-send ``sample`` frame can be skipped.
        self._fixed_delay: Optional[float] = (
            self._latency.delay if type(self._latency) is FixedLatency else None
        )
        # A model that draws from the channel's own stream is handed the
        # network's stream table pointed at the channel's row (opened with
        # the channel, so row = channel id); any other model is asked
        # ``sample(src, dst, now, streams)`` per send.
        self._draw = getattr(self._latency, "draw", None) if self._fixed_delay is None else None
        self._rows = sim.streams.rows() if self._draw is not None else None
        self._actors: Dict[ProcessId, Actor] = {}
        self._monitors: List[NetworkMonitor] = []
        # pid -> {peer: id of the channel pid -> peer}, for opened channels.
        self._ids: Dict[ProcessId, Dict[ProcessId, int]] = {}
        self._tables: List[array] = []
        # Per channel id: the last *scheduled* delivery instant (clamping
        # against it is what makes channels FIFO) and the last assigned
        # sequence number.
        self._front = self.channel_table("d")
        self._seq = self.channel_table("I")
        # Channel id -> drop fence: deliveries with a sequence number at
        # or below the fence are discarded (stale traffic from before a
        # rejoin or an edge rebuild).  Empty on static runs, so the
        # delivery path pays one truthiness test.
        self._fences: Dict[int, int] = {}
        #: Sequence number and channel id of the most recent send
        #: (monitors read them from their ``on_send`` hook) / of the
        #: delivery or drop currently being dispatched.  Every send is
        #: numbered, from 1 per channel, like the live wire codec's frames.
        self.last_send_seq = 0
        self.last_send_channel = 0
        self.delivering_seq = 0
        self.delivering_channel = 0
        # Free list of _Delivery records and the per-message-class label
        # cache ("deliver Fork"): the profiler aggregates labels to
        # exactly this granularity (see repro.obs.profile.normalize).
        self._pool: List[_Delivery] = []
        self._labels: Dict[type, str] = {}
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        # Every registered actor shares it: it holds no per-actor state.
        self._substrate = KernelSubstrate(sim, self)

    # ------------------------------------------------------------------
    # Topology / wiring
    # ------------------------------------------------------------------
    def register(self, actor: Actor, *, replace: bool = False) -> None:
        """Add an actor to the network and bind it to the kernel.

        ``replace=True`` substitutes a fresh incarnation for an existing
        (crashed) actor — the rejoin path of dynamic membership.  Every
        channel touching the pid is fenced at its current sequence
        number, so traffic in flight to or from the dead incarnation is
        dropped at delivery instead of leaking into the new life.
        """
        pid = actor.pid
        if pid in self._actors:
            if not replace:
                raise ConfigurationError(f"duplicate process id {pid}")
            old = self._actors[pid]
            if not old.crashed:
                raise ConfigurationError(
                    f"cannot replace live process {pid}; crash (leave) it first"
                )
            for channel in self._ids[pid].values():
                self._fence(channel)
        self._actors[pid] = actor
        self._ids.setdefault(pid, {})
        actor.bind_substrate(self._substrate)

    def fence_channels(self, a: ProcessId, b: ProcessId) -> None:
        """Fence both directions of edge ``(a, b)`` at their current seq.

        Used when a previously removed conflict edge is re-added: any
        message still in flight from the edge's earlier existence is
        dropped at delivery rather than delivered into the rebuilt
        hygienic link state.
        """
        channel = self._ids.get(a, {}).get(b)
        if channel is not None:
            self._fence(channel)

    def _fence(self, channel: int) -> None:
        """Fence both directions of ``channel``'s edge at their current seq."""
        for one in (channel, channel ^ 1):
            if self._seq[one]:
                self._fences[one] = self._seq[one]

    def channel_ids(self, pid: ProcessId) -> Dict[ProcessId, int]:
        """``{peer: id of the channel pid -> peer}`` over opened channels."""
        return self._ids.get(pid, {})

    def channel_table(self, typecode: str) -> array:
        """A zeroed ``array`` with an entry per channel id, grown as channels
        open; index it by :attr:`last_send_channel` / :attr:`delivering_channel`."""
        opened = len(self._tables[0]) if self._tables else 0
        table = array(typecode, bytes(array(typecode).itemsize * opened))
        self._tables.append(table)
        return table

    def _open(self, src: ProcessId, dst: ProcessId) -> int:
        """Open both directions of ``src <-> dst``; returns the id of ``src -> dst``."""
        low, high = (src, dst) if src < dst else (dst, src)
        channel = len(self._front)
        self._ids[low][high] = channel
        self._ids[high][low] = channel + 1
        for table in self._tables:
            table.extend((0, 0))
        if self._rows is not None:  # the name derives the seed and is not kept
            self._rows.add(channel_stream_name(low, high))
            self._rows.add(channel_stream_name(high, low))
        return self._ids[src][dst]

    def actor(self, pid: ProcessId) -> Actor:
        try:
            return self._actors[pid]
        except KeyError:
            raise ConfigurationError(f"unknown process id {pid}") from None

    @property
    def pids(self) -> List[ProcessId]:
        return sorted(self._actors)

    def add_monitor(self, monitor: NetworkMonitor) -> None:
        self._monitors.append(monitor)

    def start(self) -> None:
        """Invoke every actor's ``on_start`` hook (in pid order)."""
        for pid in self.pids:
            actor = self._actors[pid]
            if not actor.crashed:
                actor.on_start()
                actor.reevaluate()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def send(self, src: ProcessId, dst: ProcessId, message) -> None:
        """Transmit ``message`` on the directed FIFO channel ``src -> dst``."""
        actors = self._actors
        sender = actors.get(src)
        if sender is None:
            raise ConfigurationError(f"unknown sender {src}")
        if dst not in actors:
            raise ConfigurationError(f"unknown destination {dst}")
        if sender.crashed:
            raise CrashedProcessError(f"crashed process {src} attempted to send")

        channel = self._ids[src].get(dst)
        if channel is None:
            channel = self._open(src, dst)
        sim = self._sim
        now = sim._now
        delay = self._fixed_delay
        if delay is None:
            draw = self._draw
            if draw is not None:
                rows = self._rows
                rows.row = channel
                delay = draw(rows, now)
            else:
                delay = self._latency.sample(src, dst, now, sim.streams)
            if delay <= 0:
                raise SimulationError(
                    f"latency model produced non-positive delay {delay!r}"
                )
        arrival = now + delay
        front = self._front
        if arrival < front[channel]:
            arrival = front[channel]
        front[channel] = arrival
        seqs = self._seq
        seq = seqs[channel] + 1
        seqs[channel] = seq
        self.last_send_seq = seq
        self.last_send_channel = channel

        self.sent_count += 1
        monitors = self._monitors
        if monitors:
            for monitor in monitors:
                monitor.on_send(src, dst, message, now)

        pool = self._pool
        record = pool.pop() if pool else _Delivery(self)
        record.src = src
        record.dst = dst
        record.message = message
        record.seq = seq
        record.channel = channel
        cls = type(message)
        labels = self._labels
        label = labels.get(cls)
        if label is None:
            label = labels[cls] = f"deliver {cls.__name__}"
        sim.schedule_delivery(arrival, record, label)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash(self, pid: ProcessId) -> None:
        """Crash process ``pid`` immediately."""
        self.actor(pid).crash()

    def crash_at(self, pid: ProcessId, time: Instant) -> None:
        """Schedule a crash of ``pid`` at absolute ``time`` (CONTROL priority)."""
        self._sim.schedule_at(
            time,
            lambda: self.actor(pid).crash(),
            priority=EventPriority.CONTROL,
            label=f"crash {pid}",
        )
