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

from typing import Dict, List, Optional

from repro.errors import ConfigurationError, CrashedProcessError, SimulationError
from repro.sim.actor import Actor, ProcessId
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator
from repro.sim.latency import FixedLatency, LatencyModel
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
    free list before touching the receiver, so the pool's size is bounded
    by the peak number of concurrently in-transit messages — a handful per
    channel under the paper's ≤4-per-edge regime — while a closure-based
    scheme allocates (closure + cell) on every single send.
    """

    __slots__ = ("_network", "src", "dst", "message", "seq")

    def __init__(self, network: "Network") -> None:
        self._network = network
        self.src: ProcessId = -1
        self.dst: ProcessId = -1
        self.message = None
        self.seq = 0

    def __call__(self) -> None:
        network = self._network
        src = self.src
        dst = self.dst
        message = self.message
        # Monitors read the consumed sequence number from the network
        # while their on_deliver/on_drop hook runs (see delivering_seq).
        network.delivering_seq = self.seq
        # Recycle before delivering: the queue entry referencing this
        # record is already popped, and the receiver's reaction may send
        # (and thus want a fresh record) immediately.
        self.message = None
        network._pool.append(self)
        receiver = network._actors[dst]
        now = network._sim._now
        fences = network._fences
        if fences:
            # A fenced channel (a rejoin replaced the endpoint, or the
            # edge itself was torn down and rebuilt) drops every message
            # sequenced at or before the fence: traffic from a dead
            # topology epoch must not reach the fresh incarnation.
            fence = fences.get((src, dst))
            if fence is not None and 0 < self.seq <= fence:
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
    """Message fabric connecting :class:`~repro.sim.actor.Actor` objects."""

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
        self._actors: Dict[ProcessId, Actor] = {}
        self._monitors: List[NetworkMonitor] = []
        # Per-directed-channel cell ``[front, seq]``: the last *scheduled*
        # delivery instant (clamping against it is what makes channels
        # FIFO) and the last assigned sequence number (0 until
        # :meth:`enable_sequencing`).  One dict lookup per send serves
        # both jobs.
        self._channels: Dict[tuple, list] = {}
        # Per-directed-channel drop fence: deliveries with a sequence
        # number at or below the fence are discarded (stale traffic from
        # before a rejoin or an edge rebuild).  Empty on static runs, so
        # the delivery path pays one truthiness test.
        self._fences: Dict[tuple, int] = {}
        self._sequencing = False
        #: Sequence number of the most recent send (monitors read it from
        #: their ``on_send`` hook) / of the delivery or drop currently
        #: being dispatched.  0 means unsequenced.
        self.last_send_seq = 0
        self.delivering_seq = 0
        # Free list of _Delivery records and the per-message-class label
        # cache ("deliver Fork"): the profiler aggregates labels to
        # exactly this granularity (see repro.obs.profile.normalize).
        self._pool: List[_Delivery] = []
        self._labels: Dict[type, str] = {}
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0

    # ------------------------------------------------------------------
    # Topology / wiring
    # ------------------------------------------------------------------
    def register(self, actor: Actor, *, replace: bool = False) -> None:
        """Add an actor to the network and bind it to the kernel.

        ``replace=True`` substitutes a fresh incarnation for an existing
        (crashed) actor — the rejoin path of dynamic membership.  Every
        channel touching the pid is fenced at its current sequence
        number, so traffic in flight to or from the dead incarnation is
        dropped at delivery instead of leaking into the new life
        (sequence numbers require :meth:`enable_sequencing`, which every
        checked run arms).
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
            for key, cell in self._channels.items():
                if pid in key and cell[1]:
                    self._fences[key] = cell[1]
        self._actors[pid] = actor
        actor.bind(self._sim, self)

    def fence_channels(self, a: ProcessId, b: ProcessId) -> None:
        """Fence both directions of edge ``(a, b)`` at their current seq.

        Used when a previously removed conflict edge is re-added: any
        message still in flight from the edge's earlier existence is
        dropped at delivery rather than delivered into the rebuilt
        hygienic link state.
        """
        for key in ((a, b), (b, a)):
            cell = self._channels.get(key)
            if cell is not None and cell[1]:
                self._fences[key] = cell[1]

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

    def enable_sequencing(self) -> None:
        """Stamp a per-directed-channel sequence number on every send.

        Mirrors the live wire codec, which numbers every frame on a
        channel regardless of layer — so the canonical FIFO checker
        judges both substrates over the identical stream.  Off by
        default: a bare unchecked run pays nothing.
        """
        self._sequencing = True

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

        sim = self._sim
        now = sim._now
        delay = self._fixed_delay
        if delay is None:
            delay = self._latency.sample(src, dst, now, sim.streams)
            if delay <= 0:
                raise SimulationError(
                    f"latency model produced non-positive delay {delay!r}"
                )
        arrival = now + delay
        key = (src, dst)
        channels = self._channels
        cell = channels.get(key)
        if cell is None:
            cell = channels[key] = [0.0, 0]
        if arrival < cell[0]:
            arrival = cell[0]
        cell[0] = arrival
        seq = 0
        if self._sequencing:
            cell[1] = seq = cell[1] + 1
            self.last_send_seq = seq

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
