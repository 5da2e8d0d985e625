"""Wiring between a live simulation and a :class:`MetricsRegistry`.

:func:`instrument_table` attaches three probes to a fully built
:class:`~repro.core.table.DiningTable` (or anything with its shape —
the daemon and the drinking variant both reuse it):

* :class:`SimInstrument` — kernel step listener: events processed, a
  sampled queue-depth gauge, final virtual time, and (when the registry
  asks for profiling) the wall-clock :class:`KernelProfiler`.
* :class:`NetworkInstrument` — network monitor: messages sent /
  delivered / dropped by type and layer, plus the **live in-transit
  per-edge gauge** for the dining layer, which watches the paper's
  4-messages-per-edge bound online and counts any excursion above it.
* :class:`TraceInstrument` — trace listener: phase occupancy time,
  meals and hungry sessions, suspicions/refutations, crashes, hosted
  protocol steps and transient faults, and an online exclusion-violation
  tracker (two live neighbors eating at once) that pins the *time of the
  last violation* — the quantity ◇WX is about.

Every flush is delta-safe: snapshots can be taken mid-run and again at
the end without double counting.  All probes are passive observers —
they never change scheduling, so an instrumented run is bit-for-bit the
run you would have had without them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.profile import KernelProfiler
from repro.sim.monitors import message_layer
from repro.sim.network import NetworkMonitor
from repro.timebase import Instant
from repro.trace.events import (
    Crash,
    EATING,
    HUNGRY,
    PhaseChange,
    ProtocolStep,
    SuspicionChange,
    TransientFault,
)

ProcessId = int

#: How many kernel events pass between queue-depth samples.  Sampling
#: keeps the per-event overhead at one integer increment; the gauge's
#: time-weighted average is still faithful at this resolution.  Must be a
#: power of two: the step listener uses a mask, not a modulo.
QUEUE_SAMPLE_INTERVAL = 64
_QUEUE_SAMPLE_MASK = QUEUE_SAMPLE_INTERVAL - 1


class SimInstrument:
    """Kernel-level probe: event counts, queue depth, virtual time."""

    def __init__(self, sim, registry: MetricsRegistry) -> None:
        self._sim = sim
        self._registry = registry
        self._queue_gauge = registry.gauge("sim.queue_depth")
        self._ticks = 0
        self._flushed_events = 0
        sim.add_step_listener(self._on_step)

    def _on_step(self, now: Instant) -> None:
        # Bitwise sampling test: QUEUE_SAMPLE_INTERVAL is a power of two,
        # and this listener runs once per kernel event.
        self._ticks = ticks = self._ticks + 1
        if not ticks & _QUEUE_SAMPLE_MASK:
            self._queue_gauge.set(self._sim.queue_depth, now)

    def flush(self) -> None:
        processed = self._sim.processed_events
        self._registry.counter("sim.events_total").inc(processed - self._flushed_events)
        self._flushed_events = processed
        self._registry.gauge("sim.time").set(self._sim.now)
        self._queue_gauge.set(self._sim.queue_depth, self._sim.now)


#: Indices into :meth:`NetworkInstrument.type_cells`.
SENT, DELIVERED, DROPPED = 0, 1, 2


class NetworkInstrument(NetworkMonitor):
    """Traffic counters plus the live per-edge in-transit gauge.

    The dining layer is tracked per undirected edge: occupancy lives in
    plain int dicts on the hot path (the instrumented network is the
    busiest hook in the system), the bound is asserted online at every
    send, and :meth:`flush` materializes the readings as gauges labelled
    ``edge="a-b"`` — scoped by a per-simulation ``run`` tag so
    back-to-back tables sharing a registry never blend their readings.
    Other layers are counted but not tracked per edge: occupancy is only
    a paper quantity for dining messages.  A dining edge rising above
    ``bound`` increments an excursion counter — the online mirror of
    :class:`repro.checks.ChannelBoundChecker`, which (strictly armed)
    raises instead.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        *,
        run: str,
        bound: int = 4,
        edge_layer: str = "dining",
    ) -> None:
        self._registry = registry
        self._run = run
        self.bound = int(bound)
        self._edge_layer = edge_layer
        # ``layer`` is a class attribute of every message type, so all
        # per-message state memoizes on type(message).  The hot path only
        # touches plain ints: per type, a ``[sent, delivered, dropped,
        # on_edge_layer]`` cell list; per edge, a ``[current, peak,
        # peak_time]`` entry.  :meth:`flush` converts both to registry
        # instruments.
        self._types: Dict[type, List[int]] = {}
        self._type_meta: Dict[type, Tuple[str, str]] = {}
        self._flushed_types: Dict[type, List[int]] = {}
        self._edges: Dict[Tuple[ProcessId, ProcessId], List] = {}
        self._exceeded = registry.counter("net.channel_bound_exceeded_total")

    def _type_entry(self, message) -> List[int]:
        cls = type(message)
        layer = message_layer(message)
        self._type_meta[cls] = (cls.__name__, layer)
        entry = self._types[cls] = [0, 0, 0, 1 if layer == self._edge_layer else 0]
        return entry

    def type_cells(self, message) -> List[int]:
        """The traffic cells of ``type(message)``, indexed SENT/DELIVERED/DROPPED.

        For traffic only one endpoint of which is observable (the live
        host's cross-host edges): the caller bumps the type counts and
        the per-edge occupancy, exact only with both ends in view, is
        left alone.  :meth:`flush` renders the cells like any others.
        """
        try:
            return self._types[type(message)]
        except KeyError:
            return self._type_entry(message)

    # -- NetworkMonitor hooks ------------------------------------------
    # The try/except around the type dict keeps the steady state at one
    # dict hit per hook; the KeyError path runs once per message type.
    def on_send(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        try:
            cells = self._types[type(message)]
        except KeyError:
            cells = self._type_entry(message)
        cells[0] += 1
        if cells[3]:
            edge = (src, dst) if src <= dst else (dst, src)
            entry = self._edges.get(edge)
            if entry is None:
                entry = self._edges[edge] = [0, 0, time]
            entry[0] = occupancy = entry[0] + 1
            if occupancy > entry[1]:
                entry[1] = occupancy
                entry[2] = time
            if occupancy > self.bound:
                self._exceeded.value += 1.0

    def on_deliver(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        try:
            cells = self._types[type(message)]
        except KeyError:
            cells = self._type_entry(message)
        cells[1] += 1
        if cells[3]:
            entry = self._edges.get((src, dst) if src <= dst else (dst, src))
            if entry is not None:
                entry[0] -= 1

    def on_drop(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        try:
            cells = self._types[type(message)]
        except KeyError:
            cells = self._type_entry(message)
        cells[2] += 1
        if cells[3]:
            entry = self._edges.get((src, dst) if src <= dst else (dst, src))
            if entry is not None:
                entry[0] -= 1

    # -- Instrument materialization ------------------------------------
    _COUNTER_NAMES = (
        "net.messages_sent_total",
        "net.messages_delivered_total",
        "net.messages_dropped_total",
    )

    def flush(self) -> None:
        """Render the tracked ints as counters and gauges (delta-safe).

        Type cells become the three traffic counters (incremented by the
        delta since the last flush).  Edge entries become per-edge
        gauges: ``set(peak, peak_time)`` pins the gauge's max and its
        witness time; the trailing untimed ``set(current)`` leaves the
        gauge's value at the live in-flight count.  Repeating the same
        writes on a later flush is harmless.
        """
        registry = self._registry
        for cls, cells in self._types.items():
            seen = self._flushed_types.get(cls)
            if seen is None:
                seen = self._flushed_types[cls] = [0, 0, 0]
            name, layer = self._type_meta[cls]
            for idx, metric in enumerate(self._COUNTER_NAMES):
                registry.counter(metric, type=name, layer=layer).inc(cells[idx] - seen[idx])
                seen[idx] = cells[idx]
        for edge, entry in self._edges.items():
            gauge = registry.gauge(
                "net.in_transit",
                edge=f"{edge[0]}-{edge[1]}",
                layer=self._edge_layer,
                run=self._run,
            )
            gauge.set(entry[1], entry[2])
            gauge.set(entry[0])

    # -- Queries --------------------------------------------------------
    def max_in_transit(self) -> int:
        """Largest per-edge occupancy ever observed (0 if no traffic)."""
        return max((entry[1] for entry in self._edges.values()), default=0)

    def edge_peaks(self) -> Dict[Tuple[ProcessId, ProcessId], int]:
        """Peak in-transit count per undirected edge."""
        return {edge: self._edges[edge][1] for edge in sorted(self._edges)}


class MessageBitsInstrument(NetworkMonitor):
    """Per-type message-*bit* accounting under the Section 7 model.

    Prices every sent message with
    :func:`repro.core.messages.message_size_bits` — tag + sender id,
    plus declared ``payload_bits()`` for value-carrying types — and
    keeps, per message type: count, total bits, and the largest single
    frame.  This is the instrument that makes the bake-off's headline
    contrast measurable: Algorithm 1's frames are all O(log n) bits
    while the bakery's grow with its tickets, so ``max_bits`` for
    ``BakeryNumber``/``BakeryRequest`` climbs over a long contended run
    where every Algorithm 1 type stays flat.

    Hot path matches :class:`NetworkInstrument`: one dict hit per send
    in the steady state.  Bits are computed per *type and value*, so the
    cost is one ``message_size_bits`` call per send — acceptable for
    bake-off cells, which is why this probe is opt-in rather than part
    of :func:`instrument_table`.
    """

    def __init__(self, *, n_processes: int, n_colors: int, layer: str = "dining") -> None:
        from repro.core.messages import message_size_bits

        self._size_bits = message_size_bits
        self.n_processes = int(n_processes)
        self.n_colors = int(n_colors)
        self._layer = layer
        # type -> [count, total_bits, max_bits]
        self._cells: Dict[type, List[int]] = {}
        self._tracked: Dict[type, bool] = {}

    def on_send(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        cls = type(message)
        tracked = self._tracked.get(cls)
        if tracked is None:
            tracked = self._tracked[cls] = message_layer(message) == self._layer
        if not tracked:
            return
        bits = self._size_bits(
            message, n_processes=self.n_processes, n_colors=self.n_colors
        )
        try:
            cells = self._cells[cls]
        except KeyError:
            self._cells[cls] = [1, bits, bits]
            return
        cells[0] += 1
        cells[1] += bits
        if bits > cells[2]:
            cells[2] = bits

    def on_deliver(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        pass

    def on_drop(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        pass

    # -- Queries --------------------------------------------------------
    def by_type(self) -> Dict[str, Dict[str, int]]:
        """``{type name: {count, total_bits, max_bits}}``, name-sorted."""
        rows = {
            cls.__name__: {
                "count": cells[0],
                "total_bits": cells[1],
                "max_bits": cells[2],
            }
            for cls, cells in self._cells.items()
        }
        return dict(sorted(rows.items()))

    def total_messages(self) -> int:
        return sum(cells[0] for cells in self._cells.values())

    def total_bits(self) -> int:
        return sum(cells[1] for cells in self._cells.values())

    def max_bits(self) -> int:
        """Largest single tracked frame ever sent (0 if no traffic)."""
        return max((cells[2] for cells in self._cells.values()), default=0)


class TraceInstrument:
    """Trace-record probe: phases, sessions, suspicions, violations."""

    def __init__(self, registry: MetricsRegistry, graph, sim) -> None:
        self._registry = registry
        self._graph = graph
        self._sim = sim
        self._phase_since: Dict[ProcessId, Tuple[str, float]] = {}
        self._eating: set = set()
        self._meals = registry.counter("dining.meals_total")
        self._sessions = registry.counter("dining.sessions_total")
        self._violations = registry.counter("dining.violations_total")
        self._last_violation = registry.gauge("dining.last_violation_time")
        self._suspicions = registry.counter("detector.suspicions_total")
        self._refutations = registry.counter("detector.refutations_total")
        self._crashes = registry.counter("crashes_total")
        self._steps = registry.counter("daemon.protocol_steps_total")
        self._faults = registry.counter("daemon.transient_faults_total")
        self._phase_time: Dict[str, Counter] = {}
        # Record-type dispatch table: one dict hit per trace record, so
        # the kinds this probe ignores (doorway changes, mostly) cost a
        # single lookup instead of a comparison chain.
        self._handlers = {
            PhaseChange: self._on_phase,
            SuspicionChange: self._on_suspicion,
            Crash: self._on_crash,
            ProtocolStep: self._on_protocol_step,
            TransientFault: self._on_fault,
        }

    def __call__(self, record: object) -> None:
        handler = self._handlers.get(type(record))
        if handler is not None:
            handler(record)

    def attach(self, trace) -> None:
        """Register on ``trace`` with per-type listeners.

        Typed registration lets the recorder skip this probe entirely for
        record kinds it ignores and call the right handler directly for
        the rest — one call layer less than routing through
        :meth:`__call__` (which remains for untyped ``add_listener`` use).
        """
        for record_type, handler in self._handlers.items():
            trace.add_listener(handler, types=(record_type,))

    def _on_suspicion(self, record: SuspicionChange) -> None:
        (self._suspicions if record.suspected else self._refutations).inc()

    def _on_crash(self, record: Crash) -> None:
        self._crashes.inc()
        self._eating.discard(record.pid)
        self._close_phase(record.pid, record.time)

    def _on_protocol_step(self, record: ProtocolStep) -> None:
        self._steps.inc()

    def _on_fault(self, record: TransientFault) -> None:
        self._faults.inc()

    def _phase_counter(self, phase: str) -> Counter:
        counter = self._phase_time.get(phase)
        if counter is None:
            counter = self._phase_time[phase] = self._registry.counter(
                "dining.phase_seconds_total", phase=phase
            )
        return counter

    def _close_phase(self, pid: ProcessId, now: float) -> None:
        entry = self._phase_since.pop(pid, None)
        if entry is not None:
            phase, since = entry
            if now > since:
                self._phase_counter(phase).inc(now - since)

    def _on_phase(self, record: PhaseChange) -> None:
        pid, time = record.pid, record.time
        entry = self._phase_since.get(pid)
        if entry is None:
            # First observation: the diner held old_phase since t=0.
            if time > 0:
                self._phase_counter(record.old_phase).inc(time)
        else:
            phase, since = entry
            if time > since:
                counter = self._phase_time.get(phase)
                if counter is None:
                    counter = self._phase_counter(phase)
                counter.value += time - since
        new_phase = record.new_phase
        self._phase_since[pid] = (new_phase, time)

        if new_phase == EATING:
            self._meals.value += 1.0
            eating = self._eating
            for neighbor in self._graph.neighbors(pid):
                if neighbor in eating:
                    self._violations.inc()
                    self._last_violation.set(time, time)
            eating.add(pid)
        else:
            self._eating.discard(pid)
            if new_phase == HUNGRY:
                self._sessions.value += 1.0

    def flush(self) -> None:
        """Account phase occupancy up to the current virtual time."""
        now = self._sim.now
        for pid, (phase, since) in list(self._phase_since.items()):
            if now > since:
                self._phase_counter(phase).inc(now - since)
                self._phase_since[pid] = (phase, now)


class QuiescenceInstrument:
    """Folds the table's quiescence monitor into the registry.

    Reads :class:`repro.sim.monitors.QuiescenceMonitor` incrementally:
    every post-crash send becomes a histogram observation over *virtual
    time* (the cumulative curve the report renders) plus per-layer
    counters and a last-send-time gauge.
    """

    def __init__(self, registry: MetricsRegistry, quiescence) -> None:
        self._registry = registry
        self._quiescence = quiescence
        self._cursor = 0
        self._last = registry.gauge("quiescence.last_post_crash_send_time")
        self._times = registry.histogram("quiescence.post_crash_send_time")

    def flush(self) -> None:
        sends = self._quiescence.post_crash_sends
        for record in sends[self._cursor:]:
            self._registry.counter(
                "quiescence.post_crash_sends_total", layer=record.layer
            ).inc()
            self._times.observe(record.time)
            # Sends arrive in simulation order, so times are nondecreasing.
            self._last.set(record.time, record.time)
        self._cursor = len(sends)


class Instrumentation:
    """Handle over every probe attached to one simulation."""

    def __init__(
        self,
        registry: MetricsRegistry,
        sim_probe: SimInstrument,
        network_probe: NetworkInstrument,
        trace_probe: TraceInstrument,
        quiescence_probe: Optional[QuiescenceInstrument],
        profiler: Optional[KernelProfiler],
        checks=None,
    ) -> None:
        self.registry = registry
        self.sim = sim_probe
        self.network = network_probe
        self.trace = trace_probe
        self.quiescence = quiescence_probe
        self.profiler = profiler
        self.checks = checks

    def flush(self) -> None:
        self.sim.flush()
        self.network.flush()
        self.trace.flush()
        if self.quiescence is not None:
            self.quiescence.flush()
        if self.profiler is not None:
            self.profiler.flush_into(self.registry)
        if self.checks is not None:
            from repro.obs.profile import flush_check_profile

            flush_check_profile(self.checks, self.registry)


def instrument_table(table, registry: MetricsRegistry, *, bound: int = 4) -> Instrumentation:
    """Attach the full probe set to a built table; returns the handle.

    The registry remembers the instrumentation through a finalizer, so
    ``registry.snapshot()`` is always taken over flushed, current
    numbers — callers never invoke :meth:`Instrumentation.flush`
    themselves.
    """
    sim_probe = SimInstrument(table.sim, registry)
    network_probe = NetworkInstrument(
        registry, run=registry.next_instance("table"), bound=bound
    )
    table.network.add_monitor(network_probe)
    trace_probe = TraceInstrument(registry, table.graph, table.sim)
    trace_probe.attach(table.trace)
    quiescence_probe = (
        QuiescenceInstrument(registry, table.quiescence)
        if getattr(table, "quiescence", None) is not None
        else None
    )
    profiler = None
    if registry.profile and table.sim.profiler is None:
        profiler = KernelProfiler()
        table.sim.profiler = profiler
    handle = Instrumentation(
        registry,
        sim_probe,
        network_probe,
        trace_probe,
        quiescence_probe,
        profiler,
        checks=getattr(table, "checks", None),
    )
    registry.add_finalizer(handle.flush)
    return handle
