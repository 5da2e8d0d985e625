"""Kernel adapter: drive a :class:`~repro.checks.suite.CheckSuite` from a
running discrete-event simulation.

The adapter is the only glue between the kernel and the checks
subsystem: it registers as a network monitor, as a step listener (state
probes), and as a typed trace listener (phase and doorway changes,
crashes).  Per-directed-channel sequence numbers are stamped by the
*network itself* on every send, exactly like the live wire codec numbers
every frame, so the canonical FIFO checker judges both substrates over
the identical all-layer stream and the adapter only has to compare the
consumed number against the channel's expected position.

Checking is armed by default on every :class:`~repro.core.table.DiningTable`,
so this path has a hard wall-clock budget (see
``benchmarks/bench_checks_overhead.py``).  Four techniques keep it cheap:

* **The adapter subsumes the always-on monitors.**  A bare table counts
  channel occupancy, message statistics, and post-crash traffic through
  three registered monitors.  With a suite attached the adapter feeds
  the *same* canonical implementations
  (:class:`~repro.checks.properties.ChannelOccupancy`, the suite's
  :class:`~repro.checks.properties.QuiescenceChecker`, a
  :class:`~repro.sim.monitors.DeferredMessageStats`) exactly once and
  the table exposes those very objects as ``occupancy`` / ``quiescence``
  / ``message_stats`` — the checked run performs each count one time,
  not two, and registers one observer where the bare table registers
  three.
* **Allocation-free checker calls.**  Wire traffic is fed through the
  checkers' ``record_*`` fast paths instead of materializing one event
  dataclass per message and paying the suite's type dispatch — the
  checking *logic* still lives in exactly one place,
  :mod:`repro.checks.properties`.  The two highest-volume judgements
  (FIFO's in-order comparison, Lemma 2.2's outstanding-ping guard) run
  inline against the checkers' own shared state and call the canonical
  method only when the guard trips, so the common case pays no function
  call at all.  The network hooks themselves are
  closures over everything they touch (checker entry points, the dirty
  sets, the counters), built once in ``__init__`` and installed as
  instance attributes, so the per-message path does no bound-method
  creation and almost no attribute lookups.  Sends to destinations that
  never crash skip the quiescence call entirely (they can never be
  post-crash sends); sequencing lives in the network send path, so the
  adapter keeps a consumed position and an outstanding-ping count per
  channel, in arrays the network sizes and indexed by the channel id it
  hands every hook (no ``(src, dst)`` key per channel); occupancy is
  restricted to the checked channel layer (the paper's channel *bound* is about dining traffic;
  heartbeats are loss-tolerant by design) while FIFO order is judged
  for every layer, as on the wire; the per-checker ``observed``
  counters are reconciled by a suite finalizer, so verdict skip/pass
  semantics are untouched.
* **Deferred eventual-event replay.**  The eventual-property checkers
  (◇WX, progress, overtaking) never judge anything before ``finalize``,
  so the adapter does not pay the per-event suite dispatch while the
  simulation runs: phase and crash trace records are replayed to the
  suite — in trace order, so verdicts are identical to online feeding —
  by a suite finalizer when a verdict is actually requested.  The one
  online consequence of a crash, quiescence's need to recognise
  post-crash sends, is covered by
  :meth:`~repro.checks.properties.QuiescenceChecker.note_crash`.
* **Change-tracking state probes.**  Fork/token state only changes when
  a fork-carrying message arrives, and the diner-local flags (``ack``,
  ``replied``, ``inside``, the phase) only change at ping/ack traffic
  and phase/doorway transitions.  The *diners themselves* push the dirt
  (deduplicated per step): each handler reports the link or edge it
  actually mutated through the sinks :meth:`KernelCheckAdapter
  .install_diner` arms — the adapter no longer reverse-engineers dirty
  state from message kinds on the deliver path — with phase/doorway
  trace records still marking their diner, and the post-event step probe
  re-checks only the dirty slice — the same
  :func:`~repro.checks.properties.probe_violations` /
  :func:`~repro.checks.properties.diner_local_violations` predicates,
  restricted — instead of rescanning every edge of every diner after
  every event.  A full-state probe still runs once at attach, so the
  initial fork/token distribution is judged and the state-based
  properties never report ``skip`` on a kernel run.

In ``strict`` mode an immediate safety violation raises the same typed
exception the pre-refactor checkers did — :class:`ForkDuplicationError`,
:class:`ChannelCapacityError`, :class:`FifoViolationError`, or plain
:class:`InvariantViolation` — from inside the offending event, so tests
keep their teeth.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, List, Tuple

from repro.checks.properties import (
    CHANNEL_BOUND,
    DINER_LOCAL,
    FIFO,
    FORK_UNIQUENESS,
    PENDING_PING,
    QUIESCENCE,
)
from repro.checks.suite import CheckSuite
from repro.checks.verdict import Violation
from repro.errors import (
    ChannelCapacityError,
    FifoViolationError,
    ForkDuplicationError,
    InvariantViolation,
)
from repro.sim.actor import ProcessId
from repro.sim.monitors import DeferredMessageStats, message_layer
from repro.sim.network import NetworkMonitor
from repro.timebase import Instant
from repro.trace.events import Crash, DoorwayChange, PhaseChange

_STRICT_ERRORS = {
    FORK_UNIQUENESS: ForkDuplicationError,
    CHANNEL_BOUND: ChannelCapacityError,
    FIFO: FifoViolationError,
}

# Message-kind tags precomputed per message class (see _intern).
_KIND_NONE = 0       # not dining-layer: no state to probe
_KIND_PING = 1       # dining Ping: pending-ping + replied-flag link probe
_KIND_ACK = 2        # dining Ack: ping retirement + ack-flag link probe
_KIND_FORKISH = 3    # any other dining message: fork/token edge probe


def raise_violation(violation: Violation) -> None:
    """Strict-mode reaction: re-raise as the property's typed exception."""
    raise _STRICT_ERRORS.get(violation.prop, InvariantViolation)(violation.detail)


class KernelCheckAdapter(NetworkMonitor):
    """Feeds one suite from a simulator + network + trace triple.

    ``crashing`` seeds the set of processes whose crash is scheduled (the
    crash plan's faulty pids); only sends addressed to them — or to pids
    later seen in a :class:`~repro.trace.events.Crash` record — are worth
    forwarding to the quiescence checker.

    The ``on_send``/``on_deliver``/``on_drop``/``on_step`` hooks are
    instance attributes (closures built by :meth:`_build_hooks`), not
    methods: they shadow the :class:`~repro.sim.network.NetworkMonitor`
    defaults and keep the per-event cost down to the checker calls
    themselves.
    """

    def __init__(
        self,
        suite: CheckSuite,
        diners: Dict[ProcessId, object],
        *,
        crashing: Iterable[ProcessId] = (),
    ) -> None:
        self.suite = suite
        self._diners = diners
        self._crashing = set(crashing)
        # Channel id -> last in-order consumed seq / outstanding pings
        # (Lemma 2.2): the network's channel tables, made at attach().
        # Consuming out of order (a network-model bug) surfaces as a FIFO
        # violation.
        self._consumed = None
        self._pings = None
        self._network = None
        # message class -> (type name, layer, kind tag, counts toward the
        # channel bound); class attributes, so one resolution per class
        # serves every instance.
        self._type_info: Dict[type, Tuple[str, str, int, bool]] = {}
        self._dirty_edges: set = set()
        # (pid, neighbor) links — or (pid, None) for a whole diner —
        # whose local flags may have changed since the last step probe.
        # Link-granular on purpose: under steady ping traffic almost
        # every diner is touched every step, and probing one link beats
        # re-scanning the whole diner.  A dict, not a set: the probe
        # walks it in marking order, so witness order cannot follow
        # ``hash(None)``, which is address-based before CPython 3.12.
        self._dirty_pairs: dict = {}
        # [wire events seen, sends to never-crashing destinations,
        # in-order FIFO consumes, first-outstanding ping sends, acks
        # retiring pings] — deferred ``observed`` bookkeeping, reconciled
        # by _flush_observed.
        self._counters = [0, 0, 0, 0, 0]
        self._wire_flushed = 0
        self._quiet_flushed = 0
        self._fifo_flushed = 0
        self._ping_flushed = 0
        self._acks_flushed = 0
        # Batched send counts per message class, settled by _flush_stats
        # into the ``stats`` facade (the table's ``message_stats``).
        self._sent_by_class: Dict[type, int] = defaultdict(int)
        self.stats = DeferredMessageStats(self._flush_stats)
        # Trace records already consumed by _replay_eventual.
        self._trace = None
        self._replayed = 0
        by_name = {checker.name: checker for checker in suite.checkers}
        self._fork = by_name.get(FORK_UNIQUENESS)
        self._local = by_name.get(DINER_LOCAL)
        self._channel = by_name.get(CHANNEL_BOUND)
        self._quiescence = by_name.get(QUIESCENCE)
        self._fifo = by_name.get(FIFO)
        self._pending_ping = by_name.get(PENDING_PING)
        self._cb_layer = self._channel.layer if self._channel is not None else "dining"

    def _build_hooks(self, sim, network) -> None:
        """Install the hot-path hooks as closures over their dependencies.

        Everything a hook mutates is a shared mutable container (the
        dicts, the channel tables, the dirty lists, the ``_counters``
        cell list, the ``_crashing`` set — updated in place, never
        rebound), so the closures and the rest of the adapter observe
        the same state.
        """
        diners = self._diners
        crashing = self._crashing
        type_info = self._type_info
        dirty_edges = self._dirty_edges
        dirty_pairs = self._dirty_pairs
        counters = self._counters
        sent_by_class = self._sent_by_class
        intern = self._intern
        report = self._report
        report_all = self._report_all

        channel = self._channel
        # Occupancy is maintained inline against the checker's own arrays,
        # on the network's channel ids (``table.occupancy`` is the same
        # object); violation construction is delegated to ``record_level``.
        occ = channel.occupancy if channel is not None else None
        if occ is not None:
            occ.bind(network._ids, network.channel_table)
        occ_flight = occ.in_flight if occ is not None else None
        occ_peaks = occ.peaks if occ is not None else None
        occ_peak_times = occ.peak_times if occ is not None else None
        occ_depart = occ.depart if occ is not None else None
        cb_bound = channel.bound if channel is not None else 0
        cb_level = channel.record_level if channel is not None else None
        fifo = self._fifo
        judge_fifo = fifo is not None
        # The in-order comparison runs inline against a channel table
        # (the canonical ``record_consume`` keys a dict by ``(src, dst)``);
        # the checker's own state is synced and its method invoked
        # whenever the guard trips, so the violation text and resync
        # policy stay canonical.  The number and the channel id come from
        # the network (``delivering_seq`` / ``delivering_channel``).
        fifo_consume = fifo.record_consume if judge_fifo else None
        fifo_expected = fifo._expected if judge_fifo else None
        consumed = self._consumed = network.channel_table("I") if judge_fifo else None
        # Lemma 2.2's guard, the same way: outstanding pings per channel
        # id, synced into the checker's ``_outstanding`` only on a trip.
        # An ack on channel ``c`` retires the ping on its reverse, ``c ^ 1``.
        pending_ping = self._pending_ping
        pp_ping = pending_ping.record_ping_send if pending_ping is not None else None
        pp_outstanding = (
            pending_ping._outstanding if pending_ping is not None else None
        )
        pings = self._pings = network.channel_table("i") if pending_ping is not None else None
        q_send = (
            self._quiescence.record_send if self._quiescence is not None else None
        )
        fork = self._fork
        fork_probe = fork.record_probe if fork is not None else None
        local = self._local
        local_probe = local.record_probe if local is not None else None
        mark_locals = local is not None

        def on_step(now):
            if dirty_edges:
                found = fork_probe(diners, dirty_edges, now)
                if found:
                    report_all(found)
                dirty_edges.clear()
            if dirty_pairs:
                found = local_probe(diners, now, dirty_pairs)
                if found:
                    report_all(found)
                dirty_pairs.clear()

        def mark_pair(pair):
            # Arm the kernel's one-shot post-event hook alongside the
            # first mark: clean events then never call into the checker
            # at all (the kernel pays one load-and-branch), and dirty
            # events pay one probe of exactly the touched slice.
            if sim._post_event is None:
                sim._post_event = on_step
            dirty_pairs[pair] = None

        def mark_edge(edge):
            if sim._post_event is None:
                sim._post_event = on_step
            dirty_edges.add(edge)

        def on_send(src, dst, message, time):
            cls = type(message)
            info = type_info.get(cls)
            if info is None:
                info = intern(message)
            name, layer, kind, counted = info
            counters[0] += 1
            sent_by_class[cls] += 1
            if counted:
                # Occupancy tracks the checked channel layer; other
                # layers are invisible to the bound checker.  (Sequence
                # numbers are the network's job now — nothing to do at
                # send.)  An edge's level sums both directions.
                if occ_flight is not None:
                    channel = network.last_send_channel
                    count = occ_flight[channel] + 1
                    occ_flight[channel] = count
                    level = count + occ_flight[channel ^ 1]
                    edge = channel & -2
                    if level > occ_peaks[edge]:
                        occ_peaks[edge] = level
                        occ_peak_times[edge] = time
                    if level > cb_bound:
                        report(cb_level(src, dst, level, time, name))
            if kind == 1:  # _KIND_PING
                if pings is not None:
                    # Lemma 2.2 guard: a second outstanding ping is the
                    # violation; construction (and the recount) is
                    # delegated to the canonical checker method.
                    channel = network.last_send_channel
                    count = pings[channel]
                    if count:
                        pair = (src, dst)
                        pp_outstanding[pair] = count
                        violation = pp_ping(src, dst, time)
                        pings[channel] = pp_outstanding.pop(pair)
                        if violation is not None:
                            report(violation)
                    else:
                        pings[channel] = 1
                        counters[3] += 1
            # (An ack send flips the sender's ``replied`` flag, but the
            # diner pushes that dirt itself — see install_diner.)
            if dst in crashing:
                if q_send is not None:
                    violation = q_send(src, dst, time, name, layer)
                    if violation is not None:
                        report(violation)
            else:
                counters[1] += 1

        def consume(src, dst, time):
            # FIFO retirement, all layers — the network numbered every
            # send on the channel, so the consumed number must be the
            # channel's next position regardless of message kind.  The
            # drop path (rare: only traffic to crashed destinations)
            # calls this; the deliver path inlines the same logic.
            seq = network.delivering_seq
            channel = network.delivering_channel
            position = consumed[channel]
            if seq == position + 1:
                consumed[channel] = seq
                counters[2] += 1
            else:
                # Guard tripped: sync the checker to the adapter's
                # channel position and let it judge canonically.
                key = (src, dst)
                fifo_expected[key] = position
                violation = fifo_consume(src, dst, seq, time)
                consumed[channel] = fifo_expected.pop(key)
                if violation is not None:
                    report(violation)

        def retire_ping():
            # An ack left its channel (delivered or dropped): retire the
            # ping outstanding on the reverse channel.
            back = network.delivering_channel ^ 1
            count = pings[back]
            if count:
                pings[back] = count - 1
            counters[4] += 1

        def on_deliver(src, dst, message, time):
            info = type_info.get(type(message))
            if info is None:
                info = intern(message)
            _, _, kind, counted = info
            counters[0] += 1
            if judge_fifo:
                seq = network.delivering_seq
                channel = network.delivering_channel
                position = consumed[channel]
                if seq == position + 1:
                    consumed[channel] = seq
                    counters[2] += 1
                else:
                    consume(src, dst, time)
            if counted and occ_flight is not None:
                # (A fenced message is dropped, never delivered.)
                channel = network.delivering_channel
                count = occ_flight[channel]
                if count > 0:
                    occ_flight[channel] = count - 1
            # Link/edge dirt is the destination diner's to report: its
            # handler pushes exactly the state it mutated through the
            # sinks install_diner armed, so nothing here branches on
            # message kinds to guess what the delivery touched.
            if kind == 2 and pings is not None:  # _KIND_ACK
                retire_ping()

        def on_drop(src, dst, message, time):
            info = type_info.get(type(message))
            if info is None:
                info = intern(message)
            _, _, kind, counted = info
            counters[0] += 1
            if judge_fifo:
                consume(src, dst, time)
            if counted and occ_depart is not None:
                occ_depart(network.delivering_channel)
            # A dropped ack still retires the pending ping (the
            # destination is crashed; its frozen state is not probed).
            if kind == 2 and pings is not None:
                retire_ping()

        def on_phase_or_doorway(record):
            if mark_locals:
                mark_pair((record.pid, None))

        self.on_send = on_send
        self.on_deliver = on_deliver
        self.on_drop = on_drop
        self.on_step = on_step
        self._on_state_record = on_phase_or_doorway
        # The sinks install_diner hands out: they arm the kernel's
        # one-shot post-event hook exactly like the adapter's own marks.
        self._mark_pair = mark_pair if mark_locals else None
        self._mark_edge = mark_edge if fork_probe is not None else None

    def install_diner(self, diner) -> None:
        """Arm the push-style dirty sinks on one diner.

        The diner reports its own mutations — ``on_dirty_link`` with the
        ``(pid, neighbor)`` whose ack/replied/deferred flags changed,
        ``on_dirty_fork`` with the sorted edge whose fork or token moved
        — replacing the old deliver-side message-kind inference.  Called
        for every diner at :meth:`attach` and for each diner spawned
        later by a membership join or rejoin.
        """
        diner.on_dirty_link = self._mark_pair
        diner.on_dirty_fork = self._mark_edge

    def attach(self, sim, network, trace) -> "KernelCheckAdapter":
        self._network = network
        self._build_hooks(sim, network)
        network.add_monitor(self)
        trace.add_listener(
            self._on_state_record, types=(PhaseChange, DoorwayChange)
        )
        trace.add_listener(self._on_crash, types=(Crash,))
        self._trace = trace
        for diner in self._diners.values():
            self.install_diner(diner)
        self.suite.add_finalizer(self._settle)
        # Judge the initial state (fork/token seeding, clean flags) once;
        # every later change is probed via the dirty sets.
        self._full_probe(sim.now)
        return self

    def _settle(self) -> None:
        if not self.suite.profiling:
            self._replay_eventual()
            self._flush_observed()
            self._flush_stats()
            return
        # Profiled: the deferred replay routes through suite.observe,
        # whose timers book the per-property share; the adapter's own
        # settle bookkeeping is charged to a named account so the
        # attribution sums to the true cost of checking.
        from time import perf_counter

        self._replay_eventual()
        started = perf_counter()
        self._flush_observed()
        self._flush_stats()
        self.suite.profile_add("kernel-adapter.settle", perf_counter() - started)

    def _flush_stats(self) -> None:
        """Settle batched per-class send counts into the stats facade.

        Draining the batch makes the flush naturally idempotent.
        """
        counts = self._sent_by_class
        if not counts:
            return
        info = self._type_info
        stats = self.stats
        by_type = stats._by_type
        by_layer = stats._by_layer
        total = 0
        for cls, n in counts.items():
            name, layer, _, _ = info[cls]
            by_type[name] += n
            by_layer[layer] += n
            total += n
        stats._total += total
        counts.clear()

    def _replay_eventual(self) -> None:
        """Feed the suite the phase and crash events it has not seen yet.

        The eventual-property checkers (◇WX, progress, overtaking) only
        *judge* at ``finalize``, so their event diet is deferred: online,
        a phase change merely marks state dirty, and the suite sees the
        phase and crash records themselves — in trace order, so verdicts
        and witness indices are identical to online feeding — in one
        batch when a verdict is actually requested.  Incremental:
        repeated ``finalize`` calls replay only the new trace suffix.
        """
        if self._trace is None:
            return
        observe = self.suite.observe
        skip = self._replayed
        seen = 0
        for record in self._trace:
            seen += 1
            if seen <= skip:
                continue
            rtype = type(record)
            if rtype is PhaseChange or rtype is Crash:
                observe(record)
        self._replayed = seen

    def _flush_observed(self) -> None:
        """Credit deferred event counts to the checkers' ``observed``.

        Wire traffic bypasses ``ChannelBoundChecker.record_*`` (the
        adapter feeds the shared occupancy directly), quiescence only
        hears about sends to crashing destinations, and the FIFO /
        pending-ping fast paths judge inline without a checker call, so
        the counters that gate a ``skip`` verdict — and the verdict's
        ``consumed_total`` / ``pings_total`` detail — are settled here.
        Delta-tracked: safe to run on every ``finalize``.
        """
        wire_events, quiet_sends, fifo_consumed, ping_sends, acks = self._counters
        if self._channel is not None:
            self._channel.observed += wire_events - self._wire_flushed
            self._wire_flushed = wire_events
        if self._quiescence is not None:
            self._quiescence.observed += quiet_sends - self._quiet_flushed
            self._quiet_flushed = quiet_sends
        if self._fifo is not None:
            delta = fifo_consumed - self._fifo_flushed
            self._fifo.observed += delta
            self._fifo.consumed += delta
            self._fifo_flushed = fifo_consumed
        if self._pending_ping is not None:
            delta = ping_sends - self._ping_flushed
            self._pending_ping.observed += delta + acks - self._acks_flushed
            self._pending_ping.pings_total += delta
            self._ping_flushed = ping_sends
            self._acks_flushed = acks

    # Violation plumbing ----------------------------------------------
    def _report(self, violation: Violation) -> None:
        suite = self.suite
        suite.violations.append(violation)
        if suite.on_violation is not None:
            suite.on_violation(violation)

    def _report_all(self, violations: List[Violation]) -> None:
        suite = self.suite
        suite.violations.extend(violations)
        if suite.on_violation is not None:
            for violation in violations:
                suite.on_violation(violation)

    # State probes -----------------------------------------------------
    def _full_probe(self, now: Instant) -> None:
        fork = self._fork
        if fork is not None:
            found = fork.record_probe(self._diners, fork._edges, now)
            if found:
                self._report_all(found)
        local = self._local
        if local is not None:
            found = local.record_probe(self._diners, now)
            if found:
                self._report_all(found)

    # Membership -------------------------------------------------------
    def note_rejoin(self, pid: ProcessId) -> None:
        """A fresh incarnation replaced ``pid``: sends to it are ordinary
        traffic again, so it leaves the post-crash send filter, and the
        pings outstanding on its links are retired, as
        :meth:`~repro.checks.properties.PendingPingChecker.retire_stale`
        retires them in the checker.  (The checkers' per-incarnation
        state is reset by the shared delta interpreter,
        :func:`repro.core.assembly.apply_delta`, and the seat fences the
        channel-bound count.)"""
        self._crashing.discard(pid)
        for channel in self._network.channel_ids(pid).values():
            self._retire_pings(channel)

    def note_fence(self, a: ProcessId, b: ProcessId) -> None:
        """Edge ``(a, b)`` was rebuilt: retire the pings on both its channels."""
        channel = self._network.channel_ids(a).get(b)
        if channel is not None:
            self._retire_pings(channel)

    def _retire_pings(self, channel: int) -> None:
        if self._pings is not None:
            self._pings[channel] = self._pings[channel ^ 1] = 0

    # Trace records ----------------------------------------------------
    def _on_crash(self, record: Crash) -> None:
        # The record itself is deferred to _replay_eventual; quiescence
        # needs the crash instant *online* to recognise post-crash sends.
        self._crashing.add(record.pid)
        if self._quiescence is not None:
            self._quiescence.note_crash(record.pid, record.time)

    # Network traffic --------------------------------------------------
    def _intern(self, message) -> Tuple[str, str, int, bool]:
        name = type(message).__name__
        layer = message_layer(message)
        if layer != "dining":
            kind = _KIND_NONE
        elif name == "Ping":
            kind = _KIND_PING
        elif name == "Ack":
            kind = _KIND_ACK
        else:
            # Fork, ForkRequest, and any baseline-specific dining message:
            # conservatively re-probe the edge's fork/token uniqueness.
            kind = _KIND_FORKISH
        counted = self._cb_layer is None or layer == self._cb_layer
        info = (name, layer, kind, counted)
        self._type_info[type(message)] = info
        return info
