"""Canonical checkers — exactly one implementation per paper property.

Each checker consumes the normalized event vocabulary of
:mod:`repro.checks.events` and knows nothing about simulators, sockets,
or trace recorders, so the same code judges kernel runs, live hosts,
merged clusters, and offline replays.  ``docs/CHECKS.md`` maps each
class to its theorem/section in the paper.

Safety checkers (fork uniqueness, channel bound, FIFO, diner-local
invariants, pending-ping) report violations from ``observe`` the moment
they happen — strict adapters raise on those.  Eventual properties
(◇WX safety, wait-freedom, ◇2-BW overtaking, quiescence) accumulate and
judge at ``finalize``, because their pass/fail depends on settle /
patience / grace windows only known once the run's horizon is.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.checks.base import Checker
from repro.checks.events import (
    DeliverEvent,
    DropEvent,
    ProbeEvent,
    ProcessId,
    SendEvent,
)
from repro.checks.verdict import MAX_WITNESSES, SKIP, PropertyVerdict, Violation
from repro.trace.events import Crash, MembershipChange, PhaseChange

EATING = "eating"
HUNGRY = "hungry"

Edge = Tuple[ProcessId, ProcessId]

FORK_UNIQUENESS = "fork-uniqueness"
DINER_LOCAL = "diner-local"
CHANNEL_BOUND = "channel-bound"
FIFO = "fifo"
WX_SAFETY = "wx-safety"
PROGRESS = "progress"
OVERTAKING = "overtaking"
QUIESCENCE = "quiescence"
PENDING_PING = "pending-ping"


def _edge(a: ProcessId, b: ProcessId) -> Edge:
    return (a, b) if a <= b else (b, a)


# ----------------------------------------------------------------------
# State probes (Lemma 1.2 and the local invariants behind Lemma 2)
# ----------------------------------------------------------------------
def probe_violations(
    edges: Sequence[Edge],
    states,
    *,
    time: float = 0.0,
    exclusion: bool = False,
) -> List[Violation]:
    """Pure per-state check over duck-typed diner views.

    The single source of truth for fork/token uniqueness, shared by the
    online :class:`ForkUniquenessChecker` and the bounded model checker
    in :mod:`repro.verify.explore` (which additionally enables the
    ``exclusion`` clause to treat WX as a perpetual state property).
    Crashed endpoints are skipped: their frozen state is unobservable.
    """
    violations: List[Violation] = []
    for a, b in edges:
        diner_a = states.get(a)
        diner_b = states.get(b)
        if diner_a is None or diner_b is None:
            continue
        if diner_a.crashed or diner_b.crashed:
            continue
        if diner_a.holds_fork(b) and diner_b.holds_fork(a):
            violations.append(
                Violation(
                    prop=FORK_UNIQUENESS,
                    time=time,
                    detail=f"t={time}: both {a} and {b} hold the fork for edge ({a},{b})",
                    subject=(a, b),
                )
            )
        if diner_a.holds_token(b) and diner_b.holds_token(a):
            violations.append(
                Violation(
                    prop=FORK_UNIQUENESS,
                    time=time,
                    detail=f"t={time}: both {a} and {b} hold the token for edge ({a},{b})",
                    subject=(a, b),
                )
            )
        if exclusion and diner_a.is_eating and diner_b.is_eating:
            violations.append(
                Violation(
                    prop=WX_SAFETY,
                    time=time,
                    detail=f"t={time}: neighbors {a} and {b} are eating simultaneously",
                    subject=(a, b),
                )
            )
    return violations


def _diner_local_into(
    violations: List[Violation], pid: ProcessId, diner, links, time: float
) -> None:
    """Check one diner's local invariants over ``links`` into ``violations``."""
    if diner.is_eating and not diner.inside:
        violations.append(
            Violation(
                prop=DINER_LOCAL,
                time=time,
                detail=f"t={time}: diner {pid} is eating outside the doorway",
                subject=(pid,),
            )
        )
    hungry_outside = diner.is_hungry and not diner.inside
    for neighbor, link in links:
        if link.ack and not hungry_outside:
            violations.append(
                Violation(
                    prop=DINER_LOCAL,
                    time=time,
                    detail=(
                        f"t={time}: diner {pid} holds a doorway ack for {neighbor} "
                        f"while {diner.phase}/"
                        f"{'inside' if diner.inside else 'outside'}"
                    ),
                    subject=(pid, neighbor),
                )
            )
        if link.replied and not hungry_outside:
            violations.append(
                Violation(
                    prop=DINER_LOCAL,
                    time=time,
                    detail=(
                        f"t={time}: diner {pid} has replied[{neighbor}] set "
                        f"while {diner.phase}/"
                        f"{'inside' if diner.inside else 'outside'}"
                    ),
                    subject=(pid, neighbor),
                )
            )


def diner_local_violations(states, *, time: float = 0.0, pairs=None) -> List[Violation]:
    """The proof-level local invariants of Algorithm 1, per live diner.

    * eating ⇒ inside the doorway (Actions 9/10 keep the phases nested);
    * a held doorway ack ⇒ hungry ∧ outside (Actions 4/5);
    * ``replied`` set ⇒ hungry ∧ outside (the one-ack throttle's reset).

    ``pairs=None`` scans every live diner and every link.  A ``pairs``
    iterable of ``(pid, neighbor)`` restricts the scan to those links
    (``neighbor=None`` re-checks all of ``pid``'s links) — the adapters'
    change-tracking fast path.  Restricted entries read ``diner.links``,
    so duck-typed state views only need that mapping when restricted.
    """
    violations: List[Violation] = []
    if pairs is None:
        for pid, diner in states.items():
            if diner.crashed:
                continue
            _diner_local_into(violations, pid, diner, diner._links_in_order(), time)
        return violations
    for pid, neighbor in pairs:
        diner = states.get(pid)
        if diner is None or diner.crashed:
            continue
        if neighbor is None:
            links = diner._links_in_order()
        else:
            link = diner.links.get(neighbor)
            links = () if link is None else ((neighbor, link),)
        _diner_local_into(violations, pid, diner, links, time)
    return violations


class ForkUniquenessChecker(Checker):
    """Lemma 1.2: per edge, at most one endpoint holds the fork (token).

    Consumes :class:`ProbeEvent` — a state-based safety property that
    only an online substrate can feed; offline replays report ``skip``.
    """

    name = FORK_UNIQUENESS
    interests = (ProbeEvent,)

    def __init__(self, edges: Sequence[Edge]) -> None:
        super().__init__()
        self._edges = tuple(edges)
        self._violations: List[Violation] = []

    def observe(self, event: ProbeEvent, index: int) -> Optional[List[Violation]]:
        edges = event.edges
        return self.record_probe(
            event.states, self._edges if edges is None else edges, event.time
        )

    def record_probe(self, states, edges, time: float) -> Optional[List[Violation]]:
        """Allocation-free entry point for change-tracking adapters.

        The loop below is a guard, not a second implementation: it
        evaluates exactly the predicates of :func:`probe_violations` to
        decide whether an edge *can* violate, and delegates to that one
        function (restricted to the edge) to construct the violations.
        The clean path — the overwhelming majority of probes — finishes
        without allocating anything.
        """
        self.observed += 1
        found: Optional[List[Violation]] = None
        get = states.get
        for a, b in edges:
            diner_a = get(a)
            diner_b = get(b)
            if (
                diner_a is None
                or diner_b is None
                or diner_a.crashed
                or diner_b.crashed
            ):
                continue
            if (diner_a.holds_fork(b) and diner_b.holds_fork(a)) or (
                diner_a.holds_token(b) and diner_b.holds_token(a)
            ):
                if found is None:
                    found = []
                found.extend(probe_violations(((a, b),), states, time=time))
        if found:
            self._violations.extend(found)
            return found
        return None

    def finalize(self) -> PropertyVerdict:
        return self._verdict(
            self._violations[:MAX_WITNESSES],
            probes_total=self.observed,
            violations_total=len(self._violations),
        )


class DinerLocalChecker(Checker):
    """The diner-local invariants behind Lemmas 2.x (state-based)."""

    name = DINER_LOCAL
    interests = (ProbeEvent,)

    def __init__(self) -> None:
        super().__init__()
        self._violations: List[Violation] = []

    def observe(self, event: ProbeEvent, index: int) -> Optional[List[Violation]]:
        return self.record_probe(event.states, event.time, event.pairs)

    def record_probe(self, states, time: float, pairs=None) -> Optional[List[Violation]]:
        """Allocation-free entry point for change-tracking adapters.

        With ``pairs`` the loop first evaluates the invariant predicates
        (the same ones :func:`_diner_local_into` reports on) as a cheap
        guard, and only enters the reporting helper when a predicate is
        actually violated — the clean path reads a handful of attributes
        and allocates nothing.
        """
        self.observed += 1
        if pairs is None:
            found = diner_local_violations(states, time=time)
            if found:
                self._violations.extend(found)
                return found
            return None
        found: Optional[List[Violation]] = None
        get = states.get
        for pid, neighbor in pairs:
            diner = get(pid)
            if diner is None or diner.crashed:
                continue
            inside = diner.inside
            if neighbor is None:
                # Whole-diner re-check (phase or doorway transition).
                if diner.is_eating and not inside:
                    bad = True
                elif diner.is_hungry and not inside:
                    bad = False  # flags are allowed while hungry/outside
                else:
                    bad = False
                    for link in diner.links.values():
                        if link.ack or link.replied:
                            bad = True
                            break
                if bad:
                    if found is None:
                        found = []
                    _diner_local_into(
                        found, pid, diner, diner._links_in_order(), time
                    )
                continue
            link = diner.links.get(neighbor)
            if link is None:
                continue
            if (diner.is_eating and not inside) or (
                (link.ack or link.replied)
                and not (diner.is_hungry and not inside)
            ):
                if found is None:
                    found = []
                _diner_local_into(found, pid, diner, ((neighbor, link),), time)
        if found:
            self._violations.extend(found)
            return found
        return None

    def finalize(self) -> PropertyVerdict:
        return self._verdict(
            self._violations[:MAX_WITNESSES],
            probes_total=self.observed,
            violations_total=len(self._violations),
        )


# ----------------------------------------------------------------------
# Channel properties (Section 7 and the channel assumption itself)
# ----------------------------------------------------------------------
class ChannelOccupancy:
    """Per-undirected-edge in-transit occupancy — the one implementation.

    Both the online :class:`~repro.sim.monitors.ChannelOccupancyMonitor`
    and :class:`ChannelBoundChecker` delegate here, so "how occupancy is
    counted" exists exactly once.  A departure on an edge whose count is
    already zero is ignored: that only happens on partially observed
    streams (a single live host seeing inbound traffic whose sends were
    logged by a peer), where the message demonstrably never contributed
    to this observer's occupancy.
    """

    def __init__(self, layer: Optional[str] = None) -> None:
        self._layer = layer
        self.current: Dict[Edge, int] = defaultdict(int)
        self.peak: Dict[Edge, int] = defaultdict(int)
        self.peak_time: Dict[Edge, float] = {}

    def _counts(self, layer: str) -> bool:
        return self._layer is None or layer == self._layer

    def record_send(self, src: ProcessId, dst: ProcessId, layer: str, time: float) -> Optional[int]:
        """Count one send; returns the new occupancy (None if filtered)."""
        # Hot path (once per checked-layer send): conditions and the
        # edge normalization stay inline, each dict is touched once.
        checked = self._layer
        if checked is not None and layer != checked:
            return None
        edge = (src, dst) if src <= dst else (dst, src)
        current = self.current
        level = current[edge] + 1
        current[edge] = level
        peak = self.peak
        if level > peak[edge]:
            peak[edge] = level
            self.peak_time[edge] = time
        return level

    def record_departure(self, src: ProcessId, dst: ProcessId, layer: str) -> None:
        checked = self._layer
        if checked is not None and layer != checked:
            return
        edge = (src, dst) if src <= dst else (dst, src)
        current = self.current
        level = current[edge]
        if level > 0:
            current[edge] = level - 1

    @property
    def max_occupancy(self) -> int:
        return max(self.peak.values(), default=0)

    def edges_exceeding(self, bound: int) -> List[Edge]:
        return sorted(edge for edge, peak in self.peak.items() if peak > bound)


class ChannelBoundChecker(Checker):
    """Section 7: at most ``bound`` (= 4) dining messages per edge."""

    name = CHANNEL_BOUND
    interests = (SendEvent, DeliverEvent, DropEvent)

    def __init__(self, bound: int = 4, layer: Optional[str] = "dining") -> None:
        super().__init__()
        self.bound = int(bound)
        self.layer = layer
        self.occupancy = ChannelOccupancy(layer=layer)
        self._violations: List[Violation] = []

    def observe(self, event, index: int) -> Optional[List[Violation]]:
        if type(event) is SendEvent:
            violation = self.record_send(
                event.src, event.dst, event.layer, event.time, event.type, index=index
            )
            return [violation] if violation is not None else None
        self.record_departure(event.src, event.dst, event.layer)
        return None

    def record_send(
        self,
        src: ProcessId,
        dst: ProcessId,
        layer: str,
        time: float,
        message_type: str,
        *,
        index: Optional[int] = None,
    ) -> Optional[Violation]:
        """Allocation-free entry point for change-tracking adapters."""
        self.observed += 1
        level = self.occupancy.record_send(src, dst, layer, time)
        if level is not None and level > self.bound:
            return self.record_level(src, dst, level, time, message_type, index=index)
        return None

    def record_level(
        self,
        src: ProcessId,
        dst: ProcessId,
        level: int,
        time: float,
        message_type: str,
        *,
        index: Optional[int] = None,
    ) -> Violation:
        """Judge an occupancy level already counted through a shared
        :class:`ChannelOccupancy` (adapters that feed the one occupancy
        instance directly call this only when ``level`` exceeds the
        bound)."""
        violation = Violation(
            prop=self.name,
            time=time,
            detail=(
                f"t={time}: {level} {self.layer or 'total'} messages in "
                f"transit on edge {_edge(src, dst)}, bound is "
                f"{self.bound} (latest: {message_type} {src}->{dst})"
            ),
            subject=_edge(src, dst),
            event_index=index,
        )
        self._violations.append(violation)
        return violation

    def record_departure(self, src: ProcessId, dst: ProcessId, layer: str) -> None:
        self.observed += 1
        self.occupancy.record_departure(src, dst, layer)

    def finalize(self) -> PropertyVerdict:
        verdict = self._verdict(
            self._violations[:MAX_WITNESSES],
            max_in_transit=self.occupancy.max_occupancy,
            exceedances_total=len(self._violations),
        )
        verdict.details["edge_peaks"] = {
            f"{a}-{b}": peak for (a, b), peak in sorted(self.occupancy.peak.items())
        }
        return verdict


class FifoChecker(Checker):
    """The channel assumption: per directed channel, sequence numbers are
    delivered (or dropped) contiguously from 1 — any gap is a loss, any
    step backwards a reordering or duplicate.

    Events without a sequence number are counted but not judged; every
    substrate in this repo stamps them (the wire codec carries them in
    frames, the kernel network numbers every send).
    """

    name = FIFO
    interests = (SendEvent, DeliverEvent, DropEvent)

    def __init__(self) -> None:
        super().__init__()
        self._expected: Dict[Tuple[ProcessId, ProcessId], int] = {}
        self._violations: List[Violation] = []
        self.unsequenced = 0
        self.consumed = 0

    def observe(self, event, index: int) -> Optional[List[Violation]]:
        if type(event) is SendEvent:
            self.observed += 1
            return None
        violation = self.record_consume(
            event.src, event.dst, event.seq, event.time, index=index
        )
        return [violation] if violation is not None else None

    def record_consume(
        self,
        src: ProcessId,
        dst: ProcessId,
        seq: Optional[int],
        time: float,
        *,
        index: Optional[int] = None,
    ) -> Optional[Violation]:
        """Allocation-free entry point for change-tracking adapters."""
        self.observed += 1
        if seq is None:
            self.unsequenced += 1
            return None
        channel = (src, dst)
        expected = self._expected.get(channel, 0) + 1
        self.consumed += 1
        if seq != expected:
            shape = "lost or reordered" if seq > expected else "reordered or duplicated"
            violation = Violation(
                prop=self.name,
                time=time,
                detail=(
                    f"t={time}: channel {src}->{dst} consumed "
                    f"seq {seq}, expected {expected} ({shape})"
                ),
                subject=channel,
                event_index=index,
            )
            self._violations.append(violation)
            # Resync so one loss doesn't cascade into a violation per
            # subsequent delivery.
            self._expected[channel] = max(seq, expected)
            return violation
        self._expected[channel] = seq
        return None

    def finalize(self) -> PropertyVerdict:
        if self.observed and not self.consumed:
            # Sends only (e.g. a send-side wire log with no deliveries
            # observed): nothing was judged.
            return PropertyVerdict(prop=self.name, status=SKIP)
        return self._verdict(
            self._violations[:MAX_WITNESSES],
            consumed_total=self.consumed,
            unsequenced_total=self.unsequenced,
            violations_total=len(self._violations),
        )


class PendingPingChecker(Checker):
    """Lemma 2.2 on the wire: one outstanding ping per ordered pair."""

    name = PENDING_PING
    interests = (SendEvent, DeliverEvent, MembershipChange)

    def __init__(self) -> None:
        super().__init__()
        self._outstanding: Dict[Tuple[ProcessId, ProcessId], int] = {}
        self._violations: List[Violation] = []
        self.pings_total = 0

    def observe(self, event, index: int) -> Optional[List[Violation]]:
        if type(event) is MembershipChange:
            self.note_membership(event.verb, event.pid, event.edges)
            return None
        if type(event) is SendEvent:
            if event.type == "Ping":
                violation = self.record_ping_send(
                    event.src, event.dst, event.time, index=index
                )
                return [violation] if violation is not None else None
            self.observed += 1
            return None
        if event.type == "Ack":
            self.record_ack_arrival(event.src, event.dst)
            return None
        self.observed += 1
        return None

    def record_ping_send(
        self,
        src: ProcessId,
        dst: ProcessId,
        time: float,
        *,
        index: Optional[int] = None,
    ) -> Optional[Violation]:
        """Allocation-free entry point for change-tracking adapters."""
        self.observed += 1
        self.pings_total += 1
        pair = (src, dst)
        count = self._outstanding.get(pair, 0) + 1
        self._outstanding[pair] = count
        if count > 1:
            violation = Violation(
                prop=self.name,
                time=time,
                detail=(
                    f"t={time}: second concurrent ping "
                    f"{src}->{dst} (Lemma 2.2)"
                ),
                subject=pair,
                event_index=index,
            )
            self._violations.append(violation)
            return violation
        return None

    def record_ack_arrival(self, src: ProcessId, dst: ProcessId) -> None:
        """An ack from ``src`` arrived at ``dst``: retire ``(dst, src)``."""
        self.observed += 1
        pair = (dst, src)
        if self._outstanding.get(pair, 0) > 0:
            self._outstanding[pair] -= 1

    def note_membership(self, verb: str, pid: ProcessId, edges: tuple) -> None:
        """Offline replay of a delta: counted, then :meth:`retire_stale`."""
        self.observed += 1
        self.retire_stale(verb, pid, edges)

    def retire_stale(self, verb: str, pid: ProcessId, edges: tuple = ()) -> None:
        """A delta rebuilt links hygienically: retire their old pings.

        A join or rejoin of ``pid`` tears down and rebuilds every link
        touching it; ``add_edge`` rebuilds the one link to its peer.  A
        ping outstanding from the link's earlier incarnation was retired
        by that teardown (its ack can never arrive — the channel is
        fenced), so it must not make the fresh link's first ping look
        like a Lemma 2.2 duplicate.  A ``leave`` deliberately clears
        nothing — traffic still aimed at a departed pid is exactly what
        the checker exists to count.  Offline replay gets here through
        :meth:`note_membership`; online the shared delta interpreter
        (:func:`repro.core.assembly.apply_delta`) calls it directly, so
        ``observed`` counts stream events only.  Pairs are deleted in
        place: the kernel adapter's inline guard shares the dict.
        """
        if verb in ("join", "rejoin"):
            stale = [pair for pair in self._outstanding if pid in pair]
        elif verb == "add_edge" and edges:
            stale = [
                pair
                for peer in edges
                for pair in ((pid, peer), (peer, pid))
                if pair in self._outstanding
            ]
        else:
            return
        for pair in stale:
            del self._outstanding[pair]

    def finalize(self) -> PropertyVerdict:
        return self._verdict(
            self._violations[:MAX_WITNESSES],
            pings_total=self.pings_total,
            violations_total=len(self._violations),
        )


# ----------------------------------------------------------------------
# Eventual properties (Theorems 1–3 and Section 7 quiescence)
# ----------------------------------------------------------------------
class WxSafetyChecker(Checker):
    """Theorem 1 (◇WX): eventually no two live neighbors eat together.

    Every overlapping-eating window is recorded; at ``finalize`` a window
    is a violation iff it extends past ``settle`` (with ``settle=None``
    the property is reported informationally: finitely many early
    overlaps never refute an eventual property on their own).
    """

    name = WX_SAFETY
    interests = (PhaseChange, Crash)

    def __init__(self, edges: Sequence[Edge], *, settle: Optional[float] = None) -> None:
        super().__init__()
        self.settle = settle
        self._neighbors: Dict[ProcessId, List[ProcessId]] = defaultdict(list)
        for a, b in edges:
            self._neighbors[a].append(b)
            self._neighbors[b].append(a)
        self._eating: Dict[ProcessId, float] = {}
        self._crashed: set = set()
        # edge -> start of the currently open overlap window
        self._open: Dict[Edge, Tuple[float, int]] = {}
        # closed windows: (edge, start, end, event_index at open)
        self._windows: List[Tuple[Edge, float, float, int]] = []
        self.horizon: Optional[float] = None

    def observe(self, event, index: int) -> Optional[List[Violation]]:
        self.observed += 1
        if type(event) is Crash:
            self._crashed.add(event.pid)
            self._stop_eating(event.pid, event.time)
            return None
        if event.new_phase == EATING and event.pid not in self._crashed:
            self._eating[event.pid] = event.time
            for other in self._neighbors.get(event.pid, ()):
                if other in self._eating:
                    self._open[_edge(event.pid, other)] = (event.time, index)
        elif event.old_phase == EATING:
            self._stop_eating(event.pid, event.time)
        return None

    def _stop_eating(self, pid: ProcessId, time: float) -> None:
        self._eating.pop(pid, None)
        for edge in [e for e in self._open if pid in e]:
            start, index = self._open.pop(edge)
            self._windows.append((edge, start, time, index))

    def finalize(self) -> PropertyVerdict:
        horizon = self.horizon if self.horizon is not None else math.inf
        windows = list(self._windows)
        windows += [
            (edge, start, horizon, index) for edge, (start, index) in self._open.items()
        ]
        windows.sort(key=lambda w: w[1])
        settle = self.settle
        late = (
            [w for w in windows if w[2] > settle] if settle is not None else []
        )
        violations = [
            Violation(
                prop=self.name,
                time=start,
                detail=(
                    f"neighbors {edge[0]} and {edge[1]} ate simultaneously during "
                    f"[{start:g}, {end:g})"
                    + (f", past settle={settle:g}" if settle is not None else "")
                ),
                subject=edge,
                event_index=index,
            )
            for edge, start, end, index in late[:MAX_WITNESSES]
        ]
        verdict = self._verdict(
            violations,
            overlap_windows_total=len(windows),
            late_windows_total=len(late),
        )
        if windows:
            verdict.counters["last_overlap_end"] = max(w[2] for w in windows)
        if settle is not None:
            verdict.details["settle"] = settle
        return verdict


class ProgressChecker(Checker):
    """Theorem 2 (wait-freedom): every correct hungry diner eventually eats.

    A correct process whose final hungry session is still unserved at the
    horizon — and began at least ``patience`` before it — is starving.
    With ``patience=None`` the judgement is informational (open sessions
    are merely counted): a finite prefix cannot refute wait-freedom.
    """

    name = PROGRESS
    interests = (PhaseChange, Crash)

    def __init__(
        self,
        *,
        patience: Optional[float] = None,
        correct: Optional[Sequence[ProcessId]] = None,
    ) -> None:
        super().__init__()
        self.patience = patience
        self.correct = set(correct) if correct is not None else None
        self.horizon: Optional[float] = None
        self._crashed: set = set()
        self._seen: set = set()
        # pid -> (session start, event index); present while hungry-unserved
        self._hungry_since: Dict[ProcessId, Tuple[float, int]] = {}
        self.sessions_served = 0

    def observe(self, event, index: int) -> Optional[List[Violation]]:
        self.observed += 1
        if type(event) is Crash:
            self._crashed.add(event.pid)
            self._hungry_since.pop(event.pid, None)
            return None
        self._seen.add(event.pid)
        if event.new_phase == HUNGRY:
            self._hungry_since[event.pid] = (event.time, index)
        elif event.old_phase == HUNGRY:
            if event.new_phase == EATING:
                self.sessions_served += 1
            self._hungry_since.pop(event.pid, None)
        return None

    def finalize(self) -> PropertyVerdict:
        horizon = self.horizon
        correct = (self.correct if self.correct is not None else self._seen) - self._crashed
        waiting = {
            pid: since
            for pid, since in self._hungry_since.items()
            if pid in correct
        }
        violations: List[Violation] = []
        if self.patience is not None and horizon is not None and math.isfinite(horizon):
            for pid in sorted(waiting):
                start, index = waiting[pid]
                if start <= horizon - self.patience:
                    violations.append(
                        Violation(
                            prop=self.name,
                            time=start,
                            detail=(
                                f"correct diner {pid} hungry since t={start:g}, "
                                f"unserved at horizon {horizon:g} "
                                f"(patience {self.patience:g})"
                            ),
                            subject=(pid,),
                            event_index=index,
                        )
                    )
        verdict = self._verdict(
            violations[:MAX_WITNESSES],
            sessions_served_total=self.sessions_served,
            waiting_at_horizon=len(waiting),
            starving_total=len(violations),
        )
        verdict.details["starving"] = [v.subject[0] for v in violations]
        return verdict


class OvertakingChecker(Checker):
    """Theorem 3 (◇2-BW): per hungry session started after convergence,
    no neighbor begins eating more than ``bound`` (= 2) times.

    Sessions and eat-starts are accumulated online; the ``after`` cutoff
    is applied at ``finalize`` (``after=None`` reports the observed
    maximum informationally, since pre-convergence sessions are exempt).
    """

    name = OVERTAKING
    interests = (PhaseChange, Crash)

    def __init__(
        self,
        edges: Sequence[Edge],
        *,
        bound: int = 2,
        after: Optional[float] = None,
    ) -> None:
        super().__init__()
        self.bound = int(bound)
        self.after = after
        self._neighbors: Dict[ProcessId, List[ProcessId]] = defaultdict(list)
        for a, b in edges:
            self._neighbors[a].append(b)
            self._neighbors[b].append(a)
        self._eat_starts: Dict[ProcessId, List[float]] = defaultdict(list)
        self._sessions: Dict[ProcessId, List[Tuple[float, float, int]]] = defaultdict(list)
        self._hungry_since: Dict[ProcessId, Tuple[float, int]] = {}
        self.horizon: Optional[float] = None

    def observe(self, event, index: int) -> Optional[List[Violation]]:
        self.observed += 1
        if type(event) is Crash:
            self._close_session(event.pid, event.time)
            return None
        if event.new_phase == HUNGRY:
            self._hungry_since[event.pid] = (event.time, index)
        elif event.old_phase == HUNGRY:
            self._close_session(event.pid, event.time)
        if event.new_phase == EATING:
            self._eat_starts[event.pid].append(event.time)
        return None

    def _close_session(self, pid: ProcessId, end: float) -> None:
        since = self._hungry_since.pop(pid, None)
        if since is not None:
            self._sessions[pid].append((since[0], end, since[1]))

    def finalize(self) -> PropertyVerdict:
        horizon = self.horizon if self.horizon is not None else math.inf
        sessions_by_pid: Dict[ProcessId, List[Tuple[float, float, int]]] = {
            pid: list(sessions) for pid, sessions in self._sessions.items()
        }
        for pid, (start, index) in self._hungry_since.items():
            sessions_by_pid.setdefault(pid, []).append((start, horizon, index))

        after = self.after
        max_all = 0
        violations: List[Violation] = []
        sessions_judged = 0
        for j, sessions in sessions_by_pid.items():
            neighbors = self._neighbors.get(j, ())
            for start, end, index in sessions:
                judged = after is None or start >= after
                if judged:
                    sessions_judged += 1
                for i in neighbors:
                    starts = self._eat_starts.get(i)
                    if not starts:
                        continue
                    # Eat starts arrive in time order, so count by bisection.
                    count = bisect_left(starts, end) - bisect_left(starts, start)
                    if count > max_all:
                        max_all = count
                    if judged and after is not None and count > self.bound:
                        violations.append(
                            Violation(
                                prop=self.name,
                                time=start,
                                detail=(
                                    f"{i} overtook hungry neighbor {j} {count}x during "
                                    f"session [{start:g}, {end:g}) (bound {self.bound})"
                                ),
                                subject=(i, j),
                                event_index=index,
                            )
                        )
        verdict = self._verdict(
            violations[:MAX_WITNESSES],
            max_overtaking=max_all,
            sessions_judged=sessions_judged,
            violations_total=len(violations),
        )
        if after is not None:
            verdict.details["after"] = after
        return verdict


#: Cache sentinel: "this pid's crash time has not been resolved yet"
#: (distinct from ``None`` = "known to never crash").
_UNKNOWN = object()


@dataclass(frozen=True)
class PostCrashSend:
    """One message sent to an already-crashed destination."""

    src: ProcessId
    dst: ProcessId
    time: float
    message_type: str
    layer: str


class QuiescenceChecker(Checker):
    """Section 7 quiescence: correct processes eventually stop messaging
    crashed neighbors.

    Crash instants are learned from :class:`Crash` records and, online,
    from an optional ``crash_time_of`` oracle (the kernel's crash plan).
    Every post-crash send is recorded; with a ``grace`` window, a
    config-layer send more than ``grace`` after the destination's crash
    is a violation.  ``grace=None`` reports informationally.
    """

    name = QUIESCENCE
    interests = (SendEvent, Crash)

    def __init__(
        self,
        *,
        layer: Optional[str] = "dining",
        grace: Optional[float] = None,
        crash_time_of: Optional[Callable[[ProcessId], Optional[float]]] = None,
    ) -> None:
        super().__init__()
        self.layer = layer
        self.grace = grace
        self._crash_time_of = crash_time_of
        self._crash_times: Dict[ProcessId, Optional[float]] = {}
        self.post_crash_sends: List[PostCrashSend] = []
        self._violations: List[Violation] = []

    def _crash_time(self, pid: ProcessId) -> Optional[float]:
        # The cache holds explicit ``None`` for processes known never to
        # crash, so the oracle is consulted at most once per destination.
        known = self._crash_times.get(pid, _UNKNOWN)
        if known is _UNKNOWN:
            oracle = self._crash_time_of
            known = oracle(pid) if oracle is not None else None
            self._crash_times[pid] = known
        return known

    def note_crash(self, pid: ProcessId, time: float) -> None:
        """Learn a crash instant out-of-band (idempotent).

        Adapters that defer their :class:`Crash` records to a
        finalize-time replay call this when the crash actually happens,
        so post-crash sends are still recognised online.
        """
        if self._crash_times.get(pid) is None:
            self._crash_times[pid] = time

    def observe(self, event, index: int) -> Optional[List[Violation]]:
        if type(event) is Crash:
            self.observed += 1
            self.note_crash(event.pid, event.time)
            return None
        violation = self.record_send(
            event.src, event.dst, event.time, event.type, event.layer, index=index
        )
        return [violation] if violation is not None else None

    def record_send(
        self,
        src: ProcessId,
        dst: ProcessId,
        time: float,
        message_type: str,
        layer: str,
        *,
        index: Optional[int] = None,
    ) -> Optional[Violation]:
        """Allocation-free entry point for always-on monitors."""
        self.observed += 1
        crash_time = self._crash_time(dst)
        if crash_time is None or time < crash_time:
            return None
        self.post_crash_sends.append(
            PostCrashSend(src, dst, time, message_type, layer)
        )
        if (
            self.grace is not None
            and (self.layer is None or layer == self.layer)
            and time > crash_time + self.grace
        ):
            violation = Violation(
                prop=self.name,
                time=time,
                detail=(
                    f"t={time}: {message_type} {src}->{dst} sent "
                    f"{time - crash_time:g} after {dst} crashed "
                    f"(grace {self.grace:g})"
                ),
                subject=(src, dst),
                event_index=index,
            )
            self._violations.append(violation)
            return violation
        return None

    def sends_to(
        self, dst: ProcessId, *, layer: Optional[str] = None
    ) -> List[PostCrashSend]:
        return [
            record
            for record in self.post_crash_sends
            if record.dst == dst and (layer is None or record.layer == layer)
        ]

    def last_send_time(
        self, dst: ProcessId, *, layer: Optional[str] = None
    ) -> Optional[float]:
        times = [record.time for record in self.sends_to(dst, layer=layer)]
        return max(times) if times else None

    def finalize(self) -> PropertyVerdict:
        in_layer = [
            r
            for r in self.post_crash_sends
            if self.layer is None or r.layer == self.layer
        ]
        verdict = self._verdict(
            self._violations[:MAX_WITNESSES],
            post_crash_sends_total=len(in_layer),
            violations_total=len(self._violations),
        )
        if in_layer:
            verdict.counters["last_post_crash_send"] = max(r.time for r in in_layer)
        if self.grace is not None:
            verdict.details["grace"] = self.grace
        return verdict


__all__ = [
    "CHANNEL_BOUND",
    "DINER_LOCAL",
    "FIFO",
    "FORK_UNIQUENESS",
    "OVERTAKING",
    "PENDING_PING",
    "PROGRESS",
    "QUIESCENCE",
    "WX_SAFETY",
    "ChannelBoundChecker",
    "ChannelOccupancy",
    "DinerLocalChecker",
    "FifoChecker",
    "ForkUniquenessChecker",
    "OvertakingChecker",
    "PendingPingChecker",
    "PostCrashSend",
    "ProgressChecker",
    "QuiescenceChecker",
    "WxSafetyChecker",
    "diner_local_violations",
    "probe_violations",
]
