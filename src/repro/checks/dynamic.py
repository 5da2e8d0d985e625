"""Dynamic-topology checker variants (epoched membership).

When the conflict graph changes under a run (processes join, leave,
rejoin; edges appear and disappear — see
:mod:`repro.graphs.membership`), several of the static properties stop
being well-posed as stated: "no two neighbors eat together" presumes
*neighbors* is a constant relation, "every correct diner eats" presumes
*correct* means "never crashed", and a channel-bound witness is only
actionable if it names which topology epoch it was observed in.

This module holds the dynamic refinements, composed by
``standard_suite(..., dynamic=True, membership=timeline)``:

* :class:`EdgeScopedExclusionChecker` (property ``edge-exclusion``) —
  mutual exclusion judged *per edge-existence interval*: an overlap of
  two eating sessions counts only while the edge actually exists, and,
  like ◇WX, only windows extending past ``settle`` are violations.
  Witnesses carry the epoch the overlap was observed in.
* :class:`ResidencyProgressChecker` — wait-freedom with rebirth: a
  leave is recorded as a crash on the trace, but a process that rejoins
  (emits phase events after its crash record) is readmitted to the
  correct set instead of being excluded forever.
* :class:`ResidencyQuiescenceChecker` — quiescence with rebirth: sends
  to a *rejoined* process are ordinary traffic again, not post-crash
  sends; stale crash records replayed after the rebirth are ignored.
* :class:`EpochChannelBoundChecker` — the Section 7 channel bound with
  epoch-stamped witnesses (counting is inherited unchanged, so the
  kernel adapter's shared-occupancy fast path keeps working).

Everything here consumes the same normalized event vocabulary as
:mod:`repro.checks.properties`; topology knowledge arrives as plain
data — an ``intervals`` mapping and an ``epoch_at`` callable, typically
``TopologyTimeline.edge_intervals()`` / ``.epoch_at`` — so this module
still imports no substrate.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.checks.base import Checker
from repro.checks.events import ProcessId
from repro.checks.properties import (
    EATING,
    ChannelBoundChecker,
    Edge,
    ProgressChecker,
    QuiescenceChecker,
)
from repro.checks.verdict import MAX_WITNESSES, PropertyVerdict, Violation
from repro.trace.events import Crash, PhaseChange

EDGE_EXCLUSION = "edge-exclusion"

#: One existence interval: ``(start, end)`` with ``end=None`` for "still
#: exists at the horizon".
Interval = Tuple[float, Optional[float]]


class EdgeScopedExclusionChecker(Checker):
    """Mutual exclusion scoped to edge-existence intervals.

    The dynamic generalization of Theorem 1's ◇WX: for every conflict
    edge and every interval during which that edge exists, no two
    endpoints eat simultaneously — once the system has settled.  Overlap
    windows are accumulated online exactly like
    :class:`~repro.checks.properties.WxSafetyChecker`; at ``finalize``
    each window is intersected with the edge's existence intervals and
    judged a violation iff the intersection extends past ``settle``.

    Rebirth-aware: a crash (which is how a *leave* appears on the
    trace) stops the pid's eating window, but later phase events from
    the same pid (a rejoin) resume normal tracking.
    """

    name = EDGE_EXCLUSION
    interests = (PhaseChange, Crash)

    def __init__(
        self,
        intervals: Dict[Edge, List[Interval]],
        *,
        settle: Optional[float] = None,
        epoch_at: Optional[Callable[[float], int]] = None,
    ) -> None:
        super().__init__()
        self.settle = settle
        self._epoch_at = epoch_at
        self._intervals: Dict[Edge, List[Interval]] = {
            (min(a, b), max(a, b)): list(spans)
            for (a, b), spans in intervals.items()
        }
        self._neighbors: Dict[ProcessId, List[ProcessId]] = defaultdict(list)
        for a, b in self._intervals:
            self._neighbors[a].append(b)
            self._neighbors[b].append(a)
        self._eating: Dict[ProcessId, float] = {}
        self._crashed: set = set()
        self._open: Dict[Edge, Tuple[float, int]] = {}
        self._windows: List[Tuple[Edge, float, float, int]] = []
        self.horizon: Optional[float] = None

    def observe(self, event, index: int) -> Optional[List[Violation]]:
        self.observed += 1
        if type(event) is Crash:
            self._crashed.add(event.pid)
            self._stop_eating(event.pid, event.time)
            return None
        pid = event.pid
        if pid in self._crashed:
            # Phase activity after a crash record: the pid rejoined.
            self._crashed.discard(pid)
        if event.new_phase == EATING:
            self._eating[pid] = event.time
            for other in self._neighbors.get(pid, ()):
                if other in self._eating:
                    edge = (pid, other) if pid <= other else (other, pid)
                    self._open[edge] = (event.time, index)
        elif event.old_phase == EATING:
            self._stop_eating(pid, event.time)
        return None

    def _stop_eating(self, pid: ProcessId, time: float) -> None:
        self._eating.pop(pid, None)
        for edge in [e for e in self._open if pid in e]:
            start, index = self._open.pop(edge)
            self._windows.append((edge, start, time, index))

    def _scoped(
        self, edge: Edge, start: float, end: float
    ) -> List[Tuple[float, float]]:
        """The sub-windows of ``[start, end)`` during which ``edge`` exists."""
        horizon = self.horizon if self.horizon is not None else math.inf
        scoped: List[Tuple[float, float]] = []
        for span_start, span_end in self._intervals.get(edge, ()):
            hi = horizon if span_end is None else span_end
            lo = max(start, span_start)
            cut = min(end, hi)
            if cut > lo:
                scoped.append((lo, cut))
        return scoped

    def finalize(self) -> PropertyVerdict:
        horizon = self.horizon if self.horizon is not None else math.inf
        windows = list(self._windows)
        windows += [
            (edge, start, horizon, index)
            for edge, (start, index) in self._open.items()
        ]
        windows.sort(key=lambda w: w[1])
        settle = self.settle
        scoped_total = 0
        late: List[Tuple[Edge, float, float, int]] = []
        for edge, start, end, index in windows:
            for lo, hi in self._scoped(edge, start, end):
                scoped_total += 1
                if settle is not None and hi > settle:
                    late.append((edge, lo, hi, index))
        violations = []
        for edge, lo, hi, index in late[:MAX_WITNESSES]:
            epoch = self._epoch_at(lo) if self._epoch_at is not None else None
            detail = (
                f"endpoints {edge[0]} and {edge[1]} ate simultaneously during "
                f"[{lo:g}, {hi:g}) while edge ({edge[0]},{edge[1]}) existed"
            )
            if epoch is not None:
                detail += f" [epoch {epoch}]"
            if settle is not None:
                detail += f", past settle={settle:g}"
            violations.append(
                Violation(
                    prop=self.name,
                    time=lo,
                    detail=detail,
                    subject=edge,
                    event_index=index,
                )
            )
        verdict = self._verdict(
            violations,
            overlap_windows_total=len(windows),
            scoped_windows_total=scoped_total,
            late_windows_total=len(late),
        )
        if late:
            verdict.counters["last_overlap_end"] = max(w[2] for w in late)
        if settle is not None:
            verdict.details["settle"] = settle
        if late and self._epoch_at is not None:
            verdict.details["witness_epochs"] = sorted(
                {self._epoch_at(w[1]) for w in late[:MAX_WITNESSES]}
            )
        return verdict


class ResidencyProgressChecker(ProgressChecker):
    """Wait-freedom with rebirth: rejoined processes are judged again.

    A leave appears on the trace as a crash, which the base checker
    treats as permanent exclusion.  Any later phase event from the same
    pid is evidence of a rejoin, so the pid is readmitted — its new
    hungry sessions are judged under the same patience window as
    everyone else's.
    """

    def observe(self, event, index: int) -> Optional[List[Violation]]:
        if type(event) is PhaseChange and event.pid in self._crashed:
            self._crashed.discard(event.pid)
        return super().observe(event, index)


class ResidencyQuiescenceChecker(QuiescenceChecker):
    """Quiescence with rebirth: a rejoined destination is alive again.

    ``note_rebirth`` clears the destination's crash instant, so sends to
    the fresh incarnation are ordinary traffic.  Crash records replayed
    out-of-band *after* the rebirth (the kernel adapter's deferred
    eventual replay re-walks the whole trace) are ignored when they
    predate the latest rebirth.
    """

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._reborn: Dict[ProcessId, float] = {}

    def note_rebirth(self, pid: ProcessId, time: float) -> None:
        self._reborn[pid] = time
        self._crash_times[pid] = None

    def note_crash(self, pid: ProcessId, time: float) -> None:
        if time < self._reborn.get(pid, -math.inf):
            return
        if self._crash_times.get(pid) is None:
            self._crash_times[pid] = time


class EpochChannelBoundChecker(ChannelBoundChecker):
    """The Section 7 channel bound with epoch-stamped witnesses.

    Counting (shared occupancy, layer filter, bound guard) is inherited
    unchanged — the kernel adapter's inline fast path feeds the same
    ``occupancy`` object and calls ``record_level`` only on exceedance —
    but every witness names the topology epoch it was observed in.
    """

    def __init__(
        self,
        bound: int = 4,
        layer: Optional[str] = "dining",
        *,
        epoch_at: Optional[Callable[[float], int]] = None,
    ) -> None:
        super().__init__(bound=bound, layer=layer)
        self._epoch_at = epoch_at

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
        violation = super().record_level(
            src, dst, level, time, message_type, index=index
        )
        if self._epoch_at is None:
            return violation
        import dataclasses

        stamped = dataclasses.replace(
            violation, detail=f"{violation.detail} [epoch {self._epoch_at(time)}]"
        )
        self._violations[-1] = stamped
        return stamped


__all__ = [
    "EDGE_EXCLUSION",
    "EdgeScopedExclusionChecker",
    "EpochChannelBoundChecker",
    "ResidencyProgressChecker",
    "ResidencyQuiescenceChecker",
]
