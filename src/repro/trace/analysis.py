"""Trace analysis: the measurements behind every experiment.

This module turns a recorded trace into the quantities the experiments
measure; whether a run satisfies Theorems 1–3 (◇WX, wait-freedom,
◇2-bounded waiting) is judged by the checkers of :mod:`repro.checks`,
which the dining table's queries read.

* :func:`eating_intervals` / :func:`hungry_sessions` — per-process phase
  intervals reconstructed from :class:`~repro.trace.events.PhaseChange`
  records (truncated at crashes: a crashed process executes nothing);
* :func:`response_times`, :func:`eat_counts`, :func:`throughput`,
  :func:`jain_fairness_index` — performance measures for the
  scalability and fairness experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.timebase import Instant
from repro.trace.events import EATING, HUNGRY, Crash, PhaseChange, ProcessId
from repro.trace.recorder import TraceRecorder


@dataclass(frozen=True)
class Interval:
    """A half-open phase interval ``[start, end)`` of one process.

    ``end`` is ``math.inf`` when the phase persisted to the end of the
    trace.  ``served`` distinguishes a hungry session that ended in eating
    from one cut short by crash or end-of-run.
    """

    pid: ProcessId
    start: Instant
    end: Instant
    served: bool = True

    @property
    def length(self) -> float:
        return self.end - self.start


def crash_times(trace: TraceRecorder) -> Dict[ProcessId, Instant]:
    """Map of crashed pid -> crash instant, from the trace."""
    return {record.pid: record.time for record in trace.of_type(Crash)}


def _phase_intervals(
    trace: TraceRecorder,
    pid: ProcessId,
    phase: str,
    *,
    horizon: Instant = math.inf,
) -> List[Interval]:
    """Maximal intervals during which ``pid`` was in ``phase``.

    Intervals are truncated at the process's crash time (a crashed process
    is in no phase) and at ``horizon``.
    """
    crashes = crash_times(trace)
    cutoff = min(crashes.get(pid, math.inf), horizon)

    intervals: List[Interval] = []
    current_start: Optional[Instant] = None
    for change in trace.phase_changes(pid):
        if change.time > cutoff:
            break
        if change.new_phase == phase and current_start is None:
            current_start = change.time
        elif change.old_phase == phase and current_start is not None:
            served = phase == HUNGRY and change.new_phase == EATING
            intervals.append(Interval(pid, current_start, change.time, served=served))
            current_start = None
    if current_start is not None:
        intervals.append(Interval(pid, current_start, cutoff, served=False))
    return intervals


def eating_intervals(
    trace: TraceRecorder, pid: ProcessId, *, horizon: Instant = math.inf
) -> List[Interval]:
    """Maximal eating intervals of ``pid``."""
    return _phase_intervals(trace, pid, EATING, horizon=horizon)


def hungry_sessions(
    trace: TraceRecorder, pid: ProcessId, *, horizon: Instant = math.inf
) -> List[Interval]:
    """Hungry sessions of ``pid``: becoming hungry until entering eating.

    A session whose diner crashed or was still waiting at the horizon has
    ``served=False``.
    """
    return _phase_intervals(trace, pid, HUNGRY, horizon=horizon)


def eat_starts(trace: TraceRecorder, pid: ProcessId) -> List[Instant]:
    """Times at which ``pid`` transitioned into eating."""
    return [c.time for c in trace.phase_changes(pid) if c.new_phase == EATING]


def eat_counts(trace: TraceRecorder) -> Dict[ProcessId, int]:
    """Number of eating sessions begun, per process."""
    counts: Dict[ProcessId, int] = {}
    for change in trace.of_type(PhaseChange):
        if change.new_phase == EATING:
            counts[change.pid] = counts.get(change.pid, 0) + 1
    return counts


# ----------------------------------------------------------------------
# Performance
# ----------------------------------------------------------------------
def response_times(
    trace: TraceRecorder, pid: ProcessId, *, horizon: Instant = math.inf
) -> List[float]:
    """Lengths of served hungry sessions of ``pid``."""
    return [
        s.length for s in hungry_sessions(trace, pid, horizon=horizon) if s.served
    ]


def all_response_times(
    trace: TraceRecorder, pids: Iterable[ProcessId], *, horizon: Instant = math.inf
) -> List[float]:
    """Served hungry-session lengths pooled over ``pids``."""
    pooled: List[float] = []
    for pid in pids:
        pooled.extend(response_times(trace, pid, horizon=horizon))
    return pooled


def throughput(trace: TraceRecorder, *, horizon: Instant) -> float:
    """Eating sessions begun per unit virtual time, across all processes."""
    if horizon <= 0:
        return 0.0
    total = sum(eat_counts(trace).values())
    return total / horizon


def jain_fairness_index(counts) -> float:
    """Jain's fairness index over per-process meal counts.

    ``(Σx)² / (n · Σx²)`` ∈ (0, 1]: 1.0 means perfectly equal service,
    1/n means one process got everything.  Complements the worst-case
    overtaking bound of Theorem 3 with an aggregate view — a wait-free,
    eventually fair schedule should keep this near 1 on symmetric
    topologies.
    """
    values = [float(v) for v in (counts.values() if hasattr(counts, "values") else counts)]
    if not values:
        return 1.0
    total = sum(values)
    if total == 0.0:
        return 1.0
    squares = sum(v * v for v in values)
    return (total * total) / (len(values) * squares)
