"""Analysis for drinking-philosopher traces.

Drinking scopes exclusion per bottle: two neighbors drinking
simultaneously is a violation only when **both** of their active sessions
demanded the shared bottle.  These helpers reconstruct per-meal demands
from the :class:`~repro.drinking.diner.ThirstDeclared` records and
measure both the scoped violations and the concurrency payoff
(time-averaged simultaneous drinkers), which is drinking's reason to
exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

from repro.drinking.diner import ThirstDeclared
from repro.graphs.conflict import ConflictGraph, ProcessId
from repro.timebase import Instant
from repro.trace.analysis import eating_intervals
from repro.trace.recorder import TraceRecorder


@dataclass(frozen=True)
class ExclusionViolation:
    """Two live neighbors drank simultaneously during ``[start, end)``."""

    a: ProcessId
    b: ProcessId
    start: Instant
    end: Instant


def demand_at(
    trace: TraceRecorder, pid: ProcessId, time: Instant
) -> FrozenSet[ProcessId]:
    """Bottle demand of the session ``pid`` started at or before ``time``."""
    demand: FrozenSet[ProcessId] = frozenset()
    for record in trace.of_type(ThirstDeclared):
        if record.pid != pid or record.time > time:
            continue
        demand = record.bottles
    return demand


def drinking_violations(
    trace: TraceRecorder, graph: ConflictGraph, *, horizon: Instant = math.inf
) -> List[ExclusionViolation]:
    """Overlapping meals of neighbors that both demanded the shared bottle."""
    meals = {pid: eating_intervals(trace, pid, horizon=horizon) for pid in graph.nodes}
    violations: List[ExclusionViolation] = []
    for a, b in sorted(graph.edges):
        for meal_a in meals[a]:
            if b not in demand_at(trace, a, meal_a.start):
                continue
            for meal_b in meals[b]:
                if a not in demand_at(trace, b, meal_b.start):
                    continue
                start = max(meal_a.start, meal_b.start)
                end = min(meal_a.end, meal_b.end)
                if start < end:
                    violations.append(ExclusionViolation(a, b, start, end))
    violations.sort(key=lambda v: (v.start, v.a, v.b))
    return violations


def drinking_violations_after(
    trace: TraceRecorder,
    graph: ConflictGraph,
    cutoff: Instant,
    *,
    horizon: Instant = math.inf,
) -> List[ExclusionViolation]:
    """Scoped violations overlapping ``[cutoff, horizon)`` (cf. Theorem 1)."""
    return [
        v
        for v in drinking_violations(trace, graph, horizon=horizon)
        if v.end > cutoff
    ]


def concurrency_profile(
    trace: TraceRecorder, graph: ConflictGraph, *, horizon: Instant
) -> Dict[str, float]:
    """Time-averaged and peak number of simultaneous drinkers.

    The payoff metric: with sparse demands, drinking admits adjacent
    simultaneous drinkers and the average rises above dining's
    independent-set ceiling on dense graphs.
    """
    deltas: List[Tuple[Instant, int]] = []
    for pid in graph.nodes:
        for meal in eating_intervals(trace, pid, horizon=horizon):
            deltas.append((meal.start, +1))
            deltas.append((min(meal.end, horizon), -1))
    if not deltas:
        return {"mean": 0.0, "peak": 0.0}
    deltas.sort()
    area = 0.0
    peak = 0
    current = 0
    last_time = 0.0
    for time, delta in deltas:
        area += current * (time - last_time)
        current += delta
        peak = max(peak, current)
        last_time = time
    area += current * max(0.0, horizon - last_time)
    return {"mean": area / horizon if horizon > 0 else 0.0, "peak": float(peak)}


def adjacent_simultaneous_drinks(
    trace: TraceRecorder, graph: ConflictGraph, *, horizon: Instant = math.inf
) -> int:
    """Count neighbor meal overlaps regardless of demand.

    For dining this equals the violation count; for drinking it is the
    *legal concurrency* drinking unlocked (minus any scoped violations).
    """
    meals = {pid: eating_intervals(trace, pid, horizon=horizon) for pid in graph.nodes}
    count = 0
    for a, b in sorted(graph.edges):
        for meal_a in meals[a]:
            for meal_b in meals[b]:
                if max(meal_a.start, meal_b.start) < min(meal_a.end, meal_b.end):
                    count += 1
    return count
