"""Thirst workloads: per-session bottle demands.

Drinking philosophers (Chandy & Misra 1984) generalize dining: each
session needs only a *subset* of the shared resources ("bottles", one per
conflict edge), and neighbors whose current demands don't intersect may
drink simultaneously.  A :class:`ThirstWorkload` extends the dining
workload contract with :meth:`bottles`, sampled once per session.

Dining is the special case where every session demands every incident
bottle (:class:`AlwaysAllBottles`).
"""

from __future__ import annotations

from typing import FrozenSet, Optional

from repro.core.workload import Workload
from repro.errors import ConfigurationError
from repro.graphs.conflict import ConflictGraph, ProcessId
from repro.sim.rng import RandomStreams
from repro.timebase import Duration, validate_duration


class ThirstWorkload(Workload):
    """Workload contract for drinking sessions."""

    def bottles(
        self, pid: ProcessId, graph: ConflictGraph, streams: RandomStreams
    ) -> FrozenSet[ProcessId]:
        """Neighbors whose shared bottle this session needs.

        Called exactly once per thirsty session, at its start.
        """
        raise NotImplementedError


class RandomThirst(ThirstWorkload):
    """Each session wants each incident bottle independently with ``demand``.

    ``demand = 1.0`` degenerates to dining; small values create the sparse
    conflicts where drinking's extra concurrency shows.
    """

    def __init__(
        self,
        *,
        demand: float = 0.5,
        drink_time: Duration = 1.0,
        think_time: Duration = 0.01,
    ) -> None:
        if not 0.0 <= demand <= 1.0:
            raise ConfigurationError(f"demand must be in [0, 1], got {demand!r}")
        self.demand = float(demand)
        self.drink_time = validate_duration(drink_time, name="drink_time", allow_zero=False)
        self.think_time = validate_duration(think_time, name="think_time", allow_zero=False)

    def think_duration(self, pid: ProcessId, streams: RandomStreams) -> Optional[Duration]:
        return self.think_time

    def eat_duration(self, pid: ProcessId, streams: RandomStreams) -> Duration:
        return self.drink_time

    def bottles(
        self, pid: ProcessId, graph: ConflictGraph, streams: RandomStreams
    ) -> FrozenSet[ProcessId]:
        rng = streams.stream(f"thirst/{pid}")
        return frozenset(
            nbr for nbr in graph.neighbors(pid) if rng.random() < self.demand
        )


class AlwaysAllBottles(ThirstWorkload):
    """Dining-as-drinking: every session needs every incident bottle."""

    def __init__(self, *, drink_time: Duration = 1.0, think_time: Duration = 0.01) -> None:
        self.drink_time = validate_duration(drink_time, name="drink_time", allow_zero=False)
        self.think_time = validate_duration(think_time, name="think_time", allow_zero=False)

    def think_duration(self, pid: ProcessId, streams: RandomStreams) -> Optional[Duration]:
        return self.think_time

    def eat_duration(self, pid: ProcessId, streams: RandomStreams) -> Duration:
        return self.drink_time

    def bottles(
        self, pid: ProcessId, graph: ConflictGraph, streams: RandomStreams
    ) -> FrozenSet[ProcessId]:
        return frozenset(graph.neighbors(pid))


class ScriptedThirst(ThirstWorkload):
    """Exact bottle sets per session, recycling the last entry.

    ``demands[pid]`` is a sequence of iterables of neighbor ids.  Processes
    absent from the script think forever.
    """

    def __init__(
        self,
        demands,
        *,
        drink_time: Duration = 1.0,
        think_time: Duration = 0.01,
        sessions_per_process: Optional[int] = None,
    ) -> None:
        self._demands = {
            pid: [frozenset(group) for group in groups] for pid, groups in demands.items()
        }
        for pid, groups in self._demands.items():
            if not groups:
                raise ConfigurationError(f"empty demand script for process {pid}")
        self._cursor = {pid: 0 for pid in self._demands}
        self._sessions_left = (
            {pid: sessions_per_process for pid in self._demands}
            if sessions_per_process is not None
            else None
        )
        self.drink_time = validate_duration(drink_time, name="drink_time", allow_zero=False)
        self.think_time = validate_duration(think_time, name="think_time", allow_zero=False)

    def think_duration(self, pid: ProcessId, streams: RandomStreams) -> Optional[Duration]:
        if pid not in self._demands:
            return None
        if self._sessions_left is not None:
            if self._sessions_left[pid] <= 0:
                return None
            self._sessions_left[pid] -= 1
        return self.think_time

    def eat_duration(self, pid: ProcessId, streams: RandomStreams) -> Duration:
        return self.drink_time

    def bottles(
        self, pid: ProcessId, graph: ConflictGraph, streams: RandomStreams
    ) -> FrozenSet[ProcessId]:
        groups = self._demands.get(pid)
        if groups is None:
            return frozenset()
        index = min(self._cursor[pid], len(groups) - 1)
        self._cursor[pid] += 1
        chosen = groups[index]
        unknown = chosen - set(graph.neighbors(pid))
        if unknown:
            raise ConfigurationError(
                f"session demand of {pid} names non-neighbors {sorted(unknown)}"
            )
        return chosen
