"""Detectors that deliberately violate one ◇P₁ property.

Section 8 of the paper composes its sufficiency result with the parallel
necessity result [21]: ◇P is the *weakest* failure detector for
wait-free, eventually-fair daemons.  Necessity cannot be "run", but its
footprint can: strip one ◇P₁ property from the oracle and the matching
guarantee of Algorithm 1 must collapse.  These detectors make that
demonstration executable (experiment E9):

* :class:`IncompleteDetector` — violates **local strong completeness**:
  chosen observer/suspect pairs never learn about real crashes.
  Prediction: wait-freedom collapses — the blind observer waits forever
  for a dead neighbor's ack or fork (this is the null-detector behaviour,
  localized to chosen edges).
* :class:`InaccurateDetector` — violates **local eventual strong
  accuracy**: chosen pairs suspect *correct* neighbors in recurring
  episodes forever.  Prediction: eventual weak exclusion collapses — the
  recurring false suspicion keeps authorizing forkless meals, so live
  neighbors eat simultaneously infinitely often; wait-freedom survives
  (suspicion only ever unblocks).

Both are scripted (deterministic from the seed) and deliberately fail
:class:`~repro.detectors.scripted.ScriptedDetector`'s validation, which
is why they are separate classes rather than configurations of it.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from repro.detectors.base import FailureDetector
from repro.errors import ConfigurationError
from repro.graphs.conflict import ConflictGraph, ProcessId
from repro.sim.crash import CrashPlan
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator
from repro.timebase import Duration, Instant, validate_duration

Pair = Tuple[ProcessId, ProcessId]


def _validate_pairs(graph: ConflictGraph, pairs: Iterable[Pair]) -> Tuple[Pair, ...]:
    validated = []
    for observer, subject in pairs:
        if not graph.are_neighbors(observer, subject):
            raise ConfigurationError(
                f"pair ({observer}, {subject}) is out of ◇P₁ scope: not neighbors"
            )
        validated.append((observer, subject))
    return tuple(validated)


class IncompleteDetector(FailureDetector):
    """◇P₁ minus completeness on selected (observer, crashed) pairs.

    Behaves like a perfect detector everywhere except the ``blind_pairs``:
    those observers never suspect those subjects, even after the subject
    crashes.  Everything else about the oracle is ideal, which isolates
    the completeness property as the only broken assumption.
    """

    def __init__(
        self,
        sim: Simulator,
        graph: ConflictGraph,
        crash_plan: CrashPlan,
        *,
        blind_pairs: Sequence[Pair],
        detection_delay: Duration = 1.0,
    ) -> None:
        super().__init__(graph)
        self._sim = sim
        self._crash_plan = crash_plan
        self.blind_pairs = _validate_pairs(graph, blind_pairs)
        self.detection_delay = validate_duration(detection_delay, name="detection_delay")
        self._installed = False

    def install(self) -> None:
        if self._installed:
            raise ConfigurationError("detector already installed")
        self._installed = True
        blind = set(self.blind_pairs)
        for pid, crash_time in self._crash_plan.crashes:
            for neighbor in self.graph.neighbors(pid):
                if (neighbor, pid) in blind:
                    continue  # the violation: this crash is never reported here
                module = self.module_for(neighbor)
                self._sim.schedule_at(
                    crash_time + self.detection_delay,
                    lambda m=module, p=pid: m.set_suspicion(p, True),
                    priority=EventPriority.CONTROL,
                    label=f"detect crash {pid} at {neighbor}",
                )


class InaccurateDetector(FailureDetector):
    """◇P₁ minus eventual accuracy on selected (observer, victim) pairs.

    Completeness is ideal (crashes detected everywhere), but each
    ``recurring_pairs`` observer falsely suspects its (correct) victim in
    periodic episodes forever: suspected during
    ``[k·period, k·period + episode)`` for every k ≥ 1.  Episodes stop
    only if the victim actually crashes (the suspicion then becomes
    permanent truth).
    """

    def __init__(
        self,
        sim: Simulator,
        graph: ConflictGraph,
        crash_plan: CrashPlan,
        *,
        recurring_pairs: Sequence[Pair],
        period: Duration = 10.0,
        episode: Duration = 4.0,
        detection_delay: Duration = 1.0,
    ) -> None:
        super().__init__(graph)
        self._sim = sim
        self._crash_plan = crash_plan
        self.recurring_pairs = _validate_pairs(graph, recurring_pairs)
        self.period = validate_duration(period, name="period", allow_zero=False)
        self.episode = validate_duration(episode, name="episode", allow_zero=False)
        if self.episode >= self.period:
            raise ConfigurationError("episode must be shorter than its period")
        self.detection_delay = validate_duration(detection_delay, name="detection_delay")
        self._installed = False

    def install(self) -> None:
        if self._installed:
            raise ConfigurationError("detector already installed")
        self._installed = True

        # Ideal completeness.
        for pid, crash_time in self._crash_plan.crashes:
            for neighbor in self.graph.neighbors(pid):
                module = self.module_for(neighbor)
                self._sim.schedule_at(
                    crash_time + self.detection_delay,
                    lambda m=module, p=pid: m.set_suspicion(p, True),
                    priority=EventPriority.CONTROL,
                    label=f"detect crash {pid} at {neighbor}",
                )

        # Perpetual recurring mistakes: self-rescheduling episode starts.
        # Each pair gets its episode function from a factory call, so the
        # self-recursion resolves through that call's own closure cell —
        # a loop-local ``def`` would be rebound on the next pair and every
        # rescheduled episode would drive the *last* pair's modules.
        crash_times = self._crash_plan.as_dict()
        for observer, victim in self.recurring_pairs:
            start_episode = self._make_episode_scheduler(
                observer,
                victim,
                self.module_for(observer),
                crash_times.get(victim, float("inf")),
            )
            self._sim.schedule_at(
                self.period,
                lambda f=start_episode: f(self.period),
                priority=EventPriority.CONTROL,
                label=f"first mistake {observer}~{victim}",
            )

    def _make_episode_scheduler(self, observer: ProcessId, victim: ProcessId, module, victim_crash: Instant):
        def start_episode(start: Instant) -> None:
            if start >= victim_crash:
                return  # truth (completeness) has taken over
            module.set_suspicion(victim, True)

            def stop() -> None:
                if self._sim.now < victim_crash:
                    module.set_suspicion(victim, False)

            self._sim.schedule_at(
                start + self.episode,
                stop,
                priority=EventPriority.CONTROL,
                label=f"end mistake {observer}~{victim}",
            )
            self._sim.schedule_at(
                start + self.period,
                lambda: start_episode(start + self.period),
                priority=EventPriority.CONTROL,
                label=f"next mistake {observer}~{victim}",
            )

        return start_episode
