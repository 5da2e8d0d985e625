"""Scripted ◇P₁ oracle with exact, configurable behaviour.

The safety, progress, and fairness proofs quantify over *any* detector
history satisfying ◇P₁'s two properties.  To test those theorems we need
precise control of that history: when each crash is detected, which
false-positive mistakes occur, and exactly when accuracy converges.
:class:`ScriptedDetector` provides that control while provably satisfying
◇P₁ by construction:

* **completeness** — for each crashed process *j* and each neighbor *i*,
  the module of *i* suspects *j* permanently from
  ``crash_time(j) + detection_delay``;
* **accuracy** — false-positive suspicion intervals are only admitted
  strictly before the configured ``convergence_time``, so after
  ``convergence_time`` no correct process is ever suspected.

:meth:`ScriptedDetector.with_random_mistakes` draws a pre-convergence
mistake history from a named random stream, which is how the safety
experiment explores many adversarial oracle histories per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.detectors.base import FailureDetector
from repro.graphs.conflict import ConflictGraph, ProcessId
from repro.sim.crash import CrashPlan
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator
from repro.timebase import Duration, Instant, validate_duration, validate_instant


@dataclass(frozen=True)
class MistakeInterval:
    """One false-positive episode: ``observer`` suspects ``suspect`` in [start, end)."""

    observer: ProcessId
    suspect: ProcessId
    start: Instant
    end: Instant

    def validate(self, graph: ConflictGraph) -> None:
        if not graph.are_neighbors(self.observer, self.suspect):
            raise ConfigurationError(
                f"mistake interval {self} is out of ◇P₁ scope: "
                f"{self.observer} and {self.suspect} are not neighbors"
            )
        if self.end <= self.start:
            raise ConfigurationError(f"mistake interval {self} is empty or inverted")


class ScriptedDetector(FailureDetector):
    """Oracle whose entire history is fixed at construction time.

    Parameters
    ----------
    sim, graph, crash_plan:
        The simulation the oracle is embedded in.
    convergence_time:
        Instant after which local eventual strong accuracy holds; all
        mistake intervals must end by then.
    detection_delay:
        Lag between a crash and its permanent suspicion by each neighbor.
    mistakes:
        False-positive episodes (see :class:`MistakeInterval`).
    """

    def __init__(
        self,
        sim: Simulator,
        graph: ConflictGraph,
        crash_plan: CrashPlan,
        *,
        convergence_time: Instant = 0.0,
        detection_delay: Duration = 1.0,
        mistakes: Iterable[MistakeInterval] = (),
    ) -> None:
        super().__init__(graph)
        self._sim = sim
        self._crash_plan = crash_plan
        self.convergence_time = validate_instant(convergence_time, name="convergence_time")
        self.detection_delay = validate_duration(detection_delay, name="detection_delay")
        self._mistakes: Tuple[MistakeInterval, ...] = tuple(mistakes)

        crash_times = crash_plan.as_dict()
        for interval in self._mistakes:
            interval.validate(graph)
            if interval.end > self.convergence_time:
                raise ConfigurationError(
                    f"mistake interval {interval} outlives convergence time "
                    f"{self.convergence_time}; that would violate eventual strong accuracy"
                )
            suspect_crash = crash_times.get(interval.suspect)
            if suspect_crash is not None and interval.start >= suspect_crash:
                raise ConfigurationError(
                    f"mistake interval {interval} starts after its suspect crashed; "
                    "that is completeness, not a mistake — extend detection instead"
                )
        self._installed = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def with_random_mistakes(
        cls,
        sim: Simulator,
        graph: ConflictGraph,
        crash_plan: CrashPlan,
        *,
        convergence_time: Instant,
        detection_delay: Duration = 1.0,
        mistakes_per_edge: float = 1.0,
        mean_mistake_duration: Duration = 2.0,
        stream_name: str = "detector-mistakes",
    ) -> "ScriptedDetector":
        """Draw a random pre-convergence mistake history.

        For every ordered neighbor pair, a geometric number of mistake
        episodes (mean ``mistakes_per_edge``) is placed uniformly before
        ``convergence_time``, each with an exponential duration clipped to
        end at convergence.  Intervals targeting a process after its crash
        are discarded (those would be completeness, not mistakes).
        """
        convergence_time = validate_instant(convergence_time, name="convergence_time")
        rng = sim.streams.stream(stream_name)
        crash_times = crash_plan.as_dict()
        mistakes: List[MistakeInterval] = []
        if convergence_time > 0:
            for observer in graph.nodes:
                for suspect in graph.neighbors(observer):
                    count = 0
                    while rng.random() < mistakes_per_edge / (mistakes_per_edge + 1.0):
                        count += 1
                        if count > 20:
                            break
                    for _ in range(count):
                        start = rng.uniform(0.0, convergence_time)
                        duration = rng.expovariate(1.0 / mean_mistake_duration)
                        end = min(start + max(duration, 1e-6), convergence_time)
                        if end <= start:
                            continue
                        suspect_crash = crash_times.get(suspect)
                        if suspect_crash is not None and start >= suspect_crash:
                            continue
                        if suspect_crash is not None and end > suspect_crash:
                            end = suspect_crash
                            if end <= start:
                                continue
                        mistakes.append(MistakeInterval(observer, suspect, start, end))
        return cls(
            sim,
            graph,
            crash_plan,
            convergence_time=convergence_time,
            detection_delay=detection_delay,
            mistakes=mistakes,
        )

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Schedule every suspicion flip in the oracle's history.

        Flips run at CONTROL priority so a suspicion that starts at time
        *t* is visible to every guard evaluated at *t*.
        """
        if self._installed:
            raise ConfigurationError("detector already installed")
        self._installed = True

        def flip(observer: ProcessId, suspect: ProcessId, value: bool):
            module = self.module_for(observer)
            return lambda: module.set_suspicion(suspect, value)

        # Completeness: permanent suspicion after each crash.
        for pid, crash_time in self._crash_plan.crashes:
            for neighbor in self.graph.neighbors(pid):
                self._sim.schedule_at(
                    crash_time + self.detection_delay,
                    flip(neighbor, pid, True),
                    priority=EventPriority.CONTROL,
                    label=f"detect crash {pid} at {neighbor}",
                )

        # Scripted mistakes: bounded false-positive episodes.
        for interval in self._mistakes:
            self._sim.schedule_at(
                interval.start,
                flip(interval.observer, interval.suspect, True),
                priority=EventPriority.CONTROL,
                label=f"mistake on {interval.suspect} at {interval.observer}",
            )
            self._sim.schedule_at(
                interval.end,
                self._end_mistake(interval),
                priority=EventPriority.CONTROL,
                label=f"retract mistake on {interval.suspect} at {interval.observer}",
            )

    def _end_mistake(self, interval: MistakeInterval):
        """Retract a mistake unless its target crashed during the episode."""

        def retract() -> None:
            crash_times = self._crash_plan.as_dict()
            crash_time: Optional[Instant] = crash_times.get(interval.suspect)
            if crash_time is not None and crash_time <= self._sim.now:
                return  # became true suspicion; completeness keeps it
            self.module_for(interval.observer).set_suspicion(interval.suspect, False)

        return retract

    @property
    def mistakes(self) -> Tuple[MistakeInterval, ...]:
        return self._mistakes

    def accuracy_holds_after(self) -> Instant:
        """Earliest instant from which no correct process is suspected."""
        return max((m.end for m in self._mistakes), default=0.0)
