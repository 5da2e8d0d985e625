"""Failure-detector quality-of-service metrics (Chen, Toueg & Aguilera).

The paper needs only ◇P₁'s two eventual properties, but *how good* an
implementation is — how fast it detects real crashes, how often and how
long it wrongly suspects — determines everything quantitative about a
run: the violation budget, the pre-convergence fairness backlog, and the
response-time tail.  This module computes the three classic QoS metrics
from a recorded trace's :class:`~repro.trace.events.SuspicionChange`
records:

* **detection time** — crash instant → start of the *permanent* suspicion
  at each correct neighbor;
* **mistake rate** — false-suspicion episodes per unit time per monitored
  pair (episodes targeting a process before its crash);
* **mistake duration** — how long each false episode lasted.

Works for any detector in the library (the dining layer records every
module output change), so scripted oracles can calibrate expectations for
the heartbeat implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.graphs.conflict import ConflictGraph, ProcessId
from repro.sim.crash import CrashPlan
from repro.timebase import Instant
from repro.trace.events import SuspicionChange
from repro.trace.recorder import TraceRecorder

Pair = Tuple[ProcessId, ProcessId]


@dataclass(frozen=True)
class SuspicionEpisode:
    """One maximal suspicion interval of ``subject`` at ``observer``."""

    observer: ProcessId
    subject: ProcessId
    start: Instant
    end: Instant  # math.inf when never retracted

    @property
    def duration(self) -> float:
        return self.end - self.start


def suspicion_episodes(
    trace: TraceRecorder, *, horizon: Instant = math.inf
) -> List[SuspicionEpisode]:
    """All maximal suspicion intervals, open ones closed at ``horizon``."""
    open_since: Dict[Pair, Instant] = {}
    episodes: List[SuspicionEpisode] = []
    for record in trace.of_type(SuspicionChange):
        pair = (record.observer, record.suspect)
        if record.suspected:
            open_since.setdefault(pair, record.time)
        else:
            started = open_since.pop(pair, None)
            if started is not None:
                episodes.append(
                    SuspicionEpisode(pair[0], pair[1], started, record.time)
                )
    for (observer, subject), started in open_since.items():
        episodes.append(SuspicionEpisode(observer, subject, started, horizon))
    episodes.sort(key=lambda e: (e.start, e.observer, e.subject))
    return episodes


@dataclass(frozen=True)
class QosReport:
    """Aggregate detector quality over one run."""

    detection_times: Tuple[float, ...]  # one per (correct neighbor, crash) pair detected
    undetected_crash_pairs: int  # completeness failures at the horizon
    mistake_count: int
    mistake_durations: Tuple[float, ...]
    monitored_pairs: int
    horizon: float

    @property
    def worst_detection_time(self) -> Optional[float]:
        return max(self.detection_times) if self.detection_times else None

    @property
    def mean_detection_time(self) -> Optional[float]:
        if not self.detection_times:
            return None
        return sum(self.detection_times) / len(self.detection_times)

    @property
    def mistake_rate(self) -> float:
        """False episodes per unit time per monitored pair."""
        if self.horizon <= 0 or self.monitored_pairs == 0:
            return 0.0
        return self.mistake_count / (self.horizon * self.monitored_pairs)

    @property
    def mean_mistake_duration(self) -> Optional[float]:
        finite = [d for d in self.mistake_durations if math.isfinite(d)]
        if not finite:
            return None
        return sum(finite) / len(finite)


def detector_qos(
    trace: TraceRecorder,
    graph: ConflictGraph,
    crash_plan: CrashPlan,
    *,
    horizon: Instant,
) -> QosReport:
    """Compute the QoS report for one run.

    An episode counts as *detection* when it targets a crashed subject,
    begins at/after the crash, and persists to the horizon; it counts as
    a *mistake* when it begins before the subject's crash (or the subject
    never crashes).  Crashed observers' episodes are ignored from their
    crash time (a dead module outputs nothing).
    """
    crash_times = crash_plan.as_dict()
    episodes = suspicion_episodes(trace, horizon=horizon)

    detection: Dict[Pair, float] = {}
    mistakes: List[float] = []
    for episode in episodes:
        observer_crash = crash_times.get(episode.observer, math.inf)
        if episode.start >= observer_crash:
            continue
        subject_crash = crash_times.get(episode.subject, math.inf)
        if episode.start >= subject_crash:
            # True detection; permanence means it survives to the horizon.
            if episode.end >= min(horizon, observer_crash):
                pair = (episode.observer, episode.subject)
                detection.setdefault(pair, episode.start - subject_crash)
        else:
            mistakes.append(min(episode.end, subject_crash) - episode.start)

    expected_pairs = 0
    for pid, crash_time in crash_plan.crashes:
        for neighbor in graph.neighbors(pid):
            neighbor_crash = crash_times.get(neighbor, math.inf)
            if neighbor_crash > crash_time:  # neighbor alive to observe it
                expected_pairs += 1
    undetected = expected_pairs - len(detection)

    monitored = sum(len(graph.neighbors(pid)) for pid in graph.nodes)
    return QosReport(
        detection_times=tuple(sorted(detection.values())),
        undetected_crash_pairs=max(0, undetected),
        mistake_count=len(mistakes),
        mistake_durations=tuple(sorted(mistakes)),
        monitored_pairs=monitored,
        horizon=float(horizon),
    )
