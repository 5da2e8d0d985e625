"""The perfect detector P (strong completeness + strong accuracy).

P never makes false-positive mistakes: a process is suspected only after it
actually crashed.  Algorithm 1 running over P gives *perpetual* weak
exclusion from time zero (Theorem 1's pre-convergence mistakes all stem
from false positives), which the experiments use as the "stronger oracle"
comparison point — the paper shows ◇P suffices, and P is what you would
need to never make a scheduling mistake at all.

Implemented as a :class:`ScriptedDetector` with an empty mistake script and
convergence time zero.
"""

from __future__ import annotations

from repro.detectors.scripted import ScriptedDetector
from repro.graphs.conflict import ConflictGraph
from repro.sim.crash import CrashPlan
from repro.sim.kernel import Simulator
from repro.timebase import Duration


class PerfectDetector(ScriptedDetector):
    """Never suspects a live process; detects each crash after a fixed lag."""

    def __init__(
        self,
        sim: Simulator,
        graph: ConflictGraph,
        crash_plan: CrashPlan,
        *,
        detection_delay: Duration = 1.0,
    ) -> None:
        super().__init__(
            sim,
            graph,
            crash_plan,
            convergence_time=0.0,
            detection_delay=detection_delay,
            mistakes=(),
        )
