"""A real message-passing ◇P₁: heartbeats with adaptive timeouts.

The paper motivates ◇P as "implementable in many realistic models of
partial synchrony [7, 13, 14]".  This module supplies that implementation
so the system can be demonstrated end-to-end with no oracle scripting:

* every process periodically sends a :class:`Heartbeat` to each conflict
  graph neighbor (detector traffic is tagged ``layer="detector"`` so the
  dining layer's channel-capacity bound stays measurable);
* for each neighbor a deadline is maintained; if it passes without a
  heartbeat the neighbor is suspected;
* a heartbeat from a suspected neighbor retracts the suspicion and
  *increases* that neighbor's timeout.

Under the GST partial-synchrony latency model
(:class:`repro.sim.latency.PartialSynchronyLatency`) this satisfies ◇P₁:

* **local strong completeness** — a crashed neighbor stops sending, its
  deadline eventually fires, and with no further heartbeats the suspicion
  is permanent (at most finitely many in-transit heartbeats can retract
  it);
* **local eventual strong accuracy** — after GST every heartbeat arrives
  within ``interval + post_gst_max``; each false suspicion grows the
  timeout by ``timeout_increment``, so after finitely many mistakes the
  timeout exceeds that bound and no correct neighbor is suspected again.

The detector rides inside its host actor (one simulated process runs both
its dining layer and its detector module), wired through
:class:`DetectorAgent`.  Heartbeats keep flowing to crashed neighbors —
quiescence is a dining-layer property (Section 7), not a detector one;
◇P fundamentally requires perpetual probing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.detectors.base import DetectorModule, FailureDetector
from repro.errors import ConfigurationError
from repro.graphs.conflict import ConflictGraph, ProcessId
from repro.sim.actor import Actor
from repro.sim.events import Event
from repro.timebase import Duration, validate_duration


@dataclass(frozen=True)
class Heartbeat:
    """I-am-alive probe; carries its sender's send-time for diagnostics."""

    sent_at: float
    layer = "detector"


class HeartbeatAgent:
    """Per-process detector engine hosted inside an actor."""

    def __init__(self, detector: "HeartbeatDetector", pid: ProcessId) -> None:
        self._detector = detector
        self.pid = pid
        self.module: DetectorModule = detector.module_for(pid)
        self._actor: Optional[Actor] = None
        self._timeouts: Dict[ProcessId, Duration] = {
            nbr: detector.initial_timeout for nbr in detector.graph.neighbors(pid)
        }
        self._deadlines: Dict[ProcessId, Event] = {}
        self.false_suspicion_retractions = 0

    # ------------------------------------------------------------------
    # Wiring (called by the host actor)
    # ------------------------------------------------------------------
    def start(self, actor: Actor) -> None:
        """Begin heartbeating and arm initial deadlines."""
        if actor.pid != self.pid:
            raise ConfigurationError(
                f"agent for process {self.pid} attached to actor {actor.pid}"
            )
        self._actor = actor
        self._broadcast()
        for neighbor in self._timeouts:
            self._arm_deadline(neighbor)

    def wants(self, message) -> bool:
        """True when ``message`` belongs to the detector layer."""
        return isinstance(message, Heartbeat)

    def on_message(self, src: ProcessId, message: Heartbeat) -> None:
        """A heartbeat arrived: refresh (and if needed retract) suspicion."""
        if src not in self._timeouts:
            return  # heartbeat from a non-neighbor: outside ◇P₁'s scope
        if self.module.suspects(src):
            # A false suspicion (or a pre-crash straggler).  Retract and
            # adapt: grow the timeout so this mistake is not repeated once
            # the network has stabilized.
            self._timeouts[src] += self._detector.timeout_increment
            self.false_suspicion_retractions += 1
            self.module.set_suspicion(src, False)
        self._arm_deadline(src)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _broadcast(self) -> None:
        actor = self._actor
        if actor is None or actor.crashed:
            return
        beat = Heartbeat(sent_at=actor.now)
        for neighbor in self._timeouts:
            actor.send(neighbor, beat)
        actor.set_timer(self._detector.interval, self._broadcast, label=f"heartbeat@{self.pid}")

    def _arm_deadline(self, neighbor: ProcessId) -> None:
        actor = self._actor
        if actor is None or actor.crashed:
            return
        previous = self._deadlines.get(neighbor)
        if previous is not None:
            previous.cancel()

        def expire() -> None:
            self.module.set_suspicion(neighbor, True)

        self._deadlines[neighbor] = actor.set_timer(
            self._timeouts[neighbor], expire, label=f"deadline {self.pid}~{neighbor}"
        )

    def timeout_of(self, neighbor: ProcessId) -> Duration:
        """Current adaptive timeout for ``neighbor`` (diagnostics)."""
        return self._timeouts[neighbor]


class HeartbeatDetector(FailureDetector):
    """◇P₁ from heartbeats and adaptive timeouts.

    Parameters
    ----------
    interval:
        Period between heartbeat broadcasts.
    initial_timeout:
        Starting per-neighbor deadline; deliberately allowed to be small
        enough to cause early false positives (the algorithm must tolerate
        them, and the experiments want some to occur).
    timeout_increment:
        Additive timeout growth on each retracted false suspicion.
    """

    def __init__(
        self,
        graph: ConflictGraph,
        *,
        interval: Duration = 1.0,
        initial_timeout: Duration = 3.0,
        timeout_increment: Duration = 1.0,
    ) -> None:
        super().__init__(graph)
        self.interval = validate_duration(interval, name="interval", allow_zero=False)
        self.initial_timeout = validate_duration(
            initial_timeout, name="initial_timeout", allow_zero=False
        )
        self.timeout_increment = validate_duration(
            timeout_increment, name="timeout_increment", allow_zero=False
        )
        self._agents: Dict[ProcessId, HeartbeatAgent] = {}

    def agent_for(self, pid: ProcessId) -> HeartbeatAgent:
        """The per-process engine; host actors call this and wire it in."""
        agent = self._agents.get(pid)
        if agent is None:
            agent = HeartbeatAgent(self, pid)
            self._agents[pid] = agent
        return agent

    def total_false_retractions(self) -> int:
        """Across all processes, how many false suspicions were retracted."""
        return sum(agent.false_suspicion_retractions for agent in self._agents.values())
