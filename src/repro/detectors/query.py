"""A second real ◇P₁: query-response probing with adaptive timeouts.

Chandra & Toueg's original ◇P sketch polls: each module periodically asks
each neighbor "are you alive?" and suspects on a missed reply.  Where the
heartbeat detector (:mod:`repro.detectors.heartbeat`) measures one-way
silence, this one measures **round trips** — it needs no assumption that
the neighbor is spontaneously sending, which matters when detector and
application share channels with asymmetric load.

Mechanics per monitored neighbor:

* every ``interval``, send a sequence-numbered :class:`Probe` and arm a
  deadline of the current adaptive timeout;
* any process answers a probe immediately with an :class:`Echo` carrying
  the probe's sequence number (the detector layer answers regardless of
  dining state — a busy philosopher is still alive);
* an echo for the newest outstanding probe (or any later one) clears the
  deadline; an expired deadline suspects; a late echo retracts the
  suspicion and grows the timeout by ``timeout_increment``.

Under GST partial synchrony this satisfies ◇P₁ by the same argument as
the heartbeat detector, with the bound on post-GST round trips being
``2 · post_gst_max`` instead of one-way delay: completeness because a
crashed neighbor echoes nothing, eventual accuracy because finitely many
timeout bumps push past the round-trip bound.
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
class Probe:
    """'Are you alive?' — sequence-numbered per (querier, target)."""

    seq: int
    layer = "detector"


@dataclass(frozen=True)
class Echo:
    """'I am alive' — answers the probe with the same sequence number."""

    seq: int
    layer = "detector"


class QueryAgent:
    """Per-process query-response engine hosted inside an actor."""

    def __init__(self, detector: "QueryDetector", pid: ProcessId) -> None:
        self._detector = detector
        self.pid = pid
        self.module: DetectorModule = detector.module_for(pid)
        self._actor: Optional[Actor] = None
        self._timeouts: Dict[ProcessId, Duration] = {
            nbr: detector.initial_timeout for nbr in detector.graph.neighbors(pid)
        }
        self._next_seq: Dict[ProcessId, int] = {nbr: 0 for nbr in self._timeouts}
        self._awaiting_seq: Dict[ProcessId, int] = {}
        self._deadlines: Dict[ProcessId, Event] = {}
        self.false_suspicion_retractions = 0

    # -- wiring ----------------------------------------------------------
    def start(self, actor: Actor) -> None:
        if actor.pid != self.pid:
            raise ConfigurationError(
                f"agent for process {self.pid} attached to actor {actor.pid}"
            )
        self._actor = actor
        self._probe_round()

    def wants(self, message) -> bool:
        return isinstance(message, (Probe, Echo))

    # -- protocol ----------------------------------------------------------
    def on_message(self, src: ProcessId, message) -> None:
        if isinstance(message, Probe):
            actor = self._actor
            if actor is not None and not actor.crashed:
                actor.send(src, Echo(message.seq))
            return
        if src not in self._timeouts:
            return  # echo from outside ◇P₁'s scope
        awaiting = self._awaiting_seq.get(src)
        if awaiting is None or message.seq < awaiting:
            return  # a stale echo from an older round proves nothing new
        self._awaiting_seq.pop(src, None)
        deadline = self._deadlines.pop(src, None)
        if deadline is not None:
            deadline.cancel()
        if self.module.suspects(src):
            self._timeouts[src] += self._detector.timeout_increment
            self.false_suspicion_retractions += 1
            self.module.set_suspicion(src, False)

    def _probe_round(self) -> None:
        actor = self._actor
        if actor is None or actor.crashed:
            return
        for neighbor in self._timeouts:
            seq = self._next_seq[neighbor]
            self._next_seq[neighbor] = seq + 1
            actor.send(neighbor, Probe(seq))
            if neighbor in self._awaiting_seq:
                # An older probe is still unanswered: its deadline stands.
                # Re-arming here would slide the deadline forever when the
                # probing interval is shorter than the timeout, and a
                # silent (crashed) neighbor would never be suspected.
                continue
            self._awaiting_seq[neighbor] = seq

            def expire(neighbor=neighbor) -> None:
                self.module.set_suspicion(neighbor, True)

            self._deadlines[neighbor] = actor.set_timer(
                self._timeouts[neighbor], expire, label=f"probe-deadline {self.pid}~{neighbor}"
            )
        actor.set_timer(self._detector.interval, self._probe_round, label=f"probe@{self.pid}")

    def timeout_of(self, neighbor: ProcessId) -> Duration:
        return self._timeouts[neighbor]


class QueryDetector(FailureDetector):
    """◇P₁ from round-trip probes and adaptive timeouts."""

    def __init__(
        self,
        graph: ConflictGraph,
        *,
        interval: Duration = 1.0,
        initial_timeout: Duration = 4.0,
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
        self._agents: Dict[ProcessId, QueryAgent] = {}

    def agent_for(self, pid: ProcessId) -> QueryAgent:
        agent = self._agents.get(pid)
        if agent is None:
            agent = QueryAgent(self, pid)
            self._agents[pid] = agent
        return agent

    def total_false_retractions(self) -> int:
        return sum(agent.false_suspicion_retractions for agent in self._agents.values())
