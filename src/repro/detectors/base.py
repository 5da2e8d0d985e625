"""Failure-detector interfaces.

Chandra & Toueg model an unreliable failure detector as a distributed
oracle: each process owns a *local module* it can query for the set of
processes it currently suspects of having crashed.  The paper uses a
locally scope-restricted refinement, ◇P₁, whose output only ever mentions
the querying process's conflict-graph neighbors and which satisfies:

* **Local strong completeness** — every crashed process is eventually and
  permanently suspected by all correct neighbors;
* **Local eventual strong accuracy** — in every run there is a time after
  which no correct process is suspected by any correct neighbor.

:class:`DetectorModule` is the per-process query interface.  Modules are
observable: the dining layer subscribes so a suspicion flip immediately
re-evaluates guards (Actions 5 and 9 reference live suspicion).

Concrete detectors:

* :class:`repro.detectors.scripted.ScriptedDetector` — oracle with exact,
  configurable convergence time and mistake scripts (theorem tests);
* :class:`repro.detectors.perfect.PerfectDetector` — never wrong (P);
* :class:`repro.detectors.heartbeat.HeartbeatDetector` — a real message-
  passing ◇P₁ over partial synchrony;
* :class:`NullDetector` here — never suspects anyone, modeling the purely
  asynchronous system in which wait-free dining is impossible.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.errors import ConfigurationError
from repro.graphs.conflict import ConflictGraph, ProcessId

SuspicionListener = Callable[[ProcessId, bool], None]


class DetectorModule:
    """Local failure-detector module of one process.

    Tracks a mutable set of currently suspected neighbors and notifies
    subscribed listeners on every change.  The scope restriction is
    enforced here: attempts to suspect a non-neighbor raise.
    """

    __slots__ = ("owner", "_scope", "_suspected", "suspected", "_listeners")

    def __init__(self, owner: ProcessId, neighbors: Iterable[ProcessId]) -> None:
        self.owner = owner
        # The graph's own neighbor tuple, not a copy: scope checks run
        # only at queries and flips, and δ is small.
        self._scope: Tuple[ProcessId, ...] = (
            neighbors if type(neighbors) is tuple else tuple(neighbors)
        )
        self._suspected: Set[ProcessId] = set()
        # Live read-only view (the same set object, mutated in place,
        # never rebound): the dining guard loops test membership directly
        # instead of paying the scope-checking ``suspects`` call per
        # neighbor per scan.  Callers must not mutate it.
        self.suspected = self._suspected
        self._listeners: List[SuspicionListener] = []

    # -- queries --------------------------------------------------------
    def suspects(self, pid: ProcessId) -> bool:
        """True when this module currently suspects ``pid``.

        Querying a process outside the module's scope is a configuration
        error: ◇P₁ only ever speaks about neighbors.
        """
        if pid not in self._scope:
            raise ConfigurationError(
                f"module of {self.owner} queried about non-neighbor {pid}"
            )
        return pid in self._suspected

    def suspected_neighbors(self) -> FrozenSet[ProcessId]:
        """Snapshot of currently suspected neighbors."""
        return frozenset(self._suspected)

    # -- observation ----------------------------------------------------
    def subscribe(self, listener: SuspicionListener) -> None:
        """Register ``listener(pid, suspected)`` for every output change."""
        self._listeners.append(listener)

    def reset(self) -> None:
        """Administrative wipe at a rejoin: forget suspicions *and* listeners.

        Deliberately silent — a rejoin is a membership act, not a
        detector output change, so no :class:`SuspicionChange` records
        are emitted.  Listeners are cleared because they belong to the
        dead incarnation of the owning process; the fresh actor
        re-subscribes in its ``on_start``.
        """
        self._suspected.clear()
        self._listeners.clear()

    # -- mutation (detector implementations only) -----------------------
    def set_suspicion(self, pid: ProcessId, suspected: bool) -> None:
        """Flip suspicion of ``pid``; notifies listeners on actual change."""
        if pid not in self._scope:
            raise ConfigurationError(
                f"module of {self.owner} cannot suspect non-neighbor {pid}"
            )
        if suspected and pid not in self._suspected:
            self._suspected.add(pid)
        elif not suspected and pid in self._suspected:
            self._suspected.discard(pid)
        else:
            return
        for listener in self._listeners:
            listener(pid, suspected)


class FailureDetector:
    """A family of per-process modules over one conflict graph."""

    def __init__(self, graph: ConflictGraph) -> None:
        self.graph = graph
        self._modules: Dict[ProcessId, DetectorModule] = {
            pid: DetectorModule(pid, graph.neighbors(pid)) for pid in graph.nodes
        }

    def module_for(self, pid: ProcessId) -> DetectorModule:
        try:
            return self._modules[pid]
        except KeyError:
            raise ConfigurationError(f"no detector module for process {pid}") from None

    def agent_for(self, pid: ProcessId):
        """Per-process engine for detectors that ride inside the host actor.

        Oracle-style detectors (scripted, perfect, null) drive modules from
        scheduled events and need no in-actor machinery, so the default is
        ``None``.  Message-passing detectors (heartbeat) override this; the
        host actor starts the agent and routes detector-layer messages to
        it.
        """
        return None


class NullDetector(FailureDetector):
    """Suspects nobody, ever: the purely asynchronous system.

    Running Algorithm 1 with this detector degenerates to Choy & Singh's
    crash-oblivious doorway algorithm's guarantees — used by the
    impossibility-side experiments (a crashed neighbor starves you).
    """
