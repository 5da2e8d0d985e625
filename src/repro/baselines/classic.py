"""The session shell the message-passing classics share.

Bakery, Ricart–Agrawala, Lehmann–Rabin and edge reversal differ only in
their protocol: what a hungry diner sends, how it decides to eat, what its
exit releases, and what a removed edge makes it forget.  Everything
around that is one diner shell, stated here once —

* the diner construction signature the wiring calls
  (:meth:`repro.core.assembly.Wiring.build_diner`); the detector is
  accepted and ignored, since every classic is crash-oblivious;
* think and eat durations from the workload, on ``hunger@<pid>`` and
  ``exit@<pid>`` timers;
* the phase and crash trace records the checkers and analyses read;
* the session skeleton: hunger calls :meth:`ClassicDiner._compete`,
  :meth:`ClassicDiner._eat` enters the critical section, and exit calls
  :meth:`ClassicDiner._release` before the next think;
* membership that observes but never adapts: a departed neighbor is
  waited on forever (the honest churn failure mode), while a removed
  *edge* removes the conflict itself, so forgetting it is sound.

:class:`~repro.core.diner.DinerActor` does not use this shell: its own
lifecycle is tuned for the kernel's hot path.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.core.diner import EatCallback
from repro.core.state import DinerState
from repro.core.workload import Workload
from repro.detectors.base import FailureDetector
from repro.errors import ConfigurationError
from repro.graphs.coloring import Coloring
from repro.graphs.conflict import ConflictGraph, ProcessId
from repro.sim.actor import Actor
from repro.trace.recorder import TraceRecorder


class ClassicDiner(Actor):
    """One crash-oblivious diner; subclasses supply the protocol."""

    def __init__(
        self,
        pid: ProcessId,
        graph: ConflictGraph,
        coloring: Coloring,
        detector: FailureDetector,  # unused: the classics are crash-oblivious
        workload: Workload,
        trace: TraceRecorder,
        *,
        on_eat: Optional[EatCallback] = None,
        neighbors: Optional[tuple] = None,
    ) -> None:
        super().__init__(pid)
        if pid not in graph:
            raise ConfigurationError(f"process {pid} is not in the conflict graph")
        self.graph = graph
        self.coloring = coloring
        self.workload = workload
        self.trace = trace
        self.on_eat = on_eat
        self.state = DinerState.THINKING
        if neighbors is None:
            self.neighbors: Set[ProcessId] = set(graph.neighbors(pid))
        else:
            self.neighbors = {int(n) for n in neighbors}
        self.meals_eaten = 0

    # -- introspection (invariant checkers, experiments, tests) ---------
    @property
    def phase(self) -> str:
        return self.state.phase

    @property
    def is_hungry(self) -> bool:
        return self.state is DinerState.HUNGRY

    @property
    def is_eating(self) -> bool:
        return self.state is DinerState.EATING

    def holds_fork(self, neighbor: ProcessId) -> bool:
        return False

    def holds_token(self, neighbor: ProcessId) -> bool:
        return False

    # -- lifecycle -------------------------------------------------------
    def on_start(self) -> None:
        self._schedule_next_hunger()

    def on_crash(self) -> None:
        self.trace.crash(self.now, self.pid)

    def _schedule_next_hunger(self) -> None:
        duration = self.workload.think_duration(self.pid, self.streams)
        if duration is None:
            return
        self.set_timer(duration, self._become_hungry, label=f"hunger@{self.pid}")

    def _become_hungry(self) -> None:
        if self.state is not DinerState.THINKING:
            return
        self._set_state(DinerState.HUNGRY)
        self._compete()

    def _compete(self) -> None:
        """Start competing for the critical section (default: wait)."""

    def _eat(self) -> None:
        self._set_state(DinerState.EATING)
        self.meals_eaten += 1
        duration = self.workload.eat_duration(self.pid, self.streams)
        self.set_timer(duration, self._exit, label=f"exit@{self.pid}")
        if self.on_eat is not None:
            self.on_eat(self)

    def _exit(self) -> None:
        if not self.is_eating:
            return
        self._set_state(DinerState.THINKING)
        self._release()
        self._schedule_next_hunger()

    def _release(self) -> None:
        """Hand back what the session held (default: nothing)."""

    # -- membership (crash-oblivious: observe, never adapt) --------------
    def neighbor_left(self, neighbor: ProcessId) -> None:
        """A neighbor departed.  The classics do not adapt: whatever they
        await from it they await forever — the honest churn failure mode."""

    def neighbor_rejoined(self, neighbor: ProcessId) -> None:
        self.neighbors.add(neighbor)

    def add_neighbor(self, neighbor: ProcessId) -> None:
        self.neighbors.add(neighbor)

    def remove_neighbor(self, neighbor: ProcessId) -> None:
        # A removed *edge* removes the conflict itself, so forgetting the
        # neighbor is sound (unlike a leave).
        self.neighbors.discard(neighbor)

    # -- internals -------------------------------------------------------
    def _set_state(self, new_state: DinerState) -> None:
        old = self.state
        if old is new_state:
            return
        self.state = new_state
        self.trace.phase_change(self.now, self.pid, old.phase, new_state.phase)
