"""Wait-free drinking philosophers on top of Algorithm 1.

The classic dining→drinking lift: keep the doorway and ping-ack machinery
verbatim (they carry fairness and wait-freedom), but let each session
declare which incident bottles it actually needs and quantify the
fork-collection guards (Actions 6 and 9) over that subset only:

* a session that doesn't need the bottle shared with *j* neither requests
  *j*'s fork nor waits for it — so neighbors with disjoint demands drink
  simultaneously, which is the whole point of drinking philosophers;
* the safety carrier is unchanged: per contested bottle, the unique fork
  still arbitrates, so two neighbors *both demanding* the shared bottle
  never drink together (after ◇P₁ converges — the same eventual weak
  exclusion as dining, now scoped per bottle);
* fork *granting* (Action 7) and deferred releases (Action 10) are
  untouched: a drinker still hands non-needed forks to whoever asks,
  which keeps the phase-2 induction (and hence wait-freedom) intact.

Sessions record their demand in the trace (:class:`ThirstDeclared`), and
:mod:`repro.drinking.analysis` scopes the exclusion check accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from repro.core.diner import DinerActor, EatCallback
from repro.core.messages import Fork, ForkRequest
from repro.core.workload import Workload
from repro.detectors.base import FailureDetector
from repro.drinking.workload import ThirstWorkload
from repro.errors import ConfigurationError
from repro.graphs.coloring import Coloring
from repro.graphs.conflict import ConflictGraph, ProcessId
from repro.timebase import Instant
from repro.trace.recorder import TraceRecorder


@dataclass(frozen=True)
class ThirstDeclared:
    """Trace record: a thirsty session began, demanding ``bottles``."""

    time: Instant
    pid: ProcessId
    bottles: FrozenSet[ProcessId]


class DrinkingDiner(DinerActor):
    """Algorithm 1 with per-session bottle demands."""

    def __init__(
        self,
        pid: ProcessId,
        graph: ConflictGraph,
        coloring: Coloring,
        detector: FailureDetector,
        workload: Workload,
        trace: TraceRecorder,
        *,
        on_eat: Optional[EatCallback] = None,
    ) -> None:
        if not isinstance(workload, ThirstWorkload):
            raise ConfigurationError(
                "DrinkingDiner needs a ThirstWorkload (it samples per-session bottles)"
            )
        super().__init__(pid, graph, coloring, detector, workload, trace, on_eat=on_eat)
        self.current_bottles: FrozenSet[ProcessId] = frozenset()

    # ------------------------------------------------------------------
    # Session start: sample the demand
    # ------------------------------------------------------------------
    def _become_hungry(self) -> None:
        if not self.is_thinking:
            return
        self.current_bottles = self.workload.bottles(self.pid, self.graph, self.streams)
        self.trace.record(ThirstDeclared(self.now, self.pid, self.current_bottles))
        super()._become_hungry()

    # ------------------------------------------------------------------
    # Phase 2, scoped to the session's demand
    # ------------------------------------------------------------------
    def _request_missing_forks(self) -> bool:
        """Action 6, restricted: spend tokens only on needed bottles."""
        fired = False
        for neighbor, link in self._links_in_order():
            if neighbor in self.current_bottles and link.token and not link.fork:
                self.send(neighbor, ForkRequest(self.pid, self.color))
                link.token = False
                fired = True
        return fired

    def _on_fork_request(self, src: ProcessId, requester_color: int) -> None:
        """Action 7, refined: bottles outside the current demand are granted.

        A session only insists on the bottles it declared; deferring the
        others (as dining does) would serialize neighbors with disjoint
        demands through the doorway for nothing.  Safety is untouched —
        for a *contested* bottle both sessions demand, the dining rule
        (grant only when outside, or hungry with lower color) still
        arbitrates.
        """
        link = self.links[src]
        if not link.fork:
            from repro.errors import ForkDuplicationError

            raise ForkDuplicationError(
                f"t={self.now}: fork request from {src} reached {self.pid}, "
                "which does not hold the fork (Lemma 1.1 violated)"
            )
        link.token = True
        uncontested = self.inside and src not in self.current_bottles
        if not self.inside or uncontested or (self.is_hungry and self.color < requester_color):
            self.send(src, Fork(self.pid))
            link.fork = False

    def _try_eat(self) -> bool:
        """Action 9, restricted: hold-or-suspect only the needed bottles."""
        for neighbor, link in self._links_in_order():
            if neighbor not in self.current_bottles:
                continue
            if not link.fork and not self.module.suspects(neighbor):
                return False
        # Reuse the dining entry bookkeeping (state change, timers, hook);
        # the full-guard parent check passes because every *needed* fork is
        # accounted for and it never re-examines the others here.
        return self._enter_drinking()

    def _enter_drinking(self) -> bool:
        from repro.core.state import DinerState

        self._set_state(DinerState.EATING)
        self.meals_eaten += 1
        duration = self.workload.eat_duration(self.pid, self.streams)
        self._exit_timer = self.set_timer(duration, self._exit, label=f"exit@{self.pid}")
        if self.on_eat is not None:
            self.on_eat(self)
        return True
