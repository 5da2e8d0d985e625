"""Baseline: scheduling by edge reversal (Barbosa & Gafni 1989).

The classic crash-oblivious distributed scheduler, and the paper's
"purely asynchronous daemon" contrast on a different axis than
Choy-Singh: SER is *perfectly* safe and spends no request traffic at all,
but a single crash freezes part of the precedence graph forever.

The conflict graph carries an acyclic orientation; a process is a *sink*
when every incident edge points at it.  Sinks may enter the critical
section; on exit they reverse all their edges (become sources).  In the
message-passing realization the orientation IS fork possession: "edge
points at me" = "I hold that fork", so

* initially forks sit at the higher-color endpoint (same placement as
  Algorithm 1) — orientation by color is acyclic, and the initial sinks
  are the local color maxima;
* a hungry sink eats; at exit it sends *every* fork away (reversal);
* nobody ever requests anything: forks only flow at reversals.

Guarantees (crash-free): perpetual weak exclusion (the unique fork is
held by at most one endpoint, with no suspicion override) and, under an
always-hungry workload, every process becomes a sink infinitely often —
which is why SER is a standard daemon for self-stabilizing protocols.

Failure mode: a crashed process never reverses, so every neighbor
waiting on its fork starves, and the starvation propagates outward as
the dead region pins more of the orientation.  No failure detector is
consulted (the constructor accepts one only to fit the common diner
signature).

Scope note: SER schedules processes that perpetually want steps.  With
sparse hunger a *thinking* sink simply sits on its forks until it gets
hungry — still safe, but neighbors wait on the thinker, so fairness
claims here assume the daemon workload (always hungry).
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.classic import ClassicDiner
from repro.core.messages import Fork
from repro.core.table import DiningTable, fixed_table, null_detector
from repro.errors import ConfigurationError
from repro.graphs.conflict import ConflictGraph, ProcessId


class EdgeReversalDiner(ClassicDiner):
    """One node of the scheduling-by-edge-reversal graph."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Edge orientation as fork possession: toward the higher color.
        color = int(self.coloring[self.pid])
        self.forks: Dict[ProcessId, bool] = {
            nbr: color > int(self.coloring[nbr]) for nbr in sorted(self.neighbors)
        }

    @property
    def is_sink(self) -> bool:
        return all(self.forks.values())

    def holds_fork(self, neighbor: ProcessId) -> bool:
        return self.forks[neighbor]

    # -- the SER rule ------------------------------------------------------
    def reevaluate(self) -> None:
        if self.crashed:
            return
        if self.is_hungry and self.is_sink:
            self._eat()

    def _release(self) -> None:
        for neighbor in sorted(self.forks):
            # Reverse every edge: relinquish all forks.
            if self.forks[neighbor]:
                self.send(neighbor, Fork(self.pid))
                self.forks[neighbor] = False

    def on_message(self, src: ProcessId, message) -> None:
        if not isinstance(message, Fork) or src not in self.forks:
            raise ConfigurationError(
                f"edge-reversal node {self.pid} got unexpected {message!r} from {src}"
            )
        self.forks[src] = True

    # -- membership: a dead node's fork pins its edge forever --------------
    def neighbor_rejoined(self, neighbor: ProcessId) -> None:
        super().neighbor_rejoined(neighbor)
        self.forks.setdefault(neighbor, False)

    def add_neighbor(self, neighbor: ProcessId) -> None:
        super().add_neighbor(neighbor)
        # Hygienic placement for a fresh edge: higher pid holds the fork
        # (colors may collide across epochs; pids never do).
        self.forks.setdefault(neighbor, self.pid > neighbor)

    def remove_neighbor(self, neighbor: ProcessId) -> None:
        super().remove_neighbor(neighbor)
        self.forks.pop(neighbor, None)
        self.reevaluate()


def edge_reversal_table(graph: ConflictGraph, **table_kwargs) -> DiningTable:
    """A DiningTable scheduling by edge reversal (no detector, no requests)."""
    return fixed_table(
        "edge_reversal_table", graph, table_kwargs,
        diner_factory=EdgeReversalDiner, detector=null_detector(),
    )
