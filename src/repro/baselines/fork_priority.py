"""Baseline: forks-only static-priority dining (no doorway).

Strip the asynchronous doorway out of Algorithm 1 and what remains is the
classic static-priority fork protocol: a hungry process immediately
competes for its forks, conflicts resolve toward the higher color, eating
requires holding every fork (or, when a detector is supplied, suspecting
the neighbor).

This baseline exists to show what the doorway buys (design decision 3 in
DESIGN.md): without it, a low-color diner squeezed between always-hungry
high-color neighbors is overtaken without bound — whenever it receives a
fork while still missing another, the higher-priority neighbor's next
request takes the fork straight back.  The E3 fairness experiment
measures exactly that: max overtaking grows with run length here, but is
≤ 2 (after convergence) for Algorithm 1.

Implementation note: the diner rides the phase-2 machinery of
:class:`~repro.core.diner.DinerActor` by treating the doorway as always
open — ``inside`` becomes "actively competing" and flips to true the
moment the diner is hungry.  Fork-request handling (Action 7) is then
literally the static-priority rule: grant when thinking, grant when
hungry with lower color, defer when eating or hungry with higher color.
"""

from __future__ import annotations

from repro.core.diner import DinerActor
from repro.core.table import DiningTable, fixed_table, null_detector
from repro.graphs.conflict import ConflictGraph, ProcessId


class ForkPriorityDiner(DinerActor):
    """Dining with forks and static priorities only — no doorway."""

    def reevaluate(self) -> None:
        if self.crashed:
            return
        progress = True
        while progress:
            progress = False
            if self.is_hungry and not self.inside:
                # No doorway: begin competing immediately.  The doorway
                # trace record keeps analysis tooling uniform.
                self.inside = True
                self.trace.doorway_change(self.now, self.pid, True)
                progress = True
            if self.is_hungry and self.inside:
                progress |= self._request_missing_forks()
                progress |= self._try_eat()

    def _on_ping(self, src: ProcessId) -> None:  # pragma: no cover - defensive
        raise AssertionError("fork-priority baseline never sends pings")


def fork_priority_table(graph: ConflictGraph, *, detector=None, **table_kwargs) -> DiningTable:
    """A DiningTable running the forks-only baseline.

    ``detector`` defaults to none (purely asynchronous).  Passing a ◇P₁
    factory yields the "wait-free but unfair" ablation: suspicion restores
    progress under crashes while the unbounded overtaking remains.
    """
    return fixed_table(
        "fork_priority_table", graph, table_kwargs, diner_factory=ForkPriorityDiner,
        detector=detector if detector is not None else null_detector(),
    )
