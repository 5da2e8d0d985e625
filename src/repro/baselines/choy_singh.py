"""Baseline: Choy & Singh's asynchronous doorway algorithm (1995).

Algorithm 1 is built from this algorithm by (a) substituting ◇P₁ suspicion
for missing acks and forks, and (b) throttling acks to one per hungry
session.  The faithful original therefore differs from
:class:`~repro.core.diner.DinerActor` in exactly two ways:

* **no failure detector** — run it with
  :func:`~repro.core.table.null_detector` (the purely asynchronous
  system).  One crashed neighbor then blocks the doorway and/or a fork
  forever, and correct neighbors starve: the impossibility side of the
  paper's story [8], and the contrast for the E2 progress experiment.
* **no ack throttle** — a process outside the doorway grants every ping
  (the original ping-ack protocol), so a fast neighbor can overtake a slow
  hungry one finitely many but *unboundedly* many times; the paper's
  ``replied`` flag is what sharpens this to eventual 2-bounded waiting.

The class keeps the detector hook so the E3 *ablation* can run it with a
◇P₁ detector: that configuration isolates design decision 1 of DESIGN.md
(wait-free, but only finite — not 2-bounded — overtaking).
"""

from __future__ import annotations

from repro.core.diner import DinerActor
from repro.core.messages import Ack
from repro.core.table import DiningTable, fixed_table, null_detector
from repro.graphs.conflict import ConflictGraph, ProcessId


class ChoySinghDiner(DinerActor):
    """Algorithm 1 minus the per-session ack throttle.

    Combined with :func:`~repro.core.table.null_detector`, this is the
    original asynchronous doorway algorithm; combined with a ◇P₁ detector
    it is the no-throttle ablation of Algorithm 1.
    """

    def _on_ping(self, src: ProcessId) -> None:
        """Original Action 3: grant whenever outside the doorway."""
        link = self.links[src]
        if self.inside:
            link.deferred = True
        else:
            self.send(src, Ack(self.pid))
            # No ``replied`` bookkeeping: unlimited acks per hungry session.


def choy_singh_table(graph: ConflictGraph, **table_kwargs) -> DiningTable:
    """A DiningTable running the faithful (oracle-free) Choy-Singh baseline.

    Accepts the same keyword arguments as
    :class:`~repro.core.table.DiningTable` except ``diner_factory`` and
    ``detector``, which are fixed to the baseline's definition.
    """
    return fixed_table(
        "choy_singh_table", graph, table_kwargs,
        diner_factory=ChoySinghDiner, detector=null_detector(),
    )
