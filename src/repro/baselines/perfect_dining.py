"""Comparison point: Algorithm 1 over the perfect detector P.

With P, the detector never wrongly suspects a live neighbor, so every
suspicion that substitutes for an ack or fork is justified — the run has
*zero* exclusion violations and satisfies perpetual weak exclusion from
time zero.  The paper's point is that the weaker, implementable ◇P
suffices for the eventual guarantees; this configuration quantifies what
the stronger (and in pure asynchrony unimplementable) oracle would add:
only the pre-convergence mistake window disappears.
"""

from __future__ import annotations

from repro.core.table import DiningTable, fixed_table, perfect_detector
from repro.graphs.conflict import ConflictGraph
from repro.timebase import Duration


def perfect_dining_table(
    graph: ConflictGraph, *, detection_delay: Duration = 1.0, **table_kwargs
) -> DiningTable:
    """A DiningTable running Algorithm 1 over the perfect detector P."""
    return fixed_table(
        "perfect_dining_table", graph, table_kwargs,
        detector=perfect_detector(detection_delay=detection_delay),
    )
