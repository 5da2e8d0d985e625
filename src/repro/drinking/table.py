"""Assembly helper for drinking runs."""

from __future__ import annotations

from typing import Optional

from repro.core.table import DiningTable, fixed_table
from repro.drinking.diner import DrinkingDiner
from repro.drinking.workload import RandomThirst, ThirstWorkload
from repro.graphs.conflict import ConflictGraph


def drinking_table(
    graph: ConflictGraph,
    *,
    workload: Optional[ThirstWorkload] = None,
    **table_kwargs,
) -> DiningTable:
    """A DiningTable whose diners are drinking philosophers.

    Accepts the usual :class:`~repro.core.table.DiningTable` keyword
    arguments except ``diner_factory`` and ``workload`` (which must be a
    :class:`~repro.drinking.workload.ThirstWorkload`; default
    :class:`~repro.drinking.workload.RandomThirst`).
    """
    return fixed_table(
        "drinking_table", graph, table_kwargs, diner_factory=DrinkingDiner,
        workload=workload if workload is not None else RandomThirst(),
    )
