"""Span recorder for the traced repetition.

The ledger measures every layer from outside: in a traced repetition the
public entry points of each layer are replaced by wrappers that record a
span (name, start, end, parent span, request id) around the call.  Spans
stay in memory and are written once, when the workload ends.  A layer's
*self* time is its spans' duration minus the part their child spans
cover, so the self times of all layers plus ``unattributed`` add up to
the wall time of the traced region exactly.

All wrapped entry points are synchronous, so one stack is enough even
under asyncio: a span never stays open across an ``await``.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional

UNATTRIBUTED = "unattributed"


class SpanLog:
    """Records spans and owns the monkeypatches that produce them."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index, request_id]`` per span.
        self.rows: List[list] = []
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: str,
        fn: Callable,
        request_of: Optional[Callable[..., int]] = None,
    ) -> Callable:
        """``fn`` with a span named ``name`` around every call.

        ``request_of(*args, **kwargs)`` names the request the call serves
        (plan index, lease session); without it the span inherits its
        parent's request id, or 0 at the top.
        """
        rows = self.rows
        stack = self._stack
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if request_of is not None:
                request = request_of(*args, **kwargs)
            elif parent >= 0:
                request = rows[parent][4]
            else:
                request = 0
            row = [name, 0.0, 0.0, parent, request]
            stack.append(len(rows))
            rows.append(row)
            row[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                row[2] = perf()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(
        self,
        owner,
        attr: str,
        name: str,
        request_of: Optional[Callable[..., int]] = None,
    ) -> None:
        """Replace ``owner.attr`` (class, module or instance) by its traced form."""
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr), request_of))

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr = new`` and remember how to undo it."""
        own = attr in getattr(owner, "__dict__", {})
        self._patches.append((owner, attr, getattr(owner, attr), own))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def layer_table(self, start: float, end: float) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds in a window.

        Counts the spans that lie inside ``[start, end]`` (infinite bounds
        take every span) and ends with the ``unattributed`` row: the part
        of the window no span covers.
        """
        rows = self.rows
        self_s = [row[2] - row[1] for row in rows]
        for row in rows:
            if row[3] >= 0:
                self_s[row[3]] -= row[2] - row[1]
        wall_seconds = end - start
        table: Dict[str, Dict[str, float]] = {}
        for row, own in zip(rows, self_s):
            if row[1] < start or row[2] > end:
                continue
            cell = table.get(row[0])
            if cell is None:
                cell = table[row[0]] = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            cell["calls"] += 1
            cell["total_s"] += row[2] - row[1]
            cell["self_s"] += own
        covered = sum(cell["self_s"] for cell in table.values())
        ordered = dict(sorted(table.items(), key=lambda item: -item[1]["self_s"]))
        ordered[UNATTRIBUTED] = {
            "calls": 0,
            "total_s": wall_seconds - covered,
            "self_s": wall_seconds - covered,
        }
        return ordered

    def write(self, path: str, origin: float) -> int:
        """Write the spans as JSONL (times relative to ``origin``)."""
        with open(path, "w", encoding="utf-8") as stream:
            for index, (name, start, end, parent, request) in enumerate(self.rows):
                stream.write(
                    json.dumps(
                        {
                            "span": index,
                            "name": name,
                            "start": start - origin,
                            "end": end - origin,
                            "parent": parent if parent >= 0 else None,
                            "request": request,
                        }
                    )
                )
                stream.write("\n")
        return len(self.rows)
