"""Network probes used by the Section 7 experiments.

These monitors attach to a :class:`~repro.sim.network.Network` and observe
every send, delivery, and drop without touching algorithm code:

* :class:`ChannelOccupancyMonitor` — tracks, per undirected edge, how many
  messages are simultaneously in transit, and the all-time maximum.  The
  paper claims a bound of **4 dining-layer messages per edge** (one fork,
  one token, one ping/ack per direction).
* :class:`MessageStats` — message counts by type and by layer.
* :class:`QuiescenceMonitor` — records every send addressed to a process
  after that process's crash instant, to verify correct processes
  eventually stop messaging crashed neighbors.

The occupancy and quiescence monitors are thin adapters over the
canonical implementations in :mod:`repro.checks.properties`
(:class:`~repro.checks.properties.ChannelOccupancy`,
:class:`~repro.checks.properties.QuiescenceChecker`) — how those
quantities are counted exists exactly once, in the checks subsystem.
A table with a check suite attached registers neither: its
``occupancy`` and ``quiescence`` are the suite's own objects, which
carry the same read API.

Messages advertise their protocol layer through a ``layer`` attribute
(``"dining"`` for Algorithm 1 traffic, ``"detector"`` for heartbeats);
monitors can filter on it so detector chatter doesn't obscure the dining
bound.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.checks.properties import ChannelOccupancy, PostCrashSend, QuiescenceChecker
from repro.sim.actor import ProcessId
from repro.sim.network import NetworkMonitor
from repro.timebase import Instant

__all__ = [
    "ChannelOccupancyMonitor",
    "DeferredMessageStats",
    "MessageStats",
    "PostCrashSend",
    "QuiescenceMonitor",
    "message_layer",
]


def message_layer(message) -> str:
    """Return the protocol layer a message belongs to (default ``"app"``)."""
    return getattr(message, "layer", "app")


class ChannelOccupancyMonitor(NetworkMonitor):
    """Per-undirected-edge in-transit occupancy tracker.

    Parameters
    ----------
    layer:
        When given, only messages of that layer are counted; others are
        invisible to this monitor.
    """

    def __init__(self, layer: Optional[str] = None) -> None:
        self._occupancy = ChannelOccupancy(layer=layer)
        # Shared dict objects, so reads stay plain attribute+key lookups.
        self.current: Dict[Tuple[ProcessId, ProcessId], int] = self._occupancy.current
        self.peak: Dict[Tuple[ProcessId, ProcessId], int] = self._occupancy.peak
        self.peak_time: Dict[Tuple[ProcessId, ProcessId], Instant] = self._occupancy.peak_time

    def on_send(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        self._occupancy.record_send(src, dst, message_layer(message), time)

    def on_deliver(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        self._occupancy.record_departure(src, dst, message_layer(message))

    def on_drop(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        self._occupancy.record_departure(src, dst, message_layer(message))

    @property
    def max_occupancy(self) -> int:
        """Largest number of in-transit messages ever seen on any edge."""
        return self._occupancy.max_occupancy

    def edges_exceeding(self, bound: int) -> List[Tuple[ProcessId, ProcessId]]:
        """Edges whose peak occupancy exceeded ``bound``."""
        return self._occupancy.edges_exceeding(bound)


class MessageStats(NetworkMonitor):
    """Counts of sent messages by type name and by layer."""

    def __init__(self) -> None:
        self.by_type: Dict[str, int] = defaultdict(int)
        self.by_layer: Dict[str, int] = defaultdict(int)
        self.total = 0

    def on_send(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        self.total += 1
        self.by_type[type(message).__name__] += 1
        self.by_layer[message_layer(message)] += 1


class DeferredMessageStats(MessageStats):
    """Read facade over send counts an adapter accumulates out-of-line.

    The kernel check adapter batches sends per message class and settles
    them through ``flush`` — every accessor flushes first, so readers
    always see up-to-date totals.  Never register this as a monitor; the
    adapter is the one counting.
    """

    def __init__(self, flush: Callable[[], None]) -> None:
        self._flush = flush
        self._by_type: Dict[str, int] = defaultdict(int)
        self._by_layer: Dict[str, int] = defaultdict(int)
        self._total = 0

    @property
    def by_type(self) -> Dict[str, int]:
        self._flush()
        return self._by_type

    @property
    def by_layer(self) -> Dict[str, int]:
        self._flush()
        return self._by_layer

    @property
    def total(self) -> int:
        self._flush()
        return self._total


class QuiescenceMonitor(NetworkMonitor):
    """Records traffic addressed to crashed processes.

    ``crash_time_of`` maps a pid to its crash instant or ``None`` when the
    process is correct (typically ``CrashPlan.as_dict().get``).
    """

    def __init__(self, crash_time_of: Callable[[ProcessId], Optional[Instant]]) -> None:
        self._checker = QuiescenceChecker(layer=None, crash_time_of=crash_time_of)

    @property
    def post_crash_sends(self) -> List[PostCrashSend]:
        return self._checker.post_crash_sends

    def on_send(self, src: ProcessId, dst: ProcessId, message, time: Instant) -> None:
        self._checker.record_send(
            src, dst, time, type(message).__name__, message_layer(message)
        )

    def sends_to(self, dst: ProcessId, *, layer: Optional[str] = None) -> List[PostCrashSend]:
        """Post-crash sends addressed to ``dst`` (optionally one layer)."""
        return self._checker.sends_to(dst, layer=layer)

    def last_send_time(self, dst: ProcessId, *, layer: Optional[str] = None) -> Optional[Instant]:
        """Time of the final post-crash send to ``dst``, or None."""
        return self._checker.last_send_time(dst, layer=layer)
