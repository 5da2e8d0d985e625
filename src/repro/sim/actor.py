"""The discrete-event kernel as an actor substrate.

The :class:`~repro.core.substrate.Actor` base class (historically defined
here) is written against the :class:`~repro.core.substrate.Substrate`
protocol; this module supplies the simulator-backed implementation:
:class:`KernelSubstrate` adapts a :class:`~repro.sim.kernel.Simulator` +
:class:`~repro.sim.network.Network` pair to that surface, mapping timers
onto ``TIMER``-priority events and guard re-evaluations onto zero-delay
``REEVALUATE``-priority events so same-instant interleavings stay
deterministic.

``Actor`` and ``ProcessId`` are re-exported for the many call sites (and
downstream projects) that import them from their historical home.
"""

from __future__ import annotations

from typing import Callable

from repro.core.substrate import Actor, ProcessId, Substrate, TimerHandle
from repro.sim.events import Event, EventPriority
from repro.timebase import Duration, Instant

__all__ = ["Actor", "KernelSubstrate", "ProcessId", "Substrate", "TimerHandle"]


class KernelSubstrate:
    """A (simulator, network) pair presented as a :class:`Substrate`.

    Also accepts duck-typed kernels (anything with ``now``, ``streams``,
    and ``schedule_after``) — the exhaustive explorer binds actors to its
    choice kernel through this same adapter.

    ``send`` and ``request_reevaluation`` are bound per instance rather
    than defined as delegating methods: the transport's ``send`` and the
    kernel's transient re-evaluation path are the two hottest substrate
    calls, and binding them directly removes one frame of pure
    delegation from every message and every guard re-check.
    """

    __slots__ = ("sim", "network", "send", "request_reevaluation")

    def __init__(self, sim, network) -> None:
        self.sim = sim
        self.network = network
        self.send = network.send
        fast = getattr(sim, "schedule_reevaluation", None)
        if fast is None:
            # Duck-typed kernel (the explorer's): fall back to a
            # zero-delay REEVALUATE event through its scheduling API.
            def fast(callback: Callable[[], None], *, label: str = "", _sim=sim) -> None:
                _sim.schedule_after(
                    0.0, callback, priority=EventPriority.REEVALUATE, label=label
                )

        self.request_reevaluation = fast

    @property
    def now(self) -> Instant:
        return self.sim.now

    @property
    def streams(self):
        return self.sim.streams

    def set_timer(
        self, delay: Duration, callback: Callable[[], None], *, label: str = ""
    ) -> Event:
        return self.sim.schedule_after(
            delay, callback, priority=EventPriority.TIMER, label=label
        )
