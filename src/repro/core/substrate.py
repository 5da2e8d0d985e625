"""The substrate protocol: what a transport must provide to host an actor.

Algorithm 1 is a message-passing protocol; nothing in it depends on *how*
messages move or *what* the clock counts.  This module pins that boundary
down.  :class:`Substrate` names the five capabilities an actor consumes —

* ``now`` — the current time (virtual seconds under the discrete-event
  kernel, wall seconds under the live asyncio runtime);
* ``streams`` — named deterministic random streams (workload durations);
* ``send(src, dst, message)`` — FIFO, reliable, per-directed-channel
  transmission;
* ``set_timer(delay, callback)`` — a cancellable one-shot timer;
* ``request_reevaluation(callback)`` — run ``callback`` as soon as the
  current step completes (guard re-evaluation scheduling);

and :class:`Actor` is the process base class written *only* against that
surface, so the same ``DinerActor`` byte code runs unchanged on the
simulator kernel (:class:`repro.sim.actor.KernelSubstrate`), the live
asyncio runtime (:class:`repro.net.substrate.LiveSubstrate`), and the
exhaustive explorer's choice kernel.

Crash semantics follow the paper's fault model exactly: from its crash
instant a process executes no further steps — pending timers are dead, and
messages addressed to it are dropped by the transport.  Crashing is
irreversible.

Guard re-evaluation
-------------------
The dining algorithm is specified as guarded commands that must fire when
continuously enabled.  Actors get weak fairness for free by re-evaluating
guards whenever local state may have changed: every message receipt and
timer firing ends with a call to :meth:`Actor.reevaluate` (subclass hook),
and external components (for example a failure detector whose output
changed) call :meth:`Actor.request_reevaluation`, which coalesces into at
most one pending re-evaluation per actor.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, runtime_checkable

from repro.errors import CrashedProcessError, SimulationError
from repro.timebase import Duration, Instant

ProcessId = int


class TimerHandle(Protocol):
    """A scheduled one-shot callback that can be retired early."""

    cancelled: bool

    def cancel(self) -> None:
        """Prevent the timer from firing; idempotent."""


@runtime_checkable
class Substrate(Protocol):
    """Transport-and-clock surface consumed by :class:`Actor`.

    Implementations: :class:`repro.sim.actor.KernelSubstrate` (the
    discrete-event kernel), :class:`repro.net.substrate.LiveSubstrate`
    (asyncio over wall clock and real links), and the duck-typed choice
    kernel inside :mod:`repro.verify.explore`.
    """

    @property
    def now(self) -> Instant:
        """Current time, in this substrate's clock."""
        ...

    @property
    def streams(self):
        """Named deterministic random streams (:class:`repro.sim.rng.RandomStreams`)."""
        ...

    def send(self, src: ProcessId, dst: ProcessId, message) -> None:
        """Transmit ``message`` on the directed FIFO channel ``src -> dst``."""
        ...

    def set_timer(
        self, delay: Duration, callback: Callable[[], None], *, label: str = ""
    ) -> TimerHandle:
        """Run ``callback`` after ``delay``; returns a cancellable handle."""
        ...

    def request_reevaluation(self, callback: Callable[[], None], *, label: str = "") -> None:
        """Run ``callback`` once the currently executing step completes."""
        ...


class Actor:
    """Base class for hosted processes, written against :class:`Substrate`.

    Slotted; a subclass that declares no ``__slots__`` gets an instance
    dict for its own fields as usual.
    """

    __slots__ = (
        "pid", "crashed", "crash_time", "_substrate", "_reevaluation_pending",
        "_reeval_fire", "_reeval_label",
    )

    def __init__(self, pid: ProcessId) -> None:
        self.pid = pid
        self.crashed = False
        self.crash_time: Optional[Instant] = None
        self._substrate: Optional[Substrate] = None
        self._reevaluation_pending = False
        # Built lazily on first use and reused for the actor's life: the
        # re-evaluation callback and label never change, so rebuilding a
        # closure and an f-string per request is pure hot-path waste.
        self._reeval_fire: Optional[Callable[[], None]] = None
        self._reeval_label = ""

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_substrate(self, substrate: Substrate) -> None:
        """Attach this actor to the substrate that will host it."""
        self._substrate = substrate

    def bind(self, sim, network) -> None:
        """Legacy wiring: wrap a (kernel, network) pair into a substrate.

        Kept so the explorer's hand-built worlds keep working verbatim;
        :meth:`repro.sim.network.Network.register` and the other hosts
        call :meth:`bind_substrate` with a ready substrate.
        """
        from repro.sim.actor import KernelSubstrate  # deferred: sim is optional here

        self.bind_substrate(KernelSubstrate(sim, network))

    @property
    def substrate(self) -> Substrate:
        if self._substrate is None:
            raise SimulationError(f"actor {self.pid} is not bound to a substrate")
        return self._substrate

    @property
    def sim(self):
        """The kernel behind a simulator-backed substrate (legacy accessor)."""
        sim = getattr(self.substrate, "sim", None)
        if sim is None:
            # Duck-typed kernels (the explorer's) bind via ``bind`` too and
            # expose themselves as ``.sim``; a live substrate has no kernel.
            raise SimulationError(
                f"actor {self.pid} is hosted by {type(self.substrate).__name__}, "
                "which has no simulator kernel"
            )
        return sim

    @property
    def now(self) -> Instant:
        return self.substrate.now

    @property
    def streams(self):
        """The substrate's named random streams (workload durations)."""
        return self.substrate.streams

    # ------------------------------------------------------------------
    # Lifecycle hooks (subclass API)
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        """Called once when the hosting run starts; default does nothing."""

    def on_message(self, src: ProcessId, message) -> None:
        """Handle a delivered message; subclasses must override."""
        raise NotImplementedError

    def on_crash(self) -> None:
        """Called once at the actor's crash instant; default does nothing."""

    def reevaluate(self) -> None:
        """Re-check guarded commands; default does nothing.

        Subclasses with guarded-command semantics override this; the base
        class calls it after every message and timer.
        """

    # ------------------------------------------------------------------
    # Actions available to subclasses
    # ------------------------------------------------------------------
    def send(self, dst: ProcessId, message) -> None:
        """Send ``message`` to ``dst`` over the substrate's transport.

        Sending from a crashed actor raises: a correct implementation never
        reaches a send after its crash instant, so this surfaces hosting
        bugs instead of silently widening the fault model.
        """
        if self.crashed:
            raise CrashedProcessError(f"crashed process {self.pid} attempted to send")
        if self._substrate is None:
            raise SimulationError(f"actor {self.pid} is not bound to a substrate")
        self._substrate.send(self.pid, dst, message)

    def set_timer(
        self, delay: Duration, callback: Callable[[], None], *, label: str = ""
    ) -> TimerHandle:
        """Schedule ``callback`` after ``delay``; suppressed if crashed by then."""

        def fire() -> None:
            if self.crashed:
                return
            callback()
            self.reevaluate()

        return self.substrate.set_timer(delay, fire, label=label or f"timer@{self.pid}")

    def request_reevaluation(self) -> None:
        """Schedule a coalesced guard re-evaluation for this actor.

        Safe to call many times per instant; only one callback is pending
        at any moment.  Used by failure detectors to notify the dining
        layer that suspicion output changed.
        """
        if self.crashed or self._reevaluation_pending or self._substrate is None:
            return
        self._reevaluation_pending = True

        fire = self._reeval_fire
        if fire is None:

            def fire() -> None:
                self._reevaluation_pending = False
                if self.crashed:
                    return
                self.reevaluate()

            self._reeval_fire = fire
            self._reeval_label = f"reeval@{self.pid}"

        self._substrate.request_reevaluation(fire, label=self._reeval_label)

    # ------------------------------------------------------------------
    # Substrate-facing entry points
    # ------------------------------------------------------------------
    def deliver(self, src: ProcessId, message) -> None:
        """Transport entry point; ignores deliveries to crashed actors."""
        if self.crashed:
            return
        self.on_message(src, message)
        self.reevaluate()

    def crash(self) -> None:
        """Crash this actor now; irreversible, idempotent."""
        if self.crashed:
            return
        self.crashed = True
        self.crash_time = self.now if self._substrate is not None else None
        self.on_crash()
