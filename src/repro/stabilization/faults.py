"""Transient-fault injection for daemon-hosted protocols.

Self-stabilization's raison d'être is recovery from transient faults —
arbitrary corruption of protocol registers.  A :class:`TransientFaultPlan`
schedules bursts of corruption against a
:class:`~repro.core.daemon.DistributedDaemon`'s hosted protocol; the E7
experiment then measures re-convergence.

Faults are applied through :meth:`DistributedDaemon.inject_fault`, so they
are recorded in the trace and the daemon's legitimacy bookkeeping stays
accurate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.core.daemon import DistributedDaemon
from repro.errors import ConfigurationError
from repro.graphs.conflict import ProcessId
from repro.sim.events import EventPriority
from repro.timebase import Instant, validate_instant


@dataclass(frozen=True)
class FaultBurst:
    """At ``time``, corrupt each process in ``victims`` once."""

    time: Instant
    victims: Tuple[ProcessId, ...]


class TransientFaultPlan:
    """A scripted or randomized sequence of fault bursts."""

    def __init__(self, bursts: Sequence[FaultBurst]) -> None:
        self.bursts: List[FaultBurst] = sorted(bursts, key=lambda b: b.time)
        for burst in self.bursts:
            validate_instant(burst.time, name="burst time")
            if not burst.victims:
                raise ConfigurationError("fault burst with no victims")

    @staticmethod
    def scripted(bursts: Sequence[Tuple[Instant, Sequence[ProcessId]]]) -> "TransientFaultPlan":
        """Exact bursts: ``[(time, [pids…]), …]``."""
        return TransientFaultPlan(
            [FaultBurst(time, tuple(victims)) for time, victims in bursts]
        )

    @staticmethod
    def random(
        daemon: DistributedDaemon,
        *,
        burst_times: Sequence[Instant],
        victims_per_burst: int,
        stream_name: str = "transient-faults",
    ) -> "TransientFaultPlan":
        """Random victims per burst, drawn from the daemon's process set.

        Victims are sampled from all processes (a fault may corrupt a
        register just before its owner crashes; the surviving corruption
        still perturbs live readers — which is the interesting case).
        """
        rng = daemon.table.sim.streams.stream(stream_name)
        pids = sorted(daemon.table.graph.nodes)
        if victims_per_burst < 1 or victims_per_burst > len(pids):
            raise ConfigurationError(
                f"cannot pick {victims_per_burst} victims from {len(pids)} processes"
            )
        bursts = [
            FaultBurst(validate_instant(t, name="burst time"), tuple(sorted(rng.sample(pids, victims_per_burst))))
            for t in burst_times
        ]
        return TransientFaultPlan(bursts)

    # ------------------------------------------------------------------
    def apply(self, daemon: DistributedDaemon) -> None:
        """Schedule every burst on the daemon's simulator.

        Bursts only corrupt processes that are still live when the burst
        fires — a crashed process takes no steps, including faulty ones,
        and its register freeze is already modeled by the crash.
        """

        def make_burst(burst: FaultBurst):
            def fire() -> None:
                for pid in burst.victims:
                    if not daemon.table.diners[pid].crashed:
                        daemon.inject_fault(pid)

            return fire

        for burst in self.bursts:
            daemon.table.sim.schedule_at(
                burst.time,
                make_burst(burst),
                priority=EventPriority.CONTROL,
                label=f"fault burst at {burst.time}",
            )

    @property
    def last_burst_time(self) -> Instant:
        return self.bursts[-1].time if self.bursts else 0.0
