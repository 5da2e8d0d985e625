"""The distributed daemon: dining as a scheduler for hosted protocols.

This is the paper's motivating application (Sections 1 and 8).  A
self-stabilizing protocol needs every correct process to execute
infinitely many steps; a :class:`DistributedDaemon` provides that by
running Algorithm 1 with an always-hungry workload and executing one
enabled guarded command of the hosted protocol inside each eating session.

Eventual weak exclusion is visible at this layer exactly as the paper
frames it: before the detector converges, two conflicting neighbors may
occasionally be scheduled together; each such *sharing violation* is
modeled as (at worst) one more transient fault on the hosted protocol —
the daemon corrupts the stepping process's protocol state instead of
executing its action.  Because ◇WX admits only finitely many violations
and the daemon is wait-free, the protocol still converges.

The hosted protocol is any object with the small duck-typed interface of
:class:`repro.stabilization.protocol.GuardedProtocol`:

* ``execute(pid) -> Optional[str]`` — fire one enabled action, returning
  its name (or ``None`` if none is enabled);
* ``legitimate(live) -> bool`` — the closed safety predicate, judged over
  the currently live processes;
* ``corrupt(pid, rng) -> str`` — inflict a transient fault.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.table import DetectorFactory, DiningTable
from repro.core.workload import AlwaysHungry
from repro.graphs.coloring import Coloring
from repro.graphs.conflict import ConflictGraph, ProcessId
from repro.sim.crash import CrashPlan
from repro.sim.latency import LatencyModel
from repro.timebase import Duration, Instant


class DistributedDaemon:
    """Wait-free scheduler for a guarded-command protocol.

    Parameters mirror :class:`~repro.core.table.DiningTable`, plus:

    protocol:
        The hosted self-stabilizing protocol.
    fault_on_violation:
        When True (default), a protocol step taken while a live neighbor
        is simultaneously eating corrupts local protocol state instead of
        executing — the paper's "sharing violation precipitates at worst a
        transient fault" reading.  When False, violations merely execute
        concurrently (useful to isolate scheduling behaviour).
    step_time:
        Eating duration, i.e. how long the critical section is held per
        scheduled step.
    """

    def __init__(
        self,
        graph: ConflictGraph,
        protocol,
        *,
        seed: int = 0,
        detector: Optional[DetectorFactory] = None,
        latency: Optional[LatencyModel] = None,
        coloring: Optional[Coloring] = None,
        crash_plan: Optional[CrashPlan] = None,
        diner_factory=None,
        fault_on_violation: bool = True,
        step_time: Duration = 0.5,
        think_time: Duration = 0.01,
        check_invariants: bool = True,
        trace=None,
        metrics=None,
    ) -> None:
        self.protocol = protocol
        self.fault_on_violation = fault_on_violation
        self.sharing_violations = 0
        self.steps_executed = 0
        self._last_illegitimate: Instant = 0.0
        self._ever_checked = False

        self.table = DiningTable(
            graph,
            seed=seed,
            latency=latency,
            workload=AlwaysHungry(eat_time=step_time, think_time=think_time),
            coloring=coloring,
            crash_plan=crash_plan,
            detector=detector,
            diner_factory=diner_factory,
            on_eat=self._on_eat,
            check_invariants=check_invariants,
            trace=trace,
            metrics=metrics,
        )
        self._rng = self.table.sim.streams.stream("daemon-violations")

    # ------------------------------------------------------------------
    # Scheduling hook
    # ------------------------------------------------------------------
    def _on_eat(self, diner) -> None:
        pid = diner.pid
        now = self.table.sim.now
        if self.fault_on_violation and self._neighbor_eating(pid):
            # A ◇WX mistake: both sides of a conflict edge are in their
            # critical sections.  Model the damage as a transient fault on
            # the later scheduler's process.
            self.sharing_violations += 1
            detail = self.protocol.corrupt(pid, self._rng)
            self.table.trace.transient_fault(now, pid, f"sharing violation: {detail}")
        else:
            action = self.protocol.execute(pid)
            if action is not None:
                self.steps_executed += 1
                self.table.trace.protocol_step(now, pid, action)
        self._note_legitimacy(now)

    def _neighbor_eating(self, pid: ProcessId) -> bool:
        diners = self.table.diners
        return any(
            diners[nbr].is_eating and not diners[nbr].crashed
            for nbr in self.table.graph.neighbors(pid)
        )

    # ------------------------------------------------------------------
    # Faults and legitimacy bookkeeping
    # ------------------------------------------------------------------
    def live_pids(self) -> List[ProcessId]:
        """Processes that have not crashed as of now."""
        return [pid for pid, diner in self.table.diners.items() if not diner.crashed]

    def inject_fault(self, pid: ProcessId) -> None:
        """Inflict one random transient fault on the hosted protocol at ``pid``."""
        now = self.table.sim.now
        detail = self.protocol.corrupt(pid, self._rng)
        self.table.trace.transient_fault(now, pid, f"injected: {detail}")
        self._note_legitimacy(now)

    def corrupt_register(self, pid: ProcessId, value) -> None:
        """Inflict a *targeted* transient fault: write ``value`` at ``pid``.

        Transient faults can be arbitrary, so experiments may pick
        adversarial values (for example a color that collides with a
        neighbor) instead of random ones.
        """
        now = self.table.sim.now
        old = self.protocol.read(pid)
        self.protocol.write(pid, value)
        self.table.trace.transient_fault(now, pid, f"targeted: [{pid}] {old} -> {value}")
        self._note_legitimacy(now)

    def _note_legitimacy(self, now: Instant) -> None:
        self._ever_checked = True
        if not self.protocol.legitimate(self.live_pids()):
            self._last_illegitimate = now

    # ------------------------------------------------------------------
    # Execution / results
    # ------------------------------------------------------------------
    def run(self, until: Instant) -> "DistributedDaemon":
        self.table.run(until)
        return self

    def run_until_converged(
        self,
        *,
        max_time: Instant,
        settle: Duration = 10.0,
        check_interval: Duration = 5.0,
    ) -> Optional[Instant]:
        """Run until the protocol stays legitimate for ``settle`` time.

        Checks every ``check_interval``; returns the convergence time once
        the protocol has been continuously legitimate for ``settle`` (so a
        transiently legitimate state that a pre-convergence scheduling
        mistake re-corrupts doesn't count), or ``None`` if ``max_time``
        arrives first.  The simulation can be continued afterwards.
        """
        now = self.table.sim.now
        while now < max_time:
            now = min(now + check_interval, max_time)
            self.table.run(now)
            if self.converged():
                converged_at = self.convergence_time()
                if converged_at is not None and now - converged_at >= settle:
                    return converged_at
        return self.convergence_time() if self.converged() else None

    def converged(self) -> bool:
        """Is the hosted protocol currently legitimate over live processes?"""
        return self.protocol.legitimate(self.live_pids())

    def convergence_time(self) -> Optional[Instant]:
        """When the protocol last became (and stayed) legitimate.

        ``None`` while the protocol is still illegitimate.  The value is
        the time of the last observed illegitimate state, i.e. the start
        of the current closed suffix.
        """
        if not self.converged():
            return None
        if not self._ever_checked:
            return 0.0
        return self._last_illegitimate
