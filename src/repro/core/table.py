"""DiningTable: one-stop wiring of a complete dining run.

Experiments, tests, and examples all need the same assembly: a simulator,
a FIFO network with monitors, a coloring, a failure detector, one diner
per process, a crash plan, and a trace.  :class:`DiningTable` builds all
of it from declarative parameters and exposes the analysis conveniences,
so a whole experiment reads:

.. code-block:: python

    table = DiningTable(
        topologies.ring(8),
        seed=7,
        detector=scripted_detector(convergence_time=50.0),
        crash_plan=CrashPlan.scripted({3: 20.0}),
    )
    table.run(until=400.0)
    assert table.starving_correct(patience=100.0) == []

Detector choice is a *factory* (:func:`scripted_detector`,
:func:`perfect_detector`, :func:`null_detector`,
:func:`heartbeat_detector`) because oracle-style detectors need the
simulator and crash plan that only exist once the table assembles them.

The same harness runs the baselines: pass ``diner_factory`` to substitute
:class:`~repro.baselines.choy_singh.ChoySinghDiner` or any other actor
with the diner construction signature.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional

from repro.checks.context import active_collector
from repro.checks.properties import CHANNEL_BOUND, QUIESCENCE
from repro.checks.suite import CheckConfig
from repro.checks.verdict import Verdict
from repro.core.assembly import Wiring, apply_delta
from repro.core.diner import DinerActor, EatCallback
from repro.core.workload import AlwaysHungry, Workload
from repro.detectors.base import FailureDetector, NullDetector
from repro.detectors.heartbeat import HeartbeatDetector
from repro.detectors.perfect import PerfectDetector
from repro.detectors.scripted import ScriptedDetector
from repro.errors import ConfigurationError
from repro.graphs.coloring import Coloring
from repro.graphs.conflict import ConflictGraph, ProcessId
from repro.graphs.membership import MembershipLog
from repro.obs.context import active_registry
from repro.obs.instrument import instrument_table
from repro.sim.checks import KernelCheckAdapter, raise_violation
from repro.sim.crash import CrashPlan
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator
from repro.sim.latency import FixedLatency, LatencyModel
from repro.sim.monitors import ChannelOccupancyMonitor, MessageStats, QuiescenceMonitor
from repro.sim.network import Network
from repro.timebase import Duration, Instant
from repro.trace import analysis
from repro.trace.recorder import TraceRecorder

DetectorFactory = Callable[[Simulator, ConflictGraph, CrashPlan], FailureDetector]
DinerFactory = Callable[..., DinerActor]


# ----------------------------------------------------------------------
# Detector factories
# ----------------------------------------------------------------------
def scripted_detector(
    *,
    convergence_time: Instant = 0.0,
    detection_delay: Duration = 1.0,
    mistakes: tuple = (),
    random_mistakes: bool = False,
    mistakes_per_edge: float = 1.0,
    mean_mistake_duration: Duration = 2.0,
) -> DetectorFactory:
    """◇P₁ oracle with exact convergence time and optional mistake script."""

    def build(sim: Simulator, graph: ConflictGraph, crash_plan: CrashPlan) -> FailureDetector:
        if random_mistakes:
            if mistakes:
                raise ConfigurationError("pass either explicit mistakes or random_mistakes")
            return ScriptedDetector.with_random_mistakes(
                sim,
                graph,
                crash_plan,
                convergence_time=convergence_time,
                detection_delay=detection_delay,
                mistakes_per_edge=mistakes_per_edge,
                mean_mistake_duration=mean_mistake_duration,
            )
        return ScriptedDetector(
            sim,
            graph,
            crash_plan,
            convergence_time=convergence_time,
            detection_delay=detection_delay,
            mistakes=tuple(mistakes),
        )

    return build


def perfect_detector(*, detection_delay: Duration = 1.0) -> DetectorFactory:
    """The perfect detector P (no false positives, ever)."""

    def build(sim: Simulator, graph: ConflictGraph, crash_plan: CrashPlan) -> FailureDetector:
        return PerfectDetector(sim, graph, crash_plan, detection_delay=detection_delay)

    return build


def null_detector() -> DetectorFactory:
    """No detector at all: the purely asynchronous system."""

    def build(sim: Simulator, graph: ConflictGraph, crash_plan: CrashPlan) -> FailureDetector:
        return NullDetector(graph)

    return build


def heartbeat_detector(
    *,
    interval: Duration = 1.0,
    initial_timeout: Duration = 3.0,
    timeout_increment: Duration = 1.0,
) -> DetectorFactory:
    """A real heartbeat ◇P₁ (pair with a partial-synchrony latency model)."""

    def build(sim: Simulator, graph: ConflictGraph, crash_plan: CrashPlan) -> FailureDetector:
        return HeartbeatDetector(
            graph,
            interval=interval,
            initial_timeout=initial_timeout,
            timeout_increment=timeout_increment,
        )

    return build


def query_detector(
    *,
    interval: Duration = 1.0,
    initial_timeout: Duration = 4.0,
    timeout_increment: Duration = 1.0,
) -> DetectorFactory:
    """A real round-trip (query-response) \u25c7P\u2081 (pull-style probing)."""
    from repro.detectors.query import QueryDetector

    def build(sim: Simulator, graph: ConflictGraph, crash_plan: CrashPlan) -> FailureDetector:
        return QueryDetector(
            graph,
            interval=interval,
            initial_timeout=initial_timeout,
            timeout_increment=timeout_increment,
        )

    return build


def incomplete_detector(*, blind_pairs, detection_delay: Duration = 1.0) -> DetectorFactory:
    """Oracle violating completeness on ``blind_pairs`` (necessity probe E9)."""
    from repro.detectors.adversarial import IncompleteDetector

    def build(sim: Simulator, graph: ConflictGraph, crash_plan: CrashPlan) -> FailureDetector:
        return IncompleteDetector(
            sim, graph, crash_plan, blind_pairs=blind_pairs, detection_delay=detection_delay
        )

    return build


def inaccurate_detector(
    *,
    recurring_pairs,
    period: Duration = 10.0,
    episode: Duration = 4.0,
    detection_delay: Duration = 1.0,
) -> DetectorFactory:
    """Oracle violating eventual accuracy on ``recurring_pairs`` (E9)."""
    from repro.detectors.adversarial import InaccurateDetector

    def build(sim: Simulator, graph: ConflictGraph, crash_plan: CrashPlan) -> FailureDetector:
        return InaccurateDetector(
            sim,
            graph,
            crash_plan,
            recurring_pairs=recurring_pairs,
            period=period,
            episode=episode,
            detection_delay=detection_delay,
        )

    return build


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
class DiningTable:
    """A fully wired dining simulation."""

    def __init__(
        self,
        graph: ConflictGraph,
        *,
        seed: int = 0,
        latency: Optional[LatencyModel] = None,
        workload: Optional[Workload] = None,
        coloring: Optional[Coloring] = None,
        crash_plan: Optional[CrashPlan] = None,
        detector: Optional[DetectorFactory] = None,
        diner_factory: Optional[DinerFactory] = None,
        on_eat: Optional[EatCallback] = None,
        check_invariants: bool = True,
        strict_checks: Optional[bool] = None,
        check_config: Optional[CheckConfig] = None,
        channel_bound: int = 4,
        max_events: int = 50_000_000,
        trace: Optional[TraceRecorder] = None,
        metrics=None,
        membership: Optional[MembershipLog] = None,
    ) -> None:
        self.graph = graph
        # One wiring for every substrate (repro.core.assembly): with a
        # non-empty membership log everything graph-shaped is derived
        # from the union graph; with none the union IS ``graph``.
        self.wiring = wiring = Wiring(graph, membership, coloring, diner_factory)
        self.membership = wiring.membership
        self.timeline = wiring.timeline
        self.union_graph = union = wiring.union
        self.coloring = wiring.coloring
        self.crash_plan = crash_plan if crash_plan is not None else CrashPlan.none()
        for pid in self.crash_plan.faulty:
            if pid not in union:
                raise ConfigurationError(f"crash plan mentions unknown process {pid}")

        self.sim = Simulator(seed=seed, max_events=max_events)
        self.trace = trace if trace is not None else TraceRecorder()
        self.network = Network(self.sim, latency=latency or FixedLatency(1.0))

        factory = detector if detector is not None else scripted_detector()
        self.detector = factory(self.sim, union, self.crash_plan)

        self.workload = workload if workload is not None else AlwaysHungry()

        self._on_eat = on_eat
        self.diners: Dict[ProcessId, DinerActor] = {}
        for pid in graph.nodes:
            diner = wiring.build_diner(self, pid, on_eat=on_eat)
            self.diners[pid] = diner
            self.network.register(diner)

        # Property checking: one substrate-agnostic CheckSuite, fed by the
        # kernel adapter.  ``check_invariants=True`` keeps the historical
        # teeth — an immediate safety violation (fork duplication, channel
        # overflow, FIFO break, local-invariant break) raises its typed
        # exception from inside the offending event.
        # Observability registry resolved up front: the check suite's
        # per-property profiling rides the same opt-in as the kernel
        # profiler, and both must be decided before the suite is built.
        registry = metrics if metrics is not None else active_registry()

        self.checks = None
        self._check_adapter = None
        if check_invariants:
            config = check_config if check_config is not None else CheckConfig()
            config.channel_bound = channel_bound
            config.crash_time_of = self.crash_plan.as_dict().get
            if config.correct is None:
                config.correct = self.crash_plan.correct(wiring.residents)
            if registry is not None and getattr(registry, "profile", False):
                config.profile = True
            self.checks = wiring.build_suite(
                sorted(union.edges),
                config,
                self.diners,
                None if strict_checks is False else raise_violation,
            )

        # Monitors (always on: cheap, and every experiment reads them).
        # With a check suite attached, the kernel adapter feeds the same
        # canonical occupancy/quiescence implementations exactly once and
        # batches the message stats, so the table exposes the suite's own
        # objects (they carry the monitors' read API) — the adapter is
        # then the only registered observer besides the instrumentation.
        if self.checks is not None:
            self._check_adapter = KernelCheckAdapter(
                self.checks, self.diners, crashing=self.crash_plan.faulty
            )
            self.message_stats = self._check_adapter.stats
            self.occupancy = self.checks.checker(CHANNEL_BOUND).occupancy
            self.quiescence = self.checks.checker(QUIESCENCE)
        else:
            self.message_stats = MessageStats()
            self.occupancy = ChannelOccupancyMonitor(layer="dining")
            self.quiescence = QuiescenceMonitor(self.crash_plan.as_dict().get)
            self.network.add_monitor(self.message_stats)
            self.network.add_monitor(self.occupancy)
            self.network.add_monitor(self.quiescence)

        # Observability: an explicit registry wins; otherwise join the
        # ambient ``repro.obs.collecting`` block when one is active.
        self.metrics = registry
        self.instrumentation = (
            instrument_table(self, registry, bound=channel_bound)
            if registry is not None
            else None
        )

        if self.checks is not None:
            # Attached last so the instrumentation monitors still observe
            # a message even when a strict check raises from the adapter.
            self._check_adapter.attach(self.sim, self.network, self.trace)
            collector = active_collector()
            if collector is not None:
                collector.register(self.checks, lambda: self.sim.now)

        self.crash_plan.apply(self.network)
        # Oracle-style detectors (scripted, perfect, adversarial) drive
        # their modules from pre-scheduled events; message-passing ones
        # (heartbeat) have no install step.
        install = getattr(self.detector, "install", None)
        if callable(install):
            install()

        # Deltas fire at CONTROL priority in log order (the log is
        # time-sorted and the kernel breaks same-instant ties by
        # scheduling order), so the live epoch counter walks the
        # timeline's snapshots in lock-step.
        for delta in self.membership:
            self.sim.schedule_at(
                delta.time,
                lambda d=delta: apply_delta(self, d),
                priority=EventPriority.CONTROL,
                label=f"membership {delta.verb} {delta.pid}",
            )

        self._started = False

    # ------------------------------------------------------------------
    # Dynamic membership: the seat repro.core.assembly.apply_delta acts on
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """The current topology epoch (0 on static runs)."""
        return self.wiring.epoch

    @property
    def now(self) -> Instant:
        return self.sim.now

    def hosts(self, pid: ProcessId) -> bool:
        return True  # one kernel runs every diner

    def spawn(self, pid: ProcessId, neighbors, *, replace: bool) -> None:
        """Build, register, and start a fresh incarnation of ``pid``."""
        diner = self.wiring.build_diner(self, pid, neighbors, on_eat=self._on_eat)
        self.diners[pid] = diner
        self.network.register(diner, replace=replace)
        if self._check_adapter is not None:
            self._check_adapter.install_diner(diner)
            if replace:
                self._check_adapter.note_rejoin(pid)
        diner.on_start()
        diner.reevaluate()

    def retire(self, pid: ProcessId) -> None:
        # The network emits the Crash trace record; the adapter learns
        # of it online, like any crash.
        self.network.crash(pid)

    def fence_edge(self, a: ProcessId, b: ProcessId) -> None:
        self.network.fence_channels(a, b)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Instant) -> "DiningTable":
        """Run (or continue) the simulation up to virtual time ``until``."""
        if not self._started:
            self.network.start()
            self._started = True
        self.sim.run(until=until)
        return self

    # ------------------------------------------------------------------
    # Analysis conveniences
    # ------------------------------------------------------------------
    @property
    def correct_pids(self) -> tuple:
        return self.crash_plan.correct(self.graph.nodes)

    def verdict(
        self,
        *,
        settle: Optional[Instant] = None,
        patience: Optional[float] = None,
        after: Optional[Instant] = None,
    ) -> Verdict:
        """Finalize the attached check suite into a single Verdict.

        ``settle`` / ``patience`` / ``after`` bind the eventual
        properties' judgement windows (◇WX, wait-freedom, ◇2-BW) at the
        current horizon; left ``None`` they stay as configured (default:
        informational).  Requires ``check_invariants=True``.
        """
        if self.checks is None:
            raise ConfigurationError(
                "no check suite attached (table built with check_invariants=False)"
            )
        self.checks.bind_windows(settle, patience, after)
        return self.checks.finalize(self.sim.now)

    def violations(self) -> List[analysis.ExclusionViolation]:
        """All exclusion violations recorded so far."""
        return analysis.exclusion_violations(self.trace, self.graph, horizon=self.sim.now)

    def violations_after(self, cutoff: Instant) -> List[analysis.ExclusionViolation]:
        """Violations overlapping ``[cutoff, now)`` — Theorem 1 says none
        once ``cutoff`` reaches detector convergence."""
        return analysis.violations_after(self.trace, self.graph, cutoff, horizon=self.sim.now)

    def starving_correct(self, *, patience: float) -> List[ProcessId]:
        """Correct diners hungry for longer than ``patience`` at the horizon."""
        return analysis.starving_processes(
            self.trace, self.correct_pids, horizon=self.sim.now, patience=patience
        )

    def max_overtaking(self, *, after: Instant = 0.0) -> int:
        """Worst per-session overtake count among sessions starting after ``after``."""
        return analysis.max_overtaking(self.trace, self.graph, after=after, horizon=self.sim.now)

    def eat_counts(self) -> Dict[ProcessId, int]:
        return analysis.eat_counts(self.trace)

    def response_times(self, pids: Optional[List[ProcessId]] = None) -> List[float]:
        chosen = pids if pids is not None else list(self.correct_pids)
        return analysis.all_response_times(self.trace, chosen, horizon=self.sim.now)

    def throughput(self) -> float:
        if self.sim.now <= 0 or math.isinf(self.sim.now):
            return 0.0
        return analysis.throughput(self.trace, horizon=self.sim.now)

    def fingerprint(self) -> tuple:
        """A compact, deterministic digest of the run so far.

        Two runs with the same configuration and seed produce identical
        fingerprints; any divergence (event counts, traffic, meals,
        violations) changes it.  Used by the reproducibility regression
        tests and handy for golden-run pinning in downstream projects.
        """
        return (
            self.sim.processed_events,
            self.network.sent_count,
            self.network.delivered_count,
            self.network.dropped_count,
            tuple(sorted(self.eat_counts().items())),
            len(self.violations()),
            len(self.trace),
        )
