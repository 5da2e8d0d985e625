"""One FaultPlan → one judged run, on either substrate.

The engine interprets a :class:`~repro.faults.plan.FaultPlan`:

* **kernel** — a :class:`~repro.core.table.DiningTable` with the plan's
  latency adversary, workload, scripted ◇P₁ (convergence, detection
  delay, random pre-convergence mistakes), and crash injections.
  Time-scripted crashes ride the ordinary
  :class:`~repro.sim.crash.CrashPlan`; *state-triggered* crashes arm
  trace/network listeners that kill the victim the moment it enters the
  doorway, starts eating, or receives a fork — the windows in which a
  crash strands the most shared state at neighbors.  Every triggered
  victim also appears in the CrashPlan at its ``deadline``, so the
  detector oracles know about it (detection is merely late, which ◇P₁
  permits) and the crash happens by the deadline even if the trigger
  never fires.
* **live** — a loopback :class:`~repro.net.host.AsyncHost` whose new
  ``inject_latency`` hook replays the same latency adversary in scaled
  wall time; crashes use their (scaled) scripted times or deadlines.

Both paths end in the same :func:`repro.checks.standard_suite` Verdict.
Judgement windows are derived from the plan itself
(:meth:`JudgeWindows.for_plan`): eventual properties are never judged
tighter than the adversary allows, so a clean campaign over the
unmutated algorithm passing with 0 violations is a meaningful claim.

Exceptions a mutant raises mid-run (``ForkDuplicationError`` from
Lemma 1.1's runtime assert, kernel event-budget exhaustion from a flood
bug, …) are converted into failing properties rather than propagated, so
the campaign layer sees a uniform Verdict either way.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.checks import (
    FAIL,
    CheckConfig,
    DeliverEvent,
    DropEvent,
    PropertyVerdict,
    SendEvent,
    Verdict,
    Violation,
    wire_to_dict,
)
from repro.checks.properties import CHANNEL_BOUND, FIFO, FORK_UNIQUENESS
from repro.core.messages import Fork
from repro.core.table import DiningTable, scripted_detector
from repro.errors import (
    ChannelCapacityError,
    ConfigurationError,
    FifoViolationError,
    ForkDuplicationError,
    InvariantViolation,
    SimulationError,
)
from repro.faults.mutants import get_mutant
from repro.faults.plan import CrashSpec, FaultPlan
from repro.graphs import topologies
from repro.sim.crash import CrashPlan
from repro.sim.monitors import message_layer
from repro.sim.network import NetworkMonitor
from repro.trace.events import DoorwayChange, PhaseChange

#: Synthetic property name for mutant-raised faults that map to no
#: standard property (scheduling storms, crashed-process sends, …).
RUNTIME_ERROR = "runtime-error"

#: Synthetic property judging the lease-service path under a client
#: storm: every lease the storm leaves active must be backed by an
#: eating (or crashed) diner — a leak means a grant escaped Algorithm
#: 1's critical section.
LEASE_BACKING = "lease-backing"

#: How many pieces a kernel run is cut into, so a failing plan stops at
#: the first chunk whose suite holds a violation instead of simulating a
#: flood mutant to the full horizon.
RUN_CHUNKS = 8


# ----------------------------------------------------------------------
# Judgement windows
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class JudgeWindows:
    """Windows binding the eventual properties, derived from the plan.

    All values are in the plan's virtual time units.  The derivation is
    deliberately generous — a window too tight would convict the correct
    algorithm of its adversary's sins; the clean-campaign acceptance run
    (``repro fuzz`` with no mutant) is the empirical check that it never
    does.
    """

    settle: float
    patience: float
    after: float
    grace: float

    @staticmethod
    def for_plan(plan: FaultPlan, *, margin: float = 3.0) -> "JudgeWindows":
        lat = plan.latency.ceiling()
        eat = plan.eat_ceiling()  # storm TTLs included
        # Suspicion output is trustworthy only after detector convergence,
        # latency stabilization (GST), the last possible crash's
        # detection, and the last membership delta (a joiner or rejoiner
        # needs a doorway round-trip before its neighborhood is settled);
        # in-flight stragglers add one ceiling.
        base = max(
            plan.flaps.convergence,
            plan.latency.stabilization_time(),
            plan.last_possible_crash() + plan.flaps.detection_delay,
            plan.last_membership_time(),
        )
        settle = base + eat + 2.0 * lat + margin
        # A hungry diner can transitively wait behind every other diner's
        # meal plus the message round-trips between them, all of which may
        # start before ``base``.
        patience = base + plan.n * (eat + 4.0 * lat) + margin
        after = settle
        # Traffic toward a victim stops once every neighbor's detector
        # fires, and detectors are scripted from CrashPlan deadlines —
        # but the quiescence clock starts at the ACTUAL crash, which for
        # a trigger can be as early as its arming time.  Grace must span
        # from the earliest possible crash instant to trustworthy
        # suspicion (``base``), or legal late detection convicts the
        # correct algorithm.
        earliest = min((c.earliest_time() for c in plan.crashes), default=0.0)
        grace = max(0.0, base - earliest) + eat + 3.0 * lat + margin
        return JudgeWindows(settle=settle, patience=patience, after=after, grace=grace)

    def as_dict(self) -> Dict[str, float]:
        return asdict(self)


# ----------------------------------------------------------------------
# Run result
# ----------------------------------------------------------------------
@dataclass
class FaultRunResult:
    """Everything one interpreted plan produced.

    ``trace`` and ``wire`` stay attached (in memory) so the shrinker can
    write a witness without re-running; ``to_json`` omits them.
    ``crash_times`` maps pid to the *actual* crash instant — for
    triggered crashes this is the trigger time, not the deadline.
    """

    plan: FaultPlan
    substrate: str
    verdict: Verdict
    windows: Optional[JudgeWindows]
    crash_times: Dict[int, float] = field(default_factory=dict)
    meals: Dict[int, int] = field(default_factory=dict)
    events: int = 0
    stopped_early: bool = False
    error: Optional[str] = None
    trace: object = None
    wire: List[dict] = field(default_factory=list)
    #: LockCore snapshot when the plan carried a client storm.
    storm: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.verdict.ok

    @property
    def failed(self) -> List[str]:
        return self.verdict.failed

    def to_json(self) -> dict:
        return {
            "plan": self.plan.to_json(),
            "substrate": self.substrate,
            "windows": self.windows.as_dict() if self.windows else None,
            "crash_times": {str(p): t for p, t in sorted(self.crash_times.items())},
            "meals": {str(p): m for p, m in sorted(self.meals.items())},
            "events": self.events,
            "stopped_early": self.stopped_early,
            "error": self.error,
            "verdict": self.verdict.to_json(),
            "storm": self.storm,
        }


# ----------------------------------------------------------------------
# Wire logging (kernel): the offline-replayable message stream
# ----------------------------------------------------------------------
class _WireLogMonitor(NetworkMonitor):
    """Records every kernel send/deliver/drop as the message event a live
    host would log, so a witness directory's ``wire.jsonl`` makes
    channel-bound / FIFO / quiescence judgeable by ``repro check`` offline.

    Sequence numbers are the network's own: it numbers every send per
    channel and exposes the number of the send or departure being
    dispatched.
    """

    def __init__(self, network) -> None:
        self._network = network
        self.events: list = []

    def _log(self, cls, src, dst, message, time, seq) -> None:
        self.events.append(
            cls(time, src, dst, type(message).__name__, message_layer(message), seq)
        )

    def on_send(self, src, dst, message, time) -> None:
        self._log(SendEvent, src, dst, message, time, self._network.last_send_seq)

    def on_deliver(self, src, dst, message, time) -> None:
        self._log(DeliverEvent, src, dst, message, time, self._network.delivering_seq)

    def on_drop(self, src, dst, message, time) -> None:
        self._log(DropEvent, src, dst, message, time, self._network.delivering_seq)


# ----------------------------------------------------------------------
# Triggered crashes (kernel)
# ----------------------------------------------------------------------
class _CrashTrigger(NetworkMonitor):
    """Arms one state-triggered crash on a running table.

    Doorway and eating triggers listen to the trace; the fork trigger
    watches deliveries.  The kill is always *scheduled* at the current
    instant with CONTROL priority — never executed synchronously inside
    the triggering event — so the victim finishes the very step that put
    it into the targeted state (it genuinely crashes holding the fork /
    inside the doorway) and the transport never loses the triggering
    delivery.
    """

    def __init__(self, table: DiningTable, spec: CrashSpec) -> None:
        self.table = table
        self.spec = spec
        self.fired = False

    def arm(self) -> None:
        if self.spec.when == "fork":
            self.table.network.add_monitor(self)
        elif self.spec.when == "doorway":
            self.table.trace.add_listener(self._on_doorway, types=(DoorwayChange,))
        elif self.spec.when == "eating":
            self.table.trace.add_listener(self._on_phase, types=(PhaseChange,))
        else:  # pragma: no cover - CrashSpec validation forbids this
            raise ConfigurationError(f"unknown trigger {self.spec.when!r}")

    def _on_doorway(self, record) -> None:
        if record.pid == self.spec.pid and record.inside and record.time >= self.spec.after:
            self._fire()

    def _on_phase(self, record) -> None:
        if (
            record.pid == self.spec.pid
            and record.new_phase == "eating"
            and record.time >= self.spec.after
        ):
            self._fire()

    def on_deliver(self, src, dst, message, time) -> None:
        if dst == self.spec.pid and isinstance(message, Fork) and time >= self.spec.after:
            self._fire()

    def _fire(self) -> None:
        if self.fired:
            return
        self.fired = True
        table, pid = self.table, self.spec.pid
        table.at(table.now, lambda: table.retire(pid), f"fuzz-trigger-crash {pid}")


# ----------------------------------------------------------------------
# Client storms (lease-service path)
# ----------------------------------------------------------------------
class _Storm:
    """Interpret a :class:`~repro.faults.plan.ClientStormSpec` on a seat.

    Sessions are driven straight into a :class:`~repro.locks.service.
    LockCore` riding the diners of ``seat`` (a table or a loopback
    host) — no sockets, the in-process analogue of a ``LockService``
    client fleet.  Each grant either abandons (the killed-connection
    client: only the TTL reclaims its lease) or releases after the
    plan's hold time.  The storm knows nothing of what drives it: every
    session event goes through the seat's ``now`` and ``at``, and every
    plan duration is multiplied by ``time_scale`` on the way to them.
    """

    def __init__(self, seat, plan: FaultPlan, *, time_scale: float = 1.0) -> None:
        from repro.locks.service import LockCore, default_resources
        from repro.sim.rng import RandomStreams

        self.spec = plan.storm
        self._seat = seat
        self._scale = time_scale
        self.core = LockCore.on_seat(seat, default_resources(seat.graph))
        self._rng = RandomStreams(plan.seed).stream("fuzz/client-storm")
        self._names = sorted(self.core.resources)
        self._ttl_ms = max(1, int(round(self.spec.ttl * time_scale * 1000.0)))

    def arm(self) -> None:
        """Schedule every burst, in session order, from the run's start."""
        from repro.locks.messages import SESSION_BASE

        spec = self.spec
        session = SESSION_BASE
        remaining = spec.sessions
        when = spec.start
        while remaining:
            count = min(spec.burst, remaining)
            ids = list(range(session, session + count))
            self._seat.at(when * self._scale, lambda ids=ids: self._burst(ids), "storm")
            session += count
            remaining -= count
            when += spec.interval

    def _burst(self, ids) -> None:
        for session in ids:
            resource = self._names[self._rng.randrange(len(self._names))]
            self.core.request(
                session,
                resource,
                self._ttl_ms,
                lambda message, _s=session: self._reply(_s, message),
            )

    def _reply(self, session: int, message) -> None:
        from repro.locks.messages import LeaseGrant

        if type(message) is not LeaseGrant:
            return  # denials are the core's books; nothing to drive
        if self._rng.random() < self.spec.abandon:
            self.core.abandon(session)
            return
        lease_id = message.lease_id
        seat = self._seat
        seat.at(
            seat.now + self.spec.hold * self._scale,
            lambda: self.core.release(session, lease_id),
            "storm",
        )


def _fold_leaked(verdict: Verdict, core, now: float) -> Verdict:
    leaked = core.leaked_leases()
    if not leaked:
        return verdict
    synthetic = PropertyVerdict(
        prop=LEASE_BACKING,
        status=FAIL,
        violations=[
            Violation(
                prop=LEASE_BACKING,
                time=now,
                detail=(
                    f"lease {lease.lease_id} on {lease.resource} "
                    f"(session {lease.session}) active but diner "
                    f"{lease.pid} is not eating"
                ),
            )
            for lease in leaked[:5]
        ],
        counters={"leaked_total": len(leaked)},
    )
    return verdict.with_property(synthetic)


# ----------------------------------------------------------------------
# Prologue and epilogue shared by both interpreters
# ----------------------------------------------------------------------
def _resolve_windows(
    plan: FaultPlan, judge: bool, windows: Optional[JudgeWindows]
) -> Optional[JudgeWindows]:
    """Pinned windows, else the plan's derivation; none when not judging."""
    if not judge:
        return None
    return windows if windows is not None else JudgeWindows.for_plan(plan)


def _prologue(plan: FaultPlan, judge: bool, windows, diner_factory):
    """What a plan says before any substrate is built.

    Returns ``(graph, windows, diner_factory, crash_times, membership)``:
    the topology, the resolved judgement windows, the scheduler under
    test (an explicit factory overrides the plan's mutant), each
    victim's scripted-or-deadline crash instant, and the membership log
    — all in plan time.
    """
    graph = topologies.by_name(plan.topology, plan.n, seed=plan.seed)
    if diner_factory is None and plan.mutant:
        diner_factory = get_mutant(plan.mutant).factory()
    crash_times = {c.pid: c.latest_time() for c in plan.crashes}
    return (
        graph,
        _resolve_windows(plan, judge, windows),
        diner_factory,
        crash_times,
        plan.membership_log(),
    )


def _property_of_exception(exc: BaseException) -> str:
    if isinstance(exc, ForkDuplicationError):
        return FORK_UNIQUENESS
    if isinstance(exc, ChannelCapacityError):
        return CHANNEL_BOUND
    if isinstance(exc, FifoViolationError):
        return FIFO
    return RUNTIME_ERROR


def _fold_faults(verdict: Verdict, name: str, details: List[str], time: float) -> Verdict:
    """Merge faults the suite never saw into the verdict as a failing property."""
    synthetic = PropertyVerdict(
        prop=name,
        status=FAIL,
        violations=[Violation(prop=name, time=time, detail=d) for d in details[:5]],
        counters={"raised_total": len(details)},
    )
    existing = verdict.properties.get(name)
    if existing is not None:
        synthetic = PropertyVerdict.merge([existing, synthetic])
    return verdict.with_property(synthetic)


def _epilogue(
    plan: FaultPlan,
    substrate: str,
    verdict: Verdict,
    windows: Optional[JudgeWindows],
    now: float,
    *,
    storm: Optional[_Storm],
    error: Optional[BaseException] = None,
    actor_faults: Tuple[str, ...] = (),
    **fields,
) -> FaultRunResult:
    """Fold what the suite could not see into the verdict; box the result.

    ``error`` is an exception a mutant raised through the kernel (it
    becomes the failing property it names), ``actor_faults`` the faults
    a live host captured outside its checkers, and a storm's books are
    closed and judged for leaked leases — so the campaign layer sees a
    uniform Verdict either way.
    """
    if error is not None:
        detail = f"{type(error).__name__}: {error}"
        verdict = _fold_faults(verdict, _property_of_exception(error), [detail], now)
        fields["error"] = detail
    if storm is not None:
        storm.core.shutdown()  # flush still-queued waiters (denied: shutdown)
        verdict = _fold_leaked(verdict, storm.core, now)
        fields["storm"] = storm.core.snapshot()
    if actor_faults:
        verdict = _fold_faults(verdict, RUNTIME_ERROR, list(actor_faults), now)
    return FaultRunResult(
        plan=plan, substrate=substrate, verdict=verdict, windows=windows, **fields
    )


# ----------------------------------------------------------------------
# Kernel interpretation
# ----------------------------------------------------------------------
def build_table(
    plan: FaultPlan,
    *,
    judge: bool = True,
    diner_factory=None,
    detector=None,
    windows: Optional[JudgeWindows] = None,
) -> DiningTable:
    """The DiningTable a plan describes (exposed for tests).

    ``diner_factory`` substitutes the scheduler under test (the bake-off
    runs the classical baselines through unmodified plans this way; it
    overrides any plan mutant).  ``detector`` substitutes the detector
    factory — crash-oblivious baselines pass ``NullDetector`` so the
    plan's flap script has nothing to script.  ``windows`` pins explicit
    judgement windows instead of :meth:`JudgeWindows.for_plan`'s
    derivation (short bake-off horizons need windows that fit inside
    them).
    """
    graph, windows, diner_factory, crash_times, membership = _prologue(
        plan, judge, windows, diner_factory
    )
    config = CheckConfig(
        settle=windows.settle if windows else None,
        patience=windows.patience if windows else None,
        overtaking_after=windows.after if windows else None,
        quiescence_grace=windows.grace if windows and plan.crashes else None,
    )
    flaps = plan.flaps
    if detector is None:
        detector = scripted_detector(
            convergence_time=flaps.convergence,
            detection_delay=flaps.detection_delay,
            random_mistakes=flaps.mistakes_per_edge > 0,
            mistakes_per_edge=flaps.mistakes_per_edge,
            mean_mistake_duration=flaps.mean_mistake_duration,
        )
    return DiningTable(
        graph,
        seed=plan.seed,
        latency=plan.latency.build(),
        workload=plan.workload.build(),
        crash_plan=CrashPlan.scripted(crash_times),
        detector=detector,
        diner_factory=diner_factory,
        strict_checks=False,
        check_config=config,
        membership=membership,
    )


def run_plan_kernel(
    plan: FaultPlan,
    *,
    judge: bool = True,
    stop_on_violation: bool = True,
    diner_factory=None,
    detector=None,
    windows: Optional[JudgeWindows] = None,
    monitors=(),
    artifacts: bool = True,
) -> FaultRunResult:
    """Interpret ``plan`` on the discrete-event kernel.

    ``judge=False`` leaves every eventual property informational (the
    differential tests use this: statuses then depend only on what the
    stream *proves*, not on window tuning).  ``stop_on_violation``
    short-circuits the run at the first chunk whose suite holds a
    violation — mutation campaigns spend no budget past the kill.
    ``diner_factory``/``detector``/``windows`` substitute the scheduler,
    detector factory, and judgement windows (see :func:`build_table`) —
    this is how the bake-off replays one plan across the whole zoo.
    ``monitors`` are extra :class:`~repro.sim.network.NetworkMonitor`
    instances attached before the run (the bake-off's per-algorithm
    message-bit instrument rides here).  ``artifacts=False`` is the
    campaign walk's mode: no wire log is built and the result carries no
    trace reference (the recorder itself still runs — the checks listen
    to it), so a passing run costs nothing it is about to throw away and
    the result pickles in ≈2 KB.  The verdict is the same either way.
    """
    windows = _resolve_windows(plan, judge, windows)
    table = build_table(
        plan,
        judge=judge,
        diner_factory=diner_factory,
        detector=detector,
        windows=windows,
    )
    wire = _WireLogMonitor(table.network)
    if artifacts:
        table.network.add_monitor(wire)
    for monitor in monitors:
        table.network.add_monitor(monitor)
    for spec in plan.crashes:
        if spec.when is not None:
            _CrashTrigger(table, spec).arm()
    storm = None
    if plan.storm.active:
        storm = _Storm(table, plan)
        storm.arm()

    stopped_early = False
    error: Optional[BaseException] = None
    for chunk in range(1, RUN_CHUNKS + 1):
        try:
            table.run(until=plan.horizon * chunk / RUN_CHUNKS)
        except (InvariantViolation, SimulationError) as exc:
            error = exc
            break
        if stop_on_violation and table.checks.violations:
            stopped_early = chunk < RUN_CHUNKS
            break

    return _epilogue(
        plan,
        "kernel",
        table.verdict(),
        windows,
        table.sim.now,
        storm=storm,
        error=error,
        crash_times={r.pid: r.time for r in table.trace.crashes()},
        meals=table.eat_counts(),
        events=table.sim.processed_events,
        stopped_early=stopped_early or error is not None,
        trace=table.trace if artifacts else None,
        wire=[wire_to_dict(event) for event in wire.events],
    )


# ----------------------------------------------------------------------
# Live interpretation
# ----------------------------------------------------------------------
def run_plan_live(
    plan: FaultPlan,
    *,
    time_scale: float = 0.02,
    judge: bool = True,
    diner_factory=None,
    detector=None,
    windows: Optional[JudgeWindows] = None,
) -> FaultRunResult:
    """Interpret ``plan`` on a loopback :class:`~repro.net.host.AsyncHost`.

    ``time_scale`` maps plan (virtual) seconds to wall seconds — the
    default squeezes a 120-unit horizon into ~2.4 s of wall clock.  The
    plan's latency adversary is replayed through the host's
    ``inject_latency`` hook (same model, same seed-derived streams,
    delays scaled); crashes use their scripted times, triggers their
    deadlines (state triggers are kernel-only).  ◇P₁ is the host's real
    heartbeat detector, so the plan's flap script does not apply — the
    pre-convergence adversary on this substrate is genuine wall-clock
    jitter.  With ``judge=True`` the settle/patience/overtaking windows
    are bound (scaled) at finalize; quiescence stays informational (its
    grace is consumed online, before windows could be rebound).  A
    client storm shares the host's loop: bursts, releases and hunger
    nudges run inside ``host.guarded``, so checker and violation capture
    see them.
    """
    import asyncio

    from repro.graphs.membership import MembershipLog
    from repro.net.host import AsyncHost, HostConfig, run_host
    from repro.sim.rng import RandomStreams

    if time_scale <= 0:
        raise ConfigurationError(f"time_scale must be positive, got {time_scale!r}")
    graph, windows, diner_factory, crash_times, membership = _prologue(
        plan, judge, windows, diner_factory
    )

    # Membership deltas ride the host's wall clock, so their plan times
    # scale exactly like crash times do.
    if membership is not None:
        membership = MembershipLog(
            replace(delta, time=delta.time * time_scale) for delta in membership
        )

    model = plan.latency.build()
    streams = RandomStreams(plan.seed).spawn("fuzz-live-latency")

    def inject(src: int, dst: int, message, now: float) -> float:
        virtual_now = now / time_scale
        return model.sample(src, dst, virtual_now, streams) * time_scale

    host = AsyncHost(
        graph,
        config=HostConfig(
            duration=plan.horizon * time_scale,
            seed=plan.seed,
        ),
        crash_times={pid: t * time_scale for pid, t in crash_times.items()},
        workload=plan.workload.build(time_scale=time_scale),
        inject_latency=inject,
        diner_factory=diner_factory,
        detector=detector,
        membership=membership,
        run="fuzz",
    )
    storm = None
    if plan.storm.active:
        # The storm shares the host's loop: it arms from inside it.
        storm = _Storm(host, plan, time_scale=time_scale)

        async def main() -> None:
            storm.arm()
            await host.run()

        asyncio.run(main())
    else:
        run_host(host)

    if windows is not None:
        host.checks.bind_windows(
            windows.settle * time_scale,
            windows.patience * time_scale,
            windows.after * time_scale,
        )
    # ``host.violations`` mixes checker-forwarded witnesses (already in
    # the verdict, possibly as informational counters) with actor faults
    # the host captured outside the checkers (a mutant raising
    # mid-step).  Only the latter must fail the run.
    checker_details = {f"{v.prop}: {v.detail}" for v in host.checks.violations}
    return _epilogue(
        plan,
        "live",
        host.verdict(),
        windows,
        host.now,
        storm=storm,
        actor_faults=tuple(d for d in host.violations if d not in checker_details),
        crash_times={r.pid: r.time / time_scale for r in host.trace.crashes()},
        meals={pid: d.meals_eaten for pid, d in host.diners.items()},
        events=host.checks.events_observed,
        trace=host.trace,
        wire=[wire_to_dict(event) for event in host.wire_events],
    )


def run_plan(plan: FaultPlan, *, substrate: str = "kernel", **kwargs) -> FaultRunResult:
    """Dispatch a plan to its substrate interpreter."""
    if substrate == "kernel":
        return run_plan_kernel(plan, **kwargs)
    if substrate == "live":
        return run_plan_live(plan, **kwargs)
    raise ConfigurationError(f"unknown substrate {substrate!r}")
