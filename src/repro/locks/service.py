"""The lease service: Algorithm 1 as a client-facing lock manager.

Three pieces, layered so the scheduling brain never touches a socket:

* :class:`LockCore` — transport-agnostic.  Maps resource names onto
  conflict-graph pids, queues client sessions per resource, and converts
  the unchanged diner lifecycle into leases: a diner entering *eating*
  grants the head waiter; the eat duration **is** the lease TTL (via
  :class:`LeaseWorkload`), so the TTL lapsing is exactly Action 10
  firing and an early release is Action 10 run ahead of its timer
  (:meth:`~repro.core.diner.DinerActor.finish_eating_early`).  A client
  that vanishes mid-lease simply never releases: the TTL reclaims the
  resource and the next contender is granted onward — crash tolerance
  for free, judged by the same ``checks.standard_suite`` as every dining
  run.
* :class:`LeaseWorkload` — the workload that makes diners serve demand:
  ``think_duration`` is ``None`` (a diner stays thinking until a session
  queues — Action 1 stays external, the service just drives it) and
  ``eat_duration`` returns the just-granted lease's TTL.
* :class:`LockService` — the live-host adapter: binds client sessions to
  connections, frames replies over the LEB128 wire, and stamps every
  grant with the serving diner's **eating-span** trace context, which is
  how a load generator proves each grant is backed by a dining critical
  section.

Concurrency model: :class:`LockCore` is single-threaded and re-entrant
only through the diner's trace listeners.  Anything that needs to *drive*
a diner (wake a thinking diner, exit an eating one) goes through the two
injected callables — ``defer(fn)`` schedules ``fn`` on the substrate's
event loop soon, ``step(fn)`` runs ``fn`` now inside the substrate's
guarded context — so the same core serves the asyncio host and the
deterministic kernel (fuzz ``client_storm`` drives it directly).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional

from repro.core.workload import Workload
from repro.locks.messages import (
    SESSION_BASE,
    LeaseDenied,
    LeaseGrant,
    LeaseRelease,
    LeaseRequest,
)

__all__ = [
    "Lease",
    "LeaseWorkload",
    "LockCore",
    "LockService",
    "default_resources",
]

#: Deny reasons (machine-readable words carried by :class:`LeaseDenied`).
DENY_BUSY = "busy"
DENY_UNKNOWN = "unknown-resource"
DENY_NOT_LOCAL = "not-local"
DENY_CRASHED = "crashed"
DENY_SHUTDOWN = "shutdown"
DENY_BAD_TTL = "bad-ttl"
DENY_BAD_SESSION = "bad-session"
DENY_SESSION_BUSY = "session-busy"
DENY_NO_SERVICE = "no-service"


def default_resources(graph, placement=None, host_index=None) -> Dict[str, int]:
    """The canonical resource table: one resource ``r<pid>`` per node.

    With ``placement``/``host_index``, restricted to the pids that host
    serves (a lease request must land on the process running the diner).
    """
    pids = list(graph.nodes)
    if placement is not None and host_index is not None:
        pids = [pid for pid in pids if placement[pid] == host_index]
    return {f"r{pid}": pid for pid in pids}


class LeaseWorkload(Workload):
    """Demand-driven dining: think forever, eat for the granted TTL.

    ``think_duration`` returning ``None`` means a diner never self
    -hungers; the service calls
    :meth:`~repro.core.diner.DinerActor.become_hungry_now` when a session
    queues.  ``eat_duration`` is sampled by Action 9 *after* the
    phase-change listener has granted the head waiter, so the active
    lease's TTL is already installed when the diner asks how long to eat.
    ``idle_eat_time`` covers the race where every queued session
    abandoned between wake and grant (the meal runs, briefly, unleased).
    """

    def __init__(self, *, idle_eat_time: float = 0.005) -> None:
        if idle_eat_time <= 0:
            raise ValueError(f"idle_eat_time must be positive, got {idle_eat_time}")
        self.idle_eat_time = float(idle_eat_time)
        self._core: Optional["LockCore"] = None

    def bind(self, core: "LockCore") -> None:
        self._core = core

    def think_duration(self, pid, streams):
        return None

    def eat_duration(self, pid, streams):
        core = self._core
        if core is not None:
            ttl = core.active_ttl(pid)
            if ttl is not None:
                return ttl
        return self.idle_eat_time


class _PendingRequest:
    """One queued acquire: who asked, for what, and how to answer."""

    __slots__ = ("session", "resource", "ttl_ms", "reply", "enqueued_at")

    def __init__(self, session, resource, ttl_ms, reply, enqueued_at):
        self.session = session
        self.resource = resource
        self.ttl_ms = ttl_ms
        self.reply = reply
        self.enqueued_at = enqueued_at


@dataclass(slots=True)
class Lease:
    """One granted lease; lives exactly as long as its diner's meal."""

    lease_id: int
    session: int
    resource: str
    pid: int
    ttl_ms: int
    granted_at: float
    released: bool = False


class LockCore:
    """Transport-agnostic lease brain over a set of local diners.

    Parameters
    ----------
    resources:
        ``name -> pid`` for the resources this process serves; every pid
        must be a key of ``diners``.
    diners:
        The local :class:`~repro.core.diner.DinerActor` map.
    clock:
        Zero-argument current-time callable (host ``now`` / sim clock).
    defer:
        Schedules a callable to run soon on the substrate's event loop,
        inside its guarded/checked context.  Used for hunger nudges,
        which must never run inside another action of the same diner.
    step:
        Runs a callable immediately inside the guarded context (early
        releases want the diner to exit *now*, not a tick later).
        Defaults to direct invocation.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; when given,
        grant/deny/expiry counters, wait/hold histograms, and live
        active/waiting gauges ride the ``/metrics`` scrape.
    """

    def __init__(
        self,
        resources: Mapping[str, int],
        diners: Mapping[int, object],
        *,
        clock: Callable[[], float],
        defer: Callable[[Callable[[], None]], None],
        step: Optional[Callable[[Callable[[], None]], None]] = None,
        registry=None,
        max_waiters: int = 512,
        max_ttl_ms: int = 60_000,
    ) -> None:
        for name, pid in resources.items():
            if pid not in diners:
                raise ValueError(f"resource {name!r} maps to non-local diner {pid}")
        self.resources: Dict[str, int] = dict(resources)
        self._diners = diners
        self._clock = clock
        self._defer = defer
        self._step = step if step is not None else (lambda fn: fn())
        self.max_waiters = int(max_waiters)
        self.max_ttl_ms = int(max_ttl_ms)

        self._queues: Dict[int, deque] = {}
        self._active: Dict[int, Lease] = {}
        self._active_by_pid: Dict[int, Lease] = {}
        #: session -> _PendingRequest (queued) or Lease (granted).
        self._session_state: Dict[int, object] = {}
        #: sessions that abandoned while queued; skipped at grant time.
        self._gone: set = set()
        self._wake_pending: set = set()
        self._next_lease_id = 1
        self._shut_down = False

        self.counters: Dict[str, int] = {
            "requests": 0,
            "grants": 0,
            "releases": 0,
            "expiries": 0,
            "stale_releases": 0,
            "abandons": 0,
            "abandoned_waiting": 0,
            "crash_reclaims": 0,
            "idle_meals": 0,
            "reply_drops": 0,
        }
        self.denies: Dict[str, int] = {}

        self._registry = registry
        if registry is not None:
            self._c_grants = registry.counter("locks.grants_total")
            self._c_requests = registry.counter("locks.requests_total")
            self._c_releases = registry.counter("locks.releases_total")
            self._c_expiries = registry.counter("locks.expiries_total")
            self._h_wait = registry.histogram("locks.wait_seconds")
            self._h_hold = registry.histogram("locks.hold_seconds")
            self._g_active = registry.gauge("locks.active_leases")
            self._g_waiting = registry.gauge("locks.waiting_sessions")
        self._waiting_total = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @classmethod
    def on_seat(cls, seat, resources: Mapping[str, int], **kwargs) -> "LockCore":
        """A core riding a table's or host's diners (see
        :mod:`repro.core.assembly`): the seat's clock, hunger nudges
        through its ``at``, the diner lifecycle from its trace, and a
        :class:`LeaseWorkload` bound to the core."""
        core = cls(
            resources,
            seat.diners,
            clock=lambda: seat.now,
            defer=lambda fn: seat.at(seat.now, fn, "locks-defer"),
            **kwargs,
        )
        core.attach(seat.trace)
        if isinstance(seat.workload, LeaseWorkload):
            seat.workload.bind(core)
        return core

    def attach(self, trace) -> None:
        """Subscribe to the diners' lifecycle on ``trace`` (a recorder)."""
        from repro.trace.events import Crash, PhaseChange

        trace.add_listener(self._on_phase, types=(PhaseChange,))
        trace.add_listener(self._on_crash, types=(Crash,))

    # ------------------------------------------------------------------
    # Client-facing operations
    # ------------------------------------------------------------------
    def request(self, session: int, resource: str, ttl_ms: int, reply) -> None:
        """Queue an acquire; replies (possibly synchronously) via ``reply``."""
        self.counters["requests"] += 1
        if self._registry is not None:
            self._c_requests.inc()
        if self._shut_down:
            return self._deny(reply, 0, DENY_SHUTDOWN)
        if session < SESSION_BASE:
            return self._deny(reply, 0, DENY_BAD_SESSION)
        if session in self._session_state:
            return self._deny(reply, 0, DENY_SESSION_BUSY)
        pid = self.resources.get(resource)
        if pid is None:
            return self._deny(reply, 0, DENY_UNKNOWN)
        if ttl_ms < 1 or ttl_ms > self.max_ttl_ms:
            return self._deny(reply, pid, DENY_BAD_TTL)
        diner = self._diners[pid]
        if diner.crashed:
            return self._deny(reply, pid, DENY_CRASHED)
        queue = self._queues.get(pid)
        if queue is None:
            queue = self._queues[pid] = deque()
        if len(queue) >= self.max_waiters:
            return self._deny(reply, pid, DENY_BUSY)
        pending = _PendingRequest(session, resource, ttl_ms, reply, self._clock())
        queue.append(pending)
        self._session_state[session] = pending
        self._waiting_changed(1)
        self._gone.discard(session)
        if diner.is_thinking:
            self._wake(pid)

    def release(self, session: int, lease_id: int) -> bool:
        """Return a lease early; the diner exits eating immediately."""
        lease = self._session_state.get(session)
        if not isinstance(lease, Lease) or lease.lease_id != lease_id:
            self.counters["stale_releases"] += 1
            return False
        lease.released = True
        self.counters["releases"] += 1
        if self._registry is not None:
            self._c_releases.inc()
            self._h_hold.observe(max(0.0, self._clock() - lease.granted_at))
        diner = self._diners[lease.pid]
        # Action 10 ahead of its timer; the eating->thinking phase change
        # re-enters _on_finish, which unlinks the lease and wakes the
        # next waiter.
        self._step(diner.finish_eating_early)
        return True

    def abandon(self, session: int) -> None:
        """The client vanished (connection lost / fuzz storm abandon).

        A queued session is skipped when it reaches the head; a granted
        lease is left to its TTL — exactly the crashed-client story.
        """
        state = self._session_state.get(session)
        if state is None:
            return
        self.counters["abandons"] += 1
        if isinstance(state, Lease):
            return  # the TTL (the diner's eat timer) reclaims it
        del self._session_state[session]
        self._gone.add(session)

    def shutdown(self) -> None:
        """Deny every queued waiter; new requests are refused."""
        self._shut_down = True
        for pid, queue in self._queues.items():
            while queue:
                pending = queue.popleft()
                if pending.session in self._gone:
                    self._gone.discard(pending.session)
                    continue
                self._session_state.pop(pending.session, None)
                self._waiting_changed(-1)
                self._deny(pending.reply, pid, DENY_SHUTDOWN, counted_request=False)

    # ------------------------------------------------------------------
    # Diner lifecycle (trace listeners)
    # ------------------------------------------------------------------
    def _on_phase(self, record) -> None:
        if record.new_phase == "eating":
            self._on_eating(record.pid, record.time)
        elif record.old_phase == "eating":
            self._on_finish(record.pid, record.time)

    def _on_eating(self, pid: int, time: float) -> None:
        """Grant the head waiter the instant its diner starts eating.

        Runs inside ``DinerActor._try_eat`` *before* the eat duration is
        sampled, so installing the lease here is what makes
        :meth:`LeaseWorkload.eat_duration` return its TTL.
        """
        queue = self._queues.get(pid)
        pending = None
        while queue:
            head = queue.popleft()
            if head.session in self._gone:
                self._gone.discard(head.session)
                self.counters["abandoned_waiting"] += 1
                continue
            pending = head
            break
        if pending is None:
            self.counters["idle_meals"] += 1
            return
        lease = Lease(
            lease_id=self._next_lease_id,
            session=pending.session,
            resource=pending.resource,
            pid=pid,
            ttl_ms=pending.ttl_ms,
            granted_at=time,
        )
        self._next_lease_id += 1
        self._active[lease.lease_id] = lease
        self._active_by_pid[pid] = lease
        self._session_state[pending.session] = lease
        self.counters["grants"] += 1
        self._waiting_changed(-1)
        if self._registry is not None:
            self._c_grants.inc()
            self._h_wait.observe(max(0.0, time - pending.enqueued_at))
            self._g_active.set(len(self._active))
        pending.reply(LeaseGrant(pid, lease.lease_id, lease.ttl_ms))

    def _on_finish(self, pid: int, time: float) -> None:
        """The meal ended (TTL lapsed, early release, or crash exit)."""
        lease = self._active_by_pid.pop(pid, None)
        if lease is not None:
            self._active.pop(lease.lease_id, None)
            if self._session_state.get(lease.session) is lease:
                del self._session_state[lease.session]
            self._gone.discard(lease.session)
            if not lease.released:
                self.counters["expiries"] += 1
                if self._registry is not None:
                    self._c_expiries.inc()
                    self._h_hold.observe(max(0.0, time - lease.granted_at))
            if self._registry is not None:
                self._g_active.set(len(self._active))
        if self._queues.get(pid) and not self._shut_down:
            self._wake(pid)

    def _on_crash(self, record) -> None:
        """The serving diner died: reclaim its lease, flush its queue."""
        pid = record.pid
        lease = self._active_by_pid.pop(pid, None)
        if lease is not None:
            self._active.pop(lease.lease_id, None)
            if self._session_state.get(lease.session) is lease:
                del self._session_state[lease.session]
            self.counters["crash_reclaims"] += 1
            if self._registry is not None:
                self._g_active.set(len(self._active))
        queue = self._queues.pop(pid, None)
        while queue:
            pending = queue.popleft()
            if pending.session in self._gone:
                self._gone.discard(pending.session)
                continue
            self._session_state.pop(pending.session, None)
            self._waiting_changed(-1)
            self._deny(pending.reply, pid, DENY_CRASHED, counted_request=False)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _wake(self, pid: int) -> None:
        """Nudge Action 1 soon (deduplicated per diner)."""
        if pid in self._wake_pending:
            return
        self._wake_pending.add(pid)

        def fire() -> None:
            self._wake_pending.discard(pid)
            diner = self._diners[pid]
            if diner.crashed or not self._queues.get(pid):
                return
            diner.become_hungry_now()

        self._defer(fire)

    def _deny(self, reply, pid: int, reason: str, *, counted_request: bool = True) -> None:
        self.denies[reason] = self.denies.get(reason, 0) + 1
        if self._registry is not None:
            self._registry.counter("locks.denies_total", reason=reason).inc()
        reply(LeaseDenied(pid, reason))

    def _waiting_changed(self, delta: int) -> None:
        self._waiting_total += delta
        if self._registry is not None:
            self._g_waiting.set(self._waiting_total)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def active_ttl(self, pid: int) -> Optional[float]:
        """The active lease's TTL in seconds (what the meal should last)."""
        lease = self._active_by_pid.get(pid)
        if lease is None:
            return None
        return lease.ttl_ms / 1000.0

    def leaked_leases(self) -> List[Lease]:
        """Leases whose diner is neither eating nor crashed — must be [].

        An active lease is *backed* by its diner's eating session; once
        the diner exits, :meth:`_on_finish` unlinks it.  Anything left
        over means a grant escaped Algorithm 1's critical section.
        """
        leaked = []
        for lease in self._active.values():
            diner = self._diners[lease.pid]
            if not diner.is_eating and not diner.crashed:
                leaked.append(lease)
        return leaked

    def snapshot(self) -> Dict[str, object]:
        """JSON-faithful service state for ``result.json`` and tests."""
        return {
            "resources": dict(self.resources),
            "counters": dict(self.counters),
            "denies": dict(self.denies),
            "active_leases": len(self._active),
            "waiting_sessions": self._waiting_total,
            "leaked_leases": len(self.leaked_leases()),
        }


class LockService:
    """Live-host adapter: client connections in, framed lease replies out.

    Installed on an :class:`~repro.net.host.AsyncHost` via
    :meth:`install`; the host's read loop routes every ``layer="locks"``
    frame here (lease traffic never enters the dining checkers or the
    wire log — it rides client connections, not conflict-graph channels)
    and reports closed connections so abandoned sessions are reclaimed.
    """

    def __init__(self, host, core: LockCore) -> None:
        self.host = host
        self.core = core
        #: session -> (writer, next reply seq); bound at first frame.
        self._sessions: Dict[int, list] = {}
        #: id(writer) -> set of bound sessions (for connection teardown).
        self._by_writer: Dict[int, set] = {}

    # ------------------------------------------------------------------
    @classmethod
    def install(
        cls,
        host,
        *,
        resources: Optional[Mapping[str, int]] = None,
        max_waiters: int = 512,
        max_ttl_ms: int = 60_000,
    ) -> "LockService":
        """Create a core bound to ``host`` and hook it into the host."""
        if resources is None:
            resources = default_resources(
                host.graph, host.placement, host.host_index
            )

        def step(fn: Callable[[], None]) -> None:
            host.guarded(fn, "locks-step")()

        core = LockCore.on_seat(
            host,
            resources,
            step=step,
            registry=host.registry,
            max_waiters=max_waiters,
            max_ttl_ms=max_ttl_ms,
        )
        service = cls(host, core)
        host.lock_service = service
        return service

    # ------------------------------------------------------------------
    # Host integration
    # ------------------------------------------------------------------
    def on_frame(self, src: int, message, writer) -> None:
        """One lease frame from a client connection."""
        cls = type(message)
        if cls is LeaseRequest:
            self._bind(src, writer)
            self.core.request(
                src, message.resource, message.ttl_ms,
                lambda msg, _s=src: self._reply(_s, msg),
            )
        elif cls is LeaseRelease:
            self.core.release(src, message.lease_id)
        else:
            # Grant/denied are service->client only; a client sending one
            # is a protocol error worth refusing loudly but not fatally.
            self._bind(src, writer)
            self._reply(src, LeaseDenied(0, DENY_BAD_SESSION))

    def on_connection_lost(self, writer) -> None:
        """EOF/reset on a client connection: abandon its sessions."""
        sessions = self._by_writer.pop(id(writer), None)
        if not sessions:
            return
        for session in sessions:
            self._sessions.pop(session, None)
            self.core.abandon(session)

    def shutdown(self) -> None:
        self.core.shutdown()

    # ------------------------------------------------------------------
    def _bind(self, session: int, writer) -> None:
        if writer is None or session in self._sessions:
            return
        self._sessions[session] = [writer, 0]
        self._by_writer.setdefault(id(writer), set()).add(session)

    def _reply(self, session: int, message) -> None:
        from repro.net.codec import encode_frame

        slot = self._sessions.get(session)
        if slot is None or slot[0].is_closing():
            self.core.counters["reply_drops"] += 1
            return
        writer, seq = slot
        slot[1] = seq = seq + 1
        context = None
        tracer = self.host.tracer
        if tracer is not None and type(message) is LeaseGrant:
            # The serving diner is eating *right now* (grants fire inside
            # Action 9), so this context names its open eating span —
            # the causal link client-request -> diner-phase -> grant.
            context = tracer.send(self.host.now, message.sender)
        writer.write(encode_frame(message.sender, session, seq, message, context))
