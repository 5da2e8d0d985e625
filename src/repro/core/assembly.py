"""One table assembly, shared by every substrate that hosts diners.

A dining run is put together the same way whether virtual time drives it
(:class:`~repro.core.table.DiningTable`) or an asyncio loop does
(:class:`~repro.net.host.AsyncHost`); this module states that once.
:class:`Wiring` is what both derive from ``(graph, membership, coloring,
diner_factory)``; :func:`apply_delta` interprets the five membership
verbs on a *seat* — the table or host itself, which supplies only what
differs between substrates:

* ``hosts(pid)`` — whether this seat runs ``pid``'s actor (a kernel table
  hosts everyone, a cluster host its placement's share);
* ``spawn(pid, neighbors, replace)`` — build, register, and start a fresh
  incarnation (``replace`` fences every channel of the dead one);
* ``retire(pid)`` — stop ``pid`` the way a crash does;
* ``fence_edge(a, b)`` — drop what is in flight on both directions;
* ``now`` — the seat's clock;
* ``at(instant, fn, label)`` — run ``fn`` at ``instant`` on that clock;

next to what both already carry (``wiring``, ``diners``, ``detector``,
``workload``, ``trace``, ``checks``).  :func:`schedule` puts a run's
crashes and deltas on the seat's clock through ``at``.  The diners know
nothing of what drives them, and neither does this module.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Mapping, Optional

from repro.checks.properties import PENDING_PING, QUIESCENCE
from repro.checks.suite import CheckConfig, CheckSuite, standard_suite
from repro.core.diner import DinerActor
from repro.graphs.coloring import Coloring, greedy_coloring, validate_coloring
from repro.graphs.conflict import ConflictGraph, ProcessId
from repro.graphs.membership import MembershipDelta, MembershipLog, TopologyTimeline


class Wiring:
    """Everything graph-shaped about one run, derived in one place."""

    def __init__(
        self,
        graph: ConflictGraph,
        membership: Optional[MembershipLog] = None,
        coloring: Optional[Coloring] = None,
        diner_factory: Optional[Callable[..., DinerActor]] = None,
    ) -> None:
        self.graph = graph
        # Dynamic membership: a non-empty log makes the topology epoched.
        # Everything graph-shaped (coloring, detector scopes, the checked
        # edge set) is then derived from the *union* graph — every node
        # and edge that ever exists — so joiners find their color and
        # detector module waiting, while each diner's live link set is
        # narrowed to its current view.  With no log the union IS the
        # initial graph object and the static wiring is untouched.
        self.membership = membership if membership is not None else MembershipLog()
        self.dynamic = bool(self.membership)
        self.timeline = TopologyTimeline(graph, self.membership) if self.dynamic else None
        self.union = self.timeline.union() if self.dynamic else graph
        self.coloring = coloring if coloring is not None else greedy_coloring(self.union)
        validate_coloring(self.union, self.coloring)
        # Dynamic runs judge wait-freedom on the final topology's
        # residents: a process that left for good owes no meals.
        self.residents = self.timeline.final().graph.nodes if self.dynamic else graph.nodes
        self.make_diner = diner_factory if diner_factory is not None else DinerActor
        self.epoch = 0  # index of the timeline snapshot in force

    def build_diner(self, seat, pid: ProcessId, neighbors=None, **extra) -> DinerActor:
        """The one diner constructor call (not registered, not started)."""
        args = (self.coloring, seat.detector, seat.workload, seat.trace)
        if not self.dynamic:
            return self.make_diner(pid, self.graph, *args, **extra)
        if neighbors is None:  # an initial resident: its epoch-0 view
            neighbors = self.graph.neighbors(pid)
        return self.make_diner(pid, self.union, *args, neighbors=neighbors, **extra)

    def build_suite(self, edges, config: CheckConfig, diners, on_violation) -> CheckSuite:
        """The standard suite over ``edges``, static or epoched."""
        # Proof-level local invariants (ack/replied scoping, the phase
        # nesting, Lemma 2.2) only make sense for diners built on
        # Algorithm 1's variable set; a seat whose diners all join later
        # is judged by its factory.
        if diners:
            diner_locals = all(isinstance(d, DinerActor) for d in diners.values())
        else:
            diner_locals = isinstance(self.make_diner, type) and issubclass(
                self.make_diner, DinerActor
            )
        return standard_suite(
            edges,
            config,
            diner_locals=diner_locals,
            on_violation=on_violation,
            membership=self.timeline,
        )


def _live(seat, pid: ProcessId):
    """``pid``'s actor if this seat runs it and it has not crashed."""
    diner = seat.diners.get(pid)
    return diner if diner is not None and not diner.crashed else None


def _forgive(seat, verb: str, pid: ProcessId, edges: tuple = ()) -> None:
    """Tell the online checkers a delta rebuilt links hygienically.

    Checker state keyed to a dead incarnation must not leak into the new
    life: Lemma 2.2's outstanding pings on the rebuilt links are retired
    (the old incarnation's unanswered ping would make a survivor's first
    post-reset ping look like a duplicate), and on rejoin the quiescence
    ledger forgets the old crash instant — sends to the rejoined pid are
    ordinary traffic again.
    """
    if seat.checks is None:
        return
    by_name = {checker.name: checker for checker in seat.checks.checkers}
    if PENDING_PING in by_name:
        by_name[PENDING_PING].retire_stale(verb, pid, edges)
    if verb == "rejoin" and QUIESCENCE in by_name:
        by_name[QUIESCENCE].note_rebirth(pid, seat.now)


def apply_delta(seat, delta: MembershipDelta) -> None:
    """Execute one membership delta on ``seat`` at the current instant.

    The epoch counter advances first, so the trace record and every
    epoch-stamped witness agree with the timeline's snapshot index.
    Neighbor notification order is the view's sorted neighbor tuple:
    deterministic, like every other same-instant ordering here.
    """
    wiring = seat.wiring
    epoch = wiring.epoch = wiring.epoch + 1
    snapshots = wiring.timeline.snapshots()
    view = snapshots[epoch].graph
    previous = snapshots[epoch - 1].graph
    verb, pid, peer_pid = delta.verb, delta.pid, delta.peer
    record_edges: tuple = ()
    if verb == "join":
        record_edges = delta.edges
        neighbors = view.neighbors(pid)
        # Peers first: when the newcomer's on_start pings, the peers
        # already carry a hygienic link to answer on.
        for other in neighbors:
            peer = _live(seat, other)
            if peer is not None:
                peer.add_neighbor(pid)
        if seat.hosts(pid):
            seat.spawn(pid, neighbors, replace=False)
    elif verb == "leave":
        # The same path as a crash: the seat emits the Crash trace record
        # and drops the leaver's deliveries, and survivors substitute the
        # leaver in their Action 5/9 guards exactly as ◇P₁ suspicion
        # would — its forks are reclaimed without waiting on a detector
        # that was never scripted to fire.
        if seat.hosts(pid):
            seat.retire(pid)
        for other in previous.neighbors(pid):
            peer = _live(seat, other)
            if peer is not None:
                peer.neighbor_left(pid)
    elif verb == "rejoin":
        # Membership act, not detector output: silently wipe the old
        # incarnation's module (suspicions and dead listeners) before
        # the fresh actor re-subscribes in its on_start.
        seat.detector.module_for(pid).reset()
        neighbors = view.neighbors(pid)
        for other in neighbors:
            peer = _live(seat, other)
            if peer is None:
                continue
            if pid in peer.links:
                peer.neighbor_rejoined(pid)
            else:
                peer.add_neighbor(pid)
        _forgive(seat, verb, pid)
        if seat.hosts(pid):
            seat.spawn(pid, neighbors, replace=True)
    elif verb == "add_edge":
        record_edges = (peer_pid,)
        if pid in view and peer_pid in view.neighbors(pid):
            # Traffic from the edge's earlier existence must not deliver
            # into the rebuilt link state; fence before the endpoints'
            # (deferred) re-evaluations can send.
            seat.fence_edge(pid, peer_pid)
            _forgive(seat, verb, pid, record_edges)
            for end, other in ((pid, peer_pid), (peer_pid, pid)):
                diner = _live(seat, end)
                if diner is not None:
                    diner.add_neighbor(other)
    elif verb == "remove_edge":
        record_edges = (peer_pid,)
        if pid in previous and peer_pid in previous.neighbors(pid):
            for end, other in ((pid, peer_pid), (peer_pid, pid)):
                diner = _live(seat, end)
                if diner is not None:
                    diner.remove_neighbor(other)
    seat.trace.membership_change(seat.now, epoch, verb, pid, record_edges)


def schedule(seat, crash_times: Mapping[ProcessId, float]) -> None:
    """Put a run's crashes and membership deltas on ``seat``'s clock.

    The one place a run's adversary schedule meets its substrate: each
    crash retires its pid at its instant (pids in order), each delta is
    interpreted by :func:`apply_delta` at its time.
    """
    for pid, instant in sorted(crash_times.items()):
        seat.at(instant, lambda pid=pid: seat.retire(pid), f"crash {pid}")
    # Each timer pops the *next* delta rather than binding its own, so
    # same-instant deltas apply in log order even where the substrate's
    # timer heap breaks the tie differently, and the epoch counter walks
    # the timeline's snapshots in lock-step.
    pending = deque(seat.wiring.membership)
    for delta in seat.wiring.membership:
        seat.at(delta.time, lambda: apply_delta(seat, pending.popleft()), "membership")
