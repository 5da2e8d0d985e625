"""Algorithm 1: wait-free, eventually 2-bounded dining under ◇WX.

This is the paper's contribution, implemented action-for-action from the
pseudocode in Section 3.  Each :class:`DinerActor` is one philosopher; its
guarded commands are re-evaluated whenever local state can have changed
(message receipt, timer, detector output flip), which gives the weak
fairness the proofs assume.

Mapping from the pseudocode:

========  ==========================================================
Action 1  :meth:`_become_hungry` (driven by the workload)
Action 2  :meth:`_request_missing_acks`  — ping for each missing ack
Action 3  :meth:`_on_ping`  — grant, throttle (``replied``), or defer
Action 4  :meth:`_on_ack`   — record ack if still hungry and outside
Action 5  :meth:`_try_enter_doorway` — acks/suspicion for all neighbors
Action 6  :meth:`_request_missing_forks` — spend tokens on requests
Action 7  :meth:`_on_fork_request` — grant by doorway/priority, else defer
Action 8  :meth:`_on_fork`  — receive a fork
Action 9  :meth:`_try_eat`  — forks/suspicion for all neighbors
Action 10 :meth:`_exit`     — exit, release deferred forks and acks
========  ==========================================================

Two notes on fidelity:

* Action 5's guard is written in the paper as
  ``hungry ∧ ∀j (ack ∨ suspect)``; we additionally require ``¬inside``,
  which is implicit in the paper's phase structure (acks are only
  collected outside and are reset on entry, but a diner whose neighbors
  are *all* suspected would otherwise re-trigger the entry bookkeeping).
* Lemma 1.1 (a fork request only ever arrives at the current fork holder)
  is asserted at runtime in :meth:`_on_fork_request`; a violation raises
  :class:`~repro.errors.ForkDuplicationError` immediately rather than
  silently duplicating a fork.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.messages import Ack, Fork, ForkRequest, Ping
from repro.core.state import DinerState, NeighborLinks
from repro.core.substrate import Actor
from repro.core.workload import Workload
from repro.detectors.base import DetectorModule, FailureDetector
from repro.errors import ConfigurationError, ForkDuplicationError
from repro.graphs.coloring import Coloring
from repro.graphs.conflict import ConflictGraph, ProcessId
from repro.trace.recorder import TraceRecorder

EatCallback = Callable[["DinerActor"], None]


class DinerActor(Actor):
    """One philosopher of Algorithm 1.

    Parameters
    ----------
    pid, graph, coloring:
        The diner's identity, its conflict graph, and the static priority
        coloring (higher color wins fork conflicts).
    detector:
        The ◇P₁ family; this diner uses (and subscribes to) its own
        module.  A :class:`~repro.detectors.base.NullDetector` yields the
        purely asynchronous behaviour.
    workload:
        Supplies think and eat durations (Action 1 and the finite-eating
        assumption).
    trace:
        Run-wide event log.
    on_eat:
        Optional callback invoked at the start of every eating session —
        the hook the distributed daemon uses to run one step of a hosted
        protocol inside the critical section.
    """

    # ``__dict__`` stays unallocated until something outside the slots is
    # set: a subclass's own field, or a method patched in by a mutant.
    __slots__ = (
        "__dict__", "graph", "color", "coloring", "detector", "module", "workload",
        "trace", "on_eat", "on_dirty_link", "on_dirty_fork", "state", "inside", "links",
        "_departed", "_former", "_msg_ping", "_msg_ack", "_msg_fork",
        "_msg_fork_request", "_hunger_label", "_exit_label", "_detector_agent",
        "_exit_timer", "hungry_sessions_started", "meals_eaten",
    )

    def __init__(
        self,
        pid: ProcessId,
        graph: ConflictGraph,
        coloring: Coloring,
        detector: FailureDetector,
        workload: Workload,
        trace: TraceRecorder,
        *,
        on_eat: Optional[EatCallback] = None,
        neighbors: Optional[tuple] = None,
    ) -> None:
        super().__init__(pid)
        if pid not in graph:
            raise ConfigurationError(f"process {pid} is not in the conflict graph")
        self.graph = graph
        self.color = int(coloring[pid])
        self.coloring = coloring
        self.detector = detector
        self.module: DetectorModule = detector.module_for(pid)
        self.workload = workload
        self.trace = trace
        self.on_eat = on_eat
        # Push-style dirty sinks, installed by a check adapter (None =
        # no checks attached, the branch costs one load).  The diner
        # reports exactly the state it mutated — ``on_dirty_link`` with
        # the ``(pid, neighbor)`` whose ack/replied/deferred flags
        # changed, ``on_dirty_fork`` with the sorted edge whose fork or
        # token moved — so the adapter never has to reverse-engineer
        # dirt from message kinds on the wire.
        self.on_dirty_link: Optional[Callable] = None
        self.on_dirty_fork: Optional[Callable] = None

        self.state = DinerState.THINKING
        self.inside = False
        # ``neighbors`` overrides the graph's adjacency: dynamic runs
        # wire diners against the *current topology view* while the
        # ``graph`` they carry is the union over all epochs (so colors
        # and detector scopes cover every edge that will ever exist).
        # Static runs pass nothing and behave exactly as before.
        if neighbors is None:
            initial_neighbors = graph.neighbors(pid)
        else:
            initial_neighbors = tuple(sorted(int(n) for n in neighbors))
            for neighbor in initial_neighbors:
                if neighbor not in graph:
                    raise ConfigurationError(
                        f"diner {pid} wired to unknown neighbor {neighbor}"
                    )
        # Kept in ascending neighbor order (add_neighbor re-sorts), so the
        # guard scans of Actions 2/5/6/9 walk ``links.items()`` directly.
        self.links: Dict[ProcessId, NeighborLinks] = {
            neighbor: NeighborLinks.initial(self.color, int(coloring[neighbor]))
            for neighbor in initial_neighbors
        }
        # Dynamic-membership bookkeeping, both empty for a static run (a
        # shared ``()`` until a delta makes them sets): ``_departed`` holds
        # neighbors that left the system (their missing acks/forks are
        # substituted in Actions 5/9 exactly like suspicion — the ◇P₁
        # path — until they rejoin); ``_former`` holds pids whose conflict
        # edge to us was removed, so their stale in-flight traffic is
        # dropped instead of rejected.
        self._departed = self._former = ()
        # Messages carry only static fields (sender id, static color), so
        # each diner sends the *same* four frozen instances for its entire
        # life — interning them removes one allocation per send.
        self._msg_ping = Ping(pid)
        self._msg_ack = Ack(pid)
        self._msg_fork = Fork(pid)
        self._msg_fork_request = ForkRequest(pid, self.color)
        # Timer labels are as static as the messages; the fire wrappers
        # are bound methods instead of per-call closures (Actor.set_timer
        # builds a fresh closure every call — twice per meal here).
        self._hunger_label = f"hunger@{pid}"
        self._exit_label = f"exit@{pid}"

        self._detector_agent = detector.agent_for(pid)
        self._exit_timer = None
        self.hungry_sessions_started = 0
        self.meals_eaten = 0

    # ------------------------------------------------------------------
    # Introspection (used by invariant checkers and experiments)
    # ------------------------------------------------------------------
    @property
    def phase(self) -> str:
        return self.state.phase

    @property
    def is_thinking(self) -> bool:
        return self.state is DinerState.THINKING

    @property
    def is_hungry(self) -> bool:
        return self.state is DinerState.HUNGRY

    @property
    def is_eating(self) -> bool:
        return self.state is DinerState.EATING

    def holds_fork(self, neighbor: ProcessId) -> bool:
        link = self.links.get(neighbor)
        return link is not None and link.fork

    def holds_token(self, neighbor: ProcessId) -> bool:
        link = self.links.get(neighbor)
        return link is not None and link.token

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_start(self) -> None:
        self.module.subscribe(self._on_suspicion_change)
        if self._detector_agent is not None:
            self._detector_agent.start(self)
        self._schedule_next_hunger()

    def on_crash(self) -> None:
        self.trace.crash(self.now, self.pid)

    def _on_suspicion_change(self, neighbor: ProcessId, suspected: bool) -> None:
        self.trace.suspicion_change(self.now, self.pid, neighbor, suspected)
        # Suspicion feeds the guards of Actions 5 and 9.
        self.request_reevaluation()

    def _schedule_next_hunger(self) -> None:
        duration = self.workload.think_duration(self.pid, self.streams)
        if duration is None:
            return  # thinks forever (permitted by the dining spec)
        self.substrate.set_timer(duration, self._hunger_fire, label=self._hunger_label)

    def _hunger_fire(self) -> None:
        # Pre-built timer body (what Actor.set_timer would wrap on the fly).
        if self.crashed:
            return
        self._become_hungry()
        self.reevaluate()

    def _exit_fire(self) -> None:
        if self.crashed:
            return
        self._exit()
        self.reevaluate()

    # ------------------------------------------------------------------
    # External service hooks (hosted services, e.g. repro.locks)
    # ------------------------------------------------------------------
    def become_hungry_now(self) -> None:
        """Drive Action 1 on demand: a hosted service has work queued.

        Action 1 is external by specification ("a thinking process may
        become hungry at any time"), so a service nudging it preserves
        the algorithm exactly; the guard still applies and this is a
        no-op unless the diner is thinking.  Must be called from the
        substrate's event context (a timer/soon callback), never from
        inside another action of this diner.
        """
        if self.crashed:
            return
        self._become_hungry()
        self.reevaluate()

    def finish_eating_early(self) -> bool:
        """Run Action 10 now, ahead of the eat timer.

        Used by hosted services when the critical section's client work
        completes before the scheduled eat duration (a lease released
        before its TTL).  Cancels the pending exit timer and exits
        eating; returns ``False`` (doing nothing) unless eating.
        """
        if self.crashed or not self.is_eating:
            return False
        timer = self._exit_timer
        if timer is not None:
            timer.cancel()
            self._exit_timer = None
        self._exit()
        self.reevaluate()
        return True

    # ------------------------------------------------------------------
    # Dynamic membership hooks (driven by the assembly layer's
    # membership-delta application, never by the algorithm itself)
    # ------------------------------------------------------------------
    def _reset_link(self, neighbor: ProcessId, link: NeighborLinks) -> None:
        """Rewind one link to its hygienic Section 3.1 initial state."""
        fresh = NeighborLinks.initial(self.color, int(self.coloring[neighbor]))
        link.pinged = fresh.pinged
        link.ack = fresh.ack
        link.deferred = fresh.deferred
        link.replied = fresh.replied
        link.fork = fresh.fork
        link.token = fresh.token

    def neighbor_left(self, neighbor: ProcessId) -> None:
        """A neighbor left the system: substitute for it like a suspect.

        The link state is kept (the neighbor may rejoin); Actions 5 and 9
        treat the departed pid exactly as a permanently suspected one, so
        any fork stranded at the leaver is reclaimed through the same
        substitution path a crash uses.
        """
        if neighbor not in self.links:
            return
        self._departed = {*self._departed, neighbor}
        self.request_reevaluation()

    def neighbor_rejoined(self, neighbor: ProcessId) -> None:
        """A departed neighbor came back: rebuild the edge hygienically.

        Both endpoints reset the shared link to its initial fork/token
        placement at the same instant (the delta's CONTROL event), so the
        edge again holds exactly one fork and one token.
        """
        self._forget(neighbor)
        link = self.links.get(neighbor)
        if link is None:
            return
        self._reset_link(neighbor, link)
        self.request_reevaluation()

    def add_neighbor(self, neighbor: ProcessId) -> None:
        """A conflict edge to ``neighbor`` now exists (join or add_edge)."""
        self._forget(neighbor)
        link = self.links.get(neighbor)
        if link is not None:
            # Edge re-added after a removal: hygienic rebuild.
            self._reset_link(neighbor, link)
            self.request_reevaluation()
            return
        links = self.links
        links[neighbor] = NeighborLinks.initial(self.color, int(self.coloring[neighbor]))
        ordered = sorted(links.items())
        links.clear()
        links.update(ordered)
        self.request_reevaluation()

    def remove_neighbor(self, neighbor: ProcessId) -> None:
        """The conflict edge to ``neighbor`` was removed from the topology."""
        if neighbor not in self.links:
            return
        del self.links[neighbor]
        self._forget(neighbor)
        self._former = {*self._former, neighbor}
        self.request_reevaluation()

    def _forget(self, neighbor: ProcessId) -> None:
        """Drop ``neighbor`` from the departed and former sets."""
        if neighbor in self._departed:
            self._departed.discard(neighbor)
        if neighbor in self._former:
            self._former.discard(neighbor)

    # ------------------------------------------------------------------
    # Action 1: become hungry
    # ------------------------------------------------------------------
    def _become_hungry(self) -> None:
        if not self.is_thinking:
            return
        self._set_state(DinerState.HUNGRY)
        self.hungry_sessions_started += 1

    # ------------------------------------------------------------------
    # Guarded commands (Actions 2, 5, 6, 9) — run to fixpoint
    # ------------------------------------------------------------------
    def reevaluate(self) -> None:
        """Fire every enabled guarded command until none is enabled.

        The loop is bounded: Action 2 sets ``pinged`` flags monotonically
        within a session, Action 5 fires at most once per session, Action 6
        consumes tokens, and Action 9 leaves the hungry state.
        """
        if self.crashed:
            return
        hungry = DinerState.HUNGRY
        while self.state is hungry:
            if not self.inside:
                fired = self._request_missing_acks()  # Action 2
                fired |= self._try_enter_doorway()  # Action 5
            else:
                fired = self._request_missing_forks()  # Action 6
                fired |= self._try_eat()  # Action 9
            if not fired:
                return

    def _request_missing_acks(self) -> bool:
        """Action 2: ping every neighbor whose ack is missing and unpinged."""
        fired = False
        ping = self._msg_ping
        # Direct transport call: the network re-checks crashed senders
        # with the same error Actor.send raises, so skipping the
        # delegation frame loses nothing but the frame.
        send = self._substrate.send
        pid = self.pid
        for neighbor, link in self.links.items():
            if not link.pinged and not link.ack:
                send(pid, neighbor, ping)
                link.pinged = True
                fired = True
        return fired

    def _try_enter_doorway(self) -> bool:
        """Action 5: enter once every neighbor acked or is suspected."""
        # Membership on the module's live suspected set: neighbors are in
        # scope by construction, so the checked ``suspects`` call adds
        # nothing but a frame per neighbor per scan.  Departed neighbors
        # substitute exactly like suspected ones (the ◇P₁ path); the set
        # is empty on static runs, so the merge never happens there.
        suspected = self.module.suspected
        if self._departed:
            suspected = suspected | self._departed
        for neighbor, link in self.links.items():
            if not link.ack and neighbor not in suspected:
                return False
        self.inside = True
        self.trace.doorway_change(self._substrate.now, self.pid, True)
        for link in self.links.values():
            link.ack = False
            link.replied = False
        return True

    def _request_missing_forks(self) -> bool:
        """Action 6: spend each held token on a request for a missing fork."""
        fired = False
        request = self._msg_fork_request
        send = self._substrate.send
        pid = self.pid
        for neighbor, link in self.links.items():
            if link.token and not link.fork:
                send(pid, neighbor, request)
                link.token = False
                fired = True
        return fired

    def _try_eat(self) -> bool:
        """Action 9: eat once every neighbor's fork is held or it is suspected."""
        suspected = self.module.suspected
        if self._departed:
            suspected = suspected | self._departed
        for neighbor, link in self.links.items():
            if not link.fork and neighbor not in suspected:
                return False
        self._set_state(DinerState.EATING)
        self.meals_eaten += 1
        duration = self.workload.eat_duration(self.pid, self.streams)
        self._exit_timer = self.substrate.set_timer(
            duration, self._exit_fire, label=self._exit_label
        )
        if self.on_eat is not None:
            self.on_eat(self)
        return True

    # ------------------------------------------------------------------
    # Message handlers (Actions 3, 4, 7, 8)
    # ------------------------------------------------------------------
    def on_message(self, src: ProcessId, message) -> None:
        agent = self._detector_agent
        if agent is not None and agent.wants(message):
            agent.on_message(src, message)
            return
        if src not in self.links:
            if src in self._former:
                # Stale traffic from before the edge to ``src`` was
                # removed (or the channel fence missed it): the edge no
                # longer exists, so the message is simply discarded.
                return
            raise ConfigurationError(
                f"diner {self.pid} got {type(message).__name__} from non-neighbor {src}"
            )
        # Exact-type dispatch first (the four concrete classes cover all
        # real traffic); isinstance only for subclassed message types.
        cls = type(message)
        if cls is Ping:
            self._on_ping(src)
        elif cls is Ack:
            self._on_ack(src)
        elif cls is ForkRequest:
            self._on_fork_request(src, message.color)
        elif cls is Fork:
            self._on_fork(src)
        elif isinstance(message, Ping):
            self._on_ping(src)
        elif isinstance(message, Ack):
            self._on_ack(src)
        elif isinstance(message, ForkRequest):
            self._on_fork_request(src, message.color)
        elif isinstance(message, Fork):
            self._on_fork(src)
        else:
            raise ConfigurationError(
                f"diner {self.pid} cannot handle message {message!r}"
            )

    def _on_ping(self, src: ProcessId) -> None:
        """Action 3: grant one ack per hungry session; defer otherwise."""
        link = self.links[src]
        if self.inside or link.replied:
            link.deferred = True
        else:
            self._substrate.send(self.pid, src, self._msg_ack)
            link.replied = self.state is DinerState.HUNGRY
        sink = self.on_dirty_link
        if sink is not None:
            sink((self.pid, src))

    def _on_ack(self, src: ProcessId) -> None:
        """Action 4: an ack only counts while hungry and outside."""
        link = self.links[src]
        link.ack = self.state is DinerState.HUNGRY and not self.inside
        link.pinged = False
        sink = self.on_dirty_link
        if sink is not None:
            sink((self.pid, src))

    def _on_fork_request(self, src: ProcessId, requester_color: int) -> None:
        """Action 7: receive the token; grant the fork or defer by priority."""
        link = self.links[src]
        if not link.fork:
            # Lemma 1.1 says this is unreachable over FIFO channels; if it
            # fires, the implementation (not the paper) has a bug.
            raise ForkDuplicationError(
                f"t={self.now}: fork request from {src} reached {self.pid}, "
                "which does not hold the fork (Lemma 1.1 violated)"
            )
        link.token = True
        if not self.inside or (self.state is DinerState.HUNGRY and self.color < requester_color):
            self._substrate.send(self.pid, src, self._msg_fork)
            link.fork = False
        sink = self.on_dirty_fork
        if sink is not None:
            sink((self.pid, src) if self.pid <= src else (src, self.pid))

    def _on_fork(self, src: ProcessId) -> None:
        """Action 8: receive a fork."""
        self.links[src].fork = True
        sink = self.on_dirty_fork
        if sink is not None:
            sink((self.pid, src) if self.pid <= src else (src, self.pid))

    # ------------------------------------------------------------------
    # Action 10: exit
    # ------------------------------------------------------------------
    def _exit(self) -> None:
        """Exit eating: release the doorway, deferred forks, deferred acks."""
        if not self.is_eating:
            return
        self.inside = False
        self.trace.doorway_change(self._substrate.now, self.pid, False)
        self._set_state(DinerState.THINKING)
        send = self._substrate.send
        pid = self.pid
        fork = self._msg_fork
        ack = self._msg_ack
        sink = self.on_dirty_link
        for neighbor, link in self.links.items():
            if link.token and link.fork:  # a deferred fork request
                send(pid, neighbor, fork)
                link.fork = False
            if link.deferred:
                send(pid, neighbor, ack)
                link.deferred = False
                if sink is not None:
                    sink((pid, neighbor))
        self._schedule_next_hunger()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _links_in_order(self):
        """Neighbor links in ascending pid order (determinism)."""
        return iter(self.links.items())

    def _set_state(self, new_state: DinerState) -> None:
        old = self.state
        if old is new_state:
            return
        self.state = new_state
        self.trace.phase_change(self._substrate.now, self.pid, old.phase, new_state.phase)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        flags = "in" if self.inside else "out"
        return f"DinerActor(pid={self.pid}, color={self.color}, {self.phase}, {flags})"
