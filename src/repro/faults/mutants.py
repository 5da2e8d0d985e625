"""The seeded-bug registry for mutation testing.

Each :class:`Mutant` is a deliberately broken
:class:`~repro.core.diner.DinerActor` subclass — a small, realistic
implementation slip (a dropped reset, a skipped guard, a forgotten
flag) — together with the paper properties its detection is expected to
hinge on.  The mutation-testing harness (:mod:`repro.faults.campaign`)
runs fuzz campaigns against every mutant and reports the kill rate,
which is what makes a clean campaign quantitatively meaningful: "0
violations over N adversarial runs, with a suite sharp enough to kill
k/m seeded bugs".

Every mutant is usable three ways:

* :meth:`Mutant.factory` — a ``diner_factory`` for
  :class:`~repro.core.table.DiningTable` / the fuzz engine;
* :meth:`Mutant.mutator` — an instance-patching hook for
  :func:`repro.verify.explore.explore_dining`'s ``diner_mutator``
  (small-scope exhaustive confirmation of a kill);
* by name, from a :class:`~repro.faults.plan.FaultPlan`'s ``mutant``
  field.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MethodType
from typing import Callable, Dict, List, Tuple

from repro.checks.properties import (
    CHANNEL_BOUND,
    DINER_LOCAL,
    FORK_UNIQUENESS,
    OVERTAKING,
    PENDING_PING,
    PROGRESS,
    QUIESCENCE,
    WX_SAFETY,
)
from repro.core.diner import DinerActor
from repro.core.messages import Ack, Fork, ForkRequest
from repro.core.state import DinerState
from repro.errors import ConfigurationError, ForkDuplicationError


# ----------------------------------------------------------------------
# The broken diners
# ----------------------------------------------------------------------
class GreedyEaterDiner(DinerActor):
    """Action 9 without its guard: eats the moment it is inside."""

    def _try_eat(self) -> bool:
        self._set_state(DinerState.EATING)
        self.meals_eaten += 1
        duration = self.workload.eat_duration(self.pid, self.streams)
        self._exit_timer = self.set_timer(duration, self._exit, label=f"exit@{self.pid}")
        if self.on_eat is not None:
            self.on_eat(self)
        return True


class EagerForkGrantDiner(DinerActor):
    """Action 7 without its doorway/priority clause: always grants,
    even mid-meal — the fork leaves while its owner is still eating."""

    def _on_fork_request(self, src, requester_color) -> None:
        link = self.links[src]
        if not link.fork:
            raise ForkDuplicationError(
                f"t={self.now}: fork request from {src} reached {self.pid}, "
                "which does not hold the fork (Lemma 1.1 violated)"
            )
        link.token = True
        self.send(src, Fork(self.pid))
        link.fork = False
        sink = self.on_dirty_fork
        if sink is not None:
            sink((self.pid, src) if self.pid <= src else (src, self.pid))


class DroppedDoorwayResetDiner(DinerActor):
    """Action 5 without its bookkeeping: enters the doorway but forgets
    to clear the ack/replied flags (the per-session scoping Lemma 2.1
    relies on)."""

    def _try_enter_doorway(self) -> bool:
        for neighbor, link in self._links_in_order():
            if not link.ack and not self.module.suspects(neighbor):
                return False
        self.inside = True
        self.trace.doorway_change(self.now, self.pid, True)
        return True


class EagerAckDiner(DinerActor):
    """Action 3 without its ``inside`` defer: acks are granted while the
    doorway is occupied, so a neighbor can start a fresh hungry session
    before the occupant's current one completes — the wait the
    overtaking bound rests on."""

    def _on_ping(self, src) -> None:
        link = self.links[src]
        if link.replied:
            link.deferred = True
        else:
            self.send(src, Ack(self.pid))
            link.replied = self.is_hungry
        sink = self.on_dirty_link
        if sink is not None:
            sink((self.pid, src))


class NoSuspicionSubstitutionDiner(DinerActor):
    """Actions 5 and 9 without the ◇P₁ escape hatch: waits for real acks
    and forks from every neighbor, including crashed ones."""

    def _try_enter_doorway(self) -> bool:
        for neighbor, link in self._links_in_order():
            if not link.ack:
                return False
        self.inside = True
        self.trace.doorway_change(self.now, self.pid, True)
        for _, link in self._links_in_order():
            link.ack = False
            link.replied = False
        return True

    def _try_eat(self) -> bool:
        for neighbor, link in self._links_in_order():
            if not link.fork:
                return False
        self._set_state(DinerState.EATING)
        self.meals_eaten += 1
        duration = self.workload.eat_duration(self.pid, self.streams)
        self._exit_timer = self.set_timer(duration, self._exit, label=f"exit@{self.pid}")
        if self.on_eat is not None:
            self.on_eat(self)
        return True


class ForgetfulReleaseDiner(DinerActor):
    """Action 10 without the deferred-fork release: exits and keeps every
    fork a neighbor asked for while it was eating."""

    def _exit(self) -> None:
        if not self.is_eating:
            return
        self.inside = False
        self.trace.doorway_change(self.now, self.pid, False)
        self._set_state(DinerState.THINKING)
        sink = self.on_dirty_link
        for neighbor, link in self._links_in_order():
            if link.deferred:
                self.send(neighbor, Ack(self.pid))
                link.deferred = False
                if sink is not None:
                    sink((self.pid, neighbor))
        self._schedule_next_hunger()


class StaleAckAcceptDiner(DinerActor):
    """Action 4 without its phase condition: an ack counts whenever it
    arrives — inside the doorway, mid-meal, even while thinking."""

    def _on_ack(self, src) -> None:
        link = self.links[src]
        link.ack = True
        link.pinged = False
        sink = self.on_dirty_link
        if sink is not None:
            sink((self.pid, src))


class TokenReuseDiner(DinerActor):
    """Action 6 without token consumption: re-requests a missing fork on
    every re-evaluation, spending the same token again and again (the
    Section 7 channel bound counts one outstanding request per token).

    The fixpoint loop of :meth:`DinerActor.reevaluate` would spin forever
    on a guard that never disables, so this mutant re-evaluates in single
    passes — each message arrival or detector flip triggers one more
    spurious request instead of infinitely many.
    """

    def reevaluate(self) -> None:
        if self.crashed:
            return
        if self.is_hungry and not self.inside:
            self._request_missing_acks()
            self._try_enter_doorway()
        if self.is_hungry and self.inside:
            self._request_missing_forks()
            self._try_eat()

    def _request_missing_forks(self) -> bool:
        fired = False
        for neighbor, link in self._links_in_order():
            if link.token and not link.fork:
                self.send(neighbor, ForkRequest(self.pid, self.color))
                fired = True
        return fired


class UnreclaimedLeaveDiner(DinerActor):
    """Membership hook slip: a rejoin never rebuilds the shared edge.

    ``neighbor_left`` still substitutes correctly, but the matching
    ``neighbor_rejoined`` bookkeeping is forgotten: the survivor keeps
    treating the returned neighbor as departed — eating without its
    fork — while the fresh incarnation holds a hygienically initialised
    fork of its own.  Both endpoints of a live conflict edge can then
    eat simultaneously, which is exactly the failure the edge-scoped
    exclusion checker exists to catch (with an epoch-stamped witness).
    """

    def neighbor_rejoined(self, neighbor) -> None:
        return


class SessionPingResetDiner(DinerActor):
    """Action 1 with a spurious reset of the ``pinged`` latch: every new
    hungry session pings *all* neighbors again — including crashed ones,
    forever, so traffic toward a crashed neighbor never quiesces."""

    def _become_hungry(self) -> None:
        if not self.is_thinking:
            return
        for _, link in self._links_in_order():
            link.pinged = False
        self._set_state(DinerState.HUNGRY)
        self.hungry_sessions_started += 1


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Mutant:
    """One registered seeded bug."""

    name: str
    description: str
    cls: type
    expected: Tuple[str, ...]
    #: Whether killing this mutant requires a crash in the plan (the bug
    #: only bites on the post-crash code path).
    needs_crash: bool = False
    #: Whether killing this mutant requires membership churn in the plan
    #: (the bug lives in the join/leave/rejoin path).
    needs_churn: bool = False

    def factory(self) -> Callable[..., DinerActor]:
        """A ``diner_factory`` building this mutant for every pid."""

        def make(pid, *args, **kwargs) -> DinerActor:
            return self.cls(pid, *args, **kwargs)

        return make

    def mutator(self) -> Callable[[DinerActor], None]:
        """An instance patcher rebinding the overridden methods — the
        shape :func:`repro.verify.explore.explore_dining` accepts as
        ``diner_mutator``."""
        overrides = {
            name: attr
            for name, attr in vars(self.cls).items()
            if callable(attr) and not name.startswith("__")
        }

        def patch(diner: DinerActor) -> None:
            for name, func in overrides.items():
                setattr(diner, name, MethodType(func, diner))

        return patch


_REGISTRY: Dict[str, Mutant] = {}


def _register(mutant: Mutant) -> None:
    _REGISTRY[mutant.name] = mutant


_register(Mutant(
    name="greedy-eater",
    description="Action 9 guard gone: eats inside the doorway without a single fork",
    cls=GreedyEaterDiner,
    expected=(WX_SAFETY,),
))
_register(Mutant(
    name="eager-fork-grant",
    description="Action 7 grants unconditionally, even while eating",
    cls=EagerForkGrantDiner,
    expected=(WX_SAFETY,),
))
_register(Mutant(
    name="dropped-doorway-reset",
    description="Action 5 forgets to clear ack/replied on doorway entry",
    cls=DroppedDoorwayResetDiner,
    expected=(DINER_LOCAL, OVERTAKING, WX_SAFETY),
))
_register(Mutant(
    name="eager-ack",
    description="Action 3 drops the inside defer: acks flow while the doorway is occupied",
    cls=EagerAckDiner,
    expected=(DINER_LOCAL, OVERTAKING, PROGRESS),
))
_register(Mutant(
    name="no-suspicion-substitution",
    description="Actions 5/9 ignore suspicion: waits on crashed neighbors forever",
    cls=NoSuspicionSubstitutionDiner,
    expected=(PROGRESS,),
    needs_crash=True,
))
_register(Mutant(
    name="forgetful-release",
    description="Action 10 keeps deferred forks on exit",
    cls=ForgetfulReleaseDiner,
    expected=(PROGRESS, OVERTAKING),
))
_register(Mutant(
    name="stale-ack-accept",
    description="Action 4 counts acks in any phase",
    cls=StaleAckAcceptDiner,
    expected=(DINER_LOCAL, OVERTAKING),
))
_register(Mutant(
    name="token-reuse",
    description="Action 6 re-spends tokens: duplicate fork requests in flight",
    cls=TokenReuseDiner,
    expected=(FORK_UNIQUENESS, CHANNEL_BOUND),
))
_register(Mutant(
    name="unreclaimed-leave",
    description="neighbor_rejoined dropped: survivors substitute for a returned neighbor forever",
    cls=UnreclaimedLeaveDiner,
    # The unreclaimed link either lets both endpoints eat at once while
    # their edge exists (◇WX) or duplicates the fork the survivor
    # substituted while the fresh incarnation minted its own.
    expected=(WX_SAFETY, FORK_UNIQUENESS),
    needs_churn=True,
))
_register(Mutant(
    name="session-ping-reset",
    description="Action 1 clears the pinged latch: re-pings crashed neighbors every session",
    cls=SessionPingResetDiner,
    expected=(PENDING_PING, QUIESCENCE),
    needs_crash=True,
))


def mutant_names() -> List[str]:
    """Registry names, in registration order."""
    return list(_REGISTRY)


def all_mutants() -> List[Mutant]:
    return list(_REGISTRY.values())


def get_mutant(name: str) -> Mutant:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise ConfigurationError(f"unknown mutant {name!r}; known: {known}") from None
