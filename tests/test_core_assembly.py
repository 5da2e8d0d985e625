"""The shared delta interpreter, driven through a recording fake seat.

``repro.core.assembly.apply_delta`` is the one place the five membership
verbs are stated; ``DiningTable`` and ``AsyncHost`` only supply a seat.
These tests pin the *order* of what the interpreter asks of a seat and
of the surviving diners — the part of the semantics neither substrate's
end-to-end verdict can see.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.checks import CheckSuite
from repro.checks.properties import QUIESCENCE, PendingPingChecker
from repro.core.assembly import Wiring, apply_delta, schedule
from repro.core.diner import DinerActor
from repro.graphs import ring
from repro.graphs.membership import MembershipDelta, MembershipLog

CHURN = (
    MembershipDelta(time=1.0, verb="join", pid=6, edges=(0, 5)),
    MembershipDelta(time=2.0, verb="leave", pid=2),
    MembershipDelta(time=3.0, verb="rejoin", pid=2),
    MembershipDelta(time=4.0, verb="add_edge", pid=1, peer=4),
    MembershipDelta(time=5.0, verb="remove_edge", pid=1, peer=4),
)


class _Peer:
    """A diner reduced to its membership hooks; every call is logged."""

    def __init__(self, pid, links, calls):
        self.pid = pid
        self.links = set(links)
        self.crashed = False
        self._calls = calls

    def _log(self, hook, neighbor):
        self._calls.append((hook, self.pid, neighbor))

    def add_neighbor(self, neighbor):
        self._log("add_neighbor", neighbor)
        self.links.add(neighbor)

    def remove_neighbor(self, neighbor):
        self._log("remove_neighbor", neighbor)
        self.links.discard(neighbor)

    def neighbor_left(self, neighbor):
        self._log("neighbor_left", neighbor)

    def neighbor_rejoined(self, neighbor):
        self._log("neighbor_rejoined", neighbor)


class _Seat:
    """Records what the interpreter asks of a substrate, in order."""

    def __init__(self, *, hosting=True, checks=None, log=CHURN):
        graph = ring(6)
        self.calls = []
        self.history = []
        self.timers = []
        self.wiring = Wiring(graph, MembershipLog(log))
        self.diners = {
            pid: _Peer(pid, graph.neighbors(pid), self.calls) for pid in graph.nodes
        }
        self.hosting = hosting
        self.checks = checks
        self.now = 0.0
        reset = lambda pid: SimpleNamespace(  # noqa: E731
            reset=lambda: self.calls.append(("reset_module", pid))
        )
        self.detector = SimpleNamespace(module_for=reset)
        self.trace = SimpleNamespace(
            membership_change=lambda *record: self.calls.append(("record",) + record)
        )

    def hosts(self, pid):
        return self.hosting

    def spawn(self, pid, neighbors, *, replace):
        self.calls.append(("spawn", pid, tuple(neighbors), replace))
        self.diners[pid] = _Peer(pid, neighbors, self.calls)

    def retire(self, pid):
        self.calls.append(("retire", pid))
        self.diners[pid].crashed = True

    def fence_edge(self, a, b):
        self.calls.append(("fence_edge", a, b))

    def at(self, instant, fn, label=""):
        self.timers.append((instant, fn))

    def apply(self, count):
        """Apply the first ``count`` deltas; return the calls of the last."""
        for delta in CHURN[:count]:
            self.history += self.calls
            del self.calls[:]
            self.now = delta.time
            apply_delta(self, delta)
        return list(self.calls)


def test_wiring_of_a_dynamic_run_is_derived_from_the_union():
    wiring = _Seat().wiring
    assert wiring.dynamic and wiring.epoch == 0
    assert 6 in wiring.union and 6 not in wiring.graph
    assert (1, 4) in wiring.union.edges
    assert 6 in wiring.residents  # the joiner stays to the end
    assert set(wiring.coloring) == set(wiring.union.nodes)
    assert wiring.make_diner is DinerActor


def test_wiring_of_a_static_run_shares_the_graph_object():
    graph = ring(5)
    wiring = Wiring(graph)
    assert not wiring.dynamic and wiring.timeline is None
    assert wiring.union is graph
    assert wiring.residents == graph.nodes


def test_join_tells_the_peers_before_the_newcomer_spawns():
    assert _Seat().apply(1) == [
        ("add_neighbor", 0, 6),
        ("add_neighbor", 5, 6),
        ("spawn", 6, (0, 5), False),
        ("record", 1.0, 1, "join", 6, (0, 5)),
    ]


def test_leave_retires_the_pid_then_survivors_substitute_for_it():
    assert _Seat().apply(2) == [
        ("retire", 2),
        ("neighbor_left", 1, 2),
        ("neighbor_left", 3, 2),
        ("record", 2.0, 2, "leave", 2, ()),
    ]


def test_rejoin_resets_the_detector_module_before_any_peer_call():
    calls = _Seat().apply(3)
    assert calls == [
        ("reset_module", 2),
        ("neighbor_rejoined", 1, 2),
        ("neighbor_rejoined", 3, 2),
        ("spawn", 2, (1, 3), True),
        ("record", 3.0, 3, "rejoin", 2, ()),
    ]


def test_add_edge_fences_before_either_endpoint_rewires():
    assert _Seat().apply(4) == [
        ("fence_edge", 1, 4),
        ("add_neighbor", 1, 4),
        ("add_neighbor", 4, 1),
        ("record", 4.0, 4, "add_edge", 1, (4,)),
    ]


def test_remove_edge_rewires_both_endpoints_without_a_fence():
    assert _Seat().apply(5) == [
        ("remove_neighbor", 1, 4),
        ("remove_neighbor", 4, 1),
        ("record", 5.0, 5, "remove_edge", 1, (4,)),
    ]


def test_a_non_hosting_seat_never_spawns_or_retires():
    seat = _Seat(hosting=False)
    last = seat.apply(len(CHURN))
    hooks = {call[0] for call in seat.history + last}
    assert "spawn" not in hooks and "retire" not in hooks
    # ...but its local diners still learn of every delta.
    assert {"add_neighbor", "neighbor_left", "record"} <= hooks


def test_epoch_advances_once_per_delta():
    seat = _Seat()
    seat.apply(len(CHURN))
    assert seat.wiring.epoch == len(CHURN)


@pytest.mark.parametrize("count, forgiven", [(2, False), (3, True), (4, True)])
def test_rebuilt_links_forgive_outstanding_pings_without_counting_an_event(
    count, forgiven
):
    """Leave forgives nothing; rejoin and add_edge retire the rebuilt
    links' pings — and ``observed`` counts stream events only."""
    ping = PendingPingChecker()
    seat = _Seat(checks=CheckSuite([ping]))
    pair = (1, 4) if count == 4 else (1, 2)
    ping.record_ping_send(*pair, 0.5)
    observed = ping.observed
    seat.apply(count)
    assert ping.observed == observed
    second = ping.record_ping_send(*pair, 9.0)
    assert (second is None) == forgiven


def test_rejoin_tells_a_rebirth_aware_quiescence_checker():
    class Quiescence:
        name = QUIESCENCE
        interests = ()
        reborn = []

        def note_rebirth(self, pid, time):
            self.reborn.append((pid, time))

    quiescence = Quiescence()
    _Seat(checks=CheckSuite([quiescence])).apply(len(CHURN))
    assert quiescence.reborn == [(2, 3.0)]


def test_schedule_applies_same_instant_deltas_in_log_order_and_crashes_per_pid():
    """A substrate whose timer heap fires same-instant timers in reverse
    registration order still applies the deltas in log order, and every
    crash retires its own pid at its own instant."""
    log = (
        MembershipDelta(time=1.0, verb="join", pid=6, edges=(0, 5)),
        MembershipDelta(time=1.0, verb="leave", pid=2),
        MembershipDelta(time=2.0, verb="add_edge", pid=1, peer=4),
    )
    seat = _Seat(log=log)
    schedule(seat, {4: 1.5, 3: 1.0})
    retired = []
    seat.retire = lambda pid: retired.append((pid, seat.now))
    # Earlier instants first; within an instant, the last registered first.
    fire = sorted(enumerate(seat.timers), key=lambda item: (item[1][0], -item[0]))
    for _, (instant, fn) in fire:
        seat.now = instant
        fn()
    records = [call[1:] for call in seat.calls if call[0] == "record"]
    assert records == [
        (1.0, 1, "join", 6, (0, 5)),
        (1.0, 2, "leave", 2, ()),
        (2.0, 3, "add_edge", 1, (4,)),
    ]
    assert sorted(retired) == [(2, 1.0), (3, 1.0), (4, 1.5)]  # 2 by its leave
