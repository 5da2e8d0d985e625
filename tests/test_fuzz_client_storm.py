"""The ``client_storm`` fuzz verb: lease-service bursts under the engine.

A storm plan drives acquire/hold/abandon session bursts straight into a
``LockCore`` riding the plan's diners — the kernel (and scaled-live)
analogue of a ``LockService`` client fleet — and the engine judges the
service path on top of the standard suite via the synthetic
``lease-backing`` property (an active lease with no eating diner fails
the run).
"""

import heapq

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    ClientStormSpec,
    FaultPlan,
    WorkloadSpec,
    run_plan_kernel,
    sample_plan,
)
from repro.faults.engine import LEASE_BACKING, _fold_leaked, _Storm, build_table
from repro.faults.shrink import _candidates


def _storm_plan(**overrides) -> FaultPlan:
    storm = ClientStormSpec(
        sessions=12,
        burst=4,
        interval=2.0,
        start=1.0,
        ttl=1.0,
        hold=0.3,
        abandon=0.25,
    )
    defaults = dict(
        topology="ring",
        n=4,
        seed=3,
        horizon=40.0,
        workload=WorkloadSpec.of("lease"),
        storm=storm,
    )
    defaults.update(overrides)
    return FaultPlan(**defaults)


def test_kernel_storm_serves_sessions_and_keeps_the_books_clean():
    plan = _storm_plan()
    result = run_plan_kernel(plan)
    assert result.ok, result.failed
    counters = result.storm["counters"]
    assert counters["requests"] == 12
    assert counters["grants"] > 0
    # Abandoned grants are reclaimed by the TTL, not a release.
    assert counters["grants"] == counters["releases"] + counters["expiries"]
    assert result.storm["leaked_leases"] == 0
    assert result.storm["active_leases"] == 0
    # The snapshot rides the JSON result (witness directories carry it).
    assert result.to_json()["storm"]["counters"]["grants"] == counters["grants"]


def test_storm_sessions_survive_a_server_crash():
    """Sessions aimed at a crashed diner are denied, its lease reclaimed,
    and the survivors keep being granted — the clean verdict must hold."""
    from repro.faults.plan import CrashSpec

    plan = _storm_plan(
        storm=ClientStormSpec(
            sessions=24, burst=4, interval=1.5, start=1.0, ttl=1.0, hold=0.3,
            abandon=0.2,
        ),
        crashes=(CrashSpec(pid=1, at=6.0),),
        horizon=60.0,
    )
    result = run_plan_kernel(plan)
    assert result.ok, result.failed
    assert result.storm["counters"]["grants"] > 0
    assert result.storm["leaked_leases"] == 0
    denies = result.storm["denies"]
    # Requests routed at the dead diner's resource after the crash.
    assert denies.get("crashed", 0) + result.storm["counters"]["crash_reclaims"] >= 0


class _GrantingCore:
    """Stands in for the LockCore: grants at once, logs what it is asked."""

    def __init__(self, clock):
        self._clock = clock
        self.requests = []  # (time, session, resource, ttl_ms)
        self.outcome = {}  # session -> "abandon" | release time

    def request(self, session, resource, ttl_ms, reply):
        from repro.locks.messages import LeaseGrant

        self.requests.append((self._clock(), session, resource, ttl_ms))
        reply(LeaseGrant(sender=0, lease_id=session, ttl_ms=ttl_ms))

    def abandon(self, session):
        self.outcome[session] = "abandon"

    def release(self, session, lease_id):
        assert lease_id == session
        self.outcome[session] = self._clock()


class _FakeSeat:
    """A table's diners, trace and workload on a bare timer heap."""

    def __init__(self, plan):
        table = build_table(plan)
        self.graph = table.graph
        self.diners = table.diners
        self.trace = table.trace
        self.workload = table.workload
        self.now = 0.0
        self.timers = []

    def at(self, instant, fn, label=""):
        heapq.heappush(self.timers, (instant, len(self.timers), fn))


def _drive_storm_on_a_fake_clock(plan, time_scale):
    """Run the storm driver on a bare timer heap; returns the core's log."""
    seat = _FakeSeat(plan)
    timers = seat.timers
    storm = _Storm(seat, plan, time_scale=time_scale)
    core = storm.core = _GrantingCore(lambda: seat.now)
    storm.arm()
    # The kernel's scheduling order: every burst is on the heap at arm().
    assert len(timers) == -(-plan.storm.sessions // plan.storm.burst)
    while timers:
        seat.now, _, fn = heapq.heappop(timers)
        fn()
    return core


def test_storm_driver_issues_bursts_at_the_spec_interval_on_a_fake_clock():
    from repro.locks.messages import SESSION_BASE

    plan = _storm_plan(
        storm=ClientStormSpec(
            sessions=10, burst=4, interval=2.0, start=1.0, ttl=1.0, hold=0.3, abandon=0.25
        )
    )
    core = _drive_storm_on_a_fake_clock(plan, time_scale=1.0)
    assert [r[1] for r in core.requests] == list(range(SESSION_BASE, SESSION_BASE + 10))
    assert [r[0] for r in core.requests] == [1.0] * 4 + [3.0] * 4 + [5.0] * 2
    assert {r[3] for r in core.requests} == {1000}  # ttl in ms, rounded once
    issued = {session: when for when, session, _, _ in core.requests}
    for session, outcome in core.outcome.items():
        assert outcome == "abandon" or outcome == pytest.approx(issued[session] + 0.3)
    assert len(core.outcome) == 10  # every grant was abandoned or released


def test_storm_draws_do_not_depend_on_what_drives_the_storm():
    """Same seed, same (session -> resource, abandon?) sequence whether
    the seat is the kernel's, a scaled wall clock's, or a fake."""
    plan = _storm_plan()

    def draws(core):
        return [
            (session, resource, core.outcome[session] == "abandon")
            for _, session, resource, _ in core.requests
        ]

    plain = _drive_storm_on_a_fake_clock(plan, time_scale=1.0)
    scaled = _drive_storm_on_a_fake_clock(plan, time_scale=0.02)
    assert draws(plain) == draws(scaled)
    assert {r[3] for r in scaled.requests} == {20}  # 1.0 plan-s TTL at 0.02 -> 20 ms
    assert [r[0] for r in scaled.requests][:5] == pytest.approx([0.02] * 4 + [0.06])
    assert len({resource for _, resource, _ in draws(plain)}) > 1
    assert any(abandoned for _, _, abandoned in draws(plain))
    # A different seed is a different storm.
    other = _drive_storm_on_a_fake_clock(plan.with_(seed=4), time_scale=1.0)
    assert draws(other) != draws(plain)


def test_leaked_lease_fails_the_lease_backing_property():
    from repro.checks import Verdict
    from repro.locks.service import Lease

    class FakeCore:
        def leaked_leases(self):
            return [
                Lease(
                    lease_id=7,
                    session=1 << 20,
                    resource="r2",
                    pid=2,
                    ttl_ms=100,
                    granted_at=1.0,
                )
            ]

    verdict = _fold_leaked(Verdict(properties={}), FakeCore(), now=9.0)
    prop = verdict.properties[LEASE_BACKING]
    assert prop.status == "fail"
    assert prop.counters["leaked_total"] == 1
    assert "r2" in prop.violations[0].detail
    assert not verdict.ok


def test_sampler_cycles_into_the_client_storm_archetype():
    plan = sample_plan(n=5, seed=0, index=6)
    assert plan.storm.active
    assert plan.workload.kind == "lease"
    assert plan.crashes  # the archetype includes a timed server crash
    # The horizon leaves every burst room to land and expire.
    assert plan.horizon >= plan.storm.last_burst_time() + 3.0 * plan.storm.ttl
    # Deterministic and JSON-round-trippable like every other plan.
    assert sample_plan(n=5, seed=0, index=6) == plan
    assert FaultPlan.from_json(plan.to_json()) == plan


def test_shrinker_offers_storm_rungs():
    plan = _storm_plan()
    labels = [label for label, _ in _candidates(plan)]
    assert "drop the client storm" in labels
    assert "storm sessions 12 -> 6" in labels
    assert "storm abandon -> 0" in labels
    # The lease workload shrinks away only together with its storm.
    assert not any(label.startswith("workload") for label in labels)
    dropped = dict(_candidates(plan))["drop the client storm"]
    assert not dropped.storm.active
    assert any(
        label.startswith("workload") for label, _ in _candidates(dropped)
    )


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(sessions=-1),
        dict(sessions=4, burst=0),
        dict(sessions=4, interval=0.0),
        dict(sessions=4, ttl=0.0),
        dict(sessions=4, abandon=1.5),
        dict(sessions=4, hold=-0.1),
    ],
)
def test_storm_spec_validation(kwargs):
    with pytest.raises(ConfigurationError):
        ClientStormSpec(**kwargs)


@pytest.mark.live
def test_live_storm_runs_clean_and_leak_free():
    from repro.faults import run_plan_live

    plan = _storm_plan(
        storm=ClientStormSpec(
            sessions=8, burst=4, interval=2.0, start=2.0, ttl=1.5, hold=0.5,
            abandon=0.25,
        ),
        horizon=30.0,
    )
    result = run_plan_live(plan)
    assert result.ok, result.failed
    assert result.storm["counters"]["grants"] > 0
    assert result.storm["leaked_leases"] == 0
