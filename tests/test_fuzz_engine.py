"""The fault-plan engine: plans, windows, triggered crashes, mutants.

Kernel-substrate tests only (deterministic, fast); the live path is
covered by test_fuzz_differential.py.
"""

import json

import pytest

from repro.checks import replay
from repro.errors import ConfigurationError
from repro.faults import (
    CrashSpec,
    FaultPlan,
    FlapSpec,
    JudgeWindows,
    LatencySpec,
    WorkloadSpec,
    all_mutants,
    get_mutant,
    mutant_names,
    run_plan_kernel,
    sample_plan,
)
from repro.faults.engine import RUNTIME_ERROR
from repro.graphs import topologies


# ----------------------------------------------------------------------
# Plan vocabulary
# ----------------------------------------------------------------------
def test_plan_round_trips_through_json():
    plan = FaultPlan(
        topology="ring",
        n=5,
        seed=7,
        horizon=90.0,
        latency=LatencySpec.of("gst", gst=20.0, pre_gst_max=4.0, post_gst_max=1.0),
        crashes=(
            CrashSpec(pid=1, at=12.5),
            CrashSpec(pid=3, when="fork", after=5.0, deadline=30.0),
        ),
        flaps=FlapSpec(convergence=20.0, mistakes_per_edge=1.5),
        workload=WorkloadSpec.of("burst", burst=3, idle_time=6.0),
        mutant="greedy-eater",
    )
    assert FaultPlan.from_json(json.loads(json.dumps(plan.to_json()))) == plan


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        CrashSpec(pid=0)  # neither at nor when
    with pytest.raises(ConfigurationError):
        CrashSpec(pid=0, at=1.0, when="fork", deadline=5.0)  # both
    with pytest.raises(ConfigurationError):
        CrashSpec(pid=0, when="fork")  # triggered without deadline
    with pytest.raises(ConfigurationError):
        FaultPlan(n=3, crashes=(CrashSpec(pid=5, at=1.0),))  # pid out of range
    with pytest.raises(ConfigurationError):
        FaultPlan(n=3, crashes=(CrashSpec(pid=1, at=1.0), CrashSpec(pid=1, at=2.0)))


def test_judge_windows_cover_the_adversary():
    plan = FaultPlan(
        n=4,
        latency=LatencySpec.of("uniform", low=0.5, high=2.0),
        crashes=(CrashSpec(pid=0, when="fork", after=5.0, deadline=25.0),),
        flaps=FlapSpec(convergence=15.0, detection_delay=2.0),
    )
    w = JudgeWindows.for_plan(plan)
    # Settle can't precede detector convergence or the last possible
    # crash's detection; patience grows with n; grace covers the gap
    # between the crash and trustworthy suspicion.
    assert w.settle >= 27.0
    assert w.patience > w.settle
    assert w.after == w.settle
    assert w.grace > 0.0


# ----------------------------------------------------------------------
# Benign interpretation
# ----------------------------------------------------------------------
def test_benign_plan_passes_every_property():
    result = run_plan_kernel(FaultPlan(n=5, seed=3, horizon=80.0))
    assert result.ok
    assert set(result.verdict.statuses().values()) == {"pass"}
    assert sum(result.meals.values()) > 0
    assert result.wire  # the wire log recorded traffic
    assert result.error is None


def test_triggered_crash_fires_before_deadline_holding_fork():
    plan = FaultPlan(
        n=5,
        seed=11,
        horizon=80.0,
        crashes=(CrashSpec(pid=2, when="fork", after=2.0, deadline=40.0),),
    )
    result = run_plan_kernel(plan)
    assert result.ok, result.verdict.failed
    # The victim crashed at the trigger, well before the deadline.
    assert 2.0 <= result.crash_times[2] < 40.0


def test_wire_log_replays_offline():
    plan = FaultPlan(n=4, seed=5, horizon=60.0)
    result = run_plan_kernel(plan)
    from repro.checks import events_from_wire

    edges = sorted(topologies.by_name(plan.topology, plan.n, seed=plan.seed).edges)
    verdict = replay(edges, events_from_wire(result.wire), horizon=plan.horizon)
    assert verdict.property("fifo").status == "pass"
    assert verdict.property("channel-bound").status == "pass"


def test_trace_and_wire_replay_count_the_online_occupancy():
    """Offline replay of a run's trace plus wire log sees exactly the
    channel occupancy the online checker saw: on a zero-latency hop a
    reply shares its stamp with the delivery that caused it, and must
    not jump ahead of it; across a fence, replay reads it off the
    ``rejoin``/``add_edge`` records where the kernel was told online."""
    from repro.checks import events_from_trace, events_from_wire, merge_events
    from tests.test_membership import bounce_and_flip

    plans = [sample_plan(topology="ring", n=6, seed=0, index=i) for i in range(10)]
    plans.append(plans[0].with_(mutant="greedy-eater"))
    plans += [
        FaultPlan(
            topology="ring",
            n=6,
            seed=seed,
            horizon=40.0,
            latency=LatencySpec.of("uniform", low=0.5, high=3.0),
            workload=WorkloadSpec.of("always", eat_time=0.3, think_time=0.01),
            membership=bounce_and_flip(),
        )
        for seed in (1, 6, 7)
    ]
    for plan in plans:
        result = run_plan_kernel(plan, stop_on_violation=False)
        edges = sorted(topologies.by_name(plan.topology, plan.n, seed=plan.seed).edges)
        events = merge_events(
            events_from_trace(result.trace), events_from_wire(result.wire)
        )
        offline = replay(edges, events, horizon=plan.horizon).property("channel-bound")
        online = result.verdict.property("channel-bound")
        assert offline.counters["max_in_transit"] == online.counters["max_in_transit"]
        assert offline.details["edge_peaks"] == online.details["edge_peaks"]


def test_kernel_wire_log_carries_the_networks_own_sequence_numbers():
    """Across rejoin fences the kernel wire log's ``seq`` values — read
    off the network — equal an independent per-channel count (number at
    send, retire in order at delivery or drop) and replay through the
    FIFO checker clean."""
    from collections import deque

    from repro.checks import FifoChecker, events_from_wire
    from repro.sim.network import NetworkMonitor

    class Renumber(NetworkMonitor):
        def __init__(self):
            self.seqs, self._next, self._pending = [], {}, {}

        def on_send(self, src, dst, message, time):
            seq = self._next[src, dst] = self._next.get((src, dst), 0) + 1
            self._pending.setdefault((src, dst), deque()).append(seq)
            self.seqs.append(seq)

        def on_deliver(self, src, dst, message, time):
            self.seqs.append(self._pending[src, dst].popleft())

        on_drop = on_deliver

    plan = sample_plan(topology="ring", n=6, seed=0, index=9)
    assert [spec.verb for spec in plan.membership].count("rejoin") == 3
    reference = Renumber()
    result = run_plan_kernel(plan, monitors=(reference,))
    assert result.ok
    assert any(record["kind"] == "drop" for record in result.wire)
    assert [record["seq"] for record in result.wire] == reference.seqs
    assert {record["bits"] for record in result.wire} == {0}

    checker = FifoChecker()
    for index, event in enumerate(events_from_wire(result.wire)):
        assert not checker.observe(event, index)
    verdict = checker.finalize()
    assert verdict.status == "pass" and verdict.counters["consumed_total"] > 0


# ----------------------------------------------------------------------
# Mutants
# ----------------------------------------------------------------------
def test_mutant_registry_is_well_formed():
    names = mutant_names()
    assert len(names) >= 8
    assert len(set(names)) == len(names)
    for mutant in all_mutants():
        assert mutant.expected, mutant.name
        assert mutant.description
    with pytest.raises(ConfigurationError):
        get_mutant("no-such-mutant")


@pytest.mark.parametrize("name", ["greedy-eater", "eager-fork-grant"])
def test_safety_mutants_fail_wx_safety(name):
    result = run_plan_kernel(FaultPlan(n=5, seed=3, horizon=80.0, mutant=name))
    assert "wx-safety" in result.failed


def test_token_reuse_folds_lemma_assert_into_fork_uniqueness():
    plan = sample_plan(n=5, seed=0, index=0, mutant="token-reuse")
    result = run_plan_kernel(plan)
    assert "fork-uniqueness" in result.failed
    assert result.error is not None and "ForkDuplication" in result.error
    assert result.stopped_early


def test_channel_bound_kills_token_reuse():
    # Re-spent tokens put duplicate fork requests in flight: Section 7's
    # bound convicts the mutant on its own, not only fork uniqueness.
    plan = sample_plan(topology="ring", n=6, seed=0, index=11, mutant="token-reuse")
    result = run_plan_kernel(plan, stop_on_violation=False)
    assert "channel-bound" in result.failed


def test_runtime_error_never_collides_with_a_standard_property():
    result = run_plan_kernel(FaultPlan(n=3, seed=1, horizon=40.0))
    assert RUNTIME_ERROR not in result.verdict.properties


# ----------------------------------------------------------------------
# Sampler
# ----------------------------------------------------------------------
def test_sampler_is_deterministic_and_archetype_diverse():
    a = [sample_plan(n=5, seed=9, index=i) for i in range(6)]
    b = [sample_plan(n=5, seed=9, index=i) for i in range(6)]
    assert a == b
    # The cycle visits crash-bearing and crash-free shapes.
    assert any(p.crashes for p in a) and any(not p.crashes for p in a)
    # Every plan's horizon contains its own judgement windows.
    for plan in a:
        assert plan.horizon >= JudgeWindows.for_plan(plan).patience
    # Different seeds draw different parameters.
    assert sample_plan(n=5, seed=1, index=0) != sample_plan(n=5, seed=2, index=0)
