"""The open quiescence witness: a storm-driven diner's late first Ping.

``sample_plan(topology="mixed", n=8, seed=0, index=126)`` fails
``quiescence`` on the unmutated algorithm, and shrinks to the plan in
``fixtures/quiescence_witness_geometric8.json``: geometric-8 under a
lease workload, pid 2 crashing at 14.642, detection delay 1.374, and a
77-session client storm bursting every 2.534 from 3.43.

These tests pin what the witness shows.  Every neighbour of pid 2
suspects it at crash + detection delay and then sends it at most one
Ping and one Ack.  Those are Action 2 (``_request_missing_acks``) and
the ack a fork's return owes, exactly as Algorithm 1 specifies: the
action has no suspicion guard, and ``pinged`` clears only on an ack.
Pid 0 is demand-driven and stays thinking from 18.141 until storm burst
11 makes it hungry at 28.770; its one post-crash Ping goes out at that
instant, far past the judge's grace, whose derivation has no storm term.
The verdict is left as it is: a judge fix changes verdicts and must
flip the strict xfail below.
"""

import json
import os

import pytest

from repro.faults import FaultPlan, run_plan_kernel, sample_plan
from repro.faults.shrink import shrink_plan
from repro.graphs import topologies
from repro.trace.events import PhaseChange, SuspicionChange

FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "quiescence_witness_geometric8.json"
)
CRASH, DETECTED = 14.642, 16.016
BURST_11 = 3.43 + 10 * 2.534


@pytest.fixture(scope="module")
def plan():
    with open(FIXTURE, "r", encoding="utf-8") as stream:
        return FaultPlan.from_json(json.load(stream))


@pytest.fixture(scope="module")
def result(plan):
    return run_plan_kernel(plan)


def test_the_fixture_is_the_shrunk_sample(plan):
    assert shrink_plan(sample_plan(topology="mixed", n=8, seed=0, index=126)).plan == plan


def test_the_one_failure_is_a_late_ping_to_the_crashed_pid(result):
    assert result.failed == ["quiescence"]
    [violation] = result.verdict.properties["quiescence"].violations
    assert violation.time == pytest.approx(BURST_11)
    assert violation.detail.endswith(
        ": Ping 0->2 sent 14.128 after 2 crashed (grace 10.393)"
    )


def test_every_neighbour_suspects_the_victim_at_its_detection(plan, result):
    neighbours = topologies.by_name(plan.topology, plan.n, seed=plan.seed).neighbors(2)
    assert len(neighbours) == 5
    suspicions = [
        record for record in result.trace
        if isinstance(record, SuspicionChange) and record.suspect == 2
    ]
    assert sorted(record.observer for record in suspicions) == list(neighbours)
    assert all(record.suspected for record in suspicions)
    assert [record.time for record in suspicions] == pytest.approx([DETECTED] * 5)


def test_the_violating_send_is_the_first_of_a_storm_driven_session(result):
    phases = [
        (record.time, record.old_phase, record.new_phase)
        for record in result.trace
        if isinstance(record, PhaseChange) and record.pid == 0 and CRASH < record.time < 30
    ]
    assert phases[-2:] == [
        (pytest.approx(18.141, abs=1e-3), "eating", "thinking"),
        (pytest.approx(BURST_11), "thinking", "hungry"),
    ]
    pings = [
        event for event in result.wire
        if event["kind"] == "send" and (event["src"], event["dst"]) == (0, 2)
        and event["type"] == "Ping" and event["time"] >= CRASH
    ]
    assert [event["time"] for event in pings] == [pytest.approx(BURST_11)]


def test_each_neighbour_sends_the_victim_at_most_one_ping_and_one_ack(result):
    late = {}
    for event in result.wire:
        if event["kind"] == "send" and event["dst"] == 2 and event["time"] >= CRASH:
            key = (event["src"], event["type"])
            late[key] = late.get(key, 0) + 1
    assert late and set(late.values()) == {1}
    assert {kind for _, kind in late} <= {"Ping", "Ack"}


@pytest.mark.xfail(strict=True, reason="the judge's grace has no storm term")
def test_the_witness_passes_quiescence(result):
    assert "quiescence" not in result.failed
