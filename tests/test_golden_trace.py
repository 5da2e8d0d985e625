"""Golden-trace refactor pin (determinism contract).

Runs a fixed-seed ring-5 scenario — contention, detector mistakes, and a
mid-run crash, so CONTROL/DELIVERY/TIMER/REEVALUATE events all interleave
— and asserts that the serialized trace is **byte-identical** to the
recording checked into ``tests/fixtures/golden_trace_ring5.json``.

The fixture was produced by the pre-calendar-queue binary-heap kernel, so
this test is the proof that the event-queue rework preserved the
``(time, priority, sequence)`` determinism contract bit-for-bit: any
reordering of same-instant events, any change in tie-breaking, or any
drift in the random-stream consumption order changes the trace bytes and
fails the hash comparison.

The four message-passing classics (bakery, Ricart–Agrawala,
Lehmann–Rabin, edge reversal) are pinned the same way in
``tests/fixtures/golden_classics_ring5.json``: the same ring, seed, crash
and workload, under the null detector their table helpers fix, with the
trace sha256, the message total and the meals per diner.

Regenerate (only when a scenario itself is deliberately changed) with:

    PYTHONPATH=src python tests/test_golden_trace.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.baselines import (
    bakery_table,
    edge_reversal_table,
    lehmann_rabin_table,
    ricart_agrawala_table,
)
from repro.core import AlwaysHungry, DiningTable, scripted_detector
from repro.graphs import ring
from repro.sim.crash import CrashPlan
from repro.trace import serialize

FIXTURE = Path(__file__).parent / "fixtures" / "golden_trace_ring5.json"
CLASSICS_FIXTURE = Path(__file__).parent / "fixtures" / "golden_classics_ring5.json"

CLASSICS = {
    "bakery": bakery_table,
    "ricart_agrawala": ricart_agrawala_table,
    "lehmann_rabin": lehmann_rabin_table,
    "edge_reversal": edge_reversal_table,
}


def run_golden_scenario() -> DiningTable:
    """The pinned scenario: ring-5, seed 2026, one crash, noisy detector."""
    table = DiningTable(
        ring(5),
        seed=2026,
        detector=scripted_detector(
            convergence_time=20.0,
            detection_delay=1.0,
            random_mistakes=True,
            mistakes_per_edge=1.0,
        ),
        crash_plan=CrashPlan.scripted({2: 25.0}),
        workload=AlwaysHungry(eat_time=0.5, think_time=0.05),
        strict_checks=False,  # pre-convergence mistakes may cause violations
    )
    table.run(until=150.0)
    return table


def trace_bytes(table: DiningTable) -> bytes:
    """Canonical byte serialization of the recorded trace."""
    lines = [
        json.dumps(serialize.record_to_dict(record), sort_keys=True)
        for record in table.trace
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def measure() -> dict:
    table = run_golden_scenario()
    payload = trace_bytes(table)
    return {
        "scenario": "ring-5 seed-2026 crash@25 T_c=20 mistakes horizon-150",
        "records": len(table.trace),
        "sha256": hashlib.sha256(payload).hexdigest(),
        "fingerprint": list(table.fingerprint()),
    }


def test_golden_trace_bytes_are_pinned():
    expected = json.loads(FIXTURE.read_text())
    actual = measure()
    assert actual["records"] == expected["records"], (
        "trace length diverged from the pinned recording"
    )
    assert actual["sha256"] == expected["sha256"], (
        "trace bytes diverged from the pre-refactor recording — the "
        "(time, priority, sequence) determinism contract is broken"
    )


def test_golden_fingerprint_is_pinned():
    """Event/message/meal counts pin the run beyond the trace records."""
    expected = json.loads(FIXTURE.read_text())
    table = run_golden_scenario()
    actual = json.loads(json.dumps(table.fingerprint()))  # tuples -> lists
    assert actual == expected["fingerprint"]


def run_classic_scenario(name: str) -> DiningTable:
    """The pinned scenario's ring, seed, crash and workload, run by a classic."""
    table = CLASSICS[name](
        ring(5),
        seed=2026,
        crash_plan=CrashPlan.scripted({2: 25.0}),
        workload=AlwaysHungry(eat_time=0.5, think_time=0.05),
        strict_checks=False,
    )
    table.run(until=150.0)
    return table


def measure_classic(name: str) -> dict:
    table = run_classic_scenario(name)
    return {
        "records": len(table.trace),
        "sha256": hashlib.sha256(trace_bytes(table)).hexdigest(),
        "messages": table.network.sent_count,
        "meals": {str(pid): count for pid, count in sorted(table.eat_counts().items())},
    }


@pytest.mark.parametrize("name", sorted(CLASSICS))
def test_classic_golden_trace_is_pinned(name):
    expected = json.loads(CLASSICS_FIXTURE.read_text())["classics"][name]
    assert measure_classic(name) == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(json.dumps(measure(), indent=2) + "\n")
    print(f"wrote {FIXTURE}")
    classics = {
        "scenario": "ring-5 seed-2026 crash@25 null detector horizon-150",
        "classics": {name: measure_classic(name) for name in sorted(CLASSICS)},
    }
    CLASSICS_FIXTURE.write_text(json.dumps(classics, indent=2) + "\n")
    print(f"wrote {CLASSICS_FIXTURE}")
