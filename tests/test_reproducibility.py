"""Reproducibility regressions: runs replay bit-for-bit from the seed.

Fingerprints digest event counts, traffic, meals, and violations; any
accidental nondeterminism (hash-order iteration, wall-clock use, shared
RNG state) breaks them immediately.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.baselines import choy_singh_table, edge_reversal_table, fork_priority_table
from repro.core import AlwaysHungry, DiningTable, PoissonWorkload, heartbeat_detector, scripted_detector
from repro.drinking import RandomThirst, drinking_table
from repro.graphs import clique, grid, ring
from repro.sim.crash import CrashPlan
from repro.sim.latency import LogNormalLatency, PartialSynchronyLatency
from repro.sim.rng import RandomStreams


def fingerprint_of(build):
    table = build()
    table.run(until=150.0)
    return table.fingerprint()


class TestFingerprintStability:
    def test_dining_with_everything_on(self):
        def build():
            return DiningTable(
                ring(8),
                seed=42,
                detector=scripted_detector(convergence_time=30.0, random_mistakes=True),
                crash_plan=CrashPlan.random(range(8), 2, (10.0, 60.0), RandomStreams(7)),
                workload=PoissonWorkload(),
                latency=LogNormalLatency(),
            )

        assert fingerprint_of(build) == fingerprint_of(build)

    def test_heartbeat_stack(self):
        def build():
            return DiningTable(
                ring(6),
                seed=9,
                detector=heartbeat_detector(initial_timeout=2.0),
                latency=PartialSynchronyLatency(gst=40.0),
                crash_plan=CrashPlan.scripted({2: 25.0}),
            )

        assert fingerprint_of(build) == fingerprint_of(build)

    def test_drinking(self):
        def build():
            return drinking_table(
                clique(6),
                seed=5,
                workload=RandomThirst(demand=0.4),
                detector=scripted_detector(convergence_time=20.0, random_mistakes=True),
            )

        assert fingerprint_of(build) == fingerprint_of(build)

    @pytest.mark.parametrize(
        "factory", [choy_singh_table, fork_priority_table, edge_reversal_table]
    )
    def test_baselines(self, factory):
        def build():
            return factory(
                ring(6),
                seed=3,
                workload=AlwaysHungry(eat_time=1.0, think_time=0.01),
                crash_plan=CrashPlan.scripted({1: 30.0}),
            )

        assert fingerprint_of(build) == fingerprint_of(build)

    def test_different_seed_changes_fingerprint(self):
        def build(seed):
            return DiningTable(
                grid(3, 3),
                seed=seed,
                detector=scripted_detector(convergence_time=30.0, random_mistakes=True),
                workload=PoissonWorkload(),
            )

        first = build(1)
        first.run(until=150.0)
        second = build(2)
        second.run(until=150.0)
        assert first.fingerprint() != second.fingerprint()

    def test_fingerprint_tracks_progress(self):
        table = DiningTable(ring(6), seed=1, detector=scripted_detector())
        table.run(until=50.0)
        early = table.fingerprint()
        table.run(until=100.0)
        assert table.fingerprint() != early


class TestReportGenerator:
    def test_markdown_table_shapes(self):
        from repro.experiments.report import _markdown_table

        rows = [{"a": 1, "b": 2.345}, {"a": None, "b": "x"}]
        text = _markdown_table(rows, ["a", "b"])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "|---|---|"
        assert "| 1 | 2.35 |" in text
        assert "| - | x |" in text


# A mutant whose diner-local witnesses come from whole-diner re-checks:
# their order once followed ``hash(None)``, which is address-based before
# CPython 3.12, so it changed from interpreter to interpreter.
_VERDICT_SCRIPT = """
import json
from repro.faults import run_plan_kernel, sample_plan
for index in range(4):
    plan = sample_plan(
        topology="ring", n=6, seed=0, index=index, mutant="dropped-doorway-reset"
    )
    print(json.dumps(run_plan_kernel(plan).verdict.to_json(), sort_keys=True))
"""


def test_verdict_json_is_byte_stable_across_interpreters():
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _VERDICT_SCRIPT],
            env=env,
            capture_output=True,
            check=True,
            timeout=120,
        ).stdout
        for _ in range(3)
    ]
    assert b"diner-local" in outputs[0]
    assert outputs[0] == outputs[1] == outputs[2]
