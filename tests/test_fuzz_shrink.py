"""The delta-debugging shrinker and its witness artifacts."""

import json
import os

import pytest

from repro.cli import main as cli_main
from repro.errors import ConfigurationError
from repro.faults import (
    CrashSpec,
    FaultPlan,
    FlapSpec,
    LatencySpec,
    sample_plan,
    shrink_plan,
    write_witness,
)

pytestmark = pytest.mark.fuzz

#: A deliberately over-dressed failing plan: the bug (greedy-eater) needs
#: none of the adversary, so everything should shrink away.
BAGGY = FaultPlan(
    n=5,
    seed=0,
    horizon=120.0,
    latency=LatencySpec.of("uniform", low=0.3, high=1.8),
    crashes=(CrashSpec(pid=4, at=30.0),),
    flaps=FlapSpec(convergence=10.0, mistakes_per_edge=1.0),
    mutant="greedy-eater",
)


def test_shrink_reaches_the_known_minimum():
    shrunk = shrink_plan(BAGGY)
    assert "wx-safety" in shrunk.result.failed
    # Known minimal witness for an unconditional-eat bug: the smallest
    # ring, no crashes, no flaps, fixed latency, floor horizon.
    assert shrunk.plan.n == 3
    assert shrunk.plan.crashes == ()
    assert shrunk.plan.flaps == FlapSpec(detection_delay=shrunk.plan.flaps.detection_delay)
    assert shrunk.plan.latency == LatencySpec.of("fixed", delay=1.0)
    assert shrunk.plan.horizon == 20.0
    assert shrunk.plan.mutant == "greedy-eater"
    assert shrunk.reduced and shrunk.runs <= 64


def test_shrink_preserves_the_failing_property():
    shrunk = shrink_plan(BAGGY)
    assert set(shrunk.target) & set(shrunk.result.failed)
    # Re-running the minimized plan from scratch reproduces the failure.
    from repro.faults import run_plan_kernel

    again = run_plan_kernel(shrunk.plan)
    assert set(shrunk.target) & set(again.failed)


def test_shrink_refuses_a_passing_plan():
    with pytest.raises(ConfigurationError):
        shrink_plan(FaultPlan(n=3, seed=1, horizon=40.0))


def test_witness_replays_as_fail_through_repro_check(tmp_path, capsys):
    shrunk = shrink_plan(BAGGY)
    directory = write_witness(shrunk.result, str(tmp_path / "wit"), shrink=shrunk)

    files = set(os.listdir(directory))
    assert {"plan.json", "trace.jsonl", "wire.jsonl", "verdict.json",
            "shrink.json", "README.md"} <= files

    # plan.json round-trips to the minimized plan.
    assert FaultPlan.load(os.path.join(directory, "plan.json")) == shrunk.plan

    # The README's own `repro check` command re-judges the run as FAIL.
    with open(os.path.join(directory, "README.md"), encoding="utf-8") as fh:
        command = next(line for line in fh if line.startswith("repro check"))
    argv = command.split()[1:]
    argv[1] = os.path.join(directory, argv[1])  # trace.jsonl
    argv[2] = os.path.join(directory, argv[2])  # wire.jsonl
    exit_code = cli_main(argv)
    out = capsys.readouterr().out
    assert exit_code == 1
    assert "wx-safety" in out and "FAIL" in out


def test_churn_witness_replays_as_fail_through_repro_check(tmp_path, capsys):
    """``repro check`` rebuilds the topology timeline from the stream's
    own membership records: the rejoined pid is alive again, and ◇WX is
    judged over the edges' existence intervals."""
    plan = sample_plan(topology="ring", n=6, seed=0, index=7)
    shrunk = shrink_plan(plan.with_(mutant="unreclaimed-leave"))
    assert shrunk.plan.membership
    directory = write_witness(shrunk.result, str(tmp_path / "wit"), shrink=shrunk)

    with open(os.path.join(directory, "README.md"), encoding="utf-8") as fh:
        command = next(line for line in fh if line.startswith("repro check"))
    argv = command.split()[1:]
    argv[1] = os.path.join(directory, argv[1])  # trace.jsonl
    argv[2] = os.path.join(directory, argv[2])  # wire.jsonl
    argv += ["--json", str(tmp_path / "offline.json")]
    assert cli_main(argv) == 1
    capsys.readouterr()
    with open(tmp_path / "offline.json", encoding="utf-8") as fh:
        offline = json.load(fh)["properties"]
    online = shrunk.result.verdict.properties
    assert offline["wx-safety"]["status"] == "fail"
    assert "[epoch" in offline["wx-safety"]["violations"][0]["detail"]
    # Sends to the rejoined pid are ordinary traffic again, as online.
    assert (
        offline["quiescence"]["counters"]["post_crash_sends_total"]
        == online["quiescence"].counters["post_crash_sends_total"]
    )


def test_witness_verdict_json_matches_run(tmp_path):
    shrunk = shrink_plan(BAGGY)
    directory = write_witness(shrunk.result, str(tmp_path / "wit"))
    with open(os.path.join(directory, "verdict.json"), encoding="utf-8") as fh:
        data = json.load(fh)
    assert data["verdict"]["ok"] is False
    assert "wx-safety" in data["verdict"]["properties"]
    assert data["plan"] == shrunk.plan.to_json()
