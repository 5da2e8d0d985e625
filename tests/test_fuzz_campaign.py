"""Campaigns and the mutation-testing harness.

Marked ``fuzz``: the full-registry kill test runs dozens of simulated
plans.  The fast tier (``-m "not fuzz"``) skips this module; CI's fuzz
job and the default full run include it.
"""

import concurrent.futures
import os

import pytest

import repro.faults.campaign as campaign_module
import repro.pool as pool_module
from repro.cli import main as cli_main
from repro.errors import ConfigurationError, SimulationError
from repro.faults import (
    CampaignSpec,
    mutant_names,
    run_campaign,
    run_mutation_harness,
    run_plan_kernel,
    shrink_plan,
    write_witness,
)
from repro.scenarios import Runner, map_seeds

pytestmark = pytest.mark.fuzz

#: Fields of ``CampaignResult.to_json()`` that describe how the walk was
#: run, not what it found.
TIMING = ("elapsed", "cpu_seconds", "jobs")


def _findings(result) -> dict:
    data = result.to_json()
    for key in TIMING:
        del data[key]
    return data


def _forbid_pools(monkeypatch) -> None:
    def explode(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", explode)


def test_clean_campaign_has_zero_violations():
    result = run_campaign(CampaignSpec(n=5, seed=0, runs=12))
    assert result.ok, result.describe()
    assert result.runs_executed == 12
    assert result.violation_count() == 0
    # Passing runs drop their artifacts (memory discipline).
    assert all(r.trace is None and not r.wire for r in result.results)


def test_campaign_is_deterministic():
    spec = CampaignSpec(n=5, seed=4, runs=6)
    a = run_campaign(spec)
    b = run_campaign(spec)
    assert [r.plan for r in a.results] == [r.plan for r in b.results]
    assert [r.verdict.statuses() for r in a.results] == [
        r.verdict.statuses() for r in b.results
    ]


def test_campaign_budget_truncates_without_reordering():
    # A zero budget still executes the first run, then stops.
    result = run_campaign(CampaignSpec(n=5, seed=0, runs=50, budget_seconds=0.0))
    assert result.budget_exhausted
    assert result.runs_executed == 1
    full = run_campaign(CampaignSpec(n=5, seed=0, runs=2))
    assert result.results[0].plan == full.results[0].plan


def test_job_count_changes_nothing_a_campaign_finds():
    spec = CampaignSpec(topology="mixed", n=6, seed=0, runs=16)
    serial = run_campaign(spec, jobs=1)
    pooled = run_campaign(spec, jobs=2)
    default = run_campaign(spec)
    assert serial.jobs == 1
    if pool_module.available_cpus() > 1:
        assert pooled.jobs == 2 and default.jobs == pool_module.available_cpus()
    assert _findings(serial) == _findings(pooled) == _findings(default)
    assert serial.cpu_seconds > 0 and pooled.cpu_seconds > 0
    # The spec is a cache key: how it was walked stays out of it.
    assert "jobs" not in spec.to_json()


@pytest.mark.parametrize("mutant", ["greedy-eater", "stale-ack-accept"])
def test_stop_on_failure_truncates_at_the_same_index_for_every_job_count(mutant):
    # greedy-eater dies on run 0; stale-ack-accept survives until run 4,
    # so a pool has judged later indices speculatively by then.
    spec = CampaignSpec(n=5, seed=0, runs=16, mutant=mutant, stop_on_failure=True)
    walks = [run_campaign(spec, jobs=jobs) for jobs in (1, 2, None)]
    for walk in walks:
        assert walk.runs_executed == walks[0].runs_executed < 16
        assert walk.first_failure_index == walk.runs_executed - 1
        assert not walk.budget_exhausted
        assert [r.verdict.statuses() for r in walk.results] == [
            r.verdict.statuses() for r in walks[0].results
        ]


def test_budget_cut_pool_walk_is_a_contiguous_prefix():
    spec = CampaignSpec(topology="mixed", n=8, seed=0, runs=400, budget_seconds=0.2)
    result = run_campaign(spec, jobs=2)
    assert result.budget_exhausted
    assert 1 <= result.runs_executed < 400
    assert [r.plan for r in result.results] == [
        spec.plan(index) for index in range(result.runs_executed)
    ]


def test_pool_walk_failure_carries_artifacts_the_shrinker_accepts(tmp_path, capsys):
    spec = CampaignSpec(n=5, seed=0, runs=16, mutant="stale-ack-accept")
    result = run_campaign(spec, jobs=2)
    failure = result.first_failure
    assert result.first_failure_index == 4
    assert failure.trace is not None and failure.wire
    # Only the first failing index is replayed with artifacts on.
    assert all(r.trace is None and not r.wire for r in result.results if r is not failure)
    # The artifacts re-judge to the verdict the worker returned.
    again = run_plan_kernel(failure.plan)
    assert again.verdict.statuses() == failure.verdict.statuses()
    shrunk = shrink_plan(failure.plan, baseline=failure)
    assert set(shrunk.target) == set(failure.failed)
    directory = write_witness(failure, str(tmp_path / "wit"))
    assert {"trace.jsonl", "wire.jsonl"} <= set(os.listdir(directory))
    with open(os.path.join(directory, "README.md"), encoding="utf-8") as fh:
        command = next(line for line in fh if line.startswith("repro check"))
    argv = command.split()[1:]
    argv[1] = os.path.join(directory, argv[1])  # trace.jsonl
    argv[2] = os.path.join(directory, argv[2])  # wire.jsonl
    assert cli_main(argv) == 1
    assert "FAIL" in capsys.readouterr().out


def test_replay_that_disagrees_with_the_walk_raises(monkeypatch):
    real = campaign_module.run_plan

    def drifting(plan, **kwargs):
        result = real(plan, **kwargs)
        if kwargs.get("artifacts", True):  # the parent's replay, not the walk
            result.events += 1
        return result

    monkeypatch.setattr(campaign_module, "run_plan", drifting)
    spec = CampaignSpec(n=5, seed=0, runs=3, mutant="greedy-eater")
    with pytest.raises(SimulationError, match="replay .* diverged .* events"):
        run_campaign(spec, jobs=1)


def _campaign_row(*, seed: int):
    """Runs in a Runner/map_seeds worker: a campaign big enough to pool."""
    result = run_campaign(CampaignSpec(n=5, seed=seed, runs=16))
    return [{"seed": seed, "jobs": result.jobs, "findings": _findings(result)}]


def test_campaign_inside_a_pool_worker_builds_no_grandchildren(monkeypatch):
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    class TopLevelOnly(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            assert multiprocessing.parent_process() is None, "pool inside a worker"
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", TopLevelOnly)
    serial = map_seeds(_campaign_row, seeds=(0, 1), jobs=1)
    pooled = map_seeds(_campaign_row, seeds=(0, 1), jobs=2)
    if pool_module.available_cpus() > 1:
        assert [rows[0]["jobs"] for rows in pooled] == [1, 1]
    assert [rows[0]["findings"] for rows in pooled] == [
        rows[0]["findings"] for rows in serial
    ]
    # The registered scenario rides the same path.
    overrides = {"runs": 16}
    one = Runner(jobs=1, use_cache=False).run("fuzz_clean", seeds=(0, 1), overrides=overrides)
    two = Runner(jobs=2, use_cache=False).run("fuzz_clean", seeds=(0, 1), overrides=overrides)
    assert one.rows == two.rows


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity masks")
def test_one_cpu_affinity_mask_builds_no_pool(monkeypatch):
    _forbid_pools(monkeypatch)
    spec = CampaignSpec(n=5, seed=0, runs=16)
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        masked = run_campaign(spec)
    finally:
        os.sched_setaffinity(0, mask)
    assert masked.jobs == 1
    assert _findings(masked) == _findings(run_campaign(spec, jobs=1))


def test_live_campaign_never_builds_a_pool(monkeypatch):
    _forbid_pools(monkeypatch)

    def kernel_standing_in_for_live(plan, *, substrate, judge):
        assert substrate == "live"
        return run_plan_kernel(plan, judge=judge)

    monkeypatch.setattr(campaign_module, "run_plan", kernel_standing_in_for_live)
    result = run_campaign(CampaignSpec(n=5, seed=0, runs=16, substrate="live"), jobs=4)
    assert result.jobs == 1 and result.runs_executed == 16
    assert all(r.trace is None and not r.wire for r in result.results)


def test_campaign_stop_on_failure_short_circuits():
    spec = CampaignSpec(n=5, seed=0, runs=10, mutant="greedy-eater", stop_on_failure=True)
    result = run_campaign(spec)
    assert not result.ok
    assert result.runs_executed < 10
    # The failing run keeps its artifacts for the shrinker.
    assert result.first_failure.trace is not None


def test_mutation_harness_kills_the_whole_registry():
    report = run_mutation_harness(base=CampaignSpec(n=5, seed=0, runs=10))
    assert report.total == len(mutant_names())
    assert report.killed >= report.total - 1, report.describe()
    # Every kill is on an anticipated property (the registry documents
    # what each bug breaks).
    for outcome in report.outcomes:
        if outcome.killed:
            assert outcome.matched_expected, (
                f"{outcome.name} killed by unexpected "
                f"{outcome.failed_properties}, expected {outcome.expected}"
            )
            assert outcome.killing_result is not None


def test_mutation_harness_rejects_preset_mutant():
    with pytest.raises(ConfigurationError):
        run_mutation_harness(base=CampaignSpec(mutant="greedy-eater"))


def test_needs_crash_mutants_skip_crash_free_plans():
    report = run_mutation_harness(
        ["no-suspicion-substitution"], base=CampaignSpec(n=5, seed=0, runs=4)
    )
    (outcome,) = report.outcomes
    assert outcome.killed
    assert outcome.killing_result.plan.crashes
