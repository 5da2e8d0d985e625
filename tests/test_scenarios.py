"""Tests for the declarative scenario registry, runner, and result cache."""

import concurrent.futures
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.pool as pool_module
from repro.pool import ordered_map, plan_workers
from repro.scenarios import (
    ResultCache,
    Runner,
    ScenarioSpec,
    aggregate_rows,
    all_scenarios,
    get_scenario,
    map_seeds,
    scenario_names,
)

EXPECTED_NAMES = (
    "e1", "e2", "e3", "e4", "e4b", "e5", "e6",
    "e7", "e7b", "e8", "e8b", "e9", "e10",
    "load_sweep", "churn_sweep", "dme_bakeoff",
    "fuzz_clean", "fuzz_differential", "fuzz_mutation",
)

# Small but real workload shared by the determinism/cache tests: the E6
# space-accounting scenario restricted to a single 8-process ring.
SMALL_OVERRIDES = {"topology_names": ("ring",), "sizes": (8,)}


class TestRegistry:
    def test_all_experiments_registered(self):
        assert set(scenario_names()) == set(EXPECTED_NAMES)

    def test_scenarios_carry_table_metadata(self):
        for scenario in all_scenarios():
            assert scenario.title, scenario.name
            assert scenario.claim, scenario.name
            assert scenario.columns, scenario.name
            assert scenario.spec.seeds, scenario.name

    def test_experiment_family_derived_from_name(self):
        assert get_scenario("e4b").experiment == "e4"
        assert get_scenario("e7b").experiment == "e7"
        assert get_scenario("e10").experiment == "e10"

    def test_unknown_name_lists_known_ones(self):
        with pytest.raises(KeyError, match="e1"):
            get_scenario("e99")


class TestScenarioSpec:
    def test_fingerprint_is_stable(self):
        spec = ScenarioSpec(topology=("ring",), seeds=(1, 2), params={"n": 8})
        assert spec.fingerprint(scenario="x", seed=1) == spec.fingerprint(
            scenario="x", seed=1
        )

    def test_fingerprint_sensitive_to_params_and_seed(self):
        spec = ScenarioSpec(params={"n": 8})
        base = spec.fingerprint(scenario="x", seed=1)
        assert spec.fingerprint(scenario="x", seed=2) != base
        assert spec.fingerprint(scenario="y", seed=1) != base
        assert spec.with_overrides(n=9).fingerprint(scenario="x", seed=1) != base

    def test_fingerprint_ignores_param_ordering(self):
        a = ScenarioSpec(params={"n": 8, "m": 2})
        b = ScenarioSpec(params={"m": 2, "n": 8})
        assert a.fingerprint(scenario="x", seed=0) == b.fingerprint(
            scenario="x", seed=0
        )

    def test_with_helpers_do_not_mutate(self):
        spec = ScenarioSpec(seeds=(1,), params={"n": 8})
        spec.with_seeds((3, 4))
        spec.with_overrides(n=12)
        assert spec.seeds == (1,)
        assert spec.params["n"] == 8


class TestRunnerDeterminism:
    def test_parallel_rows_identical_to_serial(self, tmp_path):
        serial = Runner(jobs=1, use_cache=False).run(
            "e6", seeds=(0, 1, 2, 3), overrides=SMALL_OVERRIDES
        )
        parallel = Runner(jobs=4, use_cache=False).run(
            "e6", seeds=(0, 1, 2, 3), overrides=SMALL_OVERRIDES
        )
        assert serial.rows == parallel.rows
        assert [sr.seed for sr in serial.seed_results] == [0, 1, 2, 3]
        assert [sr.seed for sr in parallel.seed_results] == [0, 1, 2, 3]

    def test_map_seeds_parallel_matches_serial(self):
        from repro.experiments.e1_safety import run_safety

        kwargs = dict(
            topology_names=("ring",), n=6, convergence_times=(20.0,), horizon=150.0
        )
        serial = map_seeds(run_safety, seeds=(0, 1, 2), kwargs=kwargs, jobs=1)
        parallel = map_seeds(run_safety, seeds=(0, 1, 2), kwargs=kwargs, jobs=3)
        assert serial == parallel

    def test_unpicklable_run_falls_back_to_serial(self):
        def local_run(*, seed: int):
            return [{"seed": seed}]

        rows = map_seeds(local_run, seeds=(1, 2), jobs=2)
        assert rows == [[{"seed": 1}], [{"seed": 2}]]


def _late_is_quick(x: int) -> int:
    """Later items finish first, so completion order is not item order."""
    time.sleep(0.01 * (6 - x))
    return x * x


def _square(x: int) -> int:
    return x * x


class _BreaksOnThirdItem:
    """Stands in for the executor: its third future holds a broken pool."""

    def __init__(self, **kwargs):
        self.submitted = 0

    def shutdown(self, **kwargs):
        pass

    def submit(self, fn, item):
        future = Future()
        self.submitted += 1
        if self.submitted >= 3:
            future.set_exception(BrokenProcessPool("a worker died"))
        else:
            future.set_result(fn(item))
        return future


class TestOrderedMap:
    def test_results_come_in_item_order(self):
        assert list(ordered_map(_late_is_quick, range(6), jobs=2)) == [
            x * x for x in range(6)
        ]

    def test_closing_stops_pulling_items(self):
        pulled = []

        def items():
            for x in range(100):
                pulled.append(x)
                yield x

        walk = ordered_map(_square, items(), jobs=2)
        assert [next(walk), next(walk)] == [0, 1]
        walk.close()
        # Never more than one in-flight window ahead of what was consumed.
        assert len(pulled) <= 2 + 2 * pool_module.WINDOW_PER_WORKER
        assert pulled == list(range(len(pulled)))

    def test_broken_pool_finishes_in_process(self, monkeypatch):
        monkeypatch.setattr(pool_module, "available_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _BreaksOnThirdItem)
        assert list(ordered_map(_square, range(10), jobs=2)) == [x * x for x in range(10)]
        assert list(ordered_map(_square, iter(range(10)), jobs=2)) == [
            x * x for x in range(10)
        ]

    def test_pool_that_cannot_be_built_runs_in_process(self, monkeypatch):
        def refuse(**kwargs):
            raise PermissionError("no subprocesses here")

        monkeypatch.setattr(pool_module, "available_cpus", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        assert list(ordered_map(_square, range(5), jobs=2)) == [0, 1, 4, 9, 16]

    def test_nothing_to_win_means_one_worker(self, monkeypatch):
        monkeypatch.setattr(pool_module, "available_cpus", lambda: 4)
        assert plan_workers(None, 10) == 4
        assert plan_workers(8, 10) == 4  # never more workers than CPUs
        assert plan_workers(8, 3) == 3  # nor than items
        assert plan_workers(2, 1) == 1  # a single item
        assert plan_workers(2, 11, min_items=12) == 1  # below the caller's cut-over
        assert plan_workers(1, 10) == 1
        monkeypatch.setattr(pool_module, "available_cpus", lambda: 1)
        assert plan_workers(None, 10) == plan_workers(4, 10) == 1

    def test_worker_error_reraises_at_its_item(self):
        walk = ordered_map(_reciprocal, [1, 2, 0, 4], jobs=2)
        assert [next(walk), next(walk)] == [1.0, 0.5]
        with pytest.raises(ZeroDivisionError):
            next(walk)


def _reciprocal(x: int) -> float:
    return 1 / x


class TestResultCache:
    def test_cached_rows_equal_cold_rows(self, tmp_path):
        cold = Runner(jobs=1, use_cache=True, cache_dir=tmp_path).run(
            "e6", seeds=(0, 1), overrides=SMALL_OVERRIDES
        )
        assert cold.cache_hits == 0
        warm = Runner(jobs=1, use_cache=True, cache_dir=tmp_path).run(
            "e6", seeds=(0, 1), overrides=SMALL_OVERRIDES
        )
        assert warm.cache_hits == 2
        assert warm.rows == cold.rows

    def test_no_cross_talk_between_keys(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.store("e6", "aaaa", [{"n": 1}])
        assert cache.load("e6", "bbbb") is None
        assert cache.load("e1", "aaaa") is None

    def test_corrupt_entry_ignored(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.store("e6", "aaaa", [{"n": 1}])
        cache.path_for("e6", "aaaa").write_text("{not json")
        assert cache.load("e6", "aaaa") is None

    def test_clear_scopes_to_scenario(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.store("e6", "aaaa", [{"n": 1}])
        cache.store("e1", "bbbb", [{"n": 2}])
        cache.clear(scenario="e6")
        assert cache.load("e6", "aaaa") is None
        assert cache.load("e1", "bbbb") == [{"n": 2}]

    def test_no_cache_runner_writes_nothing(self, tmp_path):
        Runner(jobs=1, use_cache=False, cache_dir=tmp_path).run(
            "e6", seeds=(0,), overrides=SMALL_OVERRIDES
        )
        assert not any(tmp_path.rglob("*.json"))


class TestCheckCollection:
    def test_collect_checks_merges_per_seed_verdicts(self):
        result = Runner(jobs=1, use_cache=False, collect_checks=True).run(
            "e6", seeds=(0, 1), overrides=SMALL_OVERRIDES
        )
        assert all(r.checks is not None for r in result.seed_results)
        verdict = result.merged_checks()
        assert verdict is not None and verdict.ok
        assert verdict.statuses()["channel-bound"] == "pass"
        assert verdict.statuses()["fork-uniqueness"] == "pass"

    def test_checks_off_by_default(self):
        result = Runner(jobs=1, use_cache=False).run(
            "e6", seeds=(0,), overrides=SMALL_OVERRIDES
        )
        assert all(r.checks is None for r in result.seed_results)
        assert result.merged_checks() is None

    def test_verdicts_ride_the_cache(self, tmp_path):
        cold = Runner(jobs=1, use_cache=True, cache_dir=tmp_path, collect_checks=True).run(
            "e6", seeds=(0,), overrides=SMALL_OVERRIDES
        )
        warm = Runner(jobs=1, use_cache=True, cache_dir=tmp_path, collect_checks=True).run(
            "e6", seeds=(0,), overrides=SMALL_OVERRIDES
        )
        assert warm.cache_hits == 1
        assert warm.merged_checks().to_json() == cold.merged_checks().to_json()

    def test_rows_only_entry_recomputed_when_checks_requested(self, tmp_path):
        Runner(jobs=1, use_cache=True, cache_dir=tmp_path).run(
            "e6", seeds=(0,), overrides=SMALL_OVERRIDES
        )
        result = Runner(jobs=1, use_cache=True, cache_dir=tmp_path, collect_checks=True).run(
            "e6", seeds=(0,), overrides=SMALL_OVERRIDES
        )
        assert result.cache_hits == 0
        assert result.merged_checks() is not None


class TestAggregation:
    def test_runresult_aggregate_uses_scenario_group_by(self, tmp_path):
        result = Runner(jobs=1, use_cache=False).run(
            "e6", seeds=(0, 1), overrides=SMALL_OVERRIDES
        )
        aggregated = result.aggregate()
        assert all(row["replicates"] == 2 for row in aggregated)
        columns = result.aggregate_table_columns(aggregated)
        assert columns[0] == "topology"
        assert "replicates" in columns

    def test_missing_group_column_raises_clear_error(self):
        rows = [[{"group": "a", "value": 1}]]
        with pytest.raises(ValueError, match="grp"):
            aggregate_rows(rows, group_by=("grp",))
