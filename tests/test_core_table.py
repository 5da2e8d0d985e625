"""Unit tests for the DiningTable harness."""

import pytest

from repro.baselines import (
    bakery_table,
    choy_singh_table,
    edge_reversal_table,
    fork_priority_table,
    lehmann_rabin_table,
    perfect_dining_table,
    ricart_agrawala_table,
)
from repro.core import (
    AlwaysHungry,
    DiningTable,
    null_detector,
    perfect_detector,
    scripted_detector,
)
from repro.detectors import NullDetector, PerfectDetector, ScriptedDetector
from repro.drinking import drinking_table
from repro.errors import ColoringError, ConfigurationError
from repro.sim.crash import CrashPlan


class TestWiring:
    def test_builds_one_diner_per_node(self, ring6):
        table = DiningTable(ring6, seed=1)
        assert sorted(table.diners) == list(range(6))

    def test_default_coloring_is_proper(self, ring6):
        table = DiningTable(ring6, seed=1)
        for a, b in ring6.edges:
            assert table.coloring[a] != table.coloring[b]

    def test_custom_coloring_validated(self, ring6):
        bad = {pid: 0 for pid in ring6.nodes}
        with pytest.raises(ColoringError):
            DiningTable(ring6, coloring=bad)

    def test_crash_plan_unknown_pid_rejected(self, ring6):
        with pytest.raises(ConfigurationError):
            DiningTable(ring6, crash_plan=CrashPlan.scripted({99: 1.0}))

    def test_detector_factories(self, ring6):
        assert isinstance(DiningTable(ring6, detector=null_detector()).detector, NullDetector)
        assert isinstance(DiningTable(ring6, detector=perfect_detector()).detector, PerfectDetector)
        assert isinstance(DiningTable(ring6, detector=scripted_detector()).detector, ScriptedDetector)

    def test_scripted_factory_rejects_conflicting_mistakes(self, ring6):
        from repro.detectors.scripted import MistakeInterval

        factory = scripted_detector(
            convergence_time=10.0,
            random_mistakes=True,
            mistakes=(MistakeInterval(0, 1, 1.0, 2.0),),
        )
        with pytest.raises(ConfigurationError):
            DiningTable(ring6, detector=factory)

    def test_correct_pids_excludes_faulty(self, ring6):
        table = DiningTable(ring6, crash_plan=CrashPlan.scripted({2: 5.0, 4: 7.0}))
        assert table.correct_pids == (0, 1, 3, 5)


class TestExecution:
    def test_run_returns_self_for_chaining(self, ring6):
        table = DiningTable(ring6, seed=1)
        assert table.run(until=10.0) is table

    def test_run_is_resumable(self, ring6):
        table = DiningTable(ring6, seed=1)
        table.run(until=10.0)
        first = sum(table.eat_counts().values())
        table.run(until=50.0)
        assert sum(table.eat_counts().values()) > first

    def test_clock_advances_to_horizon(self, ring6):
        table = DiningTable(ring6, seed=1).run(until=25.0)
        assert table.sim.now == 25.0


class TestDeterminism:
    def test_same_seed_identical_runs(self, ring6):
        results = []
        for _ in range(2):
            table = DiningTable(
                ring6,
                seed=42,
                detector=scripted_detector(convergence_time=20.0, random_mistakes=True),
                crash_plan=CrashPlan.scripted({1: 15.0}),
            )
            table.run(until=120.0)
            results.append(
                (
                    table.eat_counts(),
                    len(table.violations()),
                    table.message_stats.total,
                    table.sim.processed_events,
                )
            )
        assert results[0] == results[1]

    def test_different_seeds_diverge(self, ring6):
        def outcome(seed):
            table = DiningTable(
                ring6,
                seed=seed,
                workload=AlwaysHungry(eat_time=1.0, think_time=0.01),
                latency=None,
            )
            table.run(until=60.0)
            return table.eat_counts()

        # Fixed latency makes runs identical across seeds; use workload
        # randomness via Poisson instead for divergence.
        from repro.core import PoissonWorkload

        def poisson_outcome(seed):
            table = DiningTable(ring6, seed=seed, workload=PoissonWorkload())
            table.run(until=120.0)
            return table.eat_counts()

        assert poisson_outcome(1) != poisson_outcome(2)


class TestAnalysisConveniences:
    def test_failure_free_run_is_clean(self, ring6):
        table = DiningTable(ring6, seed=3).run(until=150.0)
        assert table.violations() == []
        assert table.starving_correct(patience=60.0) == []
        assert table.max_overtaking() <= 2
        assert table.throughput() > 0.0

    def test_monitors_observe_traffic(self, ring6):
        table = DiningTable(ring6, seed=3).run(until=50.0)
        assert table.message_stats.total > 0
        assert table.occupancy.max_occupancy >= 1
        assert set(table.message_stats.by_type) <= {"Ping", "Ack", "ForkRequest", "Fork"}

    def test_response_times_for_specific_pids(self, ring6):
        table = DiningTable(ring6, seed=3).run(until=100.0)
        assert len(table.response_times([0])) > 0
        assert len(table.response_times()) >= len(table.response_times([0]))


@pytest.mark.parametrize(
    "helper,fixed",
    [
        (bakery_table, ("diner_factory", "detector")),
        (ricart_agrawala_table, ("diner_factory", "detector")),
        (lehmann_rabin_table, ("diner_factory", "detector")),
        (edge_reversal_table, ("diner_factory", "detector")),
        (choy_singh_table, ("diner_factory", "detector")),
        (fork_priority_table, ("diner_factory",)),
        (perfect_dining_table, ("detector",)),
        (drinking_table, ("diner_factory",)),
    ],
    ids=lambda value: value.__name__ if callable(value) else "-".join(value),
)
def test_table_helpers_reject_the_keywords_they_fix(ring6, helper, fixed):
    for name in fixed:
        with pytest.raises(TypeError, match=f"{helper.__name__} fixes '{name}'"):
            helper(ring6, **{name: None})
