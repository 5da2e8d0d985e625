"""Smoke tests for the experiment harnesses: shapes and headline claims.

These run scaled-down configurations so the full suite stays fast; the
benchmarks run the paper-scale versions.
"""

from repro.experiments import (
    e1_safety,
    e2_progress,
    e3_fairness,
    e4_channels,
    e5_quiescence,
    e6_space,
    e7_daemon,
    e8_heartbeat,
)
from repro.experiments.common import format_table, summarize


class TestCommon:
    def test_format_table_renders_all_columns(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": None}]
        text = format_table(rows, ["a", "b"], title="demo")
        assert "demo" in text and "2.50" in text and "-" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], ["a"])

    def test_summarize(self):
        stats = summarize([1.0, 2.0, 3.0, 4.0])
        assert stats["mean"] == 2.5
        assert stats["max"] == 4.0
        assert summarize([]) == {"mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}


class TestE1Safety:
    def test_zero_violations_after_cutoff(self):
        rows = e1_safety.run_safety(
            topology_names=("ring",), n=8, convergence_times=(0.0, 20.0), horizon=200.0
        )
        assert len(rows) == 2
        assert all(row["violations_after_cutoff"] == 0 for row in rows)

    def test_zero_convergence_means_zero_violations(self):
        rows = e1_safety.run_safety(
            topology_names=("ring",), n=8, convergence_times=(0.0,), horizon=200.0
        )
        assert rows[0]["violations"] == 0


class TestE2Progress:
    def test_algorithm1_wait_free_baseline_not(self):
        rows = e2_progress.run_progress(
            n=6,
            crash_counts=(0, 1),
            algorithms=("algorithm-1", "choy-singh"),
            horizon=300.0,
            patience=120.0,
        )
        by_key = {(r["algorithm"], r["crashes"]): r for r in rows}
        assert by_key[("algorithm-1", 0)]["starving_correct"] == 0
        assert by_key[("algorithm-1", 1)]["starving_correct"] == 0
        assert by_key[("choy-singh", 0)]["starving_correct"] == 0
        assert by_key[("choy-singh", 1)]["starving_correct"] > 0


class TestE3Fairness:
    def test_algorithm1_bounded_fork_priority_grows(self):
        rows = e3_fairness.run_fairness(horizons=(200.0, 600.0))
        alg1 = [r for r in rows if r["algorithm"] == "algorithm-1"]
        forks = [r for r in rows if r["algorithm"] == "fork-priority"]
        assert all(r["max_overtaking"] <= 2 for r in alg1)
        assert forks[-1]["max_overtaking"] > 2
        assert forks[-1]["max_overtaking"] > forks[0]["max_overtaking"]

    def test_ring_companion_row(self):
        row = e3_fairness.run_ring_fairness(n=6, horizon=250.0)
        assert row["max_overtaking"] <= 2


class TestE4Channels:
    def test_bound_respected_everywhere(self):
        rows = e4_channels.run_channels(topology_names=("ring", "clique"), n=8, horizon=200.0)
        assert all(row["bound_respected"] == "yes" for row in rows)
        assert all(row["max_in_transit"] <= 4 for row in rows)


class TestE5Quiescence:
    def test_no_messages_in_extension(self):
        rows = e5_quiescence.run_quiescence(
            topology_names=("ring",), n=8, crash_count=2, horizon=200.0
        )
        assert len(rows) == 2
        assert all(row["msgs_in_extension"] == 0 for row in rows)
        assert all(row["post_crash_msgs"] <= 4 * row["degree"] for row in rows)


class TestE6Space:
    def test_bits_track_degree(self):
        rows = e6_space.run_space(topology_names=("ring", "clique"), sizes=(8, 16))
        ring_rows = [r for r in rows if r["topology"] == "ring"]
        clique_rows = [r for r in rows if r["topology"] == "clique"]
        # Ring: δ constant ⇒ bits constant across n.
        assert ring_rows[0]["bits_per_process"] == ring_rows[1]["bits_per_process"]
        # Clique: δ = n−1 ⇒ bits grow.
        assert clique_rows[1]["bits_per_process"] > clique_rows[0]["bits_per_process"]
        assert all(r["bools_per_neighbor"] == 6 for r in rows)


class TestE7Daemon:
    def test_wait_free_converges_baseline_does_not(self):
        wait_free = e7_daemon.run_coloring(daemon_kind="wait-free", horizon=300.0)
        baseline = e7_daemon.run_coloring(daemon_kind="crash-oblivious", horizon=300.0)
        assert wait_free["converged"] == "yes"
        assert baseline["converged"] == "NO"

    def test_token_ring_converges(self):
        row = e7_daemon.run_token_ring(n=5, horizon=300.0)
        assert row["converged"] == "yes"

    def test_matching_rows(self):
        plain = e7_daemon.run_matching(crash_count=0, crash_aware=False, horizon=300.0)
        widow = e7_daemon.run_matching(crash_count=2, crash_aware=True, horizon=300.0)
        assert plain["converged"] == "yes"
        assert widow["converged"] == "yes"


class TestE8Heartbeat:
    def test_guarantees_end_to_end(self):
        rows = e8_heartbeat.run_gst_sweep(n=6, gsts=(30.0,), horizon=400.0, crash_count=1)
        row = rows[0]
        assert row["starving"] == 0
        assert row["violations_late"] == 0
        assert row["max_overtaking_late"] <= 2
        assert row["false_suspicions"] > 0  # the pre-GST period was hostile

    def test_scale_sweep_throughput_grows(self):
        rows = e8_heartbeat.run_scale_sweep(sizes=(6, 12), gst=30.0, horizon=250.0)
        assert rows[1]["throughput"] > rows[0]["throughput"]


class TestE4bMessageEfficiency:
    def test_msgs_per_meal_tracks_degree(self):
        from repro.experiments.e4_channels import run_message_efficiency

        rows = run_message_efficiency(topology_names=("ring", "clique"), n=10, horizon=200.0)
        by_topology = {row["topology"]: row for row in rows}
        assert by_topology["clique"]["msgs_per_meal"] > by_topology["ring"]["msgs_per_meal"]
        assert all(row["meals"] > 0 for row in rows)


class TestE7bTokenRingScaling:
    def test_steps_grow_superlinearly(self):
        from repro.experiments.e7_daemon import run_token_ring_scaling

        rows = run_token_ring_scaling(sizes=(5, 9))
        assert all(row["steps_to_converge"] is not None for row in rows)
        assert rows[1]["steps_per_n"] > rows[0]["steps_per_n"]


class TestE9Necessity:
    def test_probe_matrix_diagonal(self):
        from repro.experiments.e9_necessity import run_necessity

        rows = run_necessity(horizons=(250.0,))
        by_oracle = {row["oracle"]: row for row in rows}
        assert by_oracle["control"]["wait_free"] == "yes"
        assert by_oracle["control"]["eventual_wx"] == "yes"
        assert by_oracle["incomplete"]["wait_free"] == "NO"
        assert by_oracle["incomplete"]["eventual_wx"] == "yes"
        assert by_oracle["inaccurate"]["wait_free"] == "yes"
        assert by_oracle["inaccurate"]["eventual_wx"] == "NO"

    def test_table_counts_the_window_open_at_the_horizon(self):
        # At t=300, the horizon, 4 begins eating while 5 still eats: one
        # state in which both eat.  The table's query and the verdict are
        # the same judge, so both count it.
        from repro.experiments.e9_necessity import necessity_table

        table, _ = necessity_table("inaccurate", horizon=300.0, seed=9)
        table.run(until=300.0)
        windows = table.violations()
        verdict = table.verdict(settle=150.0)
        wx = verdict.properties["wx-safety"]
        assert len(windows) == wx.counters["overlap_windows_total"] == 49
        assert (4, 5, 300.0, 300.0) in [(w.a, w.b, w.start, w.end) for w in windows]
        assert len(table.violations_after(150.0)) == wx.counters["late_windows_total"] == 26


class TestE10Drinking:
    def test_concurrency_monotone_in_thinning_demand(self):
        from repro.experiments.e10_drinking import run_drinking

        rows = run_drinking(demands=(1.0, 0.3), n=6, horizon=200.0)
        assert rows[1]["drinks"] > rows[0]["drinks"]
        assert rows[1]["mean_concurrency"] > rows[0]["mean_concurrency"]
        assert all(row["starving"] == 0 for row in rows)
        assert all(row["late_violations"] == 0 for row in rows)
