"""Integration tests: probes on live tables, the runner, and reports.

The load-bearing claim is *agreement*: the online in-transit gauge must
see exactly what the always-on :class:`ChannelOccupancyMonitor` sees —
including on the Section 7 adversarial schedule that provably puts four
dining messages on one edge — so the report's "channel bound OK" line
carries the same evidentiary weight as the raising
:class:`ChannelBoundChecker`.
"""

import pytest

from repro.core import DiningTable, DistributedDaemon, scripted_detector
from repro.graphs import ring
from repro.obs import (
    MetricsRegistry,
    active_registry,
    build_report,
    collecting,
    counter_total,
    gauge_max,
    render_report_text,
    summarize_snapshot,
)
from repro.scenarios import Runner
from repro.sim.crash import CrashPlan
from repro.stabilization import GreedyRecoloring
from tests.test_channel_extreme import build_extreme_table

SMALL_OVERRIDES = {"topology_names": ("ring",), "sizes": (8,)}


def run_adversarial_table(registry=None):
    """Ring with a crash and a lying detector — plenty of traffic."""
    table = DiningTable(
        ring(8),
        seed=3,
        detector=scripted_detector(convergence_time=30.0, random_mistakes=True),
        crash_plan=CrashPlan.scripted({2: 15.0}),
        metrics=registry,
    )
    table.run(until=120.0)
    return table


class TestAmbientCollection:
    def test_table_joins_the_active_registry(self):
        with collecting() as registry:
            table = run_adversarial_table()
        assert table.metrics is registry
        assert table.instrumentation is not None
        assert counter_total(registry.snapshot(), "dining.meals_total") > 0

    def test_no_registry_no_instrumentation(self):
        assert active_registry() is None
        table = DiningTable(ring(4), seed=1)
        assert table.metrics is None
        assert table.instrumentation is None

    def test_explicit_registry_beats_ambient(self):
        explicit = MetricsRegistry()
        with collecting():
            table = DiningTable(ring(4), seed=1, metrics=explicit)
        assert table.metrics is explicit


class TestChannelGaugeAgreement:
    def test_matches_occupancy_monitor_on_adversarial_run(self):
        with collecting() as registry:
            table = run_adversarial_table()
        probe = table.instrumentation.network
        assert probe.max_in_transit() == table.occupancy.max_occupancy
        peaks = {edge: peak for edge, peak in table.occupancy.peak.items() if peak}
        assert probe.edge_peaks() == peaks
        snapshot = registry.snapshot()
        assert gauge_max(snapshot, "net.in_transit", layer="dining") == (
            table.occupancy.max_occupancy
        )

    def test_reaches_four_on_the_section7_extreme(self):
        # The scripted schedule from test_channel_extreme saturates the
        # bound; the gauge must witness the same 4 the checker allowed.
        with collecting() as registry:
            table = build_extreme_table()
            table.run(until=120.0)
        assert table.occupancy.peak[(0, 1)] == 4
        probe = table.instrumentation.network
        assert probe.max_in_transit() == 4
        assert probe.edge_peaks()[(0, 1)] == 4
        snapshot = registry.snapshot()
        assert gauge_max(snapshot, "net.in_transit", layer="dining") == 4
        # At the bound, not over it: no excursion was counted.
        assert counter_total(snapshot, "net.channel_bound_exceeded_total") == 0

    def test_back_to_back_tables_do_not_blend_live_gauges(self):
        with collecting() as registry:
            first = run_adversarial_table()
            second = run_adversarial_table()
        # Same seed, same schedule — each table's probe saw its own peak.
        assert (
            first.instrumentation.network.max_in_transit()
            == second.instrumentation.network.max_in_transit()
            == first.occupancy.max_occupancy
        )
        assert registry is second.metrics


class TestDeltaSafety:
    def test_double_snapshot_does_not_double_count(self):
        with collecting() as registry:
            run_adversarial_table()
        first = registry.snapshot()
        second = registry.snapshot()
        assert first == second

    def test_mid_run_snapshot_then_final(self):
        with collecting() as registry:
            table = DiningTable(ring(6), seed=2, metrics=None)
            table.run(until=40.0)
            partial = counter_total(registry.snapshot(), "sim.events_total")
            table.run(until=120.0)
            total = counter_total(registry.snapshot(), "sim.events_total")
        assert 0 < partial < total
        assert total == table.sim.processed_events


    def test_one_ended_traffic_counts_by_type_without_touching_edges(self):
        """``type_cells`` is how the live host counts cross-host frames:
        same counters as the monitor hooks, delta-safe, no edge gauge."""
        from repro.core.messages import Fork, Ping
        from repro.obs.instrument import DELIVERED, DROPPED, SENT, NetworkInstrument

        registry = MetricsRegistry()
        probe = NetworkInstrument(registry, run="t")
        probe.on_send(0, 1, Ping(0), 1.0)  # a two-ended (local) send
        probe.type_cells(Ping(0))[SENT] += 1  # a one-ended (remote) send
        probe.type_cells(Fork(1))[DELIVERED] += 1
        probe.flush()
        probe.type_cells(Fork(1))[DROPPED] += 1
        probe.flush()
        snapshot = registry.snapshot()
        assert counter_total(snapshot, "net.messages_sent_total", type="Ping") == 2
        assert counter_total(snapshot, "net.messages_delivered_total", type="Fork") == 1
        assert counter_total(snapshot, "net.messages_dropped_total", type="Fork") == 1
        assert probe.edge_peaks() == {(0, 1): 1}


class TestProfilerAndPhases:
    def test_hotspots_account_for_real_work(self):
        with collecting() as registry:
            table = run_adversarial_table()
        snapshot = registry.snapshot()
        events = counter_total(snapshot, "profile.events_total")
        assert events == table.sim.processed_events
        assert counter_total(snapshot, "profile.wall_seconds_total") > 0
        summary = summarize_snapshot(snapshot)
        assert summary["hotspots"], "expected at least one hotspot row"
        top = summary["hotspots"][0]
        assert top["events"] > 0 and top["seconds"] > 0

    def test_phase_seconds_cover_the_run(self):
        with collecting() as registry:
            run_adversarial_table()
        snapshot = registry.snapshot()
        by_phase = {
            (entry["labels"] or {}).get("phase"): entry["value"]
            for entry in snapshot["counters"]
            if entry["name"] == "dining.phase_seconds_total"
        }
        # 8 diners over 120 time units; the crashed one stops at t=15.
        total = sum(by_phase.values())
        assert total == pytest.approx(7 * 120.0 + 15.0, rel=0.01)

    def test_daemon_layer_counters(self):
        with collecting() as registry:
            daemon = DistributedDaemon(
                ring(6), GreedyRecoloring(ring(6)), seed=5, step_time=0.5
            )
            daemon.run(until=60.0)
        snapshot = registry.snapshot()
        assert (
            counter_total(snapshot, "daemon.protocol_steps_total")
            == daemon.steps_executed
        )


class TestRunnerIntegration:
    def _runner(self, tmp_path, **kwargs):
        return Runner(use_cache=True, cache_dir=tmp_path, **kwargs)

    def test_cold_run_collects_and_caches_metrics(self, tmp_path):
        runner = self._runner(tmp_path, collect_metrics=True)
        result = runner.run("e6", seeds=[1], overrides=SMALL_OVERRIDES)
        (seed_result,) = result.seed_results
        assert not seed_result.cached
        assert seed_result.metrics is not None
        assert counter_total(seed_result.metrics, "dining.meals_total") > 0
        assert runner.cache_stats.stores == 1

    def test_warm_hit_replays_metrics(self, tmp_path):
        self._runner(tmp_path, collect_metrics=True).run(
            "e6", seeds=[1], overrides=SMALL_OVERRIDES
        )
        runner = self._runner(tmp_path, collect_metrics=True)
        result = runner.run("e6", seeds=[1], overrides=SMALL_OVERRIDES)
        (seed_result,) = result.seed_results
        assert seed_result.cached
        assert seed_result.metrics is not None
        assert runner.cache_stats.hits == 1
        assert runner.cache_stats.bytes_read > 0

    def test_rows_only_entry_is_recomputed_for_metrics(self, tmp_path):
        plain = self._runner(tmp_path)
        baseline = plain.run("e6", seeds=[1], overrides=SMALL_OVERRIDES)
        runner = self._runner(tmp_path, collect_metrics=True)
        result = runner.run("e6", seeds=[1], overrides=SMALL_OVERRIDES)
        (seed_result,) = result.seed_results
        assert not seed_result.cached  # the rows-only entry did not count
        assert seed_result.metrics is not None
        assert result.rows == baseline.rows  # instrumentation changed nothing

    def test_merged_metrics_spans_seeds(self, tmp_path):
        runner = self._runner(tmp_path, collect_metrics=True)
        result = runner.run("e6", seeds=[1, 2], overrides=SMALL_OVERRIDES)
        merged = result.merged_metrics()
        per_seed = sum(
            counter_total(r.metrics, "dining.meals_total") for r in result.seed_results
        )
        assert counter_total(merged, "dining.meals_total") == per_seed


class TestRunReport:
    def test_report_fields_and_rendering(self, tmp_path):
        runner = Runner(use_cache=True, cache_dir=tmp_path, collect_metrics=True)
        result = runner.run("e6", seeds=[1], overrides=SMALL_OVERRIDES)
        report = build_report(result, top=3)
        summary = report["summary"]
        assert summary["channel_bound_ok"] is True
        assert 0 < summary["channel_max_in_transit"] <= 4
        assert summary["events_processed"] > 0
        assert len(summary["hotspots"]) <= 3
        assert report["seeds_without_metrics"] == []
        text = render_report_text(report)
        assert "channel bound" in text
        assert "kernel hotspots" in text
        assert "max %d in transit per edge" % summary["channel_max_in_transit"] in text
