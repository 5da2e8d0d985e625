"""The diagnostics layer through the CLI: starving runs explain themselves.

``repro dine`` already *detected* starvation (exit code 1); these tests
pin the new behavior that it also prints :func:`explain_starvation` for
every starving diner — the paper's baseline failure (a null detector
facing a crash wedges phase 2 forever) must name the crashed neighbor
and say the crash went undetected.
"""

from repro.cli import main


class TestDineStarvationDiagnosis:
    def test_null_detector_crash_explains_the_wait(self, capsys):
        code = main([
            "dine", "--n", "5", "--crashes", "1", "--detector", "null",
            "--convergence", "0", "--horizon", "200",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "starving correct:      [" in out
        # Every starving diner gets a diagnosis block...
        assert "blocked in phase" in out
        assert "waiting for" in out
        # ...and the root cause is named: an unsuspected crashed neighbor.
        assert "CRASHED (undetected!)" in out

    def test_diagnosis_names_doorway_or_fork(self, capsys):
        main([
            "dine", "--n", "5", "--crashes", "1", "--detector", "null",
            "--convergence", "0", "--horizon", "200",
        ])
        out = capsys.readouterr().out
        assert ("shared fork" in out) or ("doorway ack" in out)

    def test_healthy_run_prints_no_diagnosis(self, capsys):
        code = main(["dine", "--n", "6", "--crashes", "1", "--horizon", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "blocked in phase" not in out
        assert "waiting for" not in out


class TestDineMetricsFlag:
    def test_metrics_snapshot_written(self, tmp_path, capsys):
        target = tmp_path / "dine.json"
        code = main([
            "dine", "--n", "6", "--crashes", "0", "--horizon", "80",
            "--metrics", str(target),
        ])
        assert code == 0
        assert "metrics written" in capsys.readouterr().out
        import json

        snapshot = json.loads(target.read_text())
        assert snapshot["counters"]
        names = {entry["name"] for entry in snapshot["counters"]}
        assert "dining.meals_total" in names
        assert "net.messages_sent_total" in names

    def test_prometheus_extension_switches_format(self, tmp_path, capsys):
        target = tmp_path / "dine.prom"
        code = main([
            "dine", "--n", "5", "--crashes", "0", "--horizon", "60",
            "--metrics", str(target),
        ])
        assert code == 0
        text = target.read_text()
        assert text.startswith("# TYPE")
        assert "repro_dining_meals_total" in text


class TestReportCommand:
    def test_report_on_small_scenario(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        json_path = tmp_path / "report.json"
        code = main(["report", "e2", "--seeds", "1", "--json", str(json_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "run report — e2" in out
        assert "channel bound:" in out
        assert "wx-safety" in out
        assert "quiescence:" in out
        assert "kernel hotspots" in out
        import json

        report = json.loads(json_path.read_text())
        assert report["summary"]["channel_max_in_transit"] <= 4
        assert report["summary"]["channel_bound_ok"] is True

    def test_warm_cache_replay_matches(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        main(["report", "e2", "--seeds", "1"])
        cold = capsys.readouterr().out
        code = main(["report", "e2", "--seeds", "1", "--cache-stats"])
        warm = capsys.readouterr().out
        assert code == 0
        assert "1 hit(s)" in warm
        # The guarantee lines are identical cold and warm.
        def pick(text):
            return [
                line for line in text.splitlines()
                if line.strip().startswith(("channel bound", "[pass] wx-safety", "quiescence:"))
            ]
        assert pick(cold) == pick(warm)

    def test_unknown_scenario_exits_two(self, capsys):
        code = main(["report", "e99"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err


class TestExperimentsFlags:
    def test_cache_stats_line(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        code = main(["experiments", "--only", "e2", "--seeds", "1", "--cache-stats"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 hit(s) / 1 miss(es)" in out

    def test_metrics_flag_writes_merged_snapshot(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        target = tmp_path / "exp.json"
        code = main([
            "experiments", "--only", "e2", "--seeds", "1", "--metrics", str(target),
        ])
        assert code == 0
        import json

        snapshot = json.loads(target.read_text())
        assert {entry["name"] for entry in snapshot["counters"]} >= {
            "dining.meals_total", "sim.events_total",
        }
