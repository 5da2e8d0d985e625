"""Smoke test of the ledger itself (not tier-1: ``pytest benchmarks/ledger``).

Runs ``--quick`` (tiny sizes, one repetition, traced) twice and checks
that what ``BENCHMARK.json`` promises is what gets printed.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def run_quick(tmp_path, tag: str) -> tuple:
    out = tmp_path / f"{tag}.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.ledger", "--quick", "--json", str(out)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:]
    with open(out, "r", encoding="utf-8") as stream:
        return done.stdout, json.load(stream)


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("ledger")
    return run_quick(tmp_path, "first"), run_quick(tmp_path, "second")


@pytest.fixture(scope="module")
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as stream:
        return json.load(stream)


def test_every_named_metric_is_printed_with_its_unit(quick_runs, manifest):
    printed = {}
    for line in quick_runs[0][0].splitlines():
        parts = line.split()
        if parts[:1] == ["metric"]:
            _, workload, name, value, unit = parts[:5]
            float(value)
            printed[(workload, name)] = unit
    for workload in manifest["workloads"]:
        assert NAME.match(workload["name"])
        for metric in manifest["end_to_end"] + manifest["per_layer"]:
            assert NAME.match(metric["name"])
            assert printed[(workload["name"], metric["name"])] == metric["unit"]
        assert (workload["name"], "failed_share") in printed


def test_layer_table_sums_to_the_traced_wall(quick_runs):
    for cell in quick_runs[0][1]["workloads"].values():
        traced = cell["traced"]
        assert "unattributed" in traced["layer_table"]
        total = sum(row["self_s"] for row in traced["layer_table"].values())
        assert total == pytest.approx(traced["wall_s"], rel=0.05)
        assert os.path.exists(os.path.join(ROOT, traced["spans_path"]))


def test_exact_counts_repeat_across_runs(quick_runs):
    first, second = (run[1]["workloads"] for run in quick_runs)
    for name, cell in first.items():
        assert cell["failed"] == 0, cell["failures"]
        assert cell["exact"] == second[name]["exact"]
    assert first["kernel_scale"]["exact"]["sim_fingerprint"]
    assert first["kernel_fuzz"]["exact"]["sim_fingerprint"]


def test_exercise_and_bypass_pairs(quick_runs):
    cells = quick_runs[0][1]["workloads"]
    assert cells["live_loopback"]["per_layer"]["net.codec.frames_total"] == 0
    assert cells["live_wire"]["per_layer"]["net.codec.frames_total"] > 0
    for name, cell in cells.items():
        faults = sum(v for k, v in cell["per_layer"].items() if k.startswith("faults."))
        assert (faults > 0) == (name == "kernel_fuzz")
