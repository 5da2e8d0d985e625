"""The bake-off harness and the expected-status machinery it gates on."""

import json

import pytest

from repro.baselines.bakeoff import (
    ZOO,
    bakeoff_plans,
    bakeoff_windows,
    run_bakeoff,
    section7_budget_bits,
)
from repro.checks import ExpectedStatuses, describe_mismatches, worst_surprise
from repro.errors import ConfigurationError
from repro.graphs import topologies


# ----------------------------------------------------------------------
# ExpectedStatuses: partial maps where FAIL can be the right answer
# ----------------------------------------------------------------------
class TestExpectedStatuses:
    def test_partial_map_ignores_unpinned_properties(self):
        expected = ExpectedStatuses({"progress": "fail"})
        actual = {"progress": "fail", "wx-safety": "pass", "quiescence": "skip"}
        assert expected.matches(actual)
        assert expected.mismatches(actual) == []

    def test_expected_fail_flags_an_accidental_pass(self):
        # The regression the maps exist to catch: a "fixed" classic that
        # stops failing is a change in behavior, not an improvement.
        expected = ExpectedStatuses({"progress": "fail"})
        mismatches = expected.mismatches({"progress": "pass"})
        assert [m.describe() for m in mismatches] == [
            "progress: expected fail, got pass"
        ]

    def test_absent_pinned_property_is_a_mismatch(self):
        expected = ExpectedStatuses({"overtaking": "pass"})
        (mismatch,) = expected.mismatches({"progress": "pass"})
        assert mismatch.actual == "absent"

    def test_require_present_false_tolerates_absence(self):
        expected = ExpectedStatuses({"overtaking": "pass"}, require_present=False)
        assert expected.matches({"progress": "pass"})

    def test_rejects_unpinnable_status(self):
        with pytest.raises(ValueError):
            ExpectedStatuses({"progress": "skip"})

    def test_worst_surprise_ranks_fail_over_skip(self):
        expected = ExpectedStatuses({"fifo": "pass", "progress": "pass"})
        mismatches = expected.mismatches({"fifo": "skip", "progress": "fail"})
        rank, headline = worst_surprise(mismatches)
        assert rank > 0
        assert "progress" in headline
        assert describe_mismatches(mismatches)


# ----------------------------------------------------------------------
# Plans and windows
# ----------------------------------------------------------------------
def test_bakeoff_plans_cover_the_three_regimes():
    plans = bakeoff_plans(topology="ring", n=5, duration=10.0, seed=1)
    assert set(plans) == {"clean", "crash", "churn"}
    assert not plans["clean"].crashes and not plans["clean"].membership
    (crash,) = plans["crash"].crashes
    assert crash.when == "eating" and crash.deadline == pytest.approx(2.0)
    (leave,) = plans["churn"].membership
    assert leave.verb == "leave"
    # Faults land by 0.2·h, strictly inside the judge windows.
    windows = bakeoff_windows(plans["crash"])
    assert crash.deadline < windows.settle < windows.patience < 10.0


def test_bakeoff_windows_scale_with_horizon():
    short = bakeoff_windows(bakeoff_plans(topology="ring", n=5, duration=5.0, seed=1)["clean"])
    long = bakeoff_windows(bakeoff_plans(topology="ring", n=5, duration=50.0, seed=1)["clean"])
    assert long.patience == 10 * short.patience


def test_bakeoff_rejects_nonpositive_duration():
    with pytest.raises(ConfigurationError):
        bakeoff_plans(topology="ring", n=5, duration=0.0, seed=1)


def test_section7_budget_is_logarithmic_in_n():
    small = section7_budget_bits(topologies.ring(4))
    large = section7_budget_bits(topologies.ring(256))
    assert small < large <= small + 6  # 6 doublings of n, +1 bit each


# ----------------------------------------------------------------------
# The harness itself (kernel cells only: wall-clock cheap)
# ----------------------------------------------------------------------
SMOKE_ALGORITHMS = ("dsn", "bakery", "ricart_agrawala", "lehmann_rabin")


def test_kernel_bakeoff_matches_every_recorded_map():
    report = run_bakeoff(
        topologies_list=("ring",),
        n=5,
        duration=5.0,
        substrates=("kernel",),
        algorithms=SMOKE_ALGORITHMS,
    )
    assert len(report.cells) == 3 * len(SMOKE_ALGORITHMS)
    assert report.ok, describe_mismatches(
        [m for cell in report.failing() for m in cell.mismatches]
    )


def test_bakeoff_table_contrasts_dsn_and_the_classics():
    report = run_bakeoff(
        topologies_list=("ring",),
        n=5,
        duration=5.0,
        substrates=("kernel",),
        algorithms=SMOKE_ALGORITHMS,
    )
    by_key = {(c.algorithm, c.regime): c for c in report.cells}
    # The paper's algorithm recovers from the crash; the classics starve.
    assert by_key[("dsn", "crash")].statuses["progress"] == "pass"
    for classic in ("bakery", "ricart_agrawala", "lehmann_rabin"):
        assert by_key[(classic, "crash")].statuses["progress"] == "fail"
    # Only the counter-carrying classics outgrow the Section 7 budget.
    dsn = by_key[("dsn", "clean")]
    assert dsn.max_bits <= dsn.budget_bits
    for counters in ("bakery", "ricart_agrawala"):
        cell = by_key[(counters, "clean")]
        assert cell.max_bits > cell.budget_bits
    # Every kernel cell measured its wire traffic.
    assert all(c.messages > 0 and c.total_bits > 0 for c in report.cells)


def test_bakeoff_report_is_json_serializable():
    report = run_bakeoff(
        topologies_list=("ring",),
        n=4,
        duration=3.0,
        substrates=("kernel",),
        algorithms=("dsn", "bakery"),
    )
    payload = json.loads(json.dumps(report.to_json()))
    assert payload["ok"] is True
    assert payload["config"]["algorithms"] == ["dsn", "bakery"]
    assert {cell["algorithm"] for cell in payload["cells"]} == {"dsn", "bakery"}
    assert "bakery" in payload["zoo"]
    table = report.render_table()
    assert "algorithm" in table and "MISMATCH" not in table


def test_bakeoff_rejects_unknown_algorithm_and_substrate():
    with pytest.raises(ConfigurationError):
        run_bakeoff(algorithms=("dsn", "nope"))
    with pytest.raises(ConfigurationError):
        run_bakeoff(substrates=("kernel", "cloud"))


def test_zoo_expected_maps_pin_only_judgeable_statuses():
    """Every recorded map speaks the pipeline's vocabulary: pins are
    pass/fail only, and live cells pin nothing but safety (eventual
    properties are unjudged on the scaled wall clock)."""
    safety = {"fork-uniqueness", "fifo", "wx-safety"}
    for spec in ZOO.values():
        assert set(spec.expected) <= {
            "clean", "crash", "churn", "live-clean", "live-crash"
        }
        for cell_key, expected in spec.expected.items():
            assert set(expected.statuses.values()) <= {"pass", "fail"}
            if cell_key.startswith("live-"):
                assert set(expected.statuses) == safety
