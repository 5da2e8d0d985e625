"""Experiment harnesses: one module per published claim (see DESIGN.md).

Each ``eN_*`` module exposes ``run_*`` functions returning row dicts and a
``main()`` that prints a paper-style table.  ``python -m repro
experiments`` reproduces the full suite.
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
    e9_necessity,
    e10_drinking,
    load_sweep,
)
from repro.baselines import bakeoff as dme_bakeoff  # registers dme_bakeoff
from repro.faults import scenarios as fuzz_scenarios  # registers the fuzz_* family

ALL_EXPERIMENTS = (
    e1_safety,
    e2_progress,
    e3_fairness,
    e4_channels,
    e5_quiescence,
    e6_space,
    e7_daemon,
    e8_heartbeat,
    e9_necessity,
    e10_drinking,
    load_sweep,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "e1_safety",
    "e2_progress",
    "e3_fairness",
    "e4_channels",
    "e5_quiescence",
    "e6_space",
    "e7_daemon",
    "e8_heartbeat",
    "e9_necessity",
    "e10_drinking",
    "load_sweep",
]
