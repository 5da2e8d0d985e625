"""Measurement substrate: trace records, recorder, analysis.

This package records and measures runs; it does not judge them.  Every
paper property, Theorems 1–3 included, is judged by the
substrate-agnostic :mod:`repro.checks` subsystem.
"""

from repro.trace.analysis import (
    jain_fairness_index,
    Interval,
    all_response_times,
    crash_times,
    eat_counts,
    eat_starts,
    eating_intervals,
    hungry_sessions,
    response_times,
    throughput,
)
from repro.trace.events import (
    EATING,
    HUNGRY,
    PHASES,
    THINKING,
    Crash,
    DoorwayChange,
    PhaseChange,
    ProtocolStep,
    SuspicionChange,
    TransientFault,
)
from repro.trace.recorder import StreamingTraceRecorder, TraceRecorder
from repro.trace.serialize import dump_jsonl, dump_path, load_jsonl, load_path
from repro.trace.timeline import render_meal_ledger, render_timeline

__all__ = [
    "Crash",
    "DoorwayChange",
    "EATING",
    "HUNGRY",
    "Interval",
    "PHASES",
    "PhaseChange",
    "ProtocolStep",
    "StreamingTraceRecorder",
    "SuspicionChange",
    "THINKING",
    "TraceRecorder",
    "TransientFault",
    "all_response_times",
    "crash_times",
    "dump_jsonl",
    "dump_path",
    "eat_counts",
    "eat_starts",
    "eating_intervals",
    "hungry_sessions",
    "jain_fairness_index",
    "load_jsonl",
    "load_path",
    "render_meal_ledger",
    "render_timeline",
    "response_times",
    "throughput",
]
