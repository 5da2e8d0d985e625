"""ASCII timeline rendering of dining traces.

Turns a recorded trace into a per-diner lane chart — the fastest way to
*see* a run: hungry stretches, meals and crashes.

::

    t=0.0                                                        t=60.0
    0 |..hhhh#####.hh####..hhhhhhhhhhhh####..............................|
    1 |..hh####..hhhh#####.hh####..hh####..hh####..hh####..hh####..hh####|
    2 |..hhhh######x                                                     |
        legend: . thinking   h hungry   # eating   x crashed

Rendering is resolution-based sampling (one character per bucket), which
is honest about what it is: a visualization, not a measurement —
measurements stay in :mod:`repro.trace.analysis`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.trace.analysis import crash_times, eating_intervals, hungry_sessions
from repro.trace.events import EATING, HUNGRY, THINKING
from repro.trace.recorder import TraceRecorder

ProcessId = int

GLYPHS = {THINKING: ".", HUNGRY: "h", EATING: "#"}
CRASH_GLYPH = "x"
LEGEND = "legend: . thinking   h hungry   # eating   x crashed (blank: not yet started / crashed)"


def _phase_at(samples: List[tuple], time: float) -> Optional[str]:
    """Phase of a process at ``time`` given its (time, phase) changes."""
    phase = None
    for change_time, new_phase in samples:
        if change_time > time:
            break
        phase = new_phase
    return phase


def render_timeline(
    trace: TraceRecorder,
    *,
    start: float = 0.0,
    end: float,
    width: int = 80,
    pids: Optional[Iterable[ProcessId]] = None,
) -> str:
    """Render one lane per process over ``[start, end]``.

    ``pids`` defaults to every process appearing in the trace.  The first
    bucket containing a crash shows ``x``; later buckets are blank.
    """
    if end <= start:
        raise ConfigurationError(f"timeline needs end > start, got [{start}, {end}]")
    if width < 10:
        raise ConfigurationError("timeline needs width >= 10")

    changes: Dict[ProcessId, List[tuple]] = {}
    for record in trace.phase_changes():
        changes.setdefault(record.pid, []).append((record.time, record.new_phase))
    crashes = crash_times(trace)

    chosen = sorted(pids) if pids is not None else sorted(set(changes) | set(crashes))
    if not chosen:
        return "(empty trace)"

    bucket = (end - start) / width
    label_width = max(len(str(pid)) for pid in chosen)
    lines = []
    header_left = f"t={start:g}"
    header_right = f"t={end:g}"
    pad = " " * (label_width + 2)
    gap = max(1, width - len(header_left) - len(header_right))
    lines.append(pad + header_left + " " * gap + header_right)

    for pid in chosen:
        samples = changes.get(pid, [])
        crash_time = crashes.get(pid, math.inf)
        row = []
        for i in range(width):
            t = start + (i + 0.5) * bucket
            if t >= crash_time:
                row.append(CRASH_GLYPH if t - crash_time <= bucket else " ")
                continue
            phase = _phase_at(samples, t)
            if phase is None:
                # Never changed phase: thinking since the start (or not
                # in this trace at all — blank keeps that distinct).
                row.append(GLYPHS[THINKING] if pid in changes or pid in crashes else " ")
            else:
                row.append(GLYPHS[phase])
        lines.append(f"{str(pid).rjust(label_width)} |{''.join(row)}|")

    lines.append(pad + LEGEND)
    return "\n".join(lines)


def render_meal_ledger(
    trace: TraceRecorder,
    pid: ProcessId,
    *,
    horizon: float,
    limit: int = 20,
) -> str:
    """Tabular per-meal detail for one diner: waits and meal lengths."""
    sessions = hungry_sessions(trace, pid, horizon=horizon)
    meals = eating_intervals(trace, pid, horizon=horizon)
    lines = [f"diner {pid}: {len(meals)} meals, {len(sessions)} hungry sessions"]
    lines.append(f"{'session':>8}  {'hungry at':>10}  {'waited':>8}  {'ate for':>8}")
    shown = 0
    for index, session in enumerate(sessions):
        if shown >= limit:
            lines.append(f"  … {len(sessions) - shown} more")
            break
        wait = f"{session.length:8.2f}" if session.served else "   (open)"
        meal = ""
        if session.served and index < len(meals):
            matching = [m for m in meals if m.start == session.end]
            if matching:
                meal = f"{matching[0].length:8.2f}"
        lines.append(f"{index:>8}  {session.start:>10.2f}  {wait}  {meal:>8}")
        shown += 1
    return "\n".join(lines)
