"""Unit tests for the trace recorder, analysis, and the eventual checkers.

Tests build traces by hand so every quantity has a known answer.  The
measurements come from :mod:`repro.trace.analysis`; the ◇WX,
wait-freedom and ◇2-BW judgements come from the checkers of
:mod:`repro.checks`, fed the same traces in time order.
"""

import math

from repro.checks.stream import events_from_trace
from repro.checks.suite import CheckConfig, CheckSuite, eventual_checkers
from repro.graphs import path, ring
from repro.trace import (
    EATING,
    HUNGRY,
    THINKING,
    Crash,
    PhaseChange,
    TraceRecorder,
    eat_counts,
    eat_starts,
    eating_intervals,
    hungry_sessions,
    response_times,
    throughput,
)


def make_trace(events):
    """events: list of (time, pid, old, new) phase changes or ('crash', time, pid)."""
    trace = TraceRecorder()
    for event in events:
        if event[0] == "crash":
            trace.crash(event[1], event[2])
        else:
            time, pid, old, new = event
            trace.phase_change(time, pid, old, new)
    return trace


def full_cycle(pid, hungry_at, eat_at, think_at):
    return [
        (hungry_at, pid, THINKING, HUNGRY),
        (eat_at, pid, HUNGRY, EATING),
        (think_at, pid, EATING, THINKING),
    ]


class TestRecorder:
    def test_records_in_order(self):
        trace = make_trace(full_cycle(0, 1.0, 2.0, 3.0))
        assert len(trace) == 3
        assert [c.time for c in trace.phase_changes(0)] == [1.0, 2.0, 3.0]

    def test_of_type_filters(self):
        trace = TraceRecorder()
        trace.phase_change(1.0, 0, THINKING, HUNGRY)
        trace.crash(2.0, 1)
        assert len(trace.of_type(PhaseChange)) == 1
        assert len(trace.of_type(Crash)) == 1

    def test_pid_filters(self):
        trace = make_trace(full_cycle(0, 1.0, 2.0, 3.0) + full_cycle(1, 1.5, 2.5, 3.5))
        assert len(trace.phase_changes(0)) == 3
        assert len(trace.phase_changes()) == 6

    def test_protocol_steps_accessor(self):
        trace = TraceRecorder()
        trace.protocol_step(1.0, 3, "recolor", "0->2")
        steps = trace.protocol_steps(3)
        assert steps[0].action == "recolor"
        assert trace.protocol_steps(4) == []

    def test_listeners_observe_every_record(self):
        trace = TraceRecorder()
        seen = []
        trace.add_listener(seen.append)
        trace.phase_change(1.0, 0, THINKING, HUNGRY)
        trace.crash(2.0, 1)
        assert [type(r).__name__ for r in seen] == ["PhaseChange", "Crash"]

    def test_typed_listeners_receive_only_their_kinds(self):
        from repro.trace.events import Crash, PhaseChange

        trace = TraceRecorder()
        phases, crashes, everything = [], [], []
        trace.add_listener(phases.append, types=(PhaseChange,))
        trace.add_listener(crashes.append, types=(Crash,))
        trace.add_listener(everything.append)
        trace.phase_change(1.0, 0, THINKING, HUNGRY)
        trace.doorway_change(1.5, 0, True)
        trace.crash(2.0, 1)
        assert [r.time for r in phases] == [1.0]
        assert [r.time for r in crashes] == [2.0]
        assert len(everything) == 3


class TestStreamingRecorder:
    def _fill(self, trace, count=25):
        for i in range(count):
            trace.phase_change(float(i), i % 3, THINKING, HUNGRY)

    def test_round_trip_matches_memory_recorder(self, tmp_path):
        from repro.trace.recorder import StreamingTraceRecorder

        streaming = StreamingTraceRecorder(tmp_path / "t.jsonl", flush_every=4)
        memory = TraceRecorder()
        self._fill(streaming)
        self._fill(memory)
        assert len(streaming) == len(memory)
        assert list(streaming) == list(memory)
        assert streaming.of_type(PhaseChange) == memory.of_type(PhaseChange)
        assert streaming.phase_changes(0) == memory.phase_changes(0)

    def test_tail_is_bounded(self, tmp_path):
        from repro.trace.recorder import StreamingTraceRecorder

        trace = StreamingTraceRecorder(tmp_path / "t.jsonl", keep_last=10)
        self._fill(trace, count=50)
        tail = trace.tail()
        assert len(tail) == 10
        assert tail[-1].time == 49.0

    def test_iteration_flushes_pending_buffer(self, tmp_path):
        from repro.trace.recorder import StreamingTraceRecorder

        trace = StreamingTraceRecorder(tmp_path / "t.jsonl", flush_every=1000)
        self._fill(trace, count=5)  # all still buffered
        assert len(list(trace)) == 5

    def test_spill_file_is_serialize_compatible(self, tmp_path):
        from repro.trace.recorder import StreamingTraceRecorder
        from repro.trace.serialize import load_path

        trace = StreamingTraceRecorder(tmp_path / "t.jsonl")
        self._fill(trace)
        trace.close()
        assert list(load_path(trace.path)) == list(trace)

    def test_listeners_fire_while_streaming(self, tmp_path):
        from repro.trace.recorder import StreamingTraceRecorder

        trace = StreamingTraceRecorder(tmp_path / "t.jsonl")
        seen = []
        trace.add_listener(seen.append)
        self._fill(trace, count=7)
        assert len(seen) == 7


class TestIntervals:
    def test_eating_interval_closed_by_thinking(self):
        trace = make_trace(full_cycle(0, 1.0, 2.0, 5.0))
        meals = eating_intervals(trace, 0)
        assert len(meals) == 1
        assert (meals[0].start, meals[0].end) == (2.0, 5.0)

    def test_open_interval_extends_to_horizon(self):
        trace = make_trace([(1.0, 0, THINKING, HUNGRY), (2.0, 0, HUNGRY, EATING)])
        meals = eating_intervals(trace, 0, horizon=10.0)
        assert (meals[0].start, meals[0].end) == (2.0, 10.0)
        assert not meals[0].served

    def test_interval_truncated_at_crash(self):
        trace = make_trace(
            [(1.0, 0, THINKING, HUNGRY), (2.0, 0, HUNGRY, EATING), ("crash", 4.0, 0)]
        )
        meals = eating_intervals(trace, 0, horizon=100.0)
        assert (meals[0].start, meals[0].end) == (2.0, 4.0)

    def test_hungry_session_served_flag(self):
        trace = make_trace(full_cycle(0, 1.0, 3.0, 5.0) + [(6.0, 0, THINKING, HUNGRY)])
        sessions = hungry_sessions(trace, 0, horizon=20.0)
        assert len(sessions) == 2
        assert sessions[0].served and (sessions[0].start, sessions[0].end) == (1.0, 3.0)
        assert not sessions[1].served and sessions[1].end == 20.0

    def test_multiple_cycles(self):
        events = full_cycle(0, 1.0, 2.0, 3.0) + full_cycle(0, 4.0, 5.0, 6.0)
        trace = make_trace(events)
        assert len(eating_intervals(trace, 0)) == 2
        assert eat_starts(trace, 0) == [2.0, 5.0]
        assert eat_counts(trace) == {0: 2}


def judge(events, graph, *, horizon=math.inf, correct=None, settle=None, patience=None, after=None):
    """The finalized ◇WX, progress and overtaking checkers over ``events``.

    A recorder writes records in time order, so the hand-built events are
    fed that way (a stable sort keeps same-instant records in list order).
    """
    trace = make_trace(sorted(events, key=lambda e: e[1] if e[0] == "crash" else e[0]))
    config = CheckConfig(
        settle=settle, patience=patience, overtaking_after=after, correct=correct
    )
    suite = CheckSuite(eventual_checkers(sorted(graph.edges), config))
    verdict = suite.feed(events_from_trace(trace)).finalize(horizon)
    wx, progress, overtaking = suite.checkers
    return wx, verdict.properties[progress.name], overtaking


def windows(wx):
    return [(a, b, start, end) for (a, b), start, end, _ in wx.scoped]


class TestExclusionViolations:
    def test_overlapping_neighbor_meals_detected(self):
        events = full_cycle(0, 0.0, 1.0, 5.0) + full_cycle(1, 0.0, 3.0, 7.0)
        wx, _, _ = judge(events, path(2))
        assert windows(wx) == [(0, 1, 3.0, 5.0)]

    def test_touching_meals_do_not_overlap(self):
        # 0 stops at 3.0 and 1 starts at 3.0, the stop recorded first.
        events = full_cycle(0, 0.0, 1.0, 3.0) + full_cycle(1, 0.0, 3.0, 5.0)
        wx, _, _ = judge(events, path(2))
        assert windows(wx) == []

    def test_non_neighbors_may_eat_together(self):
        graph = path(3)  # 0-1-2: 0 and 2 are not neighbors
        events = full_cycle(0, 0.0, 1.0, 5.0) + full_cycle(2, 0.0, 1.0, 5.0)
        wx, _, _ = judge(events, graph)
        assert windows(wx) == []

    def test_crash_truncation_ends_violation(self):
        # 1 crashes at 4.0 while both eat from 3.0; overlap is [3, 4).
        events = full_cycle(0, 0.0, 1.0, 9.0) + [
            (0.0, 1, THINKING, HUNGRY),
            (3.0, 1, HUNGRY, EATING),
            ("crash", 4.0, 1),
        ]
        wx, _, _ = judge(events, path(2), horizon=20.0)
        assert windows(wx) == [(0, 1, 3.0, 4.0)]

    def test_last_violation_end_and_after(self):
        events = full_cycle(0, 0.0, 1.0, 5.0) + full_cycle(1, 0.0, 3.0, 7.0)
        wx, _, _ = judge(events, path(2), settle=5.0)
        assert wx.finalize().counters["last_overlap_end"] == 5.0
        assert wx.late == []
        wx.settle = 4.0
        wx.finalize()
        assert len(wx.late) == 1

    def test_clean_trace_has_none(self):
        events = full_cycle(0, 0.0, 1.0, 2.0) + full_cycle(1, 2.0, 3.0, 4.0)
        wx, _, _ = judge(events, ring(3))
        assert "last_overlap_end" not in wx.finalize().counters


class TestStarvation:
    def test_unserved_old_session_flags(self):
        events = [(1.0, 0, THINKING, HUNGRY)]
        _, progress, _ = judge(events, path(2), horizon=100.0, correct=[0], patience=50.0)
        assert progress.details["starving"] == [0]

    def test_recent_session_is_patient(self):
        events = [(80.0, 0, THINKING, HUNGRY)]
        _, progress, _ = judge(events, path(2), horizon=100.0, correct=[0], patience=50.0)
        assert progress.details["starving"] == []

    def test_served_processes_not_flagged(self):
        events = full_cycle(0, 1.0, 2.0, 3.0)
        _, progress, _ = judge(events, path(2), horizon=100.0, correct=[0], patience=10.0)
        assert progress.details["starving"] == []

    def test_never_hungry_not_flagged(self):
        _, progress, _ = judge([], path(2), horizon=100.0, correct=[0, 1], patience=10.0)
        assert progress.details["starving"] == []

    def test_only_listed_pids_considered(self):
        events = [(1.0, 0, THINKING, HUNGRY), (1.0, 1, THINKING, HUNGRY)]
        _, progress, _ = judge(events, path(2), horizon=100.0, correct=[1], patience=10.0)
        assert progress.details["starving"] == [1]


class TestOvertaking:
    def test_counts_eats_within_session(self):
        # 1 hungry [0, 100) unserved; 0 eats three times inside that window.
        events = [(0.0, 1, THINKING, HUNGRY)]
        for k in range(3):
            events += full_cycle(0, 10.0 * k + 1, 10.0 * k + 2, 10.0 * k + 3)
        _, _, overtaking = judge(events, path(2), horizon=100.0, after=0.0)
        assert overtaking.max_judged == 3
        assert overtaking.finalize().violations[0].subject == (0, 1)

    def test_eats_outside_session_not_counted(self):
        events = full_cycle(0, 1.0, 2.0, 3.0)  # 0 eats at 2.0
        events += [(5.0, 1, THINKING, HUNGRY)]  # 1 hungry later
        _, _, overtaking = judge(events, path(2), horizon=100.0, after=0.0)
        assert overtaking.max_judged == 0

    def test_after_cutoff_filters_sessions(self):
        events = [(0.0, 1, THINKING, HUNGRY), (50.0, 1, HUNGRY, EATING), (51.0, 1, EATING, THINKING)]
        for k in range(3):
            events += full_cycle(0, 10.0 * k + 1, 10.0 * k + 2, 10.0 * k + 3)
        _, _, overtaking = judge(events, path(2), horizon=100.0, after=0.0)
        assert overtaking.max_judged == 3
        # Sessions starting after t=10 exclude the only (early) session.
        overtaking.after = 10.0
        overtaking.finalize()
        assert overtaking.max_judged == 0

    def test_eat_at_session_end_instant_not_counted(self):
        events = [(0.0, 1, THINKING, HUNGRY), (5.0, 1, HUNGRY, EATING), (6.0, 1, EATING, THINKING)]
        events += [(4.0, 0, THINKING, HUNGRY), (5.0, 0, HUNGRY, EATING), (6.0, 0, EATING, THINKING)]
        # 0 starts eating exactly when 1's session ends: not an overtake.
        _, _, overtaking = judge(events, path(2), horizon=10.0, after=0.0)
        assert overtaking.max_judged == 0


class TestPerformance:
    def test_response_times(self):
        trace = make_trace(full_cycle(0, 1.0, 4.0, 5.0) + full_cycle(0, 6.0, 7.0, 8.0))
        assert response_times(trace, 0) == [3.0, 1.0]

    def test_throughput(self):
        trace = make_trace(full_cycle(0, 1.0, 2.0, 3.0) + full_cycle(1, 1.0, 4.0, 5.0))
        assert throughput(trace, horizon=10.0) == 0.2

    def test_throughput_zero_horizon(self):
        assert throughput(TraceRecorder(), horizon=0.0) == 0.0
