"""Unit tests for the simulation kernel."""

import pytest

from repro.errors import SchedulingError
from repro.sim.events import EventPriority
from repro.sim.kernel import Simulator
from repro.timebase import END_OF_TIME


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_schedule_at_fires_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append("b"))
        sim.schedule_at(1.0, lambda: fired.append("a"))
        sim.run_until_quiescent()
        assert fired == ["a", "b"]

    def test_schedule_after_is_relative(self):
        sim = Simulator()
        times = []
        sim.schedule_at(5.0, lambda: sim.schedule_after(2.5, lambda: times.append(sim.now)))
        sim.run_until_quiescent()
        assert times == [7.5]

    def test_schedule_in_past_raises(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: None)
        sim.run_until_quiescent()
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)

    def test_schedule_at_now_is_allowed(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda: sim.schedule_at(sim.now, lambda: fired.append(sim.now)))
        sim.run_until_quiescent()
        assert fired == [3.0]

    def test_schedule_at_end_of_time_raises(self):
        with pytest.raises(SchedulingError):
            Simulator().schedule_at(END_OF_TIME, lambda: None)

    def test_schedule_on_finished_simulator_raises(self):
        sim = Simulator()
        sim.finish()
        with pytest.raises(SchedulingError):
            sim.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(Exception):
            sim.schedule_after(-1.0, lambda: None)


class TestRun:
    def test_run_until_stops_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0

    def test_bounded_runs_compose(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(3.0, lambda: fired.append(3))
        sim.schedule_at(8.0, lambda: fired.append(8))
        sim.run(until=5.0)
        sim.run(until=10.0)
        assert fired == [3, 8]
        assert sim.now == 10.0

    def test_event_exactly_at_horizon_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(5))
        sim.run(until=5.0)
        assert fired == [5]

    def test_run_until_quiescent_drains(self):
        sim = Simulator()
        count = []

        def chain(depth):
            count.append(depth)
            if depth < 5:
                sim.schedule_after(1.0, lambda: chain(depth + 1))

        sim.schedule_at(0.0, lambda: chain(0))
        sim.run_until_quiescent()
        assert count == [0, 1, 2, 3, 4, 5]

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_processed_events_counts(self):
        sim = Simulator()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        sim.run_until_quiescent()
        assert sim.processed_events == 3

    def test_event_budget_enforced(self):
        sim = Simulator(max_events=10)

        def loop():
            sim.schedule_after(0.0, loop)

        sim.schedule_at(0.0, loop)
        with pytest.raises(SchedulingError, match="budget"):
            sim.run_until_quiescent()


class TestDeterminism:
    def test_same_seed_same_stream_draws(self):
        a = Simulator(seed=5).streams.stream("x")
        b = Simulator(seed=5).streams.stream("x")
        assert [a.random() for _ in range(3)] == [b.random() for _ in range(3)]

    def test_same_instant_priority_ordering(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append("timer"), priority=EventPriority.TIMER)
        sim.schedule_at(1.0, lambda: fired.append("control"), priority=EventPriority.CONTROL)
        sim.schedule_at(1.0, lambda: fired.append("delivery"), priority=EventPriority.DELIVERY)
        sim.run_until_quiescent()
        assert fired == ["control", "delivery", "timer"]


class TestStepListeners:
    def test_listener_called_after_every_event(self):
        sim = Simulator()
        seen = []
        sim.add_step_listener(seen.append)
        sim.schedule_at(1.0, lambda: None)
        sim.schedule_at(2.0, lambda: None)
        sim.run_until_quiescent()
        assert seen == [1.0, 2.0]

    def test_listener_sees_post_event_state(self):
        sim = Simulator()
        state = {"value": 0}
        observed = []
        sim.add_step_listener(lambda now: observed.append(state["value"]))
        sim.schedule_at(1.0, lambda: state.update(value=7))
        sim.run_until_quiescent()
        assert observed == [7]
