"""Property-based tests (hypothesis) for core data structures and invariants."""


from hypothesis import given, settings, strategies as st

from repro.checks.properties import WxSafetyChecker
from repro.checks.stream import events_from_trace
from repro.checks.suite import CheckSuite
from repro.graphs.coloring import dsatur_coloring, greedy_coloring, validate_coloring
from repro.graphs.conflict import ConflictGraph
from repro.sim.events import EventPriority, EventQueue
from repro.sim.rng import RandomStreams
from repro.trace.analysis import eating_intervals, hungry_sessions
from repro.trace.events import EATING, HUNGRY, THINKING
from repro.trace.recorder import TraceRecorder

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def graphs(max_nodes=12):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=2, max_value=max_nodes))
        possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = draw(st.lists(st.sampled_from(possible), unique=True, max_size=len(possible)))
        return ConflictGraph(range(n), edges)

    return build()


@st.composite
def schedules(draw, max_events=40):
    """A list of (time, priority, label) scheduling requests."""
    count = draw(st.integers(min_value=0, max_value=max_events))
    items = []
    for i in range(count):
        time = draw(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
        priority = draw(st.sampled_from(list(EventPriority)))
        items.append((time, priority, i))
    return items


@st.composite
def phase_histories(draw, max_cycles=8):
    """Per-process alternating thinking→hungry→eating→thinking histories."""
    n = draw(st.integers(min_value=1, max_value=4))
    trace = TraceRecorder()
    per_pid = {}
    for pid in range(n):
        cycles = draw(st.integers(min_value=0, max_value=max_cycles))
        t = draw(st.floats(min_value=0.0, max_value=5.0, allow_nan=False))
        events = []
        for _ in range(cycles):
            t += draw(st.floats(min_value=0.01, max_value=5.0, allow_nan=False))
            events.append((t, HUNGRY))
            t += draw(st.floats(min_value=0.01, max_value=5.0, allow_nan=False))
            events.append((t, EATING))
            t += draw(st.floats(min_value=0.01, max_value=5.0, allow_nan=False))
            events.append((t, THINKING))
        # Possibly truncate mid-cycle (end hungry or eating).
        cut = draw(st.integers(min_value=0, max_value=len(events)))
        per_pid[pid] = events[:cut]
    all_events = sorted(
        ((t, pid, phase) for pid, events in per_pid.items() for t, phase in events),
        key=lambda x: x[0],
    )
    previous = {pid: THINKING for pid in range(n)}
    for t, pid, phase in all_events:
        trace.phase_change(t, pid, previous[pid], phase)
        previous[pid] = phase
    return trace, n


# ----------------------------------------------------------------------
# Event queue
# ----------------------------------------------------------------------
@given(schedules())
@settings(max_examples=200)
def test_event_queue_pops_in_total_order(requests):
    queue = EventQueue()
    for time, priority, label in requests:
        queue.push(time, priority, lambda: None, label=str(label))
    popped = []
    while queue:
        popped.append(queue.pop())
    keys = [e.sort_key() for e in popped]
    assert keys == sorted(keys)
    assert len(popped) == len(requests)


@given(schedules(), st.data())
@settings(max_examples=100)
def test_event_queue_cancellation_preserves_order_of_survivors(requests, data):
    queue = EventQueue()
    events = [
        queue.push(time, priority, lambda: None, label=str(label))
        for time, priority, label in requests
    ]
    to_cancel = data.draw(
        st.lists(st.sampled_from(range(len(events))), unique=True, max_size=len(events))
        if events
        else st.just([])
    )
    for index in to_cancel:
        events[index].cancel()
    survivors = []
    while queue:
        survivors.append(queue.pop())
    expected = sorted(
        (e for i, e in enumerate(events) if i not in set(to_cancel)),
        key=lambda e: e.sort_key(),
    )
    assert [e.label for e in survivors] == [e.label for e in expected]


# ----------------------------------------------------------------------
# RNG streams
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=30))
@settings(max_examples=100)
def test_streams_replay_exactly(seed, name):
    a = RandomStreams(seed).stream(name)
    b = RandomStreams(seed).stream(name)
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


@given(st.integers(min_value=0, max_value=2**31))
def test_distinct_names_are_decoupled(seed):
    streams = RandomStreams(seed)
    first = streams.stream("alpha").random()
    fresh = RandomStreams(seed)
    fresh.stream("beta").random()  # interleave another stream
    assert fresh.stream("alpha").random() == first


# ----------------------------------------------------------------------
# Colorings
# ----------------------------------------------------------------------
@given(graphs())
@settings(max_examples=150)
def test_greedy_coloring_always_proper_and_bounded(graph):
    coloring = greedy_coloring(graph)
    validate_coloring(graph, coloring)
    assert max(coloring.values(), default=0) <= graph.max_degree


@given(graphs())
@settings(max_examples=150)
def test_dsatur_coloring_always_proper_and_bounded(graph):
    coloring = dsatur_coloring(graph)
    validate_coloring(graph, coloring)
    assert max(coloring.values(), default=0) <= graph.max_degree


# ----------------------------------------------------------------------
# Trace analysis on arbitrary legal histories
# ----------------------------------------------------------------------
@given(phase_histories())
@settings(max_examples=150)
def test_intervals_are_disjoint_and_ordered(history):
    trace, n = history
    for pid in range(n):
        for extract in (eating_intervals, hungry_sessions):
            intervals = extract(trace, pid, horizon=1000.0)
            for a, b in zip(intervals, intervals[1:]):
                assert a.end <= b.start
            for interval in intervals:
                assert interval.start <= interval.end


@given(phase_histories())
@settings(max_examples=150)
def test_hungry_sessions_end_where_meals_begin(history):
    trace, n = history
    for pid in range(n):
        sessions = hungry_sessions(trace, pid, horizon=1000.0)
        meals = eating_intervals(trace, pid, horizon=1000.0)
        served = [s for s in sessions if s.served]
        assert len(served) <= len(meals)
        meal_starts = {m.start for m in meals}
        for session in served:
            assert session.end in meal_starts


@given(phase_histories())
@settings(max_examples=100)
def test_violations_symmetric_in_clique(history):
    trace, n = history
    if n < 2:
        return
    graph = ConflictGraph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])
    wx = WxSafetyChecker(sorted(graph.edges))
    CheckSuite([wx]).feed(events_from_trace(trace)).finalize(1000.0)
    for (a, b), start, end, _ in wx.scoped:
        # A zero-length window is one state in which both ate.
        assert start <= end
        assert graph.are_neighbors(a, b)
        # The overlap really is covered by meals of both processes.
        meals_a = eating_intervals(trace, a, horizon=1000.0)
        meals_b = eating_intervals(trace, b, horizon=1000.0)
        assert any(m.start <= start and m.end >= end for m in meals_a)
        assert any(m.start <= start and m.end >= end for m in meals_b)
