"""Causal request tracing: span assembly, kernel tracer, stitching,
span metrics, verdict annotation, check-cost profiling, flight recorder.

The live-socket half of the tracing surface (in-band wire contexts,
/metrics scrapes, flight dumps on FAIL) lives in ``test_net_live.py``;
this module covers everything that runs on the deterministic kernel.
"""

import json
import os

import pytest

from repro.checks import FAIL, PASS, PropertyVerdict, Verdict, Violation
from repro.checks.stream import events_from_trace
from repro.checks.verdict import annotate_violations
from repro.graphs import topologies
from repro.obs import collecting
from repro.obs.flight import FlightRecorder
from repro.obs.metrics import MetricsRegistry, counter_by_label, counter_total
from repro.obs.profile import flush_check_profile
from repro.obs.tracing import (
    PHASE_SPANS,
    SPAN_EATING,
    SPAN_FORKS_HELD,
    SPAN_FORKS_REQUESTED,
    SPAN_HUNGRY,
    SPAN_REQUEST,
    SpanAssembler,
    attach_tracer,
    completed_meals,
    critical_path,
    dump_spans,
    load_spans,
    make_trace_id,
    render_critical_path,
    render_timeline,
    request_spans,
    slowest_request,
    span_from_dict,
    span_to_dict,
    spans_from_events,
    stitch_spans,
    trace_pid,
    trace_session,
    flush_span_metrics,
)

from .conftest import quick_table


def run_traced_table(graph=None, *, seed=3, until=150.0):
    """A finished kernel run plus its span list."""
    table = quick_table(graph if graph is not None else topologies.ring(6), seed=seed)
    tracer = attach_tracer(table)
    table.run(until=until)
    return table, tracer.finish()


# ----------------------------------------------------------------------
# SpanAssembler (scripted event sequences)
# ----------------------------------------------------------------------
class TestSpanAssembler:
    def test_full_request_builds_four_phases(self):
        """One scripted hunger: phase boundaries, fork detail, Lamport merge."""
        asm = SpanAssembler()
        asm.on_phase(0.0, 1, "thinking", "hungry")
        ctx = asm.send(0.1, 1)
        assert ctx.trace_id == make_trace_id(1, 1)
        assert ctx.span_id == 2  # sent from inside the hungry child
        asm.receive(0.2, 1, 2, "ForkRequest", ctx)
        assert asm.lamport(2) == 3  # merged max(2, 0) + 1
        reply = asm.send(0.3, 2)
        assert reply.trace_id == 0  # pid 2 has no open request
        asm.on_doorway(0.4, 1, True)
        asm.receive(0.5, 2, 1, "Fork", reply)
        assert asm.lamport(1) == 5  # merged max(4, 3) + 1
        asm.on_phase(0.6, 1, "hungry", "eating")
        asm.on_phase(0.9, 1, "eating", "thinking")

        spans = asm.finish(1.0)
        by_name = {span.name: span for span in spans}
        assert set(by_name) == {SPAN_REQUEST, *PHASE_SPANS}
        assert asm.meals == 1 == completed_meals(spans)

        request = by_name[SPAN_REQUEST]
        assert (request.start, request.end, request.status) == (0.0, 0.9, "ok")
        assert (trace_pid(request.trace_id), trace_session(request.trace_id)) == (1, 1)
        # forks-requested closes at the LAST fork's arrival, not at eating.
        assert by_name[SPAN_HUNGRY].end == 0.4
        assert by_name[SPAN_FORKS_REQUESTED].end == 0.5
        assert by_name[SPAN_FORKS_REQUESTED].detail == "last-fork-from=2"
        assert by_name[SPAN_FORKS_HELD].start == 0.5
        assert by_name[SPAN_EATING].start == 0.6
        # Phases tile the request exactly.
        assert by_name[SPAN_HUNGRY].start == request.start
        assert by_name[SPAN_EATING].end == request.end

    def test_crash_closes_spans_as_crashed(self):
        asm = SpanAssembler()
        asm.on_phase(0.0, 4, "thinking", "hungry")
        asm.on_crash(0.5, 4)
        spans = asm.finish(1.0)
        assert {span.status for span in spans} == {"crashed"}
        assert {span.name for span in spans} == {SPAN_REQUEST, SPAN_HUNGRY}

    def test_finish_closes_in_flight_spans_at_horizon(self):
        asm = SpanAssembler()
        asm.on_phase(0.0, 2, "thinking", "hungry")
        spans = asm.finish(3.0)
        request = request_spans(spans)[0]
        assert request.status == "open"
        assert request.end == 3.0

    def test_bounded_ring_evicts_oldest(self):
        asm = SpanAssembler(capacity=4)
        for session in range(5):
            asm.on_phase(float(session), 7, "thinking", "hungry")
            asm.on_doorway(session + 0.2, 7, True)
            asm.on_phase(session + 0.4, 7, "hungry", "eating")
            asm.on_phase(session + 0.6, 7, "eating", "thinking")
        spans = asm.finish(10.0)
        assert len(spans) == 4
        assert asm.evicted == 5 * 5 - 4
        # The retained spans are the most recent ones.
        assert max(trace_session(s.trace_id) for s in spans) == 5

    def test_serialization_round_trip(self):
        _, spans = run_traced_table(until=60.0)
        for span in spans:
            assert span_from_dict(span_to_dict(span)) == span


# ----------------------------------------------------------------------
# Kernel tracer (attach_tracer end to end)
# ----------------------------------------------------------------------
def _structure_ok(spans):
    """Every trace is one request plus in-order, tiling phase children."""
    traces = {}
    for span in spans:
        traces.setdefault(span.trace_id, []).append(span)
    for trace in traces.values():
        requests = [s for s in trace if s.name == SPAN_REQUEST]
        assert len(requests) == 1
        request = requests[0]
        assert request.parent_id is None
        phases = sorted(
            (s for s in trace if s.name in PHASE_SPANS), key=lambda s: s.span_id
        )
        assert all(p.parent_id == 1 for p in phases)
        assert [p.name for p in phases] == list(PHASE_SPANS[: len(phases)])
        assert phases[0].start == request.start
        for before, after in zip(phases, phases[1:]):
            assert before.end == after.start
        if request.status == "ok":
            assert phases[-1].name == SPAN_EATING
            assert phases[-1].end == request.end
    return True


class TestKernelTracer:
    def test_span_meals_match_table_meals(self):
        table, spans = run_traced_table()
        meals = sum(d.meals_eaten for d in table.diners.values())
        assert meals > 0
        assert completed_meals(spans) == meals

    def test_span_trees_are_well_formed(self):
        _, spans = run_traced_table()
        assert _structure_ok(spans)

    def test_same_seed_yields_identical_spans(self):
        """Deterministic ids + deterministic kernel = reproducible traces."""
        _, first = run_traced_table(seed=9, until=100.0)
        _, second = run_traced_table(seed=9, until=100.0)
        assert [span_to_dict(s) for s in first] == [span_to_dict(s) for s in second]

    def test_offline_rebuild_matches_online_requests(self):
        """spans_from_events over the recorded trace finds the same
        requests (same trace ids, same meals) as the attached tracer —
        message-level detail differs (no wire log), causal shape doesn't."""
        table, online = run_traced_table(until=80.0)
        offline = spans_from_events(
            events_from_trace(table.trace), horizon=table.sim.now
        )
        assert _structure_ok(offline)
        assert completed_meals(offline) == completed_meals(online)
        assert {s.trace_id for s in request_spans(offline)} == {
            s.trace_id for s in request_spans(online)
        }

    def test_attach_is_strictly_additive(self):
        """Tracing is opt-in: attaching adds exactly one network monitor
        and one listener set; an untraced table never pays for it."""
        table = quick_table(topologies.ring(6), seed=3)
        baseline = len(table.network._monitors)
        attach_tracer(table)
        assert len(table.network._monitors) == baseline + 1


    def test_kernel_tracer_and_live_host_share_the_one_lifecycle_dispatcher(self):
        """Both substrates subscribe ``SpanAssembler.on_record`` — one
        listener for the three lifecycle record types — so the same
        records yield the same span names per request on each."""
        from repro.net.host import AsyncHost
        from repro.obs.tracing import LIFECYCLE_RECORDS
        from repro.trace.events import Crash, DoorwayChange, PhaseChange, SuspicionChange

        table = quick_table(topologies.ring(3), seed=3)
        before = {t: len(table.trace._typed_listeners.get(t, ())) for t in LIFECYCLE_RECORDS}
        tracer = attach_tracer(table)
        host = AsyncHost(topologies.ring(3))
        for record_type in LIFECYCLE_RECORDS:
            listeners = table.trace._typed_listeners[record_type]
            assert len(listeners) == before[record_type] + 1
            assert listeners[-1] == tracer.assembler.on_record
            assert host.tracer.on_record in host.trace._typed_listeners[record_type]

        for record in (
            PhaseChange(1.0, 0, "thinking", "hungry"),
            PhaseChange(1.5, 1, "thinking", "hungry"),
            DoorwayChange(2.0, 0, True),
            SuspicionChange(2.5, 0, 1, True),
            PhaseChange(3.0, 0, "hungry", "eating"),
            Crash(3.5, 1),
            DoorwayChange(4.0, 0, False),
            PhaseChange(4.0, 0, "eating", "thinking"),
            PhaseChange(4.5, 2, "thinking", "hungry"),
        ):
            table.trace.record(record)
            host.trace.record(record)

        def names(spans):
            return sorted((s.trace_id, s.span_id, s.name, s.status) for s in spans)

        kernel = names(tracer.assembler.finish(5.0))
        assert kernel == names(host.tracer.finish(5.0))
        assert {name for _, _, name, _ in kernel} == {SPAN_REQUEST, *PHASE_SPANS}
        assert {status for _, _, _, status in kernel} == {"ok", "crashed", "open"}


# ----------------------------------------------------------------------
# Stitching and rendering
# ----------------------------------------------------------------------
class TestStitchAndRender:
    def test_stitch_is_merge_order_invariant(self):
        _, spans = run_traced_table(until=60.0)
        half = len(spans) // 2
        a, b = list(spans[:half]), list(spans[half:])
        assert stitch_spans(a, b) == stitch_spans(b, a) == stitch_spans(spans)

    def test_timeline_and_critical_path_render(self):
        _, spans = run_traced_table(until=60.0)
        pid = request_spans(spans)[0].pid
        timeline = render_timeline(spans, pid=pid, limit=3)
        assert timeline and any("request pid=" in line for line in timeline)
        worst = slowest_request(spans, pid=pid)
        assert worst is not None and trace_pid(worst) == pid
        path = critical_path(spans, worst)
        assert path == sorted(path, key=lambda s: -s.duration)
        rendered = render_critical_path(spans, worst)
        assert rendered[0].startswith(f"critical path for pid={pid}")
        assert any("%" in line for line in rendered[1:])

    def test_dump_and_load_round_trip(self, tmp_path):
        _, spans = run_traced_table(until=60.0)
        path = tmp_path / "spans.jsonl"
        assert dump_spans(path, spans) == len(spans)
        assert load_spans(path) == list(spans)


# ----------------------------------------------------------------------
# Span metrics
# ----------------------------------------------------------------------
class TestSpanMetrics:
    def test_flush_span_metrics_populates_registry(self):
        _, spans = run_traced_table(until=100.0)
        registry = MetricsRegistry()
        flush_span_metrics(spans, registry)
        snapshot = registry.snapshot()
        by_status = counter_by_label(snapshot, "trace.requests_total", "status")
        assert sum(by_status.values()) == len(request_spans(spans))
        histogram_names = {entry["name"] for entry in snapshot["histograms"]}
        assert "trace.phase_seconds" in histogram_names
        assert "trace.request_seconds" in histogram_names
        phases = {
            entry["labels"]["phase"]
            for entry in snapshot["histograms"]
            if entry["name"] == "trace.phase_seconds"
        }
        assert SPAN_EATING in phases


# ----------------------------------------------------------------------
# Verdict annotation
# ----------------------------------------------------------------------
class TestAnnotateViolations:
    def test_witness_gains_enclosing_request_ids(self):
        _, spans = run_traced_table(until=100.0)
        request = request_spans(spans)[0]
        inside = Violation(
            prop="exclusion",
            time=(request.start + request.end) / 2,
            detail="both ends eating",
            subject=(request.pid,),
        )
        outside = Violation(
            prop="exclusion", time=-1.0, detail="before time", subject=(request.pid,)
        )
        verdict = Verdict(
            properties={
                "exclusion": PropertyVerdict(
                    prop="exclusion", status=FAIL, violations=[inside, outside]
                )
            }
        )
        annotated = annotate_violations(verdict, spans)
        tagged, untouched = annotated.properties["exclusion"].violations
        assert tagged.trace_id == request.trace_id
        assert tagged.span_id == request.span_id
        assert untouched.trace_id is None
        # The input verdict is not mutated.
        assert inside.trace_id is None

    def test_passing_verdict_is_preserved(self):
        _, spans = run_traced_table(until=50.0)
        verdict = Verdict(
            properties={"exclusion": PropertyVerdict(prop="exclusion", status=PASS)}
        )
        assert annotate_violations(verdict, spans).ok


# ----------------------------------------------------------------------
# Check-cost profiling
# ----------------------------------------------------------------------
class TestCheckProfiling:
    def test_profiled_run_attributes_wall_clock_per_property(self):
        with collecting(profile=True) as registry:
            table = quick_table(topologies.ring(6), seed=3)
            table.run(until=100.0)
            assert table.verdict().ok  # finalize: the deferred replay runs
        totals = table.checks.profile_totals()
        assert totals, "profiling enabled but nothing attributed"
        assert all(seconds >= 0.0 for seconds, _ in totals.values())
        assert sum(events for _, events in totals.values()) > 0

        snapshot = registry.snapshot()
        walls = counter_by_label(
            snapshot, "checks.property_wall_seconds_total", "property"
        )
        assert set(totals) <= set(walls)

    def test_flush_is_delta_safe(self):
        from repro.checks.suite import CheckSuite

        suite = CheckSuite([], profile=True)
        suite.profile_add("fake-property", 0.25, 4)
        registry = MetricsRegistry()
        flush_check_profile(suite, registry)
        flush_check_profile(suite, registry)  # repeat must not double-count
        snapshot = registry.snapshot()
        wall = counter_total(snapshot, "checks.property_wall_seconds_total")
        events = counter_total(snapshot, "checks.property_events_total")
        assert wall == pytest.approx(0.25)
        assert events == 4
        # New work after a flush is the only thing the next flush adds.
        suite.profile_add("fake-property", 0.75)
        flush_check_profile(suite, registry)
        wall = counter_total(registry.snapshot(), "checks.property_wall_seconds_total")
        assert wall == pytest.approx(1.0)

    def test_unprofiled_suite_contributes_nothing(self):
        table = quick_table(topologies.ring(6), seed=3).run(until=20.0)
        registry = MetricsRegistry()
        assert flush_check_profile(table.checks, registry) == {}
        assert not registry.snapshot()["counters"]


# ----------------------------------------------------------------------
# Flight recorder
# ----------------------------------------------------------------------
class TestFlightRecorder:
    def test_rings_are_bounded_and_count_evictions(self):
        flight = FlightRecorder(capacity=3)
        for index in range(5):
            flight.record_wire({"kind": "send", "seq": index})
        assert [entry["seq"] for entry in flight.entries("wire")] == [2, 3, 4]
        assert flight.evicted["wire"] == 2
        assert flight.evicted["trace"] == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_dump_writes_rings_and_metadata(self, tmp_path):
        flight = FlightRecorder(capacity=8)
        flight.record_trace({"kind": "phase_change", "time": 0.1, "pid": 1,
                             "old_phase": "thinking", "new_phase": "hungry"})
        flight.record_wire({"kind": "send", "time": 0.2, "src": 1, "dst": 2,
                            "type": "ForkRequest", "layer": "dining", "seq": 1})
        directory = flight.dump(
            tmp_path / "flight", reason="verdict-fail", context={"host": 0}
        )
        with open(os.path.join(directory, "flight.json"), encoding="utf-8") as stream:
            meta = json.load(stream)
        assert meta["reason"] == "verdict-fail"
        assert meta["context"] == {"host": 0}
        assert meta["files"] == {"trace": "trace.jsonl", "wire": "wire.jsonl"}
        assert meta["retained"] == {"trace": 1, "wire": 1, "spans": 0}
        with open(os.path.join(directory, "wire.jsonl"), encoding="utf-8") as stream:
            assert json.loads(stream.readline())["type"] == "ForkRequest"
        # Empty rings produce no file.
        assert not os.path.exists(os.path.join(directory, "spans.jsonl"))
