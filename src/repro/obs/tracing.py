"""Causal request spans: the tracing half of the observability layer.

Every hungry session is one **request**: a diner leaves ``thinking``,
collects acks, enters the doorway, collects forks, eats, and exits.  The
paper's central claims are temporal (eventually-k-bounded waiting,
2-bounded overtaking, the Section 7 channel bound), so the natural
observability primitive is a *span* over each request, causally ordered
by Lamport clocks rather than wall clocks — two hosts' wall clocks can
disagree, but a fork that was granted happens-before the meal it enabled
on any substrate.

One request span opens per hunger and carries four phase children::

    request (pid=3, session=7)
      hungry           thinking->hungry .. doorway entry (acks/suspicion)
      forks-requested  doorway entry    .. last fork arrival
      forks-held       last fork        .. eating begins (usually ~0)
      eating           eating begins    .. exit

Span identifiers are **deterministic**: ``trace_id = pid << 32 | session``
and the five span ids are fixed small integers, so the same seed yields
the same span tree on the kernel and on live sockets, and a merged
cluster trace needs no id reconciliation — stitching is a sort.

The :class:`SpanAssembler` consumes the *normalized check-event
vocabulary* (:mod:`repro.checks.events`), which is what makes it
substrate-agnostic: the kernel feeds it through a network monitor plus
trace listeners (:func:`attach_tracer`), the live host feeds it from its
transport loop, and ``repro trace`` rebuilds identical spans offline from
recorded ``trace.jsonl``/``wire.jsonl`` artifacts
(:func:`spans_from_events`).  Everything here is opt-in: nothing hooks
the kernel or the host unless a tracer is attached, so the disabled
overhead is one untaken branch.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.checks.events import DeliverEvent, DropEvent, SendEvent
from repro.trace.events import EATING, HUNGRY, THINKING, Crash, DoorwayChange, PhaseChange

__all__ = [
    "LIFECYCLE_RECORDS",
    "NO_CONTEXT",
    "PHASE_SPANS",
    "SPAN_EATING",
    "SPAN_FORKS_HELD",
    "SPAN_FORKS_REQUESTED",
    "SPAN_HUNGRY",
    "SPAN_REQUEST",
    "KernelTracer",
    "Span",
    "SpanAssembler",
    "SpanContext",
    "attach_tracer",
    "completed_meals",
    "critical_path",
    "dump_spans",
    "flush_span_metrics",
    "load_spans",
    "make_trace_id",
    "render_critical_path",
    "render_timeline",
    "request_spans",
    "slowest_request",
    "span_from_dict",
    "span_to_dict",
    "spans_from_events",
    "stitch_spans",
    "trace_pid",
    "trace_session",
]

# ----------------------------------------------------------------------
# Identifiers
# ----------------------------------------------------------------------
#: Span names.  The four phases are ordered children of the request span.
SPAN_REQUEST = "request"
SPAN_HUNGRY = "hungry"
SPAN_FORKS_REQUESTED = "forks-requested"
SPAN_FORKS_HELD = "forks-held"
SPAN_EATING = "eating"

PHASE_SPANS = (SPAN_HUNGRY, SPAN_FORKS_REQUESTED, SPAN_FORKS_HELD, SPAN_EATING)

#: The trace record types that move a request span
#: (:meth:`SpanAssembler.on_record`); subscribe a trace listener to these.
LIFECYCLE_RECORDS = (PhaseChange, DoorwayChange, Crash)

#: Fixed per-trace span ids (uniqueness is the ``(trace_id, span_id)``
#: pair).  Small constants keep the wire context a few varint bytes.
_SID_REQUEST = 1
_SID_OF_NAME = {
    SPAN_REQUEST: _SID_REQUEST,
    SPAN_HUNGRY: 2,
    SPAN_FORKS_REQUESTED: 3,
    SPAN_FORKS_HELD: 4,
    SPAN_EATING: 5,
}

_SESSION_BITS = 32
_SESSION_MASK = (1 << _SESSION_BITS) - 1


def make_trace_id(pid: int, session: int) -> int:
    """Deterministic trace id for ``pid``'s ``session``-th hunger (1-based)."""
    return (pid << _SESSION_BITS) | (session & _SESSION_MASK)


def trace_pid(trace_id: int) -> int:
    return trace_id >> _SESSION_BITS


def trace_session(trace_id: int) -> int:
    return trace_id & _SESSION_MASK


class SpanContext(NamedTuple):
    """The causal context one message carries: which request sent it, when.

    ``trace_id == 0`` means "no open request" — the context then only
    propagates the Lamport stamp (pings and deferred-fork releases from a
    thinking diner still advance causal time).
    """

    trace_id: int
    span_id: int
    lamport: int


#: The lamport-only context of a sender with no open request span.
NO_CONTEXT = SpanContext(0, 0, 0)


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass(slots=True)
class Span:
    """One node of a request's span tree.

    ``status`` is ``"ok"`` for a cleanly closed span, ``"crashed"`` when
    the diner crashed inside it, and ``"open"`` when the run ended with
    the span still in flight (``end`` then holds the horizon).
    """

    trace_id: int
    span_id: int
    parent_id: Optional[int]
    name: str
    pid: int
    start: float
    end: Optional[float]
    lamport_start: int
    lamport_end: int
    status: str = "ok"
    detail: Optional[str] = None

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start


def span_to_dict(span: Span) -> dict:
    data = {
        "kind": "span",
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "pid": span.pid,
        "start": span.start,
        "end": span.end,
        "lamport_start": span.lamport_start,
        "lamport_end": span.lamport_end,
        "status": span.status,
    }
    if span.detail is not None:
        data["detail"] = span.detail
    return data


def span_from_dict(data: dict) -> Span:
    return Span(
        trace_id=int(data["trace_id"]),
        span_id=int(data["span_id"]),
        parent_id=data.get("parent_id"),
        name=data["name"],
        pid=int(data["pid"]),
        start=float(data["start"]),
        end=None if data.get("end") is None else float(data["end"]),
        lamport_start=int(data.get("lamport_start", 0)),
        lamport_end=int(data.get("lamport_end", 0)),
        status=data.get("status", "ok"),
        detail=data.get("detail"),
    )


def dump_spans(path, spans: Iterable[Span]) -> int:
    """Write spans as JSONL; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as stream:
        for span in spans:
            stream.write(json.dumps(span_to_dict(span), sort_keys=True))
            stream.write("\n")
            count += 1
    return count


def load_spans(path) -> List[Span]:
    spans: List[Span] = []
    with open(path, "r", encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                spans.append(span_from_dict(json.loads(line)))
    return spans


# ----------------------------------------------------------------------
# Assembly
# ----------------------------------------------------------------------
class _OpenRequest:
    """Mutable state of one in-flight request span."""

    __slots__ = (
        "trace_id",
        "pid",
        "start",
        "lamport_start",
        "child",
        "child_start",
        "child_lamport",
        "last_fork_time",
        "last_fork_from",
    )

    def __init__(self, trace_id: int, pid: int, time: float, lamport: int) -> None:
        self.trace_id = trace_id
        self.pid = pid
        self.start = time
        self.lamport_start = lamport
        self.child = SPAN_HUNGRY
        self.child_start = time
        self.child_lamport = lamport
        self.last_fork_time: Optional[float] = None
        self.last_fork_from: Optional[int] = None


class SpanAssembler:
    """Builds request span trees from the normalized event stream.

    Feed it events (online through the per-substrate adapters, offline
    via :func:`spans_from_events`); closed spans accumulate in
    :attr:`spans`.  With ``capacity`` set the span list is a bounded ring
    (the flight recorder's storage) and :attr:`evicted` counts what the
    ring forgot.

    Lamport bookkeeping: every local event ticks its pid's clock; every
    :meth:`send` ticks and stamps; every :meth:`receive` merges the
    carried stamp.  Stamps are therefore relative to the events the
    assembler was shown — a trace-only offline rebuild (no wire log)
    yields coarser clocks than a run traced with message events, which is
    fine: ordering is only ever compared between spans built from the
    same event universe.
    """

    def __init__(self, *, capacity: Optional[int] = None) -> None:
        self.spans: "deque[Span]" = deque(maxlen=capacity)
        self._capacity = capacity
        self._appended = 0
        self._open: Dict[int, _OpenRequest] = {}
        self._clock: Dict[int, int] = {}
        self._session: Dict[int, int] = {}
        self._stamps: Dict[Tuple[int, int], deque] = {}
        self.meals = 0

    # -- clocks --------------------------------------------------------
    def _tick(self, pid: int) -> int:
        clock = self._clock.get(pid, 0) + 1
        self._clock[pid] = clock
        return clock

    def lamport(self, pid: int) -> int:
        """Current Lamport clock of ``pid`` (0 if never seen)."""
        return self._clock.get(pid, 0)

    @property
    def evicted(self) -> int:
        """Spans forgotten by the bounded ring (0 when unbounded)."""
        return self._appended - len(self.spans)

    def _emit(self, span: Span) -> None:
        self.spans.append(span)
        self._appended += 1

    # -- local lifecycle events ----------------------------------------
    def on_record(self, record) -> None:
        """Dispatch one lifecycle trace record (:data:`LIFECYCLE_RECORDS`).

        The one entry point for lifecycle facts: the kernel tracer and
        the live host subscribe it to their trace recorder, and offline
        rebuilds reach it through :meth:`observe`.
        """
        cls = type(record)
        if cls is PhaseChange:
            self.on_phase(record.time, record.pid, record.old_phase, record.new_phase)
        elif cls is DoorwayChange:
            self.on_doorway(record.time, record.pid, record.inside)
        elif cls is Crash:
            self.on_crash(record.time, record.pid)

    def on_phase(self, time: float, pid: int, old_phase: str, new_phase: str) -> None:
        lamport = self._tick(pid)
        if new_phase == HUNGRY:
            session = self._session.get(pid, 0) + 1
            self._session[pid] = session
            self._open[pid] = _OpenRequest(make_trace_id(pid, session), pid, time, lamport)
            return
        request = self._open.get(pid)
        if request is None:
            return
        if new_phase == EATING:
            # Close forks-requested at the last fork arrival, account the
            # residue as forks-held, then open the eating child.
            boundary = request.last_fork_time
            if boundary is None or boundary < request.child_start:
                boundary = time
            detail = (
                None
                if request.last_fork_from is None
                else f"last-fork-from={request.last_fork_from}"
            )
            self._close_child(request, boundary, lamport, detail=detail)
            self._open_child(request, SPAN_FORKS_HELD, boundary, lamport)
            self._close_child(request, time, lamport)
            self._open_child(request, SPAN_EATING, time, lamport)
            self.meals += 1
        elif new_phase == THINKING:
            self._close_child(request, time, lamport)
            self._close_request(request, time, lamport, "ok")

    def on_doorway(self, time: float, pid: int, inside: bool) -> None:
        lamport = self._tick(pid)
        request = self._open.get(pid)
        if request is None or not inside:
            # Doorway exit happens during Action 10 and is subsumed by
            # the eating->thinking phase change that follows it.
            return
        if request.child == SPAN_HUNGRY:
            self._close_child(request, time, lamport)
            self._open_child(request, SPAN_FORKS_REQUESTED, time, lamport)

    def on_crash(self, time: float, pid: int) -> None:
        lamport = self._tick(pid)
        request = self._open.get(pid)
        if request is not None:
            self._close_child(request, time, lamport, status="crashed")
            self._close_request(request, time, lamport, "crashed")

    # -- message events ------------------------------------------------
    def send(self, time: float, src: int) -> SpanContext:
        """Stamp one outgoing message with ``src``'s causal context."""
        lamport = self._tick(src)
        request = self._open.get(src)
        if request is None:
            return SpanContext(0, 0, lamport)
        return SpanContext(request.trace_id, _SID_OF_NAME[request.child], lamport)

    def receive(
        self,
        time: float,
        src: int,
        dst: int,
        kind: str,
        context: Optional[SpanContext] = None,
    ) -> None:
        """Merge one delivery into ``dst``'s clock; track fork arrivals."""
        # By index: a remote frame's context is the codec's plain tuple.
        stamp = context[2] if context is not None else 0
        local = self._clock.get(dst, 0)
        self._clock[dst] = (stamp if stamp > local else local) + 1
        if kind == "Fork":
            request = self._open.get(dst)
            if request is not None and request.child == SPAN_FORKS_REQUESTED:
                request.last_fork_time = time
                request.last_fork_from = src

    # -- normalized-event dispatch (offline + adapters) ----------------
    def observe(self, event) -> None:
        """Dispatch one :mod:`repro.checks.events` member."""
        cls = type(event)
        if cls is SendEvent:
            self._queue_stamp(event.src, event.dst, self.send(event.time, event.src))
        elif cls is DeliverEvent:
            self.receive(
                event.time,
                event.src,
                event.dst,
                event.type,
                self._pop_stamp(event.src, event.dst),
            )
        # Drops still consume their channel stamp (FIFO, no reordering).
        elif cls is DropEvent:
            self._pop_stamp(event.src, event.dst)
        else:
            self.on_record(event)

    # Per-directed-channel stamp queues: channels are FIFO and lossless
    # up to explicit drops, so the n-th departure carries the n-th stamp.
    def _queue_stamp(self, src: int, dst: int, context: SpanContext) -> None:
        queue = self._stamps.get((src, dst))
        if queue is None:
            queue = self._stamps[(src, dst)] = deque()
        queue.append(context)

    def _pop_stamp(self, src: int, dst: int) -> Optional[SpanContext]:
        queue = self._stamps.get((src, dst))
        if not queue:
            return None
        return queue.popleft()

    # -- closing -------------------------------------------------------
    def _open_child(self, request: _OpenRequest, name: str, time: float, lamport: int) -> None:
        request.child = name
        request.child_start = time
        request.child_lamport = lamport

    def _close_child(
        self,
        request: _OpenRequest,
        time: float,
        lamport: int,
        *,
        status: str = "ok",
        detail: Optional[str] = None,
    ) -> None:
        self._emit(
            Span(
                trace_id=request.trace_id,
                span_id=_SID_OF_NAME[request.child],
                parent_id=_SID_REQUEST,
                name=request.child,
                pid=request.pid,
                start=request.child_start,
                end=time,
                lamport_start=request.child_lamport,
                lamport_end=lamport,
                status=status,
                detail=detail,
            )
        )

    def _close_request(self, request: _OpenRequest, time: float, lamport: int, status: str) -> None:
        del self._open[request.pid]
        self._emit(
            Span(
                trace_id=request.trace_id,
                span_id=_SID_REQUEST,
                parent_id=None,
                name=SPAN_REQUEST,
                pid=request.pid,
                start=request.start,
                end=time,
                lamport_start=request.lamport_start,
                lamport_end=lamport,
                status=status,
            )
        )

    def finish(self, time: float) -> List[Span]:
        """Close every in-flight span as ``"open"`` at the horizon.

        Returns the full span list (ring-bounded assemblers return what
        the ring retained), sorted into stitch order.
        """
        for pid in sorted(self._open):
            request = self._open[pid]
            lamport = self._tick(pid)
            self._close_child(request, time, lamport, status="open")
            self._close_request(request, time, lamport, "open")
        return stitch_spans(self.spans)


def spans_from_events(events: Iterable, *, horizon: Optional[float] = None) -> List[Span]:
    """Rebuild the span forest offline from recorded check events.

    ``events`` is any stream of :mod:`repro.checks.events` members —
    typically ``load_events_path`` over ``trace.jsonl`` (and, when the
    run was live, ``wire.jsonl``) merged with ``merge_events``.
    """
    assembler = SpanAssembler()
    last_time = 0.0
    for event in events:
        assembler.observe(event)
        time = getattr(event, "time", None)
        if time is not None and time > last_time:
            last_time = time
    return assembler.finish(horizon if horizon is not None else last_time)


def stitch_spans(*span_lists: Iterable[Span]) -> List[Span]:
    """Merge per-host span lists into one causally coherent trace.

    Hosts of one cluster share an epoch, so wall time is the primary key;
    Lamport stamps break same-instant ties causally, and the
    deterministic ids make the result stable across merge orders.
    """
    merged: List[Span] = []
    for spans in span_lists:
        merged.extend(spans)
    merged.sort(key=lambda s: (s.start, s.lamport_start, s.trace_id, s.span_id))
    return merged


def request_spans(spans: Iterable[Span]) -> List[Span]:
    return [span for span in spans if span.name == SPAN_REQUEST]


def flush_span_metrics(spans: Iterable[Span], registry) -> None:
    """Per-phase latency histograms and request counters from closed spans.

    Substrate-agnostic (the same helper serves the kernel tracer and the
    live host), so the metric names line up in merged expositions:
    ``trace.phase_seconds{phase=...}``, ``trace.request_seconds``, and
    ``trace.requests_total{status=...}``.
    """
    for span in spans:
        if span.name == SPAN_REQUEST:
            registry.counter("trace.requests_total", status=span.status).inc()
            if span.end is not None:
                registry.histogram("trace.request_seconds").observe(span.duration)
        elif span.end is not None:
            registry.histogram("trace.phase_seconds", phase=span.name).observe(
                span.duration
            )


def completed_meals(spans: Iterable[Span]) -> int:
    """Meals represented in a span list: one ``eating`` child per meal.

    Counted at eating entry — exactly when ``meals_eaten`` increments —
    so a crash or horizon mid-meal still counts, and the stitched cluster
    trace's meal count equals the merged hosts' meal counters.
    """
    return sum(1 for span in spans if span.name == SPAN_EATING)


# ----------------------------------------------------------------------
# Online adapters (kernel)
# ----------------------------------------------------------------------
class KernelTracer:
    """Feeds a :class:`SpanAssembler` from a running :class:`DiningTable`.

    Subscribes one typed trace listener for the lifecycle records and a
    network monitor for message stamps — both no-ops for every run that
    does not attach a tracer, which is what keeps the disabled overhead
    inside the kernel benchmark guard.
    """

    def __init__(self, table, *, capacity: Optional[int] = None) -> None:
        self._table = table
        self.assembler = SpanAssembler(capacity=capacity)
        table.trace.add_listener(self.assembler.on_record, types=LIFECYCLE_RECORDS)
        table.network.add_monitor(self)

    # NetworkMonitor interface
    def on_send(self, src: int, dst: int, message, time: float) -> None:
        self.assembler._queue_stamp(src, dst, self.assembler.send(time, src))

    def on_deliver(self, src: int, dst: int, message, time: float) -> None:
        self.assembler.receive(
            time, src, dst, type(message).__name__, self.assembler._pop_stamp(src, dst)
        )

    def on_drop(self, src: int, dst: int, message, time: float) -> None:
        self.assembler._pop_stamp(src, dst)

    def finish(self) -> List[Span]:
        """Close open spans at the table's current horizon."""
        return self.assembler.finish(self._table.sim.now)


def attach_tracer(table, *, capacity: Optional[int] = None) -> KernelTracer:
    """Opt a kernel run into request tracing; call before ``table.run``."""
    return KernelTracer(table, capacity=capacity)


# ----------------------------------------------------------------------
# Rendering: timelines and the critical path
# ----------------------------------------------------------------------
def _group_traces(spans: Iterable[Span]) -> Dict[int, List[Span]]:
    traces: Dict[int, List[Span]] = {}
    for span in spans:
        traces.setdefault(span.trace_id, []).append(span)
    return traces


def _request_of(trace: List[Span]) -> Optional[Span]:
    for span in trace:
        if span.name == SPAN_REQUEST:
            return span
    return None


def slowest_request(spans: Iterable[Span], *, pid: Optional[int] = None) -> Optional[int]:
    """Trace id of the longest request (optionally for one diner)."""
    worst: Optional[Tuple[float, int]] = None
    for trace_id, trace in _group_traces(spans).items():
        request = _request_of(trace)
        if request is None or (pid is not None and request.pid != pid):
            continue
        key = (request.duration, -trace_id)
        if worst is None or key > worst:
            worst = key
            worst_id = trace_id
    return None if worst is None else worst_id


def critical_path(spans: Iterable[Span], trace_id: int) -> List[Span]:
    """The request's phases ordered by cost, dominant first.

    For a single-request tree the critical path *through time* is the
    phase sequence itself; what diagnosis needs is which phase dominated
    the latency, and — when it was fork collection — which neighbor's
    fork arrived last (the ``detail`` of the forks-requested span).
    """
    trace = _group_traces(spans).get(trace_id, [])
    phases = [span for span in trace if span.name in PHASE_SPANS]
    return sorted(phases, key=lambda s: (-s.duration, s.span_id))


def render_timeline(
    spans: Iterable[Span],
    *,
    pid: Optional[int] = None,
    limit: Optional[int] = None,
) -> List[str]:
    """Human-readable per-request timelines, one block per request."""
    traces = _group_traces(spans)
    ordered = sorted(
        (t for t in traces.values() if _request_of(t) is not None),
        key=lambda t: (_request_of(t).start, _request_of(t).trace_id),
    )
    if pid is not None:
        ordered = [t for t in ordered if _request_of(t).pid == pid]
    if limit is not None:
        ordered = ordered[-limit:]
    lines: List[str] = []
    for trace in ordered:
        request = _request_of(trace)
        status = "" if request.status == "ok" else f" [{request.status}]"
        lines.append(
            f"request pid={request.pid} session={trace_session(request.trace_id)} "
            f"trace={request.trace_id:#x} t={request.start:.3f}..{_fmt_end(request)} "
            f"({request.duration:.3f}s){status}"
        )
        for phase in sorted(
            (s for s in trace if s.name in PHASE_SPANS), key=lambda s: (s.start, s.span_id)
        ):
            detail = f"  {phase.detail}" if phase.detail else ""
            flag = "" if phase.status == "ok" else f" [{phase.status}]"
            lines.append(
                f"  {phase.name:<16} {phase.start:>10.3f} .. {_fmt_end(phase):>10} "
                f"{phase.duration:>8.3f}s  L{phase.lamport_start}->{phase.lamport_end}"
                f"{detail}{flag}"
            )
    return lines


def _fmt_end(span: Span) -> str:
    return "?" if span.end is None else f"{span.end:.3f}"


def render_critical_path(spans: Iterable[Span], trace_id: int) -> List[str]:
    """Render the dominant-cost breakdown of one request."""
    path = critical_path(spans, trace_id)
    if not path:
        return [f"trace {trace_id:#x}: no spans recorded"]
    total = sum(span.duration for span in path)
    request = _request_of(_group_traces(spans).get(trace_id, []))
    pid = path[0].pid
    header = f"critical path for pid={pid} trace={trace_id:#x}"
    if request is not None and request.status != "ok":
        header += f" [{request.status}]"
    lines = [header]
    for rank, span in enumerate(path):
        share = 0.0 if total <= 0 else 100.0 * span.duration / total
        marker = "*" if rank == 0 else " "
        detail = f"  ({span.detail})" if span.detail else ""
        lines.append(
            f" {marker} {span.name:<16} {span.duration:>9.3f}s  {share:5.1f}%{detail}"
        )
    return lines
