"""Adapters from recorded artifacts to the normalized check-event stream.

A run leaves two kinds of artifacts: the trace (typed records of
:mod:`repro.trace.events`, one JSONL object per line with a ``kind``
tag) and, for live runs, the wire log (one JSON object per transport
event).  Both speak distinguishable ``kind`` vocabularies, so
:func:`load_events_path` accepts either file — or a mix — and
``repro check`` can replay any combination of them through the full
suite.  :func:`merge_events` reproduces the cluster's merge order
(time-sorted, each stream in its own order, sends before the departures
they race with across streams), which is what turns the old
merged-staircase reconstruction into a plain check-event adapter.
"""

from __future__ import annotations

import heapq
import json
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.checks.events import WIRE_EVENT_TYPES, SendEvent
from repro.checks.suite import CheckConfig, CheckSuite, standard_suite
from repro.checks.verdict import Verdict
from repro.errors import ConfigurationError
from repro.graphs.conflict import ConflictGraph
from repro.graphs.membership import MembershipDelta, MembershipLog, TopologyTimeline
from repro.trace.events import (
    Crash,
    DoorwayChange,
    MembershipChange,
    PhaseChange,
    SuspicionChange,
)
from repro.trace.serialize import record_from_dict

Edge = Tuple[int, int]

#: Trace record classes the checkers consume, as they are.
_CHECKABLE_RECORDS = frozenset(
    (PhaseChange, DoorwayChange, SuspicionChange, Crash, MembershipChange)
)
#: Their ``kind`` values on trace-record JSONL lines.
_TRACE_KINDS = {"phase", "doorway", "suspicion", "crash", "membership"}
#: ``kind`` values carried by trace records with no checkable content.
_IGNORED_TRACE_KINDS = {"protocol_step", "transient_fault"}


def event_from_trace_record(record) -> Optional[object]:
    """The record itself when checkers consume its kind, else None."""
    return record if type(record) in _CHECKABLE_RECORDS else None


def events_from_trace(records: Iterable) -> List[object]:
    """Every checkable record, in trace order."""
    return [record for record in records if type(record) in _CHECKABLE_RECORDS]


def event_from_wire(record: dict) -> object:
    """One wire-log JSON object (see ``wire_to_dict``) as its message event."""
    kind = record.get("kind")
    cls = WIRE_EVENT_TYPES.get(kind)
    if cls is None:
        raise ConfigurationError(f"unknown wire event kind {kind!r}")
    return cls(
        time=record.get("time"),
        src=record.get("src"),
        dst=record.get("dst"),
        type=record.get("type"),
        layer=record.get("layer"),
        seq=record.get("seq"),
        bits=record.get("bits", 0),
    )


def events_from_wire(records: Iterable[dict]) -> List[object]:
    return [event_from_wire(record) for record in records]


def _time(event) -> float:
    return event.time


def _order_key(event) -> Tuple[float, int]:
    if type(event) is MembershipChange:
        # A delta applies at the instant boundary: the sends it enables
        # (the fresh incarnation's first pings land at the same stamp)
        # happen after it, so its link resets must replay first.
        return (event.time, -1)
    return (event.time, 0 if type(event) is SendEvent else 1)


def merge_events(*streams: Iterable) -> List[object]:
    """Merge event streams into one time-ordered stream.

    Each stream keeps its own order for same-instant events: on a
    zero-latency edge a reply shares its stamp with the delivery that
    caused it, and only the stream that recorded both knows which came
    first.  Across streams, a same-instant membership record goes first,
    then sends before departures (a message is in transit for the
    instant it spends on a zero-latency edge), then the earlier stream.
    ``heapq.merge`` applies exactly that rule to the streams' heads.
    """
    return list(
        heapq.merge(
            *(sorted(stream, key=_time) for stream in streams), key=_order_key
        )
    )


def load_events_lines(lines: Iterable[str]) -> List[object]:
    """Parse JSONL lines holding trace records and/or wire-log entries."""
    events: List[object] = []
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"line {line_number}: invalid JSON ({exc})"
            ) from None
        kind = data.get("kind")
        if kind in WIRE_EVENT_TYPES:
            events.append(event_from_wire(data))
        elif kind in _TRACE_KINDS:
            events.append(record_from_dict(data))
        elif kind in _IGNORED_TRACE_KINDS:
            continue
        else:
            raise ConfigurationError(
                f"line {line_number}: unknown event kind {kind!r}"
            )
    return events


def load_events_path(path: str) -> List[object]:
    """Load one JSONL artifact (trace, wire log, or a mix of lines)."""
    with open(path, "r", encoding="utf-8") as stream:
        return load_events_lines(stream)


def replay(
    edges: Sequence[Edge],
    events: Iterable,
    config: Optional[CheckConfig] = None,
    *,
    horizon: Optional[float] = None,
    suite: Optional[CheckSuite] = None,
) -> Verdict:
    """Run a recorded event stream through the full suite offline.

    ``edges`` is the initial conflict graph's edge set.  A stream that
    carries membership records is judged over the topology timeline they
    describe (:func:`_timeline_from_events`), exactly as the run's own
    suite judged it online.  State-based properties (fork uniqueness,
    diner-local invariants) have nothing to probe offline and come back
    ``skip``.
    """
    events = list(events)
    if suite is None:
        timeline = _timeline_from_events(edges, events)
        if timeline is not None:
            edges = sorted(timeline.union().edges)
        suite = standard_suite(edges, config, membership=timeline)
    suite.feed(events)
    return suite.finalize(horizon)


def _timeline_from_events(
    edges: Sequence[Edge], events: Sequence
) -> Optional[TopologyTimeline]:
    """The topology timeline a stream's own membership records describe.

    ``None`` for a static stream.  Every host of a cluster records each
    delta, so records are keyed by their epoch.  The initial graph is
    ``edges`` plus every pid a record names without joining it.
    """
    records = {}
    for event in events:
        if type(event) is MembershipChange:
            records.setdefault(event.epoch, event)
    if not records:
        return None
    deltas = []
    named, joined = set(), set()
    for _, record in sorted(records.items()):
        peers = tuple(record.edges)
        named.add(record.pid)
        named.update(peers)
        if record.verb == "join":
            joined.add(record.pid)
            deltas.append(MembershipDelta(record.time, "join", record.pid, edges=peers))
        elif record.verb in ("add_edge", "remove_edge"):
            deltas.append(MembershipDelta(record.time, record.verb, record.pid, peer=peers[0]))
        else:
            deltas.append(MembershipDelta(record.time, record.verb, record.pid))
    nodes = {pid for edge in edges for pid in edge} | (named - joined)
    return TopologyTimeline(ConflictGraph(nodes, edges), MembershipLog(deltas))
