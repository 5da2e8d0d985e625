"""Substrate-agnostic property checking with a single Verdict pipeline.

One canonical implementation per paper property, consuming a normalized
check-event stream (:mod:`repro.checks.events`), composed by
:class:`CheckSuite` into a single typed :class:`Verdict`.  The kernel,
the live asyncio host, the cluster merge, and offline ``repro check``
replay all drive this same code — see ``docs/CHECKS.md`` for the
property ↔ theorem map.

This package deliberately imports neither :mod:`repro.sim` nor
:mod:`repro.net` (enforced by the layering test); substrate adapters
live with their substrates (:mod:`repro.sim.checks`,
:mod:`repro.net.host`).
"""

from repro.checks.base import Checker
from repro.checks.context import (
    CheckCollector,
    active_collector,
    collecting_checks,
)
from repro.checks.dynamic import (
    EDGE_EXCLUSION,
    EdgeScopedExclusionChecker,
    EpochChannelBoundChecker,
    ResidencyProgressChecker,
    ResidencyQuiescenceChecker,
)
from repro.checks.expectations import (
    ExpectedStatuses,
    Mismatch,
    describe_mismatches,
    worst_surprise,
)
from repro.checks.events import (
    CHECK_EVENT_VERSION,
    CrashEvent,
    DeliverEvent,
    DoorwayEvent,
    DropEvent,
    MembershipEvent,
    PhaseEvent,
    ProbeEvent,
    SendEvent,
    SuspicionEvent,
    wire_to_dict,
)
from repro.checks.properties import (
    CHANNEL_BOUND,
    DINER_LOCAL,
    FIFO,
    FORK_UNIQUENESS,
    OVERTAKING,
    PENDING_PING,
    PROGRESS,
    QUIESCENCE,
    WX_SAFETY,
    ChannelBoundChecker,
    ChannelOccupancy,
    DinerLocalChecker,
    FifoChecker,
    ForkUniquenessChecker,
    OvertakingChecker,
    PendingPingChecker,
    PostCrashSend,
    ProgressChecker,
    QuiescenceChecker,
    WxSafetyChecker,
    diner_local_violations,
    probe_violations,
)
from repro.checks.stream import (
    event_from_trace_record,
    event_from_wire,
    events_from_trace,
    events_from_wire,
    load_events_lines,
    load_events_path,
    merge_events,
    replay,
)
from repro.checks.suite import CheckConfig, CheckSuite, standard_suite
from repro.checks.verdict import (
    FAIL,
    PASS,
    SKIP,
    STATUS_ORDER,
    PropertyVerdict,
    Verdict,
    Violation,
    annotate_violations,
    worst_status,
)

__all__ = [
    "CHANNEL_BOUND",
    "CHECK_EVENT_VERSION",
    "DINER_LOCAL",
    "EDGE_EXCLUSION",
    "FAIL",
    "FIFO",
    "FORK_UNIQUENESS",
    "OVERTAKING",
    "PASS",
    "PENDING_PING",
    "PROGRESS",
    "QUIESCENCE",
    "SKIP",
    "STATUS_ORDER",
    "WX_SAFETY",
    "ChannelBoundChecker",
    "ChannelOccupancy",
    "CheckCollector",
    "CheckConfig",
    "CheckSuite",
    "Checker",
    "CrashEvent",
    "DeliverEvent",
    "DinerLocalChecker",
    "DoorwayEvent",
    "DropEvent",
    "EdgeScopedExclusionChecker",
    "EpochChannelBoundChecker",
    "ExpectedStatuses",
    "FifoChecker",
    "ForkUniquenessChecker",
    "MembershipEvent",
    "Mismatch",
    "OvertakingChecker",
    "PendingPingChecker",
    "PhaseEvent",
    "PostCrashSend",
    "ProbeEvent",
    "ProgressChecker",
    "PropertyVerdict",
    "QuiescenceChecker",
    "ResidencyProgressChecker",
    "ResidencyQuiescenceChecker",
    "SendEvent",
    "SuspicionEvent",
    "Verdict",
    "Violation",
    "WxSafetyChecker",
    "active_collector",
    "annotate_violations",
    "collecting_checks",
    "describe_mismatches",
    "diner_local_violations",
    "event_from_trace_record",
    "event_from_wire",
    "events_from_trace",
    "events_from_wire",
    "load_events_lines",
    "load_events_path",
    "merge_events",
    "probe_violations",
    "replay",
    "standard_suite",
    "wire_to_dict",
    "worst_status",
    "worst_surprise",
]
