"""Tripwire for the seams the performance ledger reaches through.

``benchmarks/ledger`` measures the system from outside: it imports names
from ``src/repro`` and rebinds a handful of them (module globals, class
attributes) to time each layer.  Nothing in the product calls the
ledger, so a refactor that renames or pre-binds one of those names
passes every other test and then fails the benchmark run with an
``ImportError`` or ``AttributeError``.  This test meets that error
first.  It runs nothing: imports, one install/restore of the probes,
and attribute lookups for the pinned list — a few milliseconds.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect

import pytest

#: module -> names the ledger imports from it or rebinds on it.
PINNED = {
    "repro.core": ("AlwaysHungry", "DiningTable", "scripted_detector"),
    "repro.core.diner": ("DinerActor.deliver",),
    "repro.core.table": (
        "DiningTable.run",
        "DiningTable.verdict",
        "DiningTable.response_times",
        "DiningTable.fingerprint",
    ),
    "repro.sim.network": ("Network.send",),
    "repro.sim.events": (
        "EventQueue.push_transient",
        "EventQueue.pop_due",
        "EventPriority.DELIVERY",
    ),
    "repro.sim.latency": ("UniformLatency",),
    "repro.faults.campaign": ("sample_plan", "run_plan", "CampaignSpec", "run_campaign"),
    "repro.faults.engine": ("build_table", "run_plan"),
    "repro.faults.sampler": ("ARCHETYPES", "sample_plan"),
    "repro.graphs.topologies": ("by_name",),
    "repro.net.host": (
        "encode_frame",
        "FrameDecoder",
        "HostConfig",
        "AsyncHost.transmit",
        "AsyncHost.run",
        "AsyncHost.verdict",
    ),
    "repro.net.codec": ("encode_frame", "FrameDecoder"),
    "repro.net.cluster": (
        "ClusterSpec.default_placement",
        "ClusterSpec.host_dir",
        "build_host",
        "start_cluster",
        "wait_cluster",
        "merge_run",
    ),
    "repro.locks.service": ("LockCore.request", "LockCore.release", "LockService.on_frame"),
    "repro.locks.client": ("LockClient",),
    "repro.locks.loadgen": ("resources_by_host",),
    "repro.obs.tracing": (
        "SPAN_EATING",
        "SPAN_REQUEST",
        "_SID_OF_NAME",
        "load_spans",
        "attach_tracer",
    ),
    "repro.obs.metrics": ("MetricsRegistry",),
    "repro.obs.profile": ("KernelProfiler",),
    "repro.checks.stream": ("events_from_trace", "events_from_wire", "merge_events", "replay"),
    "repro.checks.suite": ("CheckConfig", "CheckSuite.profile_totals", "CheckSuite.observe"),
    "repro.checks.properties": (
        "FORK_UNIQUENESS",
        "DINER_LOCAL",
        "CHANNEL_BOUND",
        "FIFO",
        "WX_SAFETY",
        "PROGRESS",
        "OVERTAKING",
        "QUIESCENCE",
        "PENDING_PING",
    ),
    "repro.trace.analysis": ("all_response_times",),
    "repro.errors": ("ReproError",),
}

#: callable -> keyword arguments the ledger passes it.
KEYWORDS = {
    "repro.core.table:DiningTable": (
        "seed", "latency", "workload", "detector", "check_invariants", "check_config", "metrics",
    ),
    "repro.net.host:HostConfig": (
        "duration", "seed", "eat_time", "think_time", "tracing", "flight_dir",
    ),
    "repro.net.codec:FrameDecoder": ("capture_context",),
    "repro.obs.metrics:MetricsRegistry": ("profile",),
}


def _resolve_on(target, dotted: str):
    for part in dotted.split("."):
        target = getattr(target, part)
    return target


def _resolve(module_name: str, dotted: str):
    return _resolve_on(importlib.import_module(module_name), dotted)


@pytest.mark.parametrize("module_name", sorted(PINNED))
def test_pinned_names_resolve(module_name):
    for dotted in PINNED[module_name]:
        _resolve(module_name, dotted)


@pytest.mark.parametrize("target", sorted(KEYWORDS))
def test_pinned_call_shapes(target):
    module_name, name = target.split(":")
    parameters = inspect.signature(_resolve(module_name, name)).parameters
    for keyword in KEYWORDS[target]:
        assert keyword in parameters, f"{target} lost keyword {keyword!r}"


def test_config_dataclasses_keep_the_fields_the_ledger_sets():
    from repro.checks.suite import CheckConfig
    from repro.net.cluster import ClusterSpec

    assert "profile" in {f.name for f in dataclasses.fields(CheckConfig)}
    spec_fields = {f.name for f in dataclasses.fields(ClusterSpec)}
    assert {"epoch", "connect_timeout", "placement", "addresses"} <= spec_fields


def test_built_table_and_host_carry_the_attributes_the_ledger_reads():
    from repro.core import DiningTable
    from repro.graphs import ring
    from repro.net.host import AsyncHost

    table = DiningTable(ring(3))
    for dotted in (
        "sim.profiler",
        "sim.add_step_listener",
        "sim.queue_depth",
        "sim.processed_events",
        "checks.profile_totals",
        "checks.events_observed",
        "trace",
        "diners",
        "network.sent_count",
    ):
        _resolve_on(table, dotted)
    host = AsyncHost(ring(3))
    for dotted in (
        "diners",
        "trace",
        "local_pids",
        "placement",
        "wire_events",
        "violations",
        "checks.observe",
        "host_index",
        "lock_service",
        "spans",
    ):
        _resolve_on(host, dotted)


def test_host_wire_log_fields_and_rebound_observe():
    """The ledger reads ``kind``/``dst``/``bits`` off ``wire_events``
    entries and times the live feed by rebinding ``host.checks.observe``
    on the instance *after* construction (``SpanLog.patch``).  The host
    must therefore look ``observe`` up at call time for message events
    and lifecycle records alike — a listener that captured the bound
    method at construction would feed the suite behind the ledger's back
    and zero its ``checks.live_observe_*`` rows."""
    from types import SimpleNamespace

    from repro.core.messages import Ping
    from repro.graphs import ring
    from repro.net.host import AsyncHost

    host = AsyncHost(ring(3))
    seen = []
    host.checks.observe = seen.append
    host.loop = SimpleNamespace(call_soon=lambda *args: None)  # never run
    host.transmit(0, 1, Ping(1))
    (entry,) = host.wire_events
    for name in ("kind", "src", "dst", "type", "layer", "seq", "time", "bits"):
        getattr(entry, name)
    assert (entry.kind, entry.dst, entry.type) == ("send", 1, "Ping") and entry.bits > 0
    host.trace.phase_change(0.1, 0, "thinking", "hungry")
    host.trace.crash(0.2, 1)
    assert [type(event).__name__ for event in seen] == ["SendEvent", "PhaseChange", "Crash"]
    assert seen[0] is entry


def test_ledger_imports_and_probes_install_and_restore():
    """The ledger's own modules import, and every seam the probes rebind
    exists: ``install`` patches them all, ``restore`` puts them back."""
    from benchmarks.ledger import extras, loadgen, probes, workloads  # noqa: F401
    from benchmarks.ledger.spans import SpanLog

    import repro.net.host as host_module
    from repro.core.table import DiningTable

    before = (DiningTable.__init__, DiningTable.verdict, host_module.encode_frame)
    log = SpanLog()
    probes.install(log)
    try:
        assert DiningTable.__init__ is not before[0]
        assert host_module.encode_frame is not before[2]
    finally:
        log.restore()
    assert (DiningTable.__init__, DiningTable.verdict, host_module.encode_frame) == before
