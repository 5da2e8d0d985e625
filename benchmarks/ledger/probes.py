"""The traced repetition: wrappers around each layer's public entry points.

:func:`install` replaces the entry points named in the README's layer
table by span-recording wrappers and arms the program's own public
attribution hooks (``Simulator.profiler``, ``CheckConfig.profile``, a
step listener reading ``Simulator.queue_depth``) on every table built
afterwards.  :func:`layer_metrics` turns what they recorded into the
per-layer metric names of ``BENCHMARK.json``.

Nothing here runs in an untraced repetition.
"""

from __future__ import annotations

import itertools
from typing import Dict

import repro.faults.campaign as campaign_module
import repro.faults.engine as engine_module
import repro.net.codec as codec_module
import repro.net.host as host_module
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
)
from repro.checks.suite import CheckConfig
from repro.core.diner import DinerActor
from repro.core.table import DiningTable
from repro.graphs import topologies
from repro.locks.service import LockCore, LockService
from repro.net.codec import FrameDecoder
from repro.net.host import AsyncHost
from repro.obs.profile import KernelProfiler
from repro.sim.network import Network

from benchmarks.ledger.spans import SpanLog
from benchmarks.ledger.stats import percentile
from benchmarks.ledger.workloads import FUZZ_ARCHETYPES

#: Properties reported by name; what else a profiled suite charges (the
#: adapter's settle step, the dynamic suite's edge-exclusion) is ``other``.
PROPERTIES = frozenset(
    (FORK_UNIQUENESS, DINER_LOCAL, CHANNEL_BOUND, FIFO, WX_SAFETY,
     PROGRESS, OVERTAKING, QUIESCENCE, PENDING_PING)
)

#: ``KernelProfiler`` sites reported by name; the rest fold into ``other``.
SITES = {
    "deliver Ack": "deliver_Ack",
    "deliver Ping": "deliver_Ping",
    "deliver ForkRequest": "deliver_ForkRequest",
    "deliver Fork": "deliver_Fork",
    "hunger": "hunger",
    "exit": "exit",
}

#: Span name -> (seconds metric, calls metric or None, which seconds).
#: Phases report their whole span (``total_s``); layers called from
#: inside other layers report self time, so the rows add up.
SPAN_METRICS = {
    "graphs.build": ("graphs.build_s", None, "total_s"),
    "sim.network.send": ("sim.network.send_s", "sim.network.send_calls", "self_s"),
    "core.diner.deliver": ("core.diner.deliver_s", "core.diner.deliver_calls", "self_s"),
    "core.table.build": ("core.table.build_s", None, "total_s"),
    "core.table.run": ("core.table.run_s", None, "total_s"),
    "core.table.verdict": ("core.table.verdict_s", None, "total_s"),
    "faults.sampler.sample": ("faults.sampler.sample_s", None, "self_s"),
    "faults.engine.build_table": ("faults.engine.build_table_s", None, "total_s"),
    "net.host.transmit": ("net.host.transmit_s", "net.host.transmit_calls", "self_s"),
    "net.codec.encode": ("net.codec.encode_s", "net.codec.frames_total", "self_s"),
    "net.codec.decode": ("net.codec.decode_s", None, "self_s"),
    "checks.live_observe": ("checks.live_observe_s", "checks.live_observe_calls", "self_s"),
    "locks.service.on_frame": (
        "locks.service.on_frame_s",
        "locks.service.on_frame_calls",
        "self_s",
    ),
    "locks.core.request": ("locks.core.request_s", None, "self_s"),
    "locks.core.release": ("locks.core.release_s", None, "self_s"),
}


class KernelProbe:
    """What the kernel's own hooks reported, summed over every table built."""

    def __init__(self) -> None:
        self.profiler = KernelProfiler()
        self.depth_peak = 0
        self.property_s: Dict[str, float] = {}
        self.events_observed = 0
        self.trace_records = 0

    def arm(self, table: DiningTable) -> None:
        sim = table.sim
        sim.profiler = self.profiler

        def sample_depth(_now) -> None:
            depth = sim.queue_depth
            if depth > self.depth_peak:
                self.depth_peak = depth

        sim.add_step_listener(sample_depth)

    def harvest(self, table: DiningTable) -> None:
        """Read a table's counters once its verdict is in."""
        for name, (seconds, _events) in table.checks.profile_totals().items():
            self.property_s[name] = self.property_s.get(name, 0.0) + seconds
        self.events_observed += table.checks.events_observed
        self.trace_records += len(table.trace)


def install(log: SpanLog) -> KernelProbe:
    """Wrap every layer boundary; returns the kernel-side accumulators."""
    probe = KernelProbe()

    # graphs / sim / core
    log.patch(topologies, "by_name", "graphs.build")
    log.patch(Network, "send", "sim.network.send")
    log.patch(DinerActor, "deliver", "core.diner.deliver")
    log.patch(DiningTable, "run", "core.table.run")

    build = log.wrap("core.table.build", DiningTable.__init__)

    def traced_init(table, *args, **kwargs) -> None:
        if kwargs.get("check_invariants", True):
            config = kwargs.get("check_config")
            if config is None:
                config = kwargs["check_config"] = CheckConfig()
            config.profile = True
        build(table, *args, **kwargs)
        probe.arm(table)

    log.replace(DiningTable, "__init__", traced_init)

    judge = log.wrap("core.table.verdict", DiningTable.verdict)

    def traced_verdict(table, *args, **kwargs):
        verdict = judge(table, *args, **kwargs)
        probe.harvest(table)
        return verdict

    log.replace(DiningTable, "verdict", traced_verdict)

    # faults: the campaign calls these through its own module globals
    plan_index = itertools.count()
    log.patch(campaign_module, "sample_plan", "faults.sampler.sample")
    log.patch(
        campaign_module,
        "run_plan",
        "faults.engine.run_plan",
        request_of=lambda *args, **kwargs: next(plan_index),
    )
    log.patch(engine_module, "build_table", "faults.engine.build_table")

    # net: the host's own codec calls, not the lease clients'
    log.patch(AsyncHost, "transmit", "net.host.transmit")
    log.patch(host_module, "encode_frame", "net.codec.encode")
    log.patch(codec_module, "encode_frame", "net.codec.encode")  # LockService._reply

    class TracedDecoder(FrameDecoder):
        feed = log.wrap("net.codec.decode", FrameDecoder.feed)

    log.replace(host_module, "FrameDecoder", TracedDecoder)

    # locks: a lease frame's session id is the request id
    log.patch(
        LockService,
        "on_frame",
        "locks.service.on_frame",
        request_of=lambda service, src, message, writer: src,
    )
    log.patch(
        LockCore,
        "request",
        "locks.core.request",
        request_of=lambda core, session, *args, **kwargs: session,
    )
    log.patch(
        LockCore,
        "release",
        "locks.core.release",
        request_of=lambda core, session, *args, **kwargs: session,
    )
    return probe


def layer_metrics(
    log: SpanLog, probe: KernelProbe, table: Dict[str, Dict[str, float]]
) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition, by their ledger names."""
    metrics: Dict[str, float] = {}
    for span_name, (seconds_name, calls_name, which) in SPAN_METRICS.items():
        cell = table.get(span_name)
        if cell is None:
            continue
        metrics[seconds_name] = cell[which]
        if calls_name is not None:
            metrics[calls_name] = cell["calls"]

    # sim.kernel: the profiler's sites against the run phase they sit in
    sites = probe.profiler.top_sites(n=10_000)
    if sites:
        site_s = {short: 0.0 for short in SITES.values()}
        site_s["other"] = 0.0
        for site, _events, seconds in sites:
            site_s[SITES.get(site, "other")] += seconds
        for short, seconds in site_s.items():
            metrics[f"sim.kernel.site_s.{short}"] = seconds
        metrics["sim.kernel.loop_self_s"] = (
            table["core.table.run"]["total_s"] - probe.profiler.total_seconds()
        )
        metrics["sim.events.depth_peak"] = probe.depth_peak
        metrics["checks.events_observed"] = probe.events_observed
        metrics["trace.records_total"] = probe.trace_records
    for name, seconds in probe.property_s.items():
        key = f"checks.property_s.{name if name in PROPERTIES else 'other'}"
        metrics[key] = metrics.get(key, 0.0) + seconds

    # faults: one run_plan span per plan; its request id is the plan index
    plans = [row for row in log.rows if row[0] == "faults.engine.run_plan"]
    if plans:
        durations = [row[2] - row[1] for row in plans]
        metrics["faults.engine.plan_s_p50"] = percentile(durations, 0.50)
        metrics["faults.engine.plan_s_p90"] = percentile(durations, 0.90)
        for row, seconds in zip(plans, durations):
            name = f"faults.engine.archetype_s.{FUZZ_ARCHETYPES[row[4] % len(FUZZ_ARCHETYPES)]}"
            metrics[name] = metrics.get(name, 0.0) + seconds
    return metrics
