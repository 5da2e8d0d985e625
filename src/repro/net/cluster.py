"""Multi-process cluster launcher and post-run verdict.

``repro cluster`` turns a topology spec into *n* OS processes, each an
:class:`~repro.net.host.AsyncHost` running its share of the diners over
real sockets, then merges what every host recorded into one verdict:

1. **Launch** — :func:`launch` writes ``spec.json`` into a run directory
   (topology, placement, per-host addresses, shared epoch), spawns one
   ``repro serve`` process per host, and waits for them all.
2. **Serve** — :func:`serve` (the child entry point) rebuilds the host
   from the spec, runs it, and dumps ``trace.jsonl`` / ``wire.jsonl`` /
   ``metrics.json`` / ``result.json`` into its own output directory.
3. **Merge** — :func:`merge_run` recombines the per-host outputs.  Trace
   records and wire logs carry the shared-epoch clock, so converting
   both into the normalized check-event vocabulary and time-merging them
   (:func:`repro.checks.merge_events`) yields one system-wide stream.
   That stream is replayed through the exact
   :func:`repro.checks.standard_suite` every other substrate runs — the
   authoritative Section 7 / FIFO judgement for cross-host edges no
   single host can see — and its channel staircase feeds the
   cluster-level Prometheus gauges.  State-based properties (fork
   uniqueness, the diner-local invariants) cannot be probed offline, so
   their per-host verdicts are adopted into the merged
   :class:`~repro.checks.Verdict` via ``PropertyVerdict.merge``.

The verdict is strict: any live checker violation on a host, any merged
-stream property failure (channel bound, FIFO sequence gap, starving
correct diner, exclusion violation past the detector settle window)
fails the run.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.checks import (
    CHANNEL_BOUND,
    DINER_LOCAL,
    FORK_UNIQUENESS,
    PROGRESS,
    WX_SAFETY,
    CheckConfig,
    PropertyVerdict,
    Verdict,
    annotate_violations,
    load_events_path,
    merge_events,
)
from repro.core.assembly import Wiring
from repro.errors import ConfigurationError
from repro.graphs import topologies
from repro.graphs.conflict import ConflictGraph
from repro.graphs.membership import MembershipLog
from repro.net.host import AsyncHost, HostConfig, run_host
from repro.obs.metrics import MetricsRegistry, gauge_max, merge_snapshots
from repro.obs.report import render_prometheus
from repro.obs.tracing import completed_meals, dump_spans, load_spans, stitch_spans

__all__ = [
    "ClusterHandle",
    "ClusterSpec",
    "ClusterVerdict",
    "launch",
    "merge_run",
    "placement_summary",
    "serve",
    "start_cluster",
    "wait_cluster",
]



@dataclass
class ClusterSpec:
    """Everything a cluster run needs, JSON-serializable for the children."""

    topology: str = "ring"
    n: int = 3
    processes: int = 3
    duration: float = 2.0
    seed: int = 0
    eat_time: float = 0.05
    think_time: float = 0.01
    heartbeat_interval: float = 0.25
    initial_timeout: float = 0.75
    timeout_increment: float = 0.25
    channel_bound: int = 4
    connect_timeout: float = 10.0
    transport: str = "unix"
    crash_times: Dict[int, float] = field(default_factory=dict)
    run_dir: str = "cluster-run"
    #: Request tracing on every host (span logs + wire trace context).
    tracing: bool = True
    #: Base port for per-host ``/metrics`` endpoints: host *i* scrapes on
    #: ``scrape_base + i`` (None = no endpoints).
    scrape_base: Optional[int] = None
    #: Arm each host's flight recorder (dumps under ``host-i/flight/``).
    flight: bool = False
    #: Install the lease service on every host: diners run the demand-
    #: driven :class:`~repro.locks.service.LeaseWorkload` and clients
    #: dial the same listener addresses the diner links use.
    serve_locks: bool = False
    #: Resource name -> owning diner pid (empty: one ``r<pid>`` per
    #: diner).  Each host serves the resources of its local diners.
    lock_resources: Dict[str, int] = field(default_factory=dict)
    #: Membership deltas (dynamic topology): dicts with keys ``time``,
    #: ``verb``, ``pid`` and optionally ``edges`` / ``peer``; times are
    #: seconds after the shared epoch.  Multi-process clusters support
    #: ``join`` and ``leave``; rejoin and edge churn need the loopback
    #: single-host sequence fences.
    membership: List[Dict[str, object]] = field(default_factory=list)
    #: Filled in by :func:`launch` before the spec reaches the children.
    epoch: Optional[float] = None
    addresses: Dict[int, object] = field(default_factory=dict)
    placement: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise ConfigurationError(f"need at least one process, got {self.processes}")
        if self.processes > self.n:
            raise ConfigurationError(
                f"{self.processes} processes for {self.n} diners: some would be empty"
            )
        if self.transport not in ("unix", "tcp"):
            raise ConfigurationError(f"cluster transport must be unix or tcp, not {self.transport!r}")
        if self.processes > 1:
            for delta in self.membership:
                if delta.get("verb") in ("rejoin", "add_edge", "remove_edge"):
                    raise ConfigurationError(
                        f"membership verb {delta.get('verb')!r} needs a "
                        "single-process cluster (loopback channel fences)"
                    )

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def graph(self) -> ConflictGraph:
        return topologies.by_name(self.topology, self.n, seed=self.seed)

    def wiring(self) -> Wiring:
        """The run's graph, membership log, union and residents, derived
        the way every host derives them (:class:`repro.core.assembly.Wiring`)."""
        return Wiring(self.graph(), MembershipLog.from_json(self.membership))

    def host_config(self, host_index: Optional[int] = None) -> HostConfig:
        config = HostConfig(
            duration=self.duration,
            seed=self.seed,
            eat_time=self.eat_time,
            think_time=self.think_time,
            heartbeat_interval=self.heartbeat_interval,
            initial_timeout=self.initial_timeout,
            timeout_increment=self.timeout_increment,
            channel_bound=self.channel_bound,
            connect_timeout=self.connect_timeout,
            tracing=self.tracing,
        )
        if host_index is not None:
            if self.scrape_base is not None:
                config.scrape_port = int(self.scrape_base) + host_index
            if self.flight:
                config.flight_dir = os.path.join(self.host_dir(host_index), "flight")
        return config

    def default_placement(self) -> Dict[int, int]:
        """Contiguous blocks of diners per host (balanced, deterministic).

        Blocks beat round-robin for a conflict graph with locality (ring,
        path, grid): adjacent diners land on the same host, so part of
        each host's neighborhood is a *local* edge — observable from both
        endpoints, which is what makes its live per-edge occupancy gauge
        (and the Section 7 bound assertion behind it) exact in that
        host's ``/metrics`` scrape — and only the block boundaries pay a
        socket hop.
        """
        nodes = self.wiring().union.nodes
        return {
            pid: index * self.processes // len(nodes)
            for index, pid in enumerate(nodes)
        }

    def host_dir(self, host_index: int) -> str:
        return os.path.join(self.run_dir, f"host-{host_index}")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ClusterSpec":
        data = json.loads(text)
        # JSON object keys are strings; the int-keyed maps come back typed.
        for key in ("crash_times", "addresses", "placement"):
            data[key] = {int(k): v for k, v in (data.get(key) or {}).items()}
        return cls(**data)

    @classmethod
    def load(cls, path: str) -> "ClusterSpec":
        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_json(stream.read())


@dataclass
class ClusterVerdict:
    """Merged outcome of one cluster run.

    ``checks`` is the shared :class:`repro.checks.Verdict` — the same
    type every substrate emits — judged over the merged check-event
    stream with the per-host state-based properties adopted in.  The
    legacy summary accessors (``exclusion_total``, ``starving``, …) read
    straight out of it.
    """

    ok: bool
    hosts: List[Dict[str, object]]
    checker_violations: List[str]
    checks: Verdict
    total_meals: int
    prometheus: str
    #: Merged metrics snapshot (the exposition above renders this).
    metrics: Dict[str, object] = field(default_factory=dict)
    #: Stitched cross-process trace: span count and the meals it covers.
    spans: int = 0
    span_meals: int = 0
    #: Aggregated lease-service counters (None when ``--serve-locks``
    #: was off); ``leaked_leases`` here must be zero on a clean run.
    locks: Optional[Dict[str, object]] = None

    def _counter(self, prop: str, name: str) -> int:
        verdict = self.checks.properties.get(prop)
        return int(verdict.counters.get(name, 0)) if verdict is not None else 0

    @property
    def exclusion_total(self) -> int:
        return self._counter(WX_SAFETY, "overlap_windows_total")

    @property
    def exclusion_late(self) -> int:
        return self._counter(WX_SAFETY, "late_windows_total")

    @property
    def starving(self) -> List[int]:
        verdict = self.checks.properties.get(PROGRESS)
        if verdict is None:
            return []
        return list(verdict.details.get("starving", []))

    @property
    def max_in_transit(self) -> int:
        return self._counter(CHANNEL_BOUND, "max_in_transit")

    @property
    def edge_peaks(self) -> Dict[str, int]:
        verdict = self.checks.properties.get(CHANNEL_BOUND)
        if verdict is None:
            return {}
        return dict(verdict.details.get("edge_peaks", {}))

    def describe(self) -> str:
        lines = [
            f"cluster verdict: {'PASS' if self.ok else 'FAIL'}",
            f"  hosts:                 {len(self.hosts)}",
            f"  total meals:           {self.total_meals}",
            f"  checker violations:    {len(self.checker_violations)}",
        ]
        if self.spans:
            lines.append(
                f"  trace spans:           {self.spans} "
                f"(stitched; {self.span_meals} meals)"
            )
        if self.locks is not None:
            counters = self.locks.get("counters", {})
            lines.append(
                "  leases:                "
                f"{counters.get('grants', 0)} granted, "
                f"{counters.get('releases', 0)} released, "
                f"{counters.get('expiries', 0)} expired, "
                f"{sum(self.locks.get('denies', {}).values())} denied, "
                f"{self.locks.get('leaked_leases', 0)} leaked"
            )
        for detail in self.checker_violations[:10]:
            lines.append(f"    ! {detail}")
        lines.extend("  " + line for line in self.checks.describe().splitlines())
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Child entry point
# ----------------------------------------------------------------------
def build_host(spec: ClusterSpec, host_index: int) -> AsyncHost:
    """Rebuild one host (its diners, links, detector) from a launched spec."""
    placement = spec.placement or spec.default_placement()
    workload = None
    if spec.serve_locks:
        from repro.locks.service import LeaseWorkload

        workload = LeaseWorkload()
    host = AsyncHost(
        spec.graph(),
        config=spec.host_config(host_index),
        placement=placement,
        host_index=host_index,
        addresses=spec.addresses,
        # Lease clients dial the host's listener, so a --serve-locks host
        # binds its socket even when it is the whole cluster.
        transport=spec.transport if (spec.processes > 1 or spec.serve_locks) else "loopback",
        epoch=spec.epoch,
        crash_times=spec.crash_times,
        workload=workload,
        membership=MembershipLog.from_json(spec.membership),
        run=f"host{host_index}",
    )
    if spec.serve_locks:
        from repro.locks.service import LockService

        resources = None
        if spec.lock_resources:
            resources = {
                name: int(pid)
                for name, pid in spec.lock_resources.items()
                if placement[int(pid)] == host_index
            }
        LockService.install(host, resources=resources)
    return host


def serve(spec_path: str, host_index: int, output_dir: Optional[str] = None) -> int:
    """Run one host of a launched cluster; the ``repro serve`` body."""
    spec = ClusterSpec.load(spec_path)
    host = build_host(spec, host_index)
    run_host(host)
    host.write_outputs(output_dir or spec.host_dir(host_index))
    return 1 if host.violations or not host.verdict().ok else 0


# ----------------------------------------------------------------------
# Launcher
# ----------------------------------------------------------------------
def _allocate_addresses(spec: ClusterSpec) -> Dict[int, object]:
    if spec.transport == "unix":
        return {
            index: os.path.join(spec.run_dir, f"host-{index}.sock")
            for index in range(spec.processes)
        }
    import socket

    addresses: Dict[int, object] = {}
    probes = []
    for index in range(spec.processes):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        probes.append(probe)
        addresses[index] = ["127.0.0.1", probe.getsockname()[1]]
    for probe in probes:  # release only after all ports are distinct
        probe.close()
    return addresses


@dataclass
class ClusterHandle:
    """A started cluster: children still serving, outputs not yet merged.

    :func:`start_cluster` returns one so a caller (``repro loadgen``) can
    drive live traffic against the hosts *while they run*, then
    :func:`wait_cluster` + :func:`merge_run` to close the books.
    """

    spec: ClusterSpec
    spec_path: str
    children: List[object] = field(default_factory=list)


def start_cluster(spec: ClusterSpec) -> ClusterHandle:
    """Write the spec and spawn every host as its own OS process."""
    os.makedirs(spec.run_dir, exist_ok=True)
    spec.placement = spec.placement or spec.default_placement()
    spec.addresses = _allocate_addresses(spec)
    # Actors on every host start together at the epoch; the margin covers
    # interpreter start-up plus the dial-retry handshake.
    spec.epoch = time.time() + 1.0 + 0.4 * spec.processes
    spec_path = os.path.join(spec.run_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as stream:
        stream.write(spec.to_json())
        stream.write("\n")

    children = []
    for index in range(spec.processes):
        log = open(os.path.join(spec.run_dir, f"host-{index}.log"), "w", encoding="utf-8")
        children.append(
            (
                subprocess.Popen(
                    [sys.executable, "-m", "repro", "serve",
                     "--spec", spec_path, "--host-index", str(index)],
                    stdout=log,
                    stderr=subprocess.STDOUT,
                ),
                log,
            )
        )
    return ClusterHandle(spec=spec, spec_path=spec_path, children=children)


def wait_cluster(handle: ClusterHandle) -> List[str]:
    """Wait for every host; returns launcher-level failures (not merges)."""
    spec = handle.spec
    deadline = spec.epoch + spec.duration + spec.connect_timeout + 30.0
    failures: List[str] = []
    for index, (child, log) in enumerate(handle.children):
        budget = max(1.0, deadline - time.time())
        try:
            code = child.wait(timeout=budget)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            failures.append(f"host {index} timed out and was killed")
            code = -9
        finally:
            log.close()
        if code not in (0, 1):  # 1 = ran but saw violations; merge reports them
            failures.append(f"host {index} exited with code {code}")
    return failures


def launch(spec: ClusterSpec, *, quiet: bool = False) -> ClusterVerdict:
    """Spawn the cluster, wait for every host, and merge the outputs."""
    handle = start_cluster(spec)
    failures = wait_cluster(handle)
    verdict = merge_run(spec)
    if failures:
        verdict.checker_violations.extend(failures)
        verdict.ok = False
    if not quiet:
        print(verdict.describe())
        print()
        print(verdict.prometheus, end="")
    return verdict


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _load_merged_events(host_dirs: List[str]) -> List[object]:
    """Every host's trace and wire log as one time-ordered check-event stream.

    All hosts stamp with the same shared-epoch clock, so
    :func:`repro.checks.merge_events` (time sort, sends before the
    departures they race with) replays each edge's true occupancy
    staircase.
    """
    return merge_events(
        *(
            load_events_path(os.path.join(directory, name))
            for directory in host_dirs
            for name in ("trace.jsonl", "wire.jsonl")
        )
    )


def check_config_for(spec: ClusterSpec) -> CheckConfig:
    """The cluster's judged windows, derived from its timing knobs.

    ◇WX tolerates early violations from detector mistakes; after the
    settle window (time for the adaptive timeouts to absorb start-up
    jitter, plus one meal to drain) none are acceptable.  Patience is
    chosen generously above the wait-free algorithm's observed response
    times, so a diner flagged starving is genuinely blocked, not slow.
    """
    crashed = set(spec.crash_times)
    wiring = spec.wiring()
    settle = spec.initial_timeout + spec.timeout_increment + spec.eat_time
    if wiring.dynamic:
        # Churn re-arms the clock: nothing settles before the last delta
        # lands and the detector absorbs it.
        last = wiring.membership.last_time()
        settle = max(settle, last + spec.initial_timeout + spec.eat_time)
    return CheckConfig(
        channel_bound=spec.channel_bound,
        settle=min(spec.duration, settle),
        patience=max(0.4 * spec.duration, 20 * spec.eat_time),
        correct=tuple(pid for pid in wiring.residents if pid not in crashed),
        crash_time_of=spec.crash_times.get,
    )


def merge_run(spec: ClusterSpec) -> ClusterVerdict:
    """Combine per-host outputs into the system-wide verdict."""
    wiring = spec.wiring()
    host_dirs = [spec.host_dir(index) for index in range(spec.processes)]

    results: List[Dict[str, object]] = []
    snapshots: List[dict] = []
    host_verdicts: List[Verdict] = []
    checker_violations: List[str] = []
    for index, directory in enumerate(host_dirs):
        with open(os.path.join(directory, "result.json"), "r", encoding="utf-8") as stream:
            result = json.load(stream)
        results.append(result)
        checker_violations.extend(
            f"host {index}: {detail}" for detail in result.get("violations", ())
        )
        if result.get("verdict"):
            host_verdicts.append(Verdict.from_json(result["verdict"]))
        with open(os.path.join(directory, "metrics.json"), "r", encoding="utf-8") as stream:
            snapshots.append(json.load(stream))

    # One suite, the same one every substrate runs, over the merged
    # stream — the authoritative judgement for cross-host edges no
    # single host can see.
    suite = wiring.build_suite(sorted(wiring.union.edges), check_config_for(spec), {}, None)
    suite.feed(_load_merged_events(host_dirs))
    checks = suite.finalize(spec.duration)

    # Fork uniqueness and the diner-local invariants need live state
    # probes; adopt each host's judgement of its own diners.
    for prop in (FORK_UNIQUENESS, DINER_LOCAL):
        judged = [
            v.properties[prop] for v in host_verdicts if prop in v.properties
        ]
        if judged:
            checks = checks.with_property(PropertyVerdict.merge(judged))

    # Stitch the per-host span logs into one cross-process trace.  The
    # deterministic ids make this a sort; the stitched trace is the
    # cluster's request-level record (``repro trace <run>/spans.jsonl``)
    # and names the request behind every violation witness.
    merged_spans = []
    for directory in host_dirs:
        spans_path = os.path.join(directory, "spans.jsonl")
        if os.path.exists(spans_path):
            merged_spans.append(load_spans(spans_path))
    stitched = stitch_spans(*merged_spans)
    if stitched:
        dump_spans(os.path.join(spec.run_dir, "spans.jsonl"), stitched)
        checks = annotate_violations(checks, stitched)

    # The authoritative per-edge gauge comes from the merged staircase —
    # cross-host edges are invisible to any single host's registry.
    occupancy = suite.checker(CHANNEL_BOUND).occupancy
    cluster_registry = MetricsRegistry(profile=False)
    for (a, b), peak in sorted(occupancy.peak.items()):
        gauge = cluster_registry.gauge(
            "net.in_transit", edge=f"{a}-{b}", layer="dining", run="cluster"
        )
        gauge.set(peak, occupancy.peak_time.get((a, b), 0.0))
        gauge.set(occupancy.current.get((a, b), 0))
    merged_metrics = merge_snapshots([*snapshots, cluster_registry.snapshot()])

    # Aggregate the per-host lease-service books (``--serve-locks`` runs).
    locks: Optional[Dict[str, object]] = None
    lock_snapshots = [r["locks"] for r in results if r.get("locks") is not None]
    if lock_snapshots:
        counters: Dict[str, int] = {}
        denies: Dict[str, int] = {}
        locks = {
            "resources": {},
            "counters": counters,
            "denies": denies,
            "active_leases": 0,
            "waiting_sessions": 0,
            "leaked_leases": 0,
        }
        for snap in lock_snapshots:
            locks["resources"].update(snap.get("resources", {}))
            for name, value in snap.get("counters", {}).items():
                counters[name] = counters.get(name, 0) + int(value)
            for reason, value in snap.get("denies", {}).items():
                denies[reason] = denies.get(reason, 0) + int(value)
            for key in ("active_leases", "waiting_sessions", "leaked_leases"):
                locks[key] += int(snap.get(key, 0))

    total_meals = sum(
        int(count) for result in results for count in result.get("meals", {}).values()
    )
    gauge_ceiling = gauge_max(merged_metrics, "net.in_transit")
    if gauge_ceiling is not None and not math.isfinite(gauge_ceiling):
        checker_violations.append("non-finite in-transit gauge")

    return ClusterVerdict(
        ok=not checker_violations and checks.ok,
        hosts=results,
        checker_violations=checker_violations,
        checks=checks,
        total_meals=total_meals,
        prometheus=render_prometheus(merged_metrics),
        metrics=merged_metrics,
        spans=len(stitched),
        span_meals=completed_meals(stitched),
        locks=locks,
    )


def placement_summary(spec: ClusterSpec) -> str:
    """Human-readable diner-to-host assignment, e.g. ``host 0: [0, 2]``."""
    placement = spec.placement or spec.default_placement()
    by_host: Dict[int, List[int]] = {}
    for pid, host in sorted(placement.items()):
        by_host.setdefault(host, []).append(pid)
    return ", ".join(f"host {host}: {pids}" for host, pids in sorted(by_host.items()))
