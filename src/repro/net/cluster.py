"""Multi-process cluster launcher and post-run verdict.

``repro cluster`` turns a topology spec into *n* OS processes, each an
:class:`~repro.net.host.AsyncHost` running its share of the diners over
real sockets, then merges what every host recorded into one verdict:

1. **Launch** — :func:`launch` writes ``spec.json`` into a run directory
   (topology, placement, per-host addresses), forks one process per host
   from the launcher, stamps the shared epoch once every host reports
   ready (listening and dialled), and waits for them all.
2. **Serve** — :func:`serve` (a forked host's body; ``repro serve`` of a
   spec with an epoch) rebuilds the host from the spec, runs it, and dumps ``trace.jsonl`` / ``wire.jsonl`` /
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

import asyncio
import contextlib
import json
import math
import os
import pathlib
import select
import signal
import socket
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

from repro.checks import (
    CHANNEL_BOUND,
    DINER_LOCAL,
    FORK_UNIQUENESS,
    CheckConfig,
    PropertyVerdict,
    Verdict,
    annotate_violations,
    load_events_path,
    merge_events,
)
from repro.core.assembly import Wiring
from repro.errors import ConfigurationError, LaunchError
from repro.graphs import topologies
from repro.graphs.conflict import ConflictGraph
from repro.graphs.membership import MembershipLog
from repro.net.host import AsyncHost, HostConfig
from repro.obs.instrument import render_in_transit
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
    #: Stamped by :func:`start_cluster` once every host is ready.
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
    stream with the per-host state-based properties adopted in.
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

    @property
    def max_in_transit(self) -> int:
        verdict = self.checks.properties.get(CHANNEL_BOUND)
        return int(verdict.counters.get("max_in_transit", 0)) if verdict is not None else 0

    @classmethod
    def unmerged(cls, failures: List[str]) -> "ClusterVerdict":
        """A run that failed before its outputs could be merged."""
        return cls(False, [], list(failures), Verdict({}), 0, "")

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
        if self.hosts:  # an unmerged run has no judgement to show
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


def serve(spec_path: str, host_index: int, output_dir: Optional[str] = None,
          launcher: Optional[socket.socket] = None) -> int:
    """Run one host of a launched cluster; a forked host's body.

    A forked host gets the epoch over ``launcher``, its socket-pair end;
    a standalone one (``repro serve``) needs a spec that carries it."""
    spec = ClusterSpec.load(spec_path)
    if spec.epoch is None and launcher is None:
        raise LaunchError(f"{spec_path} has no epoch, and only start_cluster can stamp one")
    host = build_host(spec, host_index)
    asyncio.run(host.run(None if launcher is None else lambda: _launcher_epoch(launcher)))
    host.write_outputs(output_dir or spec.host_dir(host_index))
    return 1 if host.violations or not host.verdict().ok else 0


async def _launcher_epoch(channel: socket.socket) -> float:
    """Write ``ready`` to the launcher; read the epoch it sends back."""
    loop = asyncio.get_running_loop()
    with channel:
        channel.setblocking(False)
        await loop.sock_sendall(channel, b"ready\n")
        line = b""
        while not line.endswith(b"\n"):
            chunk = await loop.sock_recv(channel, 64)
            if not chunk:
                raise LaunchError("the launcher hung up before sending the epoch")
            line += chunk
    return float(line)


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
    """A started cluster: hosts still serving, outputs not yet merged.

    :func:`start_cluster` returns one so a caller (``repro loadgen``) can
    drive live traffic against the hosts *while they run*, then
    :func:`wait_cluster` + :func:`merge_run` to close the books.
    """

    spec: ClusterSpec
    spec_path: str
    children: List[int] = field(default_factory=list)
    #: Each host's fork instant and fork-to-ready seconds (fork, build, bind, dial).
    spawned_at: List[float] = field(default_factory=list)
    ready_s: List[float] = field(default_factory=list)


def _last_line(handle: ClusterHandle, index: int) -> str:
    """The last line host ``index`` logged: how it died, when it did."""
    log = os.path.join(handle.spec.run_dir, f"host-{index}.log")
    with open(log, "r", encoding="utf-8", errors="replace") as stream:
        lines = [line.strip() for line in stream if line.strip()]
    return lines[-1] if lines else "(no output)"


def start_cluster(spec: ClusterSpec) -> ClusterHandle:
    """Fork every host from this process; start them on one epoch.

    POSIX only, and call it with no other threads running: a fork copies
    only this thread, so a lock another one holds stays held in every host.
    Each host gets one end of a socket pair: it writes ``ready`` once
    bound and dialled, then reads the epoch stamped when all are ready.
    A host that cannot be started, exits first, or is not ready within
    ``connect_timeout`` kills every host and raises :class:`LaunchError`."""
    if not hasattr(os, "fork"):
        raise LaunchError("start_cluster forks its hosts, and this platform has no os.fork")
    os.makedirs(spec.run_dir, exist_ok=True)
    spec.placement = spec.placement or spec.default_placement()
    spec.addresses = _allocate_addresses(spec)
    spec.epoch = None
    spec_file = pathlib.Path(spec.run_dir, "spec.json")
    spec_file.write_text(spec.to_json() + "\n", encoding="utf-8")
    handle = ClusterHandle(spec=spec, spec_path=str(spec_file))
    channels: List[socket.socket] = []
    try:
        for index in range(spec.processes):
            handle.spawned_at.append(time.time())
            try:
                handle.children.append(_fork_host(handle, index, channels))
            except OSError as exc:
                raise LaunchError(f"host {index} could not be started: {type(exc).__name__}: {exc}")
        _await_ready(handle, channels)
        spec.epoch = time.time() + 0.01  # time for the line to reach every host
        spec_file.write_text(spec.to_json() + "\n", encoding="utf-8")
        for channel in channels:
            with contextlib.suppress(OSError):  # died after ready: wait_cluster names it
                channel.sendall(f"{spec.epoch!r}\n".encode("ascii"))
    except LaunchError:
        for pid in handle.children:
            _reap(pid, 0.0)
        raise
    finally:
        for channel in channels:
            channel.close()
    return handle


def _fork_host(handle: ClusterHandle, index: int, channels: List[socket.socket]) -> int:
    """Fork host ``index``; add our end of its channel to ``channels``.  The host
    leaves through ``os._exit``: 0 clean, 1 on violations or an exception."""
    path = os.path.join(handle.spec.run_dir, f"host-{index}.log")
    with open(path, "w", encoding="utf-8", buffering=1) as log:
        ours, theirs = socket.socketpair()
        channels.append(ours)
        with theirs:
            sys.stdout.flush()  # or the host would inherit, and might write, our buffer
            sys.stderr.flush()
            pid = os.fork()
            if pid:
                return pid
            code = 1
            try:
                for other in channels:  # so a dead launcher still reads as EOF
                    other.close()
                os.dup2(log.fileno(), 1)
                os.dup2(log.fileno(), 2)
                sys.stdout = sys.stderr = log
                code = serve(handle.spec_path, index, launcher=theirs)
            except BaseException:
                traceback.print_exc()
            finally:
                os._exit(code)


def _await_ready(handle: ClusterHandle, channels: List[socket.socket]) -> None:
    """Fill ``handle.ready_s`` as hosts report; raise naming one that cannot."""
    deadline = time.time() + handle.spec.connect_timeout
    waiting = dict(zip(channels, range(len(channels))))
    handle.ready_s = [0.0] * len(channels)
    while waiting:
        readable, _, _ = select.select(list(waiting), [], [], max(0.0, deadline - time.time()))
        if not readable:
            index = min(waiting.values())
            raise LaunchError(f"host {index} was not ready in time: {_last_line(handle, index)}")
        for channel in readable:
            index = waiting.pop(channel)
            if not channel.recv(64):
                raise LaunchError(f"host {index} exited before ready: {_last_line(handle, index)}")
            handle.ready_s[index] = time.time() - handle.spawned_at[index]


def _reap(pid: int, timeout: float) -> Optional[int]:
    """Host ``pid``'s exit code (-N if signal N killed it), or None if it
    still ran after ``timeout`` seconds and was killed."""
    deadline = time.time() + timeout
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.time() >= deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return None
        time.sleep(0.01)


def wait_cluster(handle: ClusterHandle) -> List[str]:
    """Reap every host; returns launcher-level failures (not merges)."""
    spec = handle.spec
    deadline = spec.epoch + spec.duration + 30.0
    failures: List[str] = []
    for index, pid in enumerate(handle.children):
        code = _reap(pid, max(1.0, deadline - time.time()))
        if code is None:
            failures.append(f"host {index} timed out and was killed")
        # 1 = ran but saw violations; the merge reports them.
        elif code not in (0, 1):
            failures.append(f"host {index} exited with code {code}: {_last_line(handle, index)}")
        elif not os.path.exists(os.path.join(spec.host_dir(index), "result.json")):
            failures.append(f"host {index} wrote no result.json: {_last_line(handle, index)}")
    return failures


def launch(spec: ClusterSpec, *, quiet: bool = False) -> ClusterVerdict:
    """Start the cluster, wait for every host, and merge the outputs.

    A launcher failure fails the run with nothing merged."""
    try:
        failures = wait_cluster(start_cluster(spec))
    except LaunchError as exc:
        failures = [str(exc)]
    verdict = ClusterVerdict.unmerged(failures) if failures else merge_run(spec)
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
    cluster_registry = MetricsRegistry(profile=False)
    render_in_transit(
        cluster_registry, suite.checker(CHANNEL_BOUND).occupancy, "cluster"
    )
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
