"""One repetition of one workload, measured from outside the program.

Each function below sets a workload up from the seed, times one
repetition through the program's public entry points, validates what the
program produced, and returns a plain dict (see :func:`_result`).  The
driver runs every repetition in a fresh interpreter (``child.py``), so
set-up time and peak memory are facts about that repetition alone.

Sizes scale with the repetition length the driver asks for; the
constants are calibrated so one repetition measures for about
``rep_seconds`` on the 2-core box the ledger was written on.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import resource
import shutil
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.core import AlwaysHungry, DiningTable, scripted_detector
from repro.errors import ReproError
from repro.faults.campaign import CampaignSpec, run_campaign
from repro.faults.sampler import ARCHETYPES
from repro.graphs import topologies
from repro.locks.client import LockClient
from repro.locks.loadgen import resources_by_host
from repro.net.cluster import (
    ClusterSpec,
    build_host,
    merge_run,
    start_cluster,
    wait_cluster,
)
from repro.net.host import AsyncHost, HostConfig
from repro.obs.tracing import SPAN_EATING, SPAN_REQUEST, load_spans
from repro.sim.latency import UniformLatency
from repro.trace import analysis

from benchmarks.ledger import loadgen
from benchmarks.ledger.spans import SpanLog
from benchmarks.ledger.stats import percentile

#: Scratch space, relative to the checkout root (the child's cwd): unix
#: socket paths are limited to ~100 bytes, so they must stay short.
OUT_DIR = os.path.join("benchmarks", "ledger", "out")

#: ``client-storm`` is left out of ``kernel_fuzz``: across seeds 0-29 it
#: fails ``quiescence`` on 6-8 % of its plans at every n tried (6-10) on
#: the unchanged algorithm, and a benchmark workload may not fail.
FUZZ_ARCHETYPES = tuple(name for name in ARCHETYPES if name != "client-storm")
FUZZ_N = 10

SCALE_N = 1000
LIVE_N = 16
LIVE_EAT = 0.0005
LIVE_THINK = 0.0001
LOCKS_N = 8
OPEN_RATE = 500.0
OPEN_MAX_HOLD = 0.001
CLOSED_IN_FLIGHT = 4
CONNECTIONS = 2


@dataclass
class Context:
    """What one repetition is asked to do."""

    workload: str
    seed: int
    rep_seconds: float
    #: ``time.perf_counter()`` in the driver just before this child was
    #: spawned (CLOCK_MONOTONIC is shared by every process on the box).
    spawned_at: float
    #: Span recorder of a traced repetition; None when untraced.
    log: Optional[SpanLog] = None

    @property
    def run_dir(self) -> str:
        return os.path.join(OUT_DIR, f"{self.workload}-{os.getpid()}")


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(
    ctx: Context,
    *,
    started: float,
    wall_s: float,
    judged_wall_s: float,
    meals: int,
    sessions: int,
    plans: int,
    lease_p50_ms: float,
    peak_rss_mb: float,
    attempted: int,
    failures: List[str],
    exact: Dict[str, object],
    layers: Dict[str, float],
) -> Dict[str, object]:
    """The repetition record: all end-to-end metrics plus what was counted.

    ``wall_s`` is the timed region the rates are taken over;
    ``judged_wall_s`` runs on until the verdict is in hand.
    ``lease_p50_ms`` is the median hungry→eating wall latency.
    """
    return {
        #: perf_counter bounds of the judged run (the traced table's wall).
        "window": [started, started + judged_wall_s],
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": {
            "setup_s": started - ctx.spawned_at,
            "meals_per_wall_s": meals / wall_s,
            "plans_per_wall_s": plans / judged_wall_s,
            "sessions_per_s": sessions / wall_s,
            "lease_p50_ms": lease_p50_ms,
            "peak_rss_mb": peak_rss_mb,
        },
        "exact": exact,
        "layers": layers,
    }


def _digest(*parts: object) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def _verdict_failures(label: str, verdict, violations: Sequence[str] = ()) -> List[str]:
    failures = []
    if not verdict.ok:
        failures.append(f"{label}: verdict failed {verdict.failed}")
    failures.extend(f"{label}: {detail}" for detail in violations)
    return failures


# ----------------------------------------------------------------------
# kernel_scale
# ----------------------------------------------------------------------
def build_scale_table(seed: int, graph=None, **overrides) -> DiningTable:
    """The ``kernel_scale`` table; ``overrides`` serve the attached/detached pairs."""
    if graph is None:
        graph = topologies.by_name("geometric", SCALE_N, seed=seed)
    return DiningTable(
        graph,
        seed=seed,
        latency=UniformLatency(0.5, 1.5),
        workload=AlwaysHungry(eat_time=0.5, think_time=0.01),
        detector=scripted_detector(),
        **overrides,
    )


def scale_horizon(rep_seconds: float) -> float:
    """Virtual seconds one repetition simulates (~30 per wall second)."""
    return 30.0 * rep_seconds


def kernel_scale(ctx: Context) -> Dict[str, object]:
    table = build_scale_table(ctx.seed)
    until = scale_horizon(ctx.rep_seconds)

    failures: List[str] = []
    started = time.perf_counter()
    try:
        table.run(until=until)
    except ReproError as exc:  # strict checks raise from inside the event
        failures.append(f"run: {type(exc).__name__}: {exc}")
    ran = time.perf_counter()
    verdict = table.verdict()
    ended = time.perf_counter()
    peak_rss_mb = _peak_rss_mb()  # before the ledger's own analysis allocates

    failures.extend(_verdict_failures("table", verdict))
    meals = sum(diner.meals_eaten for diner in table.diners.values())
    responses = table.response_times()
    # Simulated hungry→eating time, scaled by what one virtual second
    # cost in wall time: how long the simulator took to serve a session.
    wall_per_virtual_ms = 1000.0 * (ran - started) / until
    events = table.sim.processed_events
    sent = table.network.sent_count
    return _result(
        ctx,
        started=started,
        wall_s=ended - started,
        judged_wall_s=ended - started,
        meals=meals,
        sessions=meals,
        plans=1,
        lease_p50_ms=percentile(responses, 0.50) * wall_per_virtual_ms,
        peak_rss_mb=peak_rss_mb,
        attempted=1,
        failures=failures,
        exact={
            "meals": meals,
            "events": events,
            "messages": sent,
            "sim_fingerprint": _digest(meals, events, sent, table.fingerprint()),
        },
        layers={
            "sim.kernel.events_total": events,
            "sim.kernel.events_per_meal": events / meals,
            "sim.kernel.events_per_wall_s": events / (ran - started),
            "sim.network.msgs_total": sent,
            "sim.network.msgs_per_meal": sent / meals,
            "core.diner.response_virtual_p50": percentile(responses, 0.50),
            "core.diner.response_virtual_p95": percentile(responses, 0.95),
            "checks.events_observed": table.checks.events_observed,
            "trace.records_total": len(table.trace),
            "trace.records_per_meal": len(table.trace) / meals,
        },
    )


# ----------------------------------------------------------------------
# kernel_fuzz
# ----------------------------------------------------------------------
def fuzz_spec(seed: int, rep_seconds: float) -> CampaignSpec:
    """Every kept archetype the same number of times (~27 plans per wall second)."""
    cycles = max(1, round(3 * rep_seconds))
    return CampaignSpec(
        topology="mixed",
        n=FUZZ_N,
        seed=seed,
        runs=cycles * len(FUZZ_ARCHETYPES),
        archetypes=FUZZ_ARCHETYPES,
    )


def kernel_fuzz(ctx: Context) -> Dict[str, object]:
    spec = fuzz_spec(ctx.seed, ctx.rep_seconds)

    started = time.perf_counter()
    campaign = run_campaign(spec)
    ended = time.perf_counter()
    wall = ended - started

    results = campaign.results
    failures = [
        f"plan {index}: {result.failed} ({result.plan.describe()})"
        for index, result in enumerate(results)
        if result.failed or result.error
    ]
    if len(results) != spec.runs:
        failures.append(f"campaign ran {len(results)} of {spec.runs} plans")
    meals = sum(sum(result.meals.values()) for result in results)
    events = sum(result.events for result in results)
    served = sum(
        int(result.verdict.properties["progress"].counters["sessions_served_total"])
        for result in results
    )
    # The campaign drops passing traces, so no latency sample survives it.
    # Little's law stands in: n diners share the measured meal rate.
    lease_ms = 1000.0 * FUZZ_N * wall / meals
    return _result(
        ctx,
        started=started,
        wall_s=wall,
        judged_wall_s=wall,
        meals=meals,
        sessions=served,
        plans=len(results),
        lease_p50_ms=lease_ms,
        peak_rss_mb=_peak_rss_mb(),
        attempted=spec.runs,
        failures=failures,
        exact={
            "plans": len(results),
            "meals": meals,
            "events": events,
            "sim_fingerprint": _digest(
                [
                    (r.events, sorted(r.meals.items()), sorted(r.verdict.statuses().items()))
                    for r in results
                ]
            ),
        },
        layers={
            "sim.kernel.events_total": events,
            "sim.kernel.events_per_meal": events / meals,
            "sim.kernel.events_per_wall_s": events / wall,
            "faults.engine.events_total": events,
            "faults.engine.plans_failed": len(failures),
        },
    )


# ----------------------------------------------------------------------
# live_loopback / live_wire
# ----------------------------------------------------------------------
async def _loop_lag(samples: List[float]) -> None:
    """How late a 1 ms sleep wakes: the time work waits for the loop."""
    perf = time.perf_counter
    while True:
        before = perf()
        await asyncio.sleep(0.001)
        samples.append(perf() - before - 0.001)


def run_hosts(hosts: Sequence[AsyncHost], lag: Optional[List[float]]) -> None:
    async def main() -> None:
        sleeper = None if lag is None else asyncio.ensure_future(_loop_lag(lag))
        try:
            await asyncio.gather(*(host.run() for host in hosts))
        finally:
            if sleeper is not None:
                sleeper.cancel()

    asyncio.run(main())


def _live(ctx: Context, hosts: Sequence[AsyncHost]) -> Dict[str, object]:
    duration = ctx.rep_seconds
    lag: Optional[List[float]] = None
    if ctx.log is not None:
        lag = []
        for host in hosts:
            ctx.log.patch(host.checks, "observe", "checks.live_observe")

    started = time.perf_counter()
    cpu_started = time.process_time()
    run_hosts(hosts, lag)
    ran = time.perf_counter()
    verdicts = [host.verdict() for host in hosts]
    ended = time.perf_counter()
    cpu = time.process_time() - cpu_started
    peak_rss_mb = _peak_rss_mb()  # before the ledger's own analysis allocates

    failures: List[str] = []
    for host, verdict in zip(hosts, verdicts):
        failures.extend(
            _verdict_failures(f"host {host.host_index}", verdict, host.violations)
        )
    meals = sum(d.meals_eaten for host in hosts for d in host.diners.values())
    waits = [
        wait
        for host in hosts
        for wait in analysis.all_response_times(host.trace, host.local_pids)
    ]
    sends = 0
    socket_bytes = 0
    for host in hosts:
        placement = host.placement
        for event in host.wire_events:
            if event.kind == "send":
                sends += 1
                if placement[event.dst] != host.host_index:
                    socket_bytes += event.bits // 8
    wall = ended - started
    layers = {
        "net.host.cpu_ms_per_meal": 1000.0 * cpu / meals,
        "net.host.cpu_busy_share": cpu / wall,
        "net.host.msgs_per_meal": sends / meals,
        "net.host.socket_bytes_total": socket_bytes,
        "net.host.shutdown_s": ran - started - duration,
        "checks.events_observed": sum(h.checks.events_observed for h in hosts),
        "trace.records_total": sum(len(h.trace) for h in hosts),
        "trace.records_per_meal": sum(len(h.trace) for h in hosts) / meals,
    }
    if lag:
        layers["net.host.loop_lag_ms_p50"] = 1000.0 * percentile(lag, 0.50)
        layers["net.host.loop_lag_ms_p99"] = 1000.0 * percentile(lag, 0.99)
    return _result(
        ctx,
        started=started,
        wall_s=wall,
        judged_wall_s=wall,
        meals=meals,
        sessions=meals,
        plans=1,
        lease_p50_ms=1000.0 * percentile(waits, 0.50),
        peak_rss_mb=peak_rss_mb,
        attempted=len(hosts),
        failures=failures,
        exact={},
        layers=layers,
    )


def _host_config(ctx: Context, **overrides) -> HostConfig:
    knobs = dict(
        duration=ctx.rep_seconds,
        seed=ctx.seed,
        eat_time=LIVE_EAT,
        think_time=LIVE_THINK,
        tracing=True,
    )
    knobs.update(overrides)
    return HostConfig(**knobs)


def loopback_host(ctx: Context, **overrides) -> AsyncHost:
    return AsyncHost(
        topologies.by_name("ring", LIVE_N), config=_host_config(ctx, **overrides)
    )


def live_loopback(ctx: Context) -> Dict[str, object]:
    return _live(ctx, [loopback_host(ctx)])


def wire_hosts(ctx: Context) -> List[AsyncHost]:
    """Two in-process hosts; ``pid % 2`` placement puts every ring edge on a socket."""
    os.makedirs(ctx.run_dir, exist_ok=True)
    spec = ClusterSpec(
        topology="ring",
        n=LIVE_N,
        processes=2,
        duration=ctx.rep_seconds,
        seed=ctx.seed,
        eat_time=LIVE_EAT,
        think_time=LIVE_THINK,
        transport="unix",
        run_dir=ctx.run_dir,
        tracing=True,
    )
    spec.placement = {pid: pid % 2 for pid in range(LIVE_N)}
    spec.addresses = {
        index: os.path.join(ctx.run_dir, f"host-{index}.sock") for index in range(2)
    }
    return [build_host(spec, index) for index in range(2)]


def live_wire(ctx: Context) -> Dict[str, object]:
    try:
        return _live(ctx, wire_hosts(ctx))
    finally:
        shutil.rmtree(ctx.run_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# locks_closed / locks_open
# ----------------------------------------------------------------------
def _locks_spec(ctx: Context) -> ClusterSpec:
    # The server runs for a fixed duration; the half second past the
    # generator's share keeps the last sessions clear of its shutdown.
    return ClusterSpec(
        topology="ring",
        n=LOCKS_N,
        processes=1,
        duration=ctx.rep_seconds + 0.5,
        seed=ctx.seed,
        transport="unix",
        run_dir=ctx.run_dir,
        tracing=True,
        serve_locks=True,
    )


async def _connect(spec: ClusterSpec) -> List[LockClient]:
    clients = []
    for index in range(CONNECTIONS):
        client = LockClient(spec.transport, spec.addresses[0], client_index=index)
        deadline = time.perf_counter() + spec.connect_timeout
        while True:
            try:
                await client.connect()
                break
            except OSError:
                if time.perf_counter() > deadline:
                    raise
                await asyncio.sleep(0.01)
        clients.append(client)
    return clients


def _hungry_to_eating(spans) -> Dict[int, float]:
    """Trace id -> seconds from the request span's start to its meal."""
    hungry: Dict[int, float] = {}
    eating: Dict[int, float] = {}
    for span in spans:
        if span.name == SPAN_REQUEST:
            hungry[span.trace_id] = span.start
        elif span.name == SPAN_EATING:
            eating[span.trace_id] = span.start
    return {tid: eating[tid] - hungry[tid] for tid in eating if tid in hungry}


def _locks(
    ctx: Context,
    plan_load: Callable[[Sequence[str]], Callable[[Sequence[LockClient]], object]],
) -> Dict[str, object]:
    """Serve leases, drive the planned load against them, close the books.

    ``plan_load(resources)`` draws every input from the seed, before the
    cluster starts, and returns the coroutine function that sends it.

    Untraced, the server is a real child process (the ``repro loadgen``
    path: ``start_cluster`` … ``wait_cluster`` + ``merge_run``).  Traced,
    it is hosted in this process through ``build_host`` so the span
    wrappers can see it.
    """
    spec = _locks_spec(ctx)
    generate = plan_load(resources_by_host(spec)[0])
    in_process = ctx.log is not None
    marks: Dict[str, float] = {}

    async def drive(server=None):
        clients = await _connect(spec)
        marks["started"] = time.perf_counter()
        marks["cpu_started"] = time.process_time()
        seen = await generate(clients)
        marks["cpu"] = time.process_time() - marks["cpu_started"]
        for client in clients:
            await client.close()
        if server is not None:
            await server
        return seen

    try:
        if in_process:
            os.makedirs(spec.run_dir, exist_ok=True)
            spec.placement = spec.default_placement()
            spec.addresses = {0: os.path.join(spec.run_dir, "host-0.sock")}
            host = build_host(spec, 0)
            ctx.log.patch(host.checks, "observe", "checks.live_observe")

            async def main():
                return await drive(asyncio.ensure_future(host.run()))

            seen = asyncio.run(main())
            ended = time.perf_counter()
            failures = _verdict_failures("host 0", host.verdict(), host.violations)
            books = host.lock_service.core.snapshot()
            meals = sum(d.meals_eaten for d in host.diners.values())
            spans = host.spans
            peak_rss_mb = _peak_rss_mb()
            service_cpu = 0.0
        else:
            handle = start_cluster(spec)

            async def main():
                await asyncio.sleep(max(0.0, spec.epoch - time.time()) + 0.05)
                return await drive()

            seen = asyncio.run(main())
            launch_failures = wait_cluster(handle)
            verdict = merge_run(spec)
            ended = time.perf_counter()
            failures = [f"cluster: {detail}" for detail in launch_failures]
            failures.extend(
                _verdict_failures("cluster", verdict.checks, verdict.checker_violations)
            )
            books = verdict.locks
            meals = verdict.total_meals
            spans = load_spans(os.path.join(spec.host_dir(0), "spans.jsonl"))
            usage = resource.getrusage(resource.RUSAGE_CHILDREN)
            peak_rss_mb = usage.ru_maxrss / 1024.0
            service_cpu = usage.ru_utime + usage.ru_stime
    finally:
        shutil.rmtree(spec.run_dir, ignore_errors=True)

    failures.extend(seen.failures)
    leaked = int(books["leaked_leases"])
    if leaked:
        failures.append(f"{leaked} leaked lease(s)")
    completed = len(seen.latency)
    waited = _hungry_to_eating(spans)
    backed = [
        (latency, waited[tid])
        for latency, tid in zip(seen.latency, seen.trace_ids)
        if tid in waited
    ]
    counters = books["counters"]
    layers = {
        "locks.client.lease_p90_ms": 1000.0 * percentile(seen.latency, 0.90),
        "locks.client.lease_p99_ms": 1000.0 * percentile(seen.latency, 0.99),
        "locks.client.lease_max_ms": 1000.0 * max(seen.latency, default=0.0),
        "locks.client.gen_lateness_ms_p99": 1000.0 * percentile(seen.lateness, 0.99),
        "locks.client.cpu_ms_per_session": 1000.0 * marks["cpu"] / seen.attempted,
        "locks.service.cpu_ms_per_session": 1000.0 * service_cpu / seen.attempted,
        "locks.service.grants_total": counters["grants"],
        "locks.service.denies_total": sum(books["denies"].values()),
        "locks.service.expiries_total": counters["expiries"],
        "locks.service.leaked_leases": leaked,
        "locks.service.span_backed_share": len(backed) / max(1, completed),
        "locks.span.hungry_to_eating_ms_p50": 1000.0
        * percentile([wait for _, wait in backed], 0.50),
        "locks.span.hungry_to_eating_ms_p90": 1000.0
        * percentile([wait for _, wait in backed], 0.90),
        "locks.wire_and_queue_ms_p50": 1000.0
        * percentile([latency - wait for latency, wait in backed], 0.50),
    }
    return _result(
        ctx,
        started=marks["started"],
        wall_s=seen.elapsed,
        judged_wall_s=ended - marks["started"],
        meals=meals,
        sessions=completed,
        plans=1,
        lease_p50_ms=1000.0 * percentile(seen.latency, 0.50),
        peak_rss_mb=peak_rss_mb,
        attempted=seen.attempted + 1,  # every session, and the judged run
        failures=failures,
        exact={},
        layers=layers,
    )


def locks_closed(ctx: Context) -> Dict[str, object]:
    sessions = max(100, int(1000 * ctx.rep_seconds))

    def plan_load(resources):
        picks = loadgen.closed_schedule(ctx.seed, resources, sessions)
        return lambda clients: loadgen.closed_loop(clients, picks, CLOSED_IN_FLIGHT)

    return _locks(ctx, plan_load)


def locks_open(ctx: Context) -> Dict[str, object]:
    def plan_load(resources):
        schedule = loadgen.open_schedule(
            ctx.seed, resources, OPEN_RATE, ctx.rep_seconds, OPEN_MAX_HOLD
        )
        return lambda clients: loadgen.open_loop(clients, schedule)

    return _locks(ctx, plan_load)


WORKLOADS: Dict[str, Callable[[Context], Dict[str, object]]] = {
    "kernel_scale": kernel_scale,
    "kernel_fuzz": kernel_fuzz,
    "live_loopback": live_loopback,
    "live_wire": live_wire,
    "locks_closed": locks_closed,
    "locks_open": locks_open,
}
