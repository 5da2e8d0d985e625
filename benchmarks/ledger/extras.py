"""Layer measurements that need runs of their own.

Two kinds, both only made with ``--trace``:

* **Attached/detached ratios** — what a plane costs, by the program's
  own public toggle (``check_invariants=``, ``metrics=``,
  ``attach_tracer``, ``HostConfig.tracing``, ``HostConfig.flight_dir``).
  Runs are interleaved A B B A so drift in background load hits both
  sides equally and each side is summarised by its best run: load only
  ever inflates a sample.  Every ratio is reported beside its base.
* **Direct drives** — a layer exercised on its own: the event queue under
  the hold model, the codec over the frames ``live_wire`` really sends,
  the canonical checkers replaying a recorded run offline.
"""

from __future__ import annotations

import random
import shutil
import time
from typing import Callable, Dict, List

import repro.net.host as host_module
from repro.checks.stream import events_from_trace, events_from_wire, merge_events, replay
from repro.faults.engine import run_plan
from repro.faults.sampler import sample_plan
from repro.graphs import topologies
from repro.net.codec import FrameDecoder, encode_frame
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import attach_tracer
from repro.sim.events import EventPriority, EventQueue

from benchmarks.ledger import workloads
from benchmarks.ledger.workloads import Context


def abba(attached: Callable[[], float], detached: Callable[[], float]) -> Dict[str, float]:
    """Best attached and best detached sample of one A B B A block."""
    a1 = attached()
    b1 = detached()
    b2 = detached()
    a2 = attached()
    return {"attached": min(a1, a2), "detached": min(b1, b2)}


# ----------------------------------------------------------------------
# kernel_scale
# ----------------------------------------------------------------------
def _scale_run_seconds(ctx: Context, graph, after_build=None, **overrides) -> float:
    table = workloads.build_scale_table(ctx.seed, graph, **overrides)
    if after_build is not None:
        after_build(table)
    until = workloads.scale_horizon(ctx.rep_seconds) / 2
    started = time.perf_counter()
    table.run(until=until)
    return time.perf_counter() - started


def _hold_model_ns_per_op(seed: int, operations: int, resident: int = 100_000) -> float:
    """Event queue alone: pop the next entry, push one U(0.5, 1.5) later."""
    rng = random.Random(seed)
    queue = EventQueue()
    push, pop = queue.push_transient, queue.pop_due
    delivery = EventPriority.DELIVERY

    def noop() -> None:
        return None

    for _ in range(resident):
        push(rng.uniform(0.5, 1.5), delivery, noop, "hold")
    delays = [rng.uniform(0.5, 1.5) for _ in range(operations)]
    horizon = float("inf")
    started = time.perf_counter()
    for delay in delays:
        entry = pop(horizon)
        push(entry[0] + delay, delivery, noop, "hold")
    return 1e9 * (time.perf_counter() - started) / operations


def _replay_events_per_s(seed: int) -> float:
    """The canonical checkers over one recorded run, no kernel adapter."""
    plan = sample_plan(topology="geometric", n=100, seed=seed, index=0)
    result = run_plan(plan)
    graph = topologies.by_name(plan.topology, plan.n, seed=plan.seed)
    events = merge_events(events_from_trace(result.trace), events_from_wire(result.wire))
    started = time.perf_counter()
    replay(sorted(graph.edges), events, horizon=plan.horizon)
    return len(events) / (time.perf_counter() - started)


def kernel_scale(ctx: Context) -> Dict[str, float]:
    graph = topologies.by_name("geometric", workloads.SCALE_N, seed=ctx.seed)

    def default() -> float:
        return _scale_run_seconds(ctx, graph)

    checks = abba(default, lambda: _scale_run_seconds(ctx, graph, check_invariants=False))
    metrics = abba(
        lambda: _scale_run_seconds(ctx, graph, metrics=MetricsRegistry(profile=False)),
        default,
    )
    tracing = abba(lambda: _scale_run_seconds(ctx, graph, after_build=attach_tracer), default)
    return {
        "checks.attached_overhead_ratio": checks["attached"] / checks["detached"] - 1.0,
        "checks.detached_base_s": checks["detached"],
        "obs.metrics.attached_overhead_ratio": metrics["attached"] / metrics["detached"] - 1.0,
        "obs.metrics.detached_base_s": metrics["detached"],
        "obs.tracing.kernel_overhead_ratio": tracing["attached"] / tracing["detached"] - 1.0,
        "obs.tracing.kernel_detached_base_s": tracing["detached"],
        "sim.events.ns_per_op": _hold_model_ns_per_op(
            ctx.seed, max(10_000, int(100_000 * ctx.rep_seconds))
        ),
        "checks.replay_events_per_s": _replay_events_per_s(ctx.seed),
    }


# ----------------------------------------------------------------------
# live_loopback
# ----------------------------------------------------------------------
def _loopback_seconds_per_meal(ctx: Context, **overrides) -> float:
    host = workloads.loopback_host(ctx, **overrides)
    started = time.perf_counter()
    workloads.run_hosts([host], None)
    elapsed = time.perf_counter() - started
    return elapsed / sum(d.meals_eaten for d in host.diners.values())


def live_loopback(ctx: Context) -> Dict[str, float]:
    short = Context(ctx.workload, ctx.seed, ctx.rep_seconds / 2, ctx.spawned_at)
    flight_dir = short.run_dir
    try:
        tracing = abba(
            lambda: _loopback_seconds_per_meal(short),  # the workload's setting
            lambda: _loopback_seconds_per_meal(short, tracing=False),
        )
        flight = abba(
            lambda: _loopback_seconds_per_meal(short, flight_dir=flight_dir),
            lambda: _loopback_seconds_per_meal(short),
        )
    finally:
        shutil.rmtree(flight_dir, ignore_errors=True)
    return {
        "obs.tracing.live_overhead_ratio": tracing["attached"] / tracing["detached"] - 1.0,
        "obs.tracing.live_base_meals_per_s": 1.0 / tracing["detached"],
        "obs.flight.live_overhead_ratio": flight["attached"] / flight["detached"] - 1.0,
        "obs.flight.live_base_meals_per_s": 1.0 / flight["detached"],
    }


# ----------------------------------------------------------------------
# live_wire
# ----------------------------------------------------------------------
def live_wire(ctx: Context) -> Dict[str, float]:
    """Codec alone, over the frame mix a short ``live_wire`` run sends."""
    short = Context(ctx.workload, ctx.seed, ctx.rep_seconds / 4, ctx.spawned_at)
    calls: List[tuple] = []

    def recording(*args):
        calls.append(args)
        return encode_frame(*args)

    host_module.encode_frame = recording
    try:
        workloads.run_hosts(workloads.wire_hosts(short), None)
    finally:
        host_module.encode_frame = encode_frame
        shutil.rmtree(short.run_dir, ignore_errors=True)

    rounds = max(1, 50_000 // len(calls))
    started = time.perf_counter()
    for _ in range(rounds):
        for args in calls:
            encode_frame(*args)
    encode_ns = 1e9 * (time.perf_counter() - started) / (rounds * len(calls))

    frames = [encode_frame(*args) for args in calls]
    chunks = [b"".join(frames[i : i + 16]) for i in range(0, len(frames), 16)]
    decoded = 0
    started = time.perf_counter()
    for _ in range(rounds):
        decoder = FrameDecoder(capture_context=True)
        for chunk in chunks:
            decoded += len(decoder.feed(chunk))
    decode_ns = 1e9 * (time.perf_counter() - started) / decoded
    return {
        "net.codec.encode_ns_per_frame": encode_ns,
        "net.codec.decode_ns_per_frame": decode_ns,
        "net.codec.bytes_per_frame": sum(map(len, frames)) / len(frames),
    }


EXTRAS: Dict[str, Callable[[Context], Dict[str, float]]] = {
    "kernel_scale": kernel_scale,
    "live_loopback": live_loopback,
    "live_wire": live_wire,
}
