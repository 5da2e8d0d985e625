"""Live runtime: loopback end-to-end runs, layering, and a real cluster.

The loopback tests exercise the whole live stack — LiveSubstrate wall-clock
timers, the binary codec on every hop, the heartbeat ◇P₁, and the online
checkers — inside one asyncio loop, so they are fast and deterministic
enough for tier-1.  One test spawns a real 3-process unix-socket cluster
through the same launcher ``repro cluster`` uses.
"""

import ast
import os

import pytest

from repro.graphs.topologies import ring
from repro.net.host import AsyncHost, HostConfig, run_host
from repro.net.cluster import ClusterSpec, launch

pytestmark = pytest.mark.live

SRC_ROOT = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _fast_config(duration: float) -> HostConfig:
    return HostConfig(
        duration=duration,
        seed=7,
        eat_time=0.02,
        think_time=0.005,
        heartbeat_interval=0.1,
        initial_timeout=0.3,
        timeout_increment=0.1,
    )


# ----------------------------------------------------------------------
# Loopback end-to-end
# ----------------------------------------------------------------------
def test_loopback_five_ring_end_to_end():
    """A 5-diner ring over the live loopback transport: everyone eats,
    no fork-uniqueness or channel-bound violation, Section 7 respected."""
    host = AsyncHost(ring(5), config=_fast_config(1.0))
    result = run_host(host)

    assert result["violations"] == []
    meals = {int(pid): count for pid, count in result["meals"].items()}
    assert set(meals) == {0, 1, 2, 3, 4}
    assert all(count > 0 for count in meals.values())
    assert result["max_in_transit_local"] <= 4
    assert result["wire_events"] > 0


def test_loopback_crash_injection_keeps_neighbors_eating():
    """Crashing one diner mid-run must not stall its correct neighbors:
    the wall-clock ◇P₁ suspects the silent process and grants its forks."""
    host = AsyncHost(ring(5), config=_fast_config(1.5), crash_times={2: 0.3})
    result = run_host(host)

    assert result["violations"] == []
    assert result["crashed"] == [2]
    meals = {int(pid): count for pid, count in result["meals"].items()}
    # The crashed diner's neighbors keep making progress after the crash.
    assert meals[1] > 0 and meals[3] > 0


def test_loopback_rejects_remote_placement():
    with pytest.raises(Exception):
        AsyncHost(ring(3), placement={0: 0, 1: 1, 2: 1})


# ----------------------------------------------------------------------
# Layering: core stays transport-agnostic
# ----------------------------------------------------------------------
def _module_path(module: str):
    """Filesystem path of a repro module, or None if not ours."""
    if module != "repro" and not module.startswith("repro."):
        return None
    relative = module.replace(".", os.sep)
    for candidate in (
        os.path.join(SRC_ROOT, relative + ".py"),
        os.path.join(SRC_ROOT, relative, "__init__.py"),
    ):
        if os.path.exists(candidate):
            return candidate
    return None


def _is_type_checking_if(node: ast.If) -> bool:
    test = node.test
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _load_time_imports(module: str):
    """Modules imported when ``module`` itself is imported.

    TYPE_CHECKING blocks never execute, and imports inside function bodies
    are deferred until the function runs (the lazy-loading idiom that keeps
    ``core`` free of any hard simulator dependency), so both are excluded.
    """
    path = _module_path(module)
    if path is None:
        return
    with open(path, "r", encoding="utf-8") as stream:
        tree = ast.parse(stream.read(), filename=path)
    package = module if path.endswith("__init__.py") else module.rsplit(".", 1)[0]

    def walk(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(node, ast.If) and _is_type_checking_if(node):
                yield from walk(node.orelse)
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    yield alias.name
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    parts = package.split(".")
                    base = ".".join(parts[: len(parts) - node.level + 1])
                    yield f"{base}.{node.module}" if node.module else base
                elif node.module:
                    yield node.module
            for child in ast.iter_child_nodes(node):
                yield from walk([child])

    yield from walk(tree.body)


def _runtime_closure(root: str) -> set:
    closure, frontier = set(), [root]
    while frontier:
        module = frontier.pop()
        if module in closure or _module_path(module) is None:
            continue
        closure.add(module)
        frontier.extend(_load_time_imports(module))
    return closure


def _substrate_offenders(closure) -> list:
    return sorted(
        module
        for module in closure
        if module.split(".")[:2] in (["repro", "sim"], ["repro", "net"])
    )


def test_core_diner_is_transport_agnostic():
    """The transitive import closure of ``repro.core.diner`` must not
    reach the simulator kernel or the live runtime: DinerActor talks only
    to the Substrate protocol, so either side can host it unchanged."""
    offenders = _substrate_offenders(_runtime_closure("repro.core.diner"))
    assert not offenders, f"core.diner runtime closure leaks into {offenders}"


def test_checks_subsystem_is_substrate_agnostic():
    """``repro.checks`` judges streams from the kernel, the live host,
    the cluster merge, and offline replay — so its own import closure
    must reach neither ``repro.sim`` nor ``repro.net``; the adapters that
    know a substrate live with that substrate instead."""
    closure = _runtime_closure("repro.checks")
    # Every submodule of the package obeys the rule, not just __init__.
    for name in ("base", "context", "events", "properties", "stream", "suite", "verdict"):
        closure |= _runtime_closure(f"repro.checks.{name}")
    offenders = _substrate_offenders(closure)
    assert not offenders, f"repro.checks runtime closure leaks into {offenders}"


# ----------------------------------------------------------------------
# Differential: one checker implementation, two substrates
# ----------------------------------------------------------------------
def test_kernel_and_loopback_verdicts_agree():
    """The same seeded ring-5 scenario judged by the simulator kernel and
    by the live loopback host must produce Verdicts that agree on every
    property's status — the whole point of the shared checks subsystem."""
    from repro.core import AlwaysHungry, DiningTable, scripted_detector

    host = AsyncHost(ring(5), config=_fast_config(1.0))
    run_host(host)
    live = host.verdict()

    table = DiningTable(
        ring(5),
        seed=7,
        detector=scripted_detector(),
        workload=AlwaysHungry(eat_time=0.5, think_time=0.1),
    )
    table.run(until=60.0)
    kernel = table.verdict()

    assert kernel.statuses() == live.statuses()
    # Pinned: both substrates observe and pass every standard property.
    assert kernel.statuses() == {
        "channel-bound": "pass",
        "diner-local": "pass",
        "fifo": "pass",
        "fork-uniqueness": "pass",
        "overtaking": "pass",
        "pending-ping": "pass",
        "progress": "pass",
        "quiescence": "pass",
        "wx-safety": "pass",
    }


def test_loopback_wire_log_holds_the_observed_events_and_replays_offline(tmp_path):
    """One record per fact: every wire-log entry of a loopback host is the
    very object its suite observed (``observe`` rebound on the instance,
    as the performance ledger does, still sees all of them), and the
    artifacts ``write_outputs`` leaves replay to the host's own channel
    judgements."""
    from repro.checks import load_events_path, merge_events, replay

    host = AsyncHost(ring(5), config=_fast_config(0.6), crash_times={2: 0.2})
    observed = {}
    observe = host.checks.observe

    def recording(event):
        observed[id(event)] = event  # holds the event, so ids stay unique
        return observe(event)

    host.checks.observe = recording
    run_host(host)
    assert host.violations == []
    assert {"send", "deliver", "drop"} <= {event.kind for event in host.wire_events}
    assert all(observed.get(id(event)) is event for event in host.wire_events)

    host.write_outputs(str(tmp_path))
    offline = replay(
        sorted(ring(5).edges),
        merge_events(
            load_events_path(str(tmp_path / "trace.jsonl")),
            load_events_path(str(tmp_path / "wire.jsonl")),
        ),
        horizon=host.verdict().horizon,
    )
    live = host.verdict()
    for prop in ("channel-bound", "fifo", "pending-ping", "quiescence"):
        assert offline.property(prop).status == live.property(prop).status == "pass"
    assert (
        offline.property("fifo").counters["consumed_total"]
        == live.property("fifo").counters["consumed_total"]
        > 0
    )


# ----------------------------------------------------------------------
# Real sockets: 3 OS processes over unix sockets
# ----------------------------------------------------------------------
def test_three_process_unix_cluster(tmp_path):
    """One diner per OS process on a triangle, linked by unix sockets.
    The merged verdict must be clean and the Section 7 bound must hold
    on every (cross-host) edge of the merged wire log."""
    spec = ClusterSpec(
        topology="ring",
        n=3,
        processes=3,
        duration=1.0,
        seed=3,
        eat_time=0.02,
        think_time=0.005,
        heartbeat_interval=0.1,
        initial_timeout=0.3,
        timeout_increment=0.1,
        run_dir=str(tmp_path / "cluster"),
    )
    verdict = launch(spec, quiet=True)

    assert verdict.ok, verdict.describe()
    assert verdict.checker_violations == []
    assert verdict.total_meals > 0
    assert 0 < verdict.max_in_transit <= 4
    # Every triangle edge is cross-host here, so each must appear in the
    # merged staircase and in the cluster-level Prometheus exposition.
    assert set(verdict.edge_peaks) == {"0-1", "0-2", "1-2"}
    assert 'repro_net_in_transit{edge="0-1",layer="dining",run="cluster"}' in (
        verdict.prometheus
    )


# ----------------------------------------------------------------------
# Tracing: spans on the live substrate, /metrics scrapes, flight dumps
# ----------------------------------------------------------------------
def test_loopback_traced_spans_account_every_meal():
    """Live tracing rides in-band wire contexts; the stitched span list
    must account for exactly the meals the diners report."""
    from .test_obs_tracing import _structure_ok

    host = AsyncHost(ring(5), config=_fast_config(1.0))
    result = run_host(host)
    meals = sum(int(count) for count in result["meals"].values())
    assert meals > 0
    assert result["span_meals"] == meals
    assert _structure_ok(host.spans)


def test_no_tracing_means_no_spans_and_untagged_frames():
    import dataclasses as dc

    config = _fast_config(0.5)
    config = dc.replace(config, tracing=False)
    host = AsyncHost(ring(3), config=config)
    result = run_host(host)
    assert result["spans"] == 0
    assert host.tracer is None


def test_kernel_and_loopback_span_trees_have_the_same_shape():
    """The differential the tracing layer owes: both substrates emit the
    same deterministic span vocabulary — one request per hunger with the
    same ordered phase children and ids derived the same way."""
    from repro.core import AlwaysHungry, DiningTable, scripted_detector
    from repro.obs.tracing import attach_tracer, request_spans, trace_pid

    from .test_obs_tracing import _structure_ok

    host = AsyncHost(ring(5), config=_fast_config(1.0))
    run_host(host)

    table = DiningTable(
        ring(5),
        seed=7,
        detector=scripted_detector(),
        workload=AlwaysHungry(eat_time=0.5, think_time=0.1),
    )
    tracer = attach_tracer(table)
    table.run(until=60.0)
    kernel_spans = tracer.finish()

    assert _structure_ok(host.spans)
    assert _structure_ok(kernel_spans)
    for spans in (host.spans, kernel_spans):
        requests = request_spans(spans)
        assert requests
        # Deterministic ids: trace_id encodes the requesting pid, span
        # ids are the same fixed constants on both substrates.
        assert all(trace_pid(s.trace_id) == s.pid for s in requests)
        assert {s.span_id for s in requests} == {1}
        assert {s.span_id for s in spans} <= {1, 2, 3, 4, 5}


def test_scrape_endpoint_serves_prometheus_mid_run():
    """An opt-in /metrics port answers a raw HTTP scrape while the host
    is still dining, with fresh (finalized) counters."""
    import asyncio
    import dataclasses as dc

    config = dc.replace(_fast_config(1.0), scrape_port=0)
    host = AsyncHost(ring(5), config=config)

    async def scenario():
        runner = asyncio.ensure_future(host.run())
        try:
            while host.scrape_address is None:
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.3)  # let some dining happen first
            _, port = host.scrape_address
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            await writer.drain()
            body = await reader.read()
            writer.close()
            return body
        finally:
            await runner

    response = asyncio.run(scenario())
    head, _, body = response.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 OK")
    text = body.decode("utf-8")
    assert "repro_dining_meals_total" in text
    assert "repro_net_in_transit" in text
    assert host.result()["scrape_address"] is not None


def test_flight_recorder_dumps_on_fail_and_replays(tmp_path):
    """A violated run with a flight recorder leaves a witness directory
    whose artifacts replay to the same failing property."""
    import dataclasses as dc
    import json

    from repro.checks import CheckConfig, load_events_path, merge_events, replay

    flight_dir = str(tmp_path / "flight")
    config = dc.replace(
        _fast_config(0.6), channel_bound=0, flight_dir=flight_dir, flight_capacity=4096
    )
    host = AsyncHost(ring(3), config=config)
    result = run_host(host)

    assert result["violations"], "channel_bound=0 must trip the live checker"
    with open(os.path.join(flight_dir, "flight.json"), encoding="utf-8") as stream:
        meta = json.load(stream)
    assert meta["reason"] in ("verdict-fail", "violations")
    assert meta["context"]["host_index"] == host.host_index

    # The dump is a replayable witness: the offline judge reaches the
    # same channel-bound FAIL from the dumped artifacts alone.
    events = merge_events(
        load_events_path(os.path.join(flight_dir, "trace.jsonl")),
        load_events_path(os.path.join(flight_dir, "wire.jsonl")),
    )
    edges = sorted(ring(3).edges)
    verdict = replay(edges, events, CheckConfig(channel_bound=0))
    assert verdict.properties["channel-bound"].status == "fail"


# ----------------------------------------------------------------------
# The wire path: codec seams, remote-edge traffic totals, corrupt streams
# ----------------------------------------------------------------------
def _unix_pair(
    tmp_path, duration, graph=None, membership=None, joiners=None, crash_times=None
):
    """Two in-process hosts on one ring, linked by unix sockets.

    Block placement: each host keeps some ring edges local and shares
    two with its peer, so one run exercises both kinds of edge.
    ``joiners`` places the pids a ``membership`` log adds later;
    ``crash_times`` reaches both hosts (each keeps its own pids').
    """
    import time

    graph = graph if graph is not None else ring(6)
    half = len(graph.nodes) // 2
    placement = {pid: int(pid >= half) for pid in graph.nodes}
    placement.update(joiners or {})
    addresses = {index: str(tmp_path / f"host-{index}.sock") for index in range(2)}
    epoch = time.time() + 0.1
    return [
        AsyncHost(
            graph,
            config=_fast_config(duration),
            placement=placement,
            host_index=index,
            addresses=addresses,
            transport="unix",
            epoch=epoch,
            crash_times=crash_times,
            membership=membership,
        )
        for index in range(2)
    ]


def _run_together(hosts, meanwhile=None):
    import asyncio

    async def scenario():
        runs = asyncio.gather(*(host.run() for host in hosts))
        try:
            return None if meanwhile is None else await meanwhile()
        finally:
            await runs

    return asyncio.run(scenario())


def test_remote_frames_pass_through_the_host_module_codec_seams(tmp_path, monkeypatch):
    """The performance ledger measures the wire path by rebinding
    ``repro.net.host.encode_frame`` and ``repro.net.host.FrameDecoder``
    (benchmarks/ledger/probes.py, extras.py).  Both must be resolved
    through the module at use time for every remote frame: inlining or
    pre-binding either would silently zero the ``net.codec.*`` rows."""
    import repro.net.host as host_module

    calls = {"encoded": 0, "decoded": 0}
    real_encode = host_module.encode_frame

    def counting_encode(*args):
        calls["encoded"] += 1
        return real_encode(*args)

    class CountingDecoder(host_module.FrameDecoder):
        def feed(self, data):
            frames = super().feed(data)
            calls["decoded"] += len(frames)
            return frames

    monkeypatch.setattr(host_module, "encode_frame", counting_encode)
    monkeypatch.setattr(host_module, "FrameDecoder", CountingDecoder)
    hosts = _unix_pair(tmp_path, 0.3)
    _run_together(hosts)

    sent = arrived = 0
    for host in hosts:
        assert host.violations == []
        for event in host.wire_events:
            if event.kind == "send":
                sent += host.placement[event.dst] != host.host_index
            elif host.placement[event.src] != host.host_index:
                arrived += 1  # deliver, or drop at a crashed actor
    assert sent > 0 and arrived > 0
    assert calls["encoded"] == sent
    assert calls["decoded"] == arrived


def test_remote_edge_traffic_totals_match_the_wire_log(tmp_path):
    """Cross-host sends, deliveries and drops are counted in the same
    ``net.messages_*_total{type,layer}`` counters as local ones: after a
    run each host's totals equal its own wire log, and a mid-run
    snapshot (what a /metrics scrape renders) already shows them.  Drops
    count whoever sent the frame: heartbeats probing a pid that has not
    joined yet die at its host, from a remote neighbor as from a local
    one."""
    import asyncio
    from collections import Counter

    from repro.graphs.membership import MembershipDelta, MembershipLog
    from repro.obs.metrics import counter_total

    hosts = _unix_pair(tmp_path, 0.4)

    async def scrape_mid_run():
        await asyncio.sleep(0.35)
        return [host.registry.snapshot() for host in hosts]

    for snapshot in _run_together(hosts, scrape_mid_run):
        assert counter_total(snapshot, "net.messages_sent_total", type="Ping") > 0
        assert counter_total(snapshot, "net.messages_delivered_total", type="Ping") > 0

    metric_of_kind = {
        "send": "net.messages_sent_total",
        "deliver": "net.messages_delivered_total",
        "drop": "net.messages_dropped_total",
    }
    # Pid 6 lives on host 1 beside pid 5 and across a socket from pid 0.
    (tmp_path / "join").mkdir()
    joining = _unix_pair(
        tmp_path / "join",
        0.5,
        membership=MembershipLog([MembershipDelta(0.25, "join", 6, (0, 5))]),
        joiners={6: 1},
    )
    _run_together(joining)
    early = Counter(
        event.src for event in joining[1].wire_events
        if event.kind == "drop" and event.dst == 6
    )
    assert early[0] > 0 and early[5] > 0, "both neighbors probe the absent pid"

    for host in hosts + joining:
        assert host.violations == []
        logged = Counter(
            (metric_of_kind[event.kind], event.type, event.layer)
            for event in host.wire_events
        )
        counted = {
            (entry["name"], entry["labels"]["type"], entry["labels"]["layer"]): entry["value"]
            for entry in host.registry.snapshot()["counters"]
            if entry["name"] in metric_of_kind.values() and entry["value"]
        }
        assert counted == dict(logged)
        remote = [
            event for event in host.wire_events
            if host.placement[event.src] != host.placement[event.dst]
        ]
        assert remote, "block placement must leave cross-host edges"


def test_a_host_keeps_its_sockets_while_a_local_join_is_pending(tmp_path):
    """Every resident of host 1 crashes before pid 6 joins there: the host
    must not sever its links, or pid 0 across the socket never reaches
    the joiner — pid 6 would suspect pid 0 for good and the two would
    eat together unseen by either host's checks."""
    from repro.graphs.membership import MembershipDelta, MembershipLog

    hosts = _unix_pair(
        tmp_path,
        1.0,
        membership=MembershipLog([MembershipDelta(0.25, "join", 6, (0, 5))]),
        joiners={6: 1},
        crash_times={3: 0.1, 4: 0.1, 5: 0.1},
    )
    _run_together(hosts)
    delivered = [
        event for event in hosts[1].wire_events
        if event.kind == "deliver" and (event.src, event.dst) == (0, 6)
    ]
    assert delivered and min(event.time for event in delivered) >= 0.25
    dropped = [
        event for event in hosts[0].wire_events
        if event.kind == "drop" and event.dst == 6
    ]
    assert dropped == []


def test_corrupt_inbound_stream_delivers_then_closes(tmp_path):
    """Garbage after a valid frame, in one write: the valid frame is
    delivered, exactly one finding is recorded, the host closes the
    connection (the sender sees EOF instead of writing into the void),
    and the run still completes with a verdict."""
    import asyncio

    from repro.core.messages import Ping
    from repro.net.codec import encode_frame

    placement = {0: 0, 1: 1, 2: 1}
    addresses = {index: str(tmp_path / f"host-{index}.sock") for index in range(2)}
    host = AsyncHost(
        ring(3),
        config=_fast_config(1.0),
        placement=placement,
        host_index=0,
        addresses=addresses,
        transport="unix",
    )

    async def swallow(reader, writer):
        # Stands in for host 1: accepts host 0's dial and reads it dry.
        while await reader.read(65536):
            pass
        writer.close()

    async def scenario():
        peer = await asyncio.start_unix_server(swallow, path=addresses[1])
        run = asyncio.ensure_future(host.run())
        try:
            while not os.path.exists(addresses[0]):
                await asyncio.sleep(0.01)
            await asyncio.sleep(0.2)  # the host's actors have started
            reader, writer = await asyncio.open_unix_connection(addresses[0])
            writer.write(encode_frame(1, 0, 1, Ping(1)) + b"\xff\xff\x7f garbage")
            # Well inside the run: EOF must come from the fault, not from
            # the host's own shutdown half a second later.
            eof = await asyncio.wait_for(reader.read(), timeout=0.3)
            writer.close()
            return eof
        finally:
            await run
            peer.close()
            await peer.wait_closed()

    assert asyncio.run(scenario()) == b""
    delivered = [
        (event.src, event.dst, event.type, event.seq)
        for event in host.wire_events
        if event.kind == "deliver"
    ]
    assert delivered == [(1, 0, "Ping", 1)]
    assert len(host.violations) == 1
    assert host.violations[0].startswith("corrupt inbound stream: ")
    assert host.result()["verdict"]["ok"] in (True, False)
