"""Live lease service: real sockets, crash-reclamation, both transports.

The reclamation story the lease service owes Algorithm 1's ◇P₁ path: a
client acquires, its connection is killed mid-lease (no release frame is
ever written), the TTL — which *is* the serving diner's eat timer —
lapses, and the next contender is granted.  Judged end to end on a real
listener over both unix and TCP sockets, with the host's standard
checker suite attached and zero leaked leases at shutdown.
"""

import asyncio
import os
import time

import pytest

from repro.locks.client import LockClient
from repro.locks.service import DENY_UNKNOWN
from repro.net.cluster import ClusterSpec, _allocate_addresses, build_host
from repro.obs.tracing import SPAN_EATING, _SID_OF_NAME

pytestmark = pytest.mark.live

_EATING_SID = _SID_OF_NAME[SPAN_EATING]


def _serving_spec(transport: str, run_dir: str) -> ClusterSpec:
    """A one-process, three-diner serving spec, launched in-process."""
    spec = ClusterSpec(
        topology="ring",
        n=3,
        processes=1,
        duration=3.0,
        seed=11,
        heartbeat_interval=0.1,
        initial_timeout=0.3,
        timeout_increment=0.1,
        transport=transport,
        serve_locks=True,
        run_dir=run_dir,
    )
    spec.placement = spec.default_placement()
    spec.addresses = _allocate_addresses(spec)
    spec.epoch = time.time() + 0.4
    return spec


async def _connect(transport, address, *, client_index, deadline=5.0):
    """Dial with retry: the in-process listener binds moments after run()."""
    end = time.monotonic() + deadline
    while True:
        client = LockClient(transport, address, client_index=client_index)
        try:
            return await client.connect()
        except OSError:
            if time.monotonic() > end:
                raise
            await asyncio.sleep(0.05)


@pytest.mark.parametrize("transport", ["unix", "tcp"])
def test_lease_reclaimed_after_connection_killed_mid_lease(transport, tmp_path):
    """Kill the holder's socket mid-lease: the TTL reclaims the resource
    and the queued contender is granted — zero leaked leases, clean
    verdict — on both substrates the service can listen on."""
    spec = _serving_spec(transport, str(tmp_path / "run"))
    os.makedirs(spec.run_dir, exist_ok=True)  # unix sockets live here
    host = build_host(spec, 0)

    async def scenario():
        runner = asyncio.ensure_future(host.run())
        try:
            address = spec.addresses[0]
            victim = await _connect(spec.transport, address, client_index=0)
            contender = await _connect(spec.transport, address, client_index=1)
            # Diners start dining at the shared epoch; request after it.
            await asyncio.sleep(max(0.0, spec.epoch - time.time()) + 0.2)

            held = await victim.acquire("r1", ttl_ms=600, timeout=5.0)
            assert held.granted, held.reason
            # The grant frame is stamped with the serving diner's open
            # eating span: the causal proof Algorithm 1 scheduled it.
            assert held.context is not None and held.context[1] == _EATING_SID

            # Kill the holding connection mid-lease — abort the transport
            # so no release (nor a clean shutdown handshake) ever leaves.
            victim._writer.transport.abort()
            await victim.close()

            started = time.perf_counter()
            reclaimed = await contender.acquire("r1", ttl_ms=150, timeout=5.0)
            waited = time.perf_counter() - started
            assert reclaimed.granted, reclaimed.reason
            assert reclaimed.lease_id != held.lease_id
            # The contender queued behind the orphaned lease: its grant
            # could only ride the reclamation, not a fresh idle meal.
            assert waited <= 2.0

            denied = await contender.acquire("nope", ttl_ms=100, timeout=5.0)
            assert not denied.granted and denied.reason == DENY_UNKNOWN

            await contender.release(reclaimed)
            await contender.close()
        finally:
            await runner

    asyncio.run(scenario())

    result = host.result()
    assert result["violations"] == []
    assert host.verdict().ok

    locks = result["locks"]
    counters = locks["counters"]
    assert counters["grants"] == 2
    assert counters["expiries"] == 1  # the orphaned lease, TTL-reclaimed
    assert counters["releases"] == 1  # the contender's clean return
    assert counters["abandons"] == 1  # the killed connection's session
    assert locks["denies"] == {DENY_UNKNOWN: 1}
    assert locks["active_leases"] == 0
    assert locks["leaked_leases"] == 0


def test_a_request_that_beats_the_epoch_waits_for_the_start(tmp_path):
    """A client may connect and ask as soon as the listener is bound
    (``repro loadgen`` sleeps only to the epoch): inbound frames wait
    until the host's diners have started, so the grant comes after the
    epoch and nothing is recorded before it."""
    spec = _serving_spec("unix", str(tmp_path / "run"))
    spec.duration = 1.0
    os.makedirs(spec.run_dir, exist_ok=True)
    host = build_host(spec, 0)

    async def scenario():
        runner = asyncio.ensure_future(host.run())
        try:
            client = await _connect(spec.transport, spec.addresses[0], client_index=0)
            assert time.time() < spec.epoch
            held = await client.acquire("r1", ttl_ms=100, timeout=5.0)
            granted_at = time.time()
            await client.release(held)
            await client.close()
            return held, granted_at
        finally:
            await runner

    held, granted_at = asyncio.run(scenario())
    assert held.granted, held.reason
    assert granted_at >= spec.epoch
    assert min(record.time for record in host.trace) >= 0.0
    assert min(event.time for event in host.wire_events) >= 0.0
    assert host.result()["violations"] == []


def test_release_on_a_closed_connection_is_quiet_but_acquire_raises(tmp_path):
    """``release`` is fire-and-forget: once the serving host has stopped
    and its connection is gone, releasing a granted lease returns quietly
    (the service abandoned the session with the connection), while a new
    ``acquire`` still raises ``ConnectionError`` at once, so an unserved
    session counts as failed."""
    spec = _serving_spec("unix", str(tmp_path / "run"))
    spec.duration = 1.0
    os.makedirs(spec.run_dir, exist_ok=True)
    host = build_host(spec, 0)

    async def scenario():
        runner = asyncio.ensure_future(host.run())
        try:
            client = await _connect(spec.transport, spec.addresses[0], client_index=0)
            held = await client.acquire("r1", ttl_ms=100, timeout=5.0)
        finally:
            await runner
        # The host closed the connection on shutdown; the client sees EOF
        # and closes its side, so no write below reaches a socket.
        await asyncio.wait_for(client._reader_task, 5.0)
        assert client._writer.is_closing()
        await client.release(held)
        started = time.perf_counter()
        with pytest.raises(ConnectionError):
            await client.acquire("r1", ttl_ms=100, timeout=5.0)
        assert time.perf_counter() - started < 1.0
        await client.close()
        return held

    held = asyncio.run(scenario())
    assert held.granted, held.reason
    assert host.result()["locks"]["leaked_leases"] == 0


def test_loadgen_self_launch_serves_every_session(tmp_path, capsys):
    """``repro loadgen`` without ``--spec`` forks a ``--serve-locks``
    cluster, bursts sessions against it, waits it out and merges: every
    session completes, with no errors and no leaked lease."""
    import json

    from repro import cli

    report_path = tmp_path / "loadgen.json"
    code = cli.main([
        "loadgen", "--n", "4", "--processes", "2", "--duration", "3",
        "--sessions", "200", "--concurrency", "20", "--connections", "2",
        "--run-dir", str(tmp_path / "run"), "--json", str(report_path),
    ])
    out = capsys.readouterr().out
    report = json.loads(report_path.read_text(encoding="utf-8"))

    assert code == 0, out
    assert report["ok"] and report["completed"] == report["sessions"] == 200
    assert report["errors"] == 0
    assert "cluster verdict: PASS" in out and ", 0 leaked" in out
