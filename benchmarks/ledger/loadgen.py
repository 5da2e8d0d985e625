"""Lease-session generators for the ``locks_*`` workloads.

Both generators run in the driver child's single event loop over the
``LockClient`` connections they are given (two: this box has two cores),
with no extra threads.  Every input — resource picks, the Poisson
schedule, hold times — is drawn from the seed before the first request
is sent.

* :func:`closed_loop` — callers that wait for a reply: ``in_flight``
  workers each send their next request only when the previous lease is
  released.  A slow server receives less load, so this measures capacity.
* :func:`open_loop` — independent clients: requests leave on a seeded
  Poisson schedule whatever the server does.  Latency is timed from each
  request's **due** time, so a stall is charged to every request it
  delays, and the generator's own lateness is reported beside it.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.obs.tracing import SPAN_EATING, _SID_OF_NAME

_EATING_SID = _SID_OF_NAME[SPAN_EATING]

TTL_MS = 50
ACQUIRE_TIMEOUT = 10.0


@dataclass
class Sessions:
    """What the generator saw, one entry per granted session."""

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Client-observed seconds (closed: from the write; open: from due time).
    latency: List[float] = field(default_factory=list)
    #: Seconds the request left after it was due (open loop only).
    lateness: List[float] = field(default_factory=list)
    #: Trace id carried by each grant frame (0 when not span-backed).
    trace_ids: List[int] = field(default_factory=list)
    elapsed: float = 0.0

    def fail(self, detail: str) -> None:
        self.failures.append(detail)

    def granted(self, outcome, latency: float, lateness: float) -> None:
        context = outcome.context
        backed = (
            context is not None and context[0] != 0 and context[1] == _EATING_SID
        )
        if not backed:
            self.fail(f"session {outcome.session}: grant not span-backed")
        self.latency.append(latency)
        self.lateness.append(lateness)
        self.trace_ids.append(context[0] if backed else 0)


def closed_schedule(seed: int, resources: Sequence[str], sessions: int) -> List[str]:
    rng = random.Random(seed)
    return [rng.choice(resources) for _ in range(sessions)]


def open_schedule(
    seed: int, resources: Sequence[str], rate: float, span: float, max_hold: float
) -> List[Tuple[float, str, float]]:
    """``(due offset, resource, hold seconds)`` for Poisson arrivals over ``span``."""
    rng = random.Random(seed)
    schedule = []
    due = rng.expovariate(rate)
    while due < span:
        schedule.append((due, rng.choice(resources), rng.uniform(0.0, max_hold)))
        due += rng.expovariate(rate)
    return schedule


async def closed_loop(clients, picks: Sequence[str], in_flight: int) -> Sessions:
    """Zero-hold sessions, ``in_flight`` at a time, no abandons."""
    seen = Sessions(attempted=len(picks))
    pending = iter(picks)

    async def worker(client) -> None:
        for resource in pending:
            try:
                outcome = await client.acquire(resource, TTL_MS, timeout=ACQUIRE_TIMEOUT)
            except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
                seen.fail(f"{resource}: {type(exc).__name__}: {exc}")
                continue
            if not outcome.granted:
                seen.fail(f"{resource}: denied ({outcome.reason})")
                continue
            seen.granted(outcome, outcome.latency, 0.0)
            await client.release(outcome)

    started = time.perf_counter()
    await asyncio.gather(
        *(worker(clients[index % len(clients)]) for index in range(in_flight))
    )
    seen.elapsed = time.perf_counter() - started
    return seen


async def open_loop(clients, schedule: Sequence[Tuple[float, str, float]]) -> Sessions:
    """Send each request at its due time; never wait for earlier ones."""
    seen = Sessions(attempted=len(schedule))
    perf = time.perf_counter

    async def session(client, due_at: float, resource: str, hold: float) -> None:
        sent_at = perf()
        try:
            outcome = await client.acquire(resource, TTL_MS, timeout=ACQUIRE_TIMEOUT)
        except (asyncio.TimeoutError, ConnectionError, OSError) as exc:
            seen.fail(f"{resource}: {type(exc).__name__}: {exc}")
            return
        if not outcome.granted:
            seen.fail(f"{resource}: denied ({outcome.reason})")
            return
        seen.granted(outcome, perf() - due_at, sent_at - due_at)
        if hold > 0:
            await asyncio.sleep(hold)
        await client.release(outcome)

    tasks = []
    started = perf()
    for index, (due, resource, hold) in enumerate(schedule):
        delay = started + due - perf()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(
            asyncio.ensure_future(
                session(clients[index % len(clients)], started + due, resource, hold)
            )
        )
    await asyncio.gather(*tasks)
    seen.elapsed = perf() - started
    return seen
