"""Crash-fault injection plans.

The paper's fault model: a crash fault makes a process cease execution
without warning and never recover, and *arbitrarily many* processes may
crash.  A :class:`CrashPlan` is an immutable description of which processes
crash and when; it is applied to a network before the run starts so the
whole run (including its faults) replays from the seed.

Two constructors cover the experiments:

* :meth:`CrashPlan.scripted` — exact (pid, time) pairs, for targeted
  scenarios like "crash while holding forks";
* :meth:`CrashPlan.random` — crash a given number of distinct processes at
  times drawn from a window, using a named random stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.actor import ProcessId
from repro.sim.network import Network
from repro.sim.rng import RandomStreams
from repro.timebase import Instant, validate_instant


@dataclass(frozen=True)
class CrashPlan:
    """Immutable map from process id to crash instant."""

    crashes: Tuple[Tuple[ProcessId, Instant], ...]

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def none() -> "CrashPlan":
        """The failure-free plan."""
        return CrashPlan(())

    @staticmethod
    def scripted(crashes: Mapping[ProcessId, Instant]) -> "CrashPlan":
        """Exact crashes: ``{pid: time}``."""
        items = tuple(sorted((int(pid), validate_instant(t, name=f"crash time of {pid}"))
                             for pid, t in crashes.items()))
        seen = set()
        for pid, _ in items:
            if pid in seen:
                raise ConfigurationError(f"process {pid} crashes twice")
            seen.add(pid)
        return CrashPlan(items)

    @staticmethod
    def random(
        candidates: Sequence[ProcessId],
        count: int,
        window: Tuple[Instant, Instant],
        streams: RandomStreams,
        *,
        stream_name: str = "crash-plan",
    ) -> "CrashPlan":
        """Crash ``count`` distinct processes at times uniform in ``window``."""
        if count < 0 or count > len(candidates):
            raise ConfigurationError(
                f"cannot crash {count} of {len(candidates)} processes"
            )
        lo = validate_instant(window[0], name="window start")
        hi = validate_instant(window[1], name="window end")
        if hi < lo:
            raise ConfigurationError("crash window end precedes its start")
        rng = streams.stream(stream_name)
        victims = rng.sample(sorted(candidates), count)
        return CrashPlan.scripted({pid: rng.uniform(lo, hi) for pid in victims})

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def faulty(self) -> Tuple[ProcessId, ...]:
        """Process ids that crash under this plan, in id order."""
        return tuple(pid for pid, _ in self.crashes)

    def correct(self, all_pids: Iterable[ProcessId]) -> Tuple[ProcessId, ...]:
        """Process ids from ``all_pids`` that never crash under this plan."""
        faulty = set(self.faulty)
        return tuple(pid for pid in sorted(all_pids) if pid not in faulty)

    def crash_time(self, pid: ProcessId) -> Instant:
        """Crash instant of ``pid``; raises if ``pid`` is correct."""
        for victim, time in self.crashes:
            if victim == pid:
                return time
        raise ConfigurationError(f"process {pid} does not crash under this plan")

    def as_dict(self) -> Dict[ProcessId, Instant]:
        return dict(self.crashes)

    @property
    def last_crash_time(self) -> Instant:
        """Time of the final crash, or 0.0 for the failure-free plan."""
        return max((t for _, t in self.crashes), default=0.0)

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(self, network: Network) -> None:
        """Schedule every crash on ``network`` (CONTROL priority)."""
        for pid, time in self.crashes:
            network.crash_at(pid, time)
