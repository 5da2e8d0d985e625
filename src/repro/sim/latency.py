"""Channel latency models.

A latency model maps each transmission to a positive delay.  The paper's
system model is asynchronous (unbounded delays) with enough partial
synchrony to implement an eventually perfect failure detector, so the
library ships:

* :class:`FixedLatency` and :class:`UniformLatency` — simple synchronous /
  bounded-asynchronous channels for unit tests and throughput benches;
* :class:`LogNormalLatency` — heavy-ish tails for realistic jitter;
* :class:`PartialSynchronyLatency` — the Dwork-Lynch-Stockmeyer GST model:
  delays are arbitrary (up to ``pre_gst_max``) before a global
  stabilization time and bounded by ``post_gst_max`` afterwards.  This is
  the model under which the heartbeat ◇P₁ implementation in
  :mod:`repro.detectors.heartbeat` provably converges.

Models draw from a per-directed-channel random stream, so altering traffic
on one channel never perturbs delays on another.  A stream-drawing model
puts its sampling logic in ``draw(rng, now)``; its ``sample`` fetches the
channel's stream by name.  The kernel's network holds each channel's
stream itself and calls ``draw`` directly.
"""

from __future__ import annotations

from typing import Protocol

from repro.errors import ConfigurationError
from repro.sim.rng import RandomStreams
from repro.timebase import Duration, Instant, validate_duration, validate_instant

ProcessId = int


class LatencyModel(Protocol):
    """Samples a transmission delay for a message sent at ``now``."""

    def sample(self, src: ProcessId, dst: ProcessId, now: Instant, streams: RandomStreams) -> Duration:
        ...  # pragma: no cover - protocol signature


def channel_stream_name(src: ProcessId, dst: ProcessId) -> str:
    """The stream a channel's delays are drawn from (its seed is derived from it)."""
    return f"latency/{src}->{dst}"


class _PerChannelStream:
    """Base of the models that draw each delay from the channel's own stream."""

    def sample(self, src: ProcessId, dst: ProcessId, now: Instant, streams: RandomStreams) -> Duration:
        return self.draw(streams.stream(channel_stream_name(src, dst)), now)


class FixedLatency:
    """Every message takes exactly ``delay`` time units."""

    def __init__(self, delay: Duration = 1.0) -> None:
        self.delay = validate_duration(delay, name="delay", allow_zero=False)

    def sample(self, src: ProcessId, dst: ProcessId, now: Instant, streams: RandomStreams) -> Duration:
        return self.delay


class UniformLatency(_PerChannelStream):
    """Delays drawn uniformly from ``[low, high]``."""

    def __init__(self, low: Duration = 0.5, high: Duration = 1.5) -> None:
        self.low = validate_duration(low, name="low", allow_zero=False)
        self.high = validate_duration(high, name="high", allow_zero=False)
        if self.high < self.low:
            raise ConfigurationError(f"high ({high}) must be >= low ({low})")

    def draw(self, rng, now: Instant) -> Duration:
        return rng.uniform(self.low, self.high)


class LogNormalLatency(_PerChannelStream):
    """Log-normally distributed delays, clipped to ``[floor, ceiling]``.

    The clip keeps runs replayable in bounded virtual time while preserving
    a realistic skew: most messages are fast, a minority straggle.
    """

    def __init__(
        self,
        median: Duration = 1.0,
        sigma: float = 0.5,
        floor: Duration = 0.05,
        ceiling: Duration = 50.0,
    ) -> None:
        import math

        self.mu = math.log(validate_duration(median, name="median", allow_zero=False))
        if sigma <= 0:
            raise ConfigurationError(f"sigma must be positive, got {sigma!r}")
        self.sigma = float(sigma)
        self.floor = validate_duration(floor, name="floor", allow_zero=False)
        self.ceiling = validate_duration(ceiling, name="ceiling", allow_zero=False)
        if self.ceiling < self.floor:
            raise ConfigurationError("ceiling must be >= floor")

    def draw(self, rng, now: Instant) -> Duration:
        value = rng.lognormvariate(self.mu, self.sigma)
        return min(max(value, self.floor), self.ceiling)


class PartialSynchronyLatency(_PerChannelStream):
    """GST-style partial synchrony (Dwork, Lynch & Stockmeyer 1988).

    Before the global stabilization time ``gst``, delays are adversarially
    jittered in ``[min_delay, pre_gst_max]``; from ``gst`` on, delays are
    bounded by ``post_gst_max``.  Sampling is by *send* time, which is the
    standard formulation: a message sent before GST may still be slow.
    """

    def __init__(
        self,
        gst: Instant = 100.0,
        min_delay: Duration = 0.1,
        pre_gst_max: Duration = 40.0,
        post_gst_max: Duration = 1.0,
    ) -> None:
        self.gst = validate_instant(gst, name="gst")
        self.min_delay = validate_duration(min_delay, name="min_delay", allow_zero=False)
        self.pre_gst_max = validate_duration(pre_gst_max, name="pre_gst_max", allow_zero=False)
        self.post_gst_max = validate_duration(post_gst_max, name="post_gst_max", allow_zero=False)
        if self.pre_gst_max < self.min_delay or self.post_gst_max < self.min_delay:
            raise ConfigurationError("maximum delays must be >= min_delay")

    def draw(self, rng, now: Instant) -> Duration:
        if now < self.gst:
            return rng.uniform(self.min_delay, self.pre_gst_max)
        return rng.uniform(self.min_delay, self.post_gst_max)


class StormLatency(_PerChannelStream):
    """Periodic congestion storms over a calm base channel.

    Outside storm windows delays are uniform in ``[calm_low, calm_high]``;
    during the window ``[k·period, k·period + storm_len)`` they are
    uniform in ``[storm_low, storm_high]``.  Combined with the network's
    FIFO clamping this piles a backlog onto a channel and then releases
    it as a burst of near-simultaneous deliveries — the adversarial
    pattern the fuzz campaigns use to probe the Section 7 channel bound
    and doorway bookkeeping under reordering pressure between channels.
    """

    def __init__(
        self,
        *,
        period: Duration = 20.0,
        storm_len: Duration = 5.0,
        calm_low: Duration = 0.5,
        calm_high: Duration = 1.5,
        storm_low: Duration = 3.0,
        storm_high: Duration = 6.0,
    ) -> None:
        self.period = validate_duration(period, name="period", allow_zero=False)
        self.storm_len = validate_duration(storm_len, name="storm_len")
        if self.storm_len > self.period:
            raise ConfigurationError("storm_len must not exceed period")
        self.calm_low = validate_duration(calm_low, name="calm_low", allow_zero=False)
        self.calm_high = validate_duration(calm_high, name="calm_high", allow_zero=False)
        self.storm_low = validate_duration(storm_low, name="storm_low", allow_zero=False)
        self.storm_high = validate_duration(storm_high, name="storm_high", allow_zero=False)
        if self.calm_high < self.calm_low or self.storm_high < self.storm_low:
            raise ConfigurationError("latency range inverted")

    def draw(self, rng, now: Instant) -> Duration:
        if (now % self.period) < self.storm_len:
            return rng.uniform(self.storm_low, self.storm_high)
        return rng.uniform(self.calm_low, self.calm_high)


class ScriptedLatency:
    """Exact per-channel delay sequences, for adversarial interleavings.

    ``scripts[(src, dst)]`` is consumed one delay per transmission on that
    directed channel; when a script runs out (or a channel has none), the
    ``default`` model supplies the delay.  Tests use this to build precise
    schedules — e.g. four simultaneously in-transit messages on one edge —
    that distribution-based models only hit probabilistically.
    """

    def __init__(
        self,
        scripts: dict,
        *,
        default: "LatencyModel" = None,
    ) -> None:
        self._scripts = {
            (int(src), int(dst)): [
                validate_duration(d, name=f"delay[{src}->{dst}]", allow_zero=False)
                for d in delays
            ]
            for (src, dst), delays in scripts.items()
        }
        self._default: LatencyModel = default if default is not None else FixedLatency(1.0)

    def sample(self, src: ProcessId, dst: ProcessId, now: Instant, streams: RandomStreams) -> Duration:
        pending = self._scripts.get((src, dst))
        if pending:
            return pending.pop(0)
        return self._default.sample(src, dst, now, streams)

    def remaining(self, src: ProcessId, dst: ProcessId) -> int:
        """Unconsumed scripted delays on a channel (test assertions)."""
        return len(self._scripts.get((src, dst), ()))
