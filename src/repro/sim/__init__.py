"""Discrete-event simulation substrate.

This package provides the deterministic execution environment the paper's
algorithms run in: a virtual clock and event queue (:mod:`kernel`,
:mod:`events`), event-driven processes with crash semantics (:mod:`actor`),
reliable FIFO channels with pluggable latency including GST partial
synchrony (:mod:`network`, :mod:`latency`), seeded crash injection
(:mod:`crash`), named random streams (:mod:`rng`), and traffic probes
(:mod:`monitors`).
"""

from repro.sim.actor import Actor, ProcessId
from repro.sim.crash import CrashPlan
from repro.sim.events import Event, EventPriority, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.latency import (
    FixedLatency,
    LatencyModel,
    LogNormalLatency,
    PartialSynchronyLatency,
    ScriptedLatency,
    UniformLatency,
)
from repro.sim.monitors import (
    ChannelOccupancyMonitor,
    MessageStats,
    PostCrashSend,
    QuiescenceMonitor,
)
from repro.sim.network import Network, NetworkMonitor
from repro.sim.rng import RandomStreams
from repro.timebase import END_OF_TIME, START_OF_TIME, Duration, Instant

__all__ = [
    "Actor",
    "ChannelOccupancyMonitor",
    "CrashPlan",
    "Duration",
    "END_OF_TIME",
    "Event",
    "EventPriority",
    "EventQueue",
    "FixedLatency",
    "Instant",
    "LatencyModel",
    "LogNormalLatency",
    "MessageStats",
    "Network",
    "NetworkMonitor",
    "PartialSynchronyLatency",
    "PostCrashSend",
    "ProcessId",
    "QuiescenceMonitor",
    "RandomStreams",
    "START_OF_TIME",
    "ScriptedLatency",
    "Simulator",
    "UniformLatency",
]
