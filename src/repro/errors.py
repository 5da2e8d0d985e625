"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError`, so callers
can catch one base class.  Invariant violations get their own subtree
(:class:`InvariantViolation`) because experiment harnesses treat them
differently from configuration mistakes: an invariant violation is evidence
against the paper's claims, a configuration error is a bug in the caller.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A component was constructed or wired with invalid parameters."""


class LaunchError(ReproError):
    """A cluster host exited, or stayed silent, before the shared epoch."""


class SimulationError(ReproError):
    """The simulation kernel reached an inconsistent internal state."""


class SchedulingError(SimulationError):
    """An event was scheduled in the past or on a finished simulator."""


class CrashedProcessError(SimulationError):
    """An operation was attempted on behalf of a crashed process."""


class InvariantViolation(ReproError):
    """A checked algorithm invariant does not hold.

    Raised by the online checkers in :mod:`repro.checks` when a suite is
    armed strictly (for example fork uniqueness, channel-capacity
    bounds, or FIFO ordering).
    """


class ForkDuplicationError(InvariantViolation):
    """Both endpoints of an edge believe they hold the shared fork."""


class ChannelCapacityError(InvariantViolation):
    """More dining-layer messages in transit on one edge than Section 7 allows."""


class FifoViolationError(InvariantViolation):
    """A channel delivered messages out of send order."""


class ColoringError(ConfigurationError):
    """A node coloring is not a proper coloring of the conflict graph."""
