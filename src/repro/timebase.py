"""Time as the algorithms see it — shared by every substrate.

Both substrates that can host the actors (the discrete-event kernel in
:mod:`repro.sim` and the live asyncio runtime in :mod:`repro.net`) model
time as a nonnegative float number of seconds.  The helpers here
centralize the conventions the rest of the library relies on:

* :data:`START_OF_TIME` is the clock value at substrate construction.
* :data:`END_OF_TIME` sorts after every reachable instant and is used for
  "never" deadlines (for example, the convergence time of a detector that
  is configured to never converge).
* :func:`validate_instant` and :func:`validate_duration` normalize the
  error behaviour of every public API that accepts times.

Keeping time a plain float (instead of a wrapper class) keeps the event
queue allocation-free on the hot path; the type alias :data:`Instant`
documents intent in signatures.
"""

from __future__ import annotations

import math

from repro.errors import ConfigurationError

Instant = float
Duration = float

START_OF_TIME: Instant = 0.0
END_OF_TIME: Instant = math.inf


def validate_instant(value: float, *, name: str = "time") -> Instant:
    """Return ``value`` as an :data:`Instant`, rejecting negatives and NaN.

    ``END_OF_TIME`` (infinity) is accepted: it is the canonical "never".
    """
    value = float(value)
    if math.isnan(value) or value < START_OF_TIME:
        raise ConfigurationError(f"{name} must be a nonnegative number, got {value!r}")
    return value


def validate_duration(value: float, *, name: str = "duration", allow_zero: bool = True) -> Duration:
    """Return ``value`` as a :data:`Duration`, rejecting negatives and NaN."""
    value = float(value)
    if math.isnan(value) or value < 0.0:
        raise ConfigurationError(f"{name} must be a nonnegative number, got {value!r}")
    if not allow_zero and value == 0.0:
        raise ConfigurationError(f"{name} must be strictly positive, got {value!r}")
    return value
