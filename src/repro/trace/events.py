"""Typed trace records.

Every observable fact the experiments reason about is captured as one of
the record types below, emitted into a
:class:`~repro.trace.recorder.TraceRecorder` as the simulation runs.  The
analysis layer (:mod:`repro.trace.analysis`) reconstructs hungry sessions
and eating intervals, and the checkers of :mod:`repro.checks` judge
exclusion and overtaking, purely from the trace — algorithms are never
asked questions retroactively.

Phase names are plain strings (module constants below) so this layer stays
independent of any particular dining implementation; the core and baseline
algorithms all map their states onto the same three phases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.timebase import Instant

ProcessId = int

THINKING = "thinking"
HUNGRY = "hungry"
EATING = "eating"

PHASES = (THINKING, HUNGRY, EATING)


@dataclass(frozen=True, slots=True)
class PhaseChange:
    """A diner moved between thinking / hungry / eating."""

    time: Instant
    pid: ProcessId
    old_phase: str
    new_phase: str


@dataclass(frozen=True, slots=True)
class DoorwayChange:
    """A diner entered (``inside=True``) or exited the asynchronous doorway."""

    time: Instant
    pid: ProcessId
    inside: bool


@dataclass(frozen=True, slots=True)
class SuspicionChange:
    """A detector module's output on one neighbor flipped."""

    time: Instant
    observer: ProcessId
    suspect: ProcessId
    suspected: bool


@dataclass(frozen=True, slots=True)
class Crash:
    """A process crashed."""

    time: Instant
    pid: ProcessId


@dataclass(frozen=True, slots=True)
class MembershipChange:
    """The conflict topology changed: one membership delta applied.

    ``epoch`` is the monotone epoch counter *after* the delta (epoch 0
    is the initial graph, so the first applied delta stamps epoch 1).
    ``edges`` carries a ``join``'s initial neighbor list; the edge verbs
    (``add_edge``/``remove_edge``) put the peer there instead.  Static
    runs never emit this record, so their trace bytes are unchanged.
    """

    time: Instant
    epoch: int
    verb: str
    pid: ProcessId
    edges: tuple = ()

    def __post_init__(self) -> None:
        # JSON round-trips lists; normalize so reloaded records compare
        # (and hash) equal to the originals.
        object.__setattr__(self, "edges", tuple(self.edges))


@dataclass(frozen=True, slots=True)
class ProtocolStep:
    """The hosted (self-stabilizing) protocol executed one action at ``pid``.

    ``action`` names the guarded command; ``detail`` is protocol-specific
    (for example the new register value).
    """

    time: Instant
    pid: ProcessId
    action: str
    detail: Optional[str] = None


@dataclass(frozen=True, slots=True)
class TransientFault:
    """A transient fault corrupted the hosted protocol's state at ``pid``."""

    time: Instant
    pid: ProcessId
    detail: str
