"""The normalized check-event vocabulary.

Every substrate — the discrete-event kernel, the live asyncio runtime,
and offline trace/wire-log replay — describes a run to the checkers in
exactly these terms.  The vocabulary is deliberately tiny and versioned
(:data:`CHECK_EVENT_VERSION`): a checker written against it runs
identically online in the kernel, online over live sockets, and offline
over any recorded artifact, which is the whole point of the
:mod:`repro.checks` subsystem.

Three kinds of members:

* **Lifecycle facts** — phase, doorway, suspicion, crash and membership
  changes *are* the :mod:`repro.trace.events` records: a substrate hands
  the very record it wrote into its trace to the suite, and offline
  replay hands over what ``trace.jsonl`` deserializes to.  The five
  ``*Event`` names below are plain bindings to those classes.
* **Message facts** — :class:`SendEvent` / :class:`DeliverEvent` /
  :class:`DropEvent`, which are also the wire-log entry on both
  substrates (:func:`wire_to_dict` is the one JSON form).  Together
  with the lifecycle records these are what ``repro check`` replays.
* **:class:`ProbeEvent`** — an *online-only* member carrying live local
  state views (the diner objects themselves, duck-typed).  State-based
  checkers (fork uniqueness, the diner-local invariants) consume it when
  a substrate can offer it and report ``skip`` when one cannot (offline
  replay of a recorded trace has no state to probe).

Message events carry the per-directed-channel sequence number when the
substrate knows it (the wire codec always does; the kernel network
stamps them at send once a FIFO checker is attached), which is what
makes the FIFO/no-loss property checkable from the stream alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Mapping, Optional

from repro.trace.events import (
    Crash,
    DoorwayChange,
    MembershipChange,
    PhaseChange,
    SuspicionChange,
)

ProcessId = int

#: Version of the vocabulary below.  Bump when events gain/lose fields
#: or semantics; verdicts record the version they were produced under.
CHECK_EVENT_VERSION = 2

# The historical check-event names of the lifecycle facts.
PhaseEvent = PhaseChange
DoorwayEvent = DoorwayChange
SuspicionEvent = SuspicionChange
CrashEvent = Crash
MembershipEvent = MembershipChange


@dataclass(frozen=True, slots=True)
class SendEvent:
    """A message entered the directed channel ``src -> dst``.

    ``type`` is the message class name (``"Fork"``, ``"Ping"``, …),
    ``layer`` its protocol layer (``"dining"`` or ``"detector"``),
    ``seq`` the per-directed-channel sequence number when known, and
    ``bits`` the frame size where a codec is in play (a live send; 0 on
    the kernel and on departures).
    """

    kind: ClassVar[str] = "send"

    time: float
    src: ProcessId
    dst: ProcessId
    type: str
    layer: str
    seq: Optional[int] = None
    bits: int = 0


@dataclass(frozen=True, slots=True)
class DeliverEvent:
    """A message left the channel and was handed to the destination."""

    kind: ClassVar[str] = "deliver"

    time: float
    src: ProcessId
    dst: ProcessId
    type: str
    layer: str
    seq: Optional[int] = None
    bits: int = 0


@dataclass(frozen=True, slots=True)
class DropEvent:
    """A message was discarded (crashed destination or severed link)."""

    kind: ClassVar[str] = "drop"

    time: float
    src: ProcessId
    dst: ProcessId
    type: str
    layer: str
    seq: Optional[int] = None
    bits: int = 0


#: Message-event classes, keyed the way wire logs spell them.
WIRE_EVENT_TYPES = {cls.kind: cls for cls in (SendEvent, DeliverEvent, DropEvent)}


def wire_to_dict(event) -> dict:
    """One message event as its wire-log JSON object.

    The one serialized form: a host's ``wire.jsonl``, a flight dump, a
    fuzz result's ``wire`` list and a witness directory all hold exactly
    this, so any of them replays through ``repro check``.
    """
    return {
        "kind": event.kind,
        "src": event.src,
        "dst": event.dst,
        "type": event.type,
        "layer": event.layer,
        "seq": event.seq,
        "time": event.time,
        "bits": event.bits,
    }


class ProbeEvent:
    """Online-only: a snapshot opportunity over live local state.

    ``states`` maps pid to a duck-typed state view exposing at least
    ``crashed``; the full diner surface (``holds_fork(n)``,
    ``holds_token(n)``, ``is_eating``, ``is_hungry``, ``inside``,
    ``phase``, ``_links_in_order()``) unlocks the state-based checkers.
    Adapters may reuse one mutable instance per run — checkers read it
    synchronously inside :meth:`~repro.checks.suite.CheckSuite.observe`
    and never retain it.

    ``edges`` and ``pairs`` optionally restrict the probe to the slice of
    state an adapter knows could have changed: ``edges`` limits fork/token
    uniqueness to those undirected edges, ``pairs`` limits the diner-local
    invariants to ``(pid, neighbor)`` link checks (``neighbor=None`` means
    the whole diner).  ``None`` (the default) means a full scan — what a
    substrate without change tracking feeds.
    """

    __slots__ = ("time", "states", "edges", "pairs")

    def __init__(
        self,
        time: float,
        states: Mapping[ProcessId, object],
        edges=None,
        pairs=None,
    ) -> None:
        self.time = time
        self.states = states
        self.edges = edges
        self.pairs = pairs
