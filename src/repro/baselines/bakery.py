"""Baseline: Lamport's bakery, localized to the conflict graph.

The bakery algorithm (Lamport 1974; message-passing rendition after the
shared-register formulation in Aspnes' *Notes on Theory of Distributed
Systems*) as a dining scheduler: each hungry session runs two explicit
message rounds against the conflict-graph neighbors —

1. **Choosing** — :class:`~repro.baselines.messages.BakeryQuery` to every
   neighbor; each replies :class:`~repro.baselines.messages.BakeryNumber`
   with its current ticket (0 when not competing).  The chooser takes
   ``1 + max`` over the replies (and over its own previous ticket, so a
   diner's tickets are strictly increasing — the monotone local clock
   most message-passing bakeries keep).
2. **Comparison** — :class:`~repro.baselines.messages.BakeryRequest`
   carrying the chosen ticket to every neighbor; a neighbor yields with
   :class:`~repro.baselines.messages.BakeryOk` iff it is not competing,
   or the requester's ``(number, pid)`` lexicographically precedes its
   own.  Otherwise the Ok is deferred to the neighbor's exit.  A
   neighbor still *choosing* defers the decision itself until its own
   ticket is fixed, which is what makes concurrent choosing safe.

Guarantees (crash-free): mutual exclusion on every conflict edge — two
neighbors can never hold each other's Ok for overlapping sessions,
because ``(number, pid)`` is a total order and an eating or competing
neighbor always forces later choosers above its own ticket — and
first-come-first-served fairness in ticket order.

Failure modes, by construction:

* **Unbounded tickets.**  Under contention every session reads the
  competitors' tickets and goes one higher, so numbers grow without
  bound and :class:`BakeryNumber`/:class:`BakeryRequest` frames grow
  with *time* — the measurable contrast with the paper's O(log n)-bit
  Section 7 budget (see ``message_size_bits`` and the bake-off's bit
  instruments).
* **Crash-oblivious.**  No failure detector is consulted (the
  constructor accepts one only to fit the common diner signature): a
  crashed neighbor never answers a query and never sends its Ok, so its
  whole neighborhood starves.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from repro.baselines.classic import ClassicDiner
from repro.baselines.messages import BakeryNumber, BakeryOk, BakeryQuery, BakeryRequest
from repro.core.table import DiningTable, fixed_table, null_detector
from repro.errors import ConfigurationError
from repro.graphs.conflict import ConflictGraph, ProcessId


def bakery_precedes(a: Tuple[int, int], b: Tuple[int, int]) -> bool:
    """The bakery priority order: ``(number, pid)`` lexicographically.

    ``a`` and ``b`` are ``(number, pid)`` tickets; lower wins.  Exposed
    as a named function so the property tests pin the comparison the
    actors actually use.
    """
    return a < b


class BakeryDiner(ClassicDiner):
    """One bakery customer on the conflict graph."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.choosing = False
        self.number = 0
        self.last_number = 0
        self._pending_numbers: Set[ProcessId] = set()
        self._max_seen = 0
        self._pending_oks: Set[ProcessId] = set()
        self._deferred: Set[ProcessId] = set()
        # Requests that arrived mid-choosing: requester -> its ticket.
        # They cannot be compared until our own ticket is fixed.
        self._undecided: Dict[ProcessId, int] = {}

    @property
    def ticket(self) -> Tuple[int, int]:
        """This diner's current bakery priority, as ``(number, pid)``."""
        return (self.number, self.pid)

    def _compete(self) -> None:
        self.choosing = True
        self._max_seen = 0
        self._pending_numbers = set(self.neighbors)
        for neighbor in sorted(self._pending_numbers):
            self.send(neighbor, BakeryQuery(self.pid))
        if not self._pending_numbers:
            self._finish_choosing()

    # -- the two bakery rounds -------------------------------------------
    def _finish_choosing(self) -> None:
        self.number = 1 + max(self._max_seen, self.last_number)
        self.last_number = self.number
        self.choosing = False
        self._pending_oks = set(self.neighbors)
        for neighbor in sorted(self._pending_oks):
            self.send(neighbor, BakeryRequest(self.pid, self.number))
        # Requests that queued up while we were choosing are decidable now.
        undecided, self._undecided = self._undecided, {}
        for requester, number in sorted(undecided.items()):
            self._decide(requester, number)
        if not self._pending_oks:
            self._eat()

    def _decide(self, requester: ProcessId, number: int) -> None:
        """Grant or defer one BakeryRequest against our fixed state."""
        if self.is_eating:
            self._deferred.add(requester)
        elif self.choosing:
            self._undecided[requester] = number
        elif self.number and not bakery_precedes((number, requester), self.ticket):
            self._deferred.add(requester)
        else:
            self.send(requester, BakeryOk(self.pid))

    def on_message(self, src: ProcessId, message) -> None:
        if isinstance(message, BakeryQuery):
            # Unconditional and immediate, even mid-meal: an eating or
            # competing diner answering its live ticket is what forces
            # later choosers above it (the safety argument needs this).
            self.send(src, BakeryNumber(self.pid, self.number))
        elif isinstance(message, BakeryNumber):
            if message.number > self._max_seen:
                self._max_seen = message.number
            if self.choosing and src in self._pending_numbers:
                self._pending_numbers.discard(src)
                if not self._pending_numbers:
                    self._finish_choosing()
        elif isinstance(message, BakeryRequest):
            self._decide(src, message.number)
        elif isinstance(message, BakeryOk):
            if self._pending_oks:
                self._pending_oks.discard(src)
                if not self._pending_oks and not self.choosing and self.is_hungry:
                    self._eat()
        else:
            raise ConfigurationError(
                f"bakery diner {self.pid} got unexpected {message!r} from {src}"
            )

    def _release(self) -> None:
        self.number = 0
        deferred, self._deferred = self._deferred, set()
        for neighbor in sorted(deferred):
            self.send(neighbor, BakeryOk(self.pid))

    def remove_neighbor(self, neighbor: ProcessId) -> None:
        super().remove_neighbor(neighbor)
        self._pending_numbers.discard(neighbor)
        self._pending_oks.discard(neighbor)
        self._deferred.discard(neighbor)
        self._undecided.pop(neighbor, None)
        if self.choosing and not self._pending_numbers:
            self._finish_choosing()
        elif self.is_hungry and not self.choosing and not self._pending_oks:
            self._eat()


def bakery_table(graph: ConflictGraph, **table_kwargs) -> DiningTable:
    """A DiningTable scheduled by the message-passing bakery."""
    return fixed_table(
        "bakery_table", graph, table_kwargs,
        diner_factory=BakeryDiner, detector=null_detector(),
    )
