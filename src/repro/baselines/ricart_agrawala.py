"""Baseline: Ricart–Agrawala request/reply deferral with Lamport clocks.

The classic permission-based DME (Ricart & Agrawala 1981; see Aspnes,
*Notes on Theory of Distributed Systems*), localized to the conflict
graph: a hungry diner stamps one
:class:`~repro.baselines.messages.RaRequest` with its Lamport clock and
sends it to every neighbor; it eats once every neighbor has answered
:class:`~repro.baselines.messages.RaReply`.  A neighbor replies
immediately unless it is itself eating, or hungry with an earlier
``(timestamp, pid)`` stamp — then the reply is deferred to its exit.
Lamport clocks merge ``max(local, received) + 1`` on every receive, so
concurrent requests are totally ordered and the deferral decision is
consistent on both ends of an edge.

Guarantees (crash-free): mutual exclusion on every conflict edge (two
neighbors cannot both hold each other's reply for overlapping sessions
— their stamps are totally ordered, and the later one is deferred) and
starvation-freedom in timestamp order, with exactly two messages per
edge per session — the lowest message *count* in the zoo.

Failure mode, by construction: **crash-oblivious**.  No failure detector
is consulted (the constructor takes one only to fit the common diner
signature); a crashed neighbor never sends its reply, so every hungry
neighbor of a crashed process starves forever.  This is the textbook
liveness gap the paper's ◇P₁ suspicion substitution closes, and the
bake-off pins it as the expected ``progress: fail`` under a single
crash.

Clock growth note: Lamport stamps grow with session count, so
``RaRequest`` frames grow O(log t) over time — slower than the bakery's
contention-coupled tickets, but still beyond the paper's fixed O(log n)
budget on an infinite run.  The bake-off's bit instruments surface both.
"""

from __future__ import annotations

from typing import Optional, Set, Tuple

from repro.baselines.classic import ClassicDiner
from repro.baselines.messages import RaReply, RaRequest
from repro.core.table import DiningTable, fixed_table, null_detector
from repro.errors import ConfigurationError
from repro.graphs.conflict import ConflictGraph, ProcessId


class RicartAgrawalaDiner(ClassicDiner):
    """One Ricart–Agrawala participant on the conflict graph."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.clock = 0
        self.request_stamp: Optional[Tuple[int, int]] = None  # (clock, pid)
        self._pending_replies: Set[ProcessId] = set()
        self._deferred: Set[ProcessId] = set()

    def _compete(self) -> None:
        self.clock += 1
        self.request_stamp = (self.clock, self.pid)
        self._pending_replies = set(self.neighbors)
        for neighbor in sorted(self._pending_replies):
            self.send(neighbor, RaRequest(self.pid, self.request_stamp[0]))
        if not self._pending_replies:
            self._eat()

    # -- the RA rule -----------------------------------------------------
    def on_message(self, src: ProcessId, message) -> None:
        if isinstance(message, RaRequest):
            self.clock = max(self.clock, message.clock) + 1
            if self.is_eating:
                self._deferred.add(src)
            elif (
                self.request_stamp is not None
                and self.request_stamp < (message.clock, src)
            ):
                # We are hungry with the earlier stamp: they wait for us.
                self._deferred.add(src)
            else:
                self.send(src, RaReply(self.pid))
        elif isinstance(message, RaReply):
            if self._pending_replies:
                self._pending_replies.discard(src)
                if not self._pending_replies and self.is_hungry:
                    self._eat()
        else:
            raise ConfigurationError(
                f"ricart-agrawala diner {self.pid} got unexpected {message!r} from {src}"
            )

    def _release(self) -> None:
        self.request_stamp = None
        deferred, self._deferred = self._deferred, set()
        for neighbor in sorted(deferred):
            self.send(neighbor, RaReply(self.pid))

    def remove_neighbor(self, neighbor: ProcessId) -> None:
        super().remove_neighbor(neighbor)
        self._pending_replies.discard(neighbor)
        self._deferred.discard(neighbor)
        if self.is_hungry and not self._pending_replies:
            self._eat()


def ricart_agrawala_table(graph: ConflictGraph, **table_kwargs) -> DiningTable:
    """A DiningTable scheduled by Ricart–Agrawala request/reply deferral."""
    return fixed_table(
        "ricart_agrawala_table", graph, table_kwargs,
        diner_factory=RicartAgrawalaDiner, detector=null_detector(),
    )
