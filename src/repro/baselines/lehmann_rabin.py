"""Baseline: Lehmann–Rabin randomized dining, generalized to the graph.

The free-philosophers algorithm of Lehmann & Rabin (1981), in the
conflict-graph generalization studied by Herescu & Palamidessi (*On the
generalized dining philosophers problem*, PAPERS.md): symmetric,
deterministic-adversary-proof dining with no priorities, no doorway and
no oracle — progress comes from coin flips alone.

Message-passing realization.  Each conflict edge carries one physical
fork, initially at the higher-color endpoint (the repo's standard
placement); ``holds_fork`` means the fork is at our end, and the fork
itself travels as the ordinary :class:`~repro.core.messages.Fork`.  A
hungry diner runs attempts:

1. Draw a uniformly random order over its edges from its seeded private
   stream (``streams.stream("lehmann-rabin/<pid>")`` — threaded from the
   scenario seed, so every run is deterministic and golden-pinnable).
2. **Commit** the first fork, waiting as long as it takes: a local
   uncommitted fork is committed in place, otherwise a *blocking*
   :class:`~repro.baselines.messages.LrRequest` is sent and the holder
   answers with the fork as soon as it is uncommitted.
3. **Test** the remaining forks one at a time in the drawn order: a
   non-blocking request is answered immediately, with the fork or with
   :class:`~repro.baselines.messages.LrBusy`.  On the first Busy the
   whole attempt aborts — every committed fork is released (it stays at
   our end but becomes grantable, and deferred blocking requests are
   granted on the spot) — and a fresh attempt starts after a short
   random backoff.
4. All forks committed → eat.  Exit releases everything.

Guarantees: mutual exclusion is *deterministic* (one fork per edge, two
neighbors can never both have it committed), on every seed.  Progress is
only probabilistic — with probability 1 over the coin flips, but no
finite bound — so the bake-off judges it over seed ensembles rather
than pinning a single-run expectation.

Failure mode, by construction: **crash-oblivious**.  A diner crashed
mid-meal holds all its forks committed forever; every neighbor's
attempt eventually blocks on (or endlessly retests) a dead fork, so the
neighborhood starves.  No detector is consulted.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.baselines.classic import ClassicDiner
from repro.baselines.messages import LrBusy, LrRequest
from repro.core.messages import Fork
from repro.core.table import DiningTable, fixed_table, null_detector
from repro.errors import ConfigurationError
from repro.graphs.conflict import ConflictGraph, ProcessId

#: Default retry backoff window (virtual seconds): an aborted attempt
#: redraws after a uniform delay from this range, so two symmetric
#: neighbors don't re-collide in lockstep forever.
RETRY_BACKOFF = (0.01, 0.05)


class LehmannRabinDiner(ClassicDiner):
    """One randomized Lehmann–Rabin philosopher."""

    def __init__(
        self, *args, retry_backoff: Tuple[float, float] = RETRY_BACKOFF, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self.retry_backoff = retry_backoff
        # Fork placement follows Section 3.1: at the higher-color end.
        color = int(self.coloring[self.pid])
        self.forks: Dict[ProcessId, bool] = {
            nbr: color > int(self.coloring[nbr]) for nbr in sorted(self.neighbors)
        }
        self.committed: Set[ProcessId] = set()
        # Attempt state: the drawn order, the index of the next fork to
        # secure, and the single neighbor (if any) we await a reply from.
        self._order: List[ProcessId] = []
        self._cursor = 0
        self._awaiting: Optional[ProcessId] = None
        self._deferred: Set[ProcessId] = set()  # blocking requests on hold

    @property
    def _rng(self):
        return self.streams.stream(f"lehmann-rabin/{self.pid}")

    def holds_fork(self, neighbor: ProcessId) -> bool:
        return self.forks.get(neighbor, False)

    # -- one randomized attempt ------------------------------------------
    def _compete(self) -> None:
        """Start an attempt: on hunger, and again after each backoff."""
        if not self.is_hungry:
            return
        order = sorted(self.neighbors)
        self._rng.shuffle(order)
        self._order = order
        self._cursor = 0
        self._awaiting = None
        if not order:
            self._eat()
            return
        first = order[0]
        if self.forks[first]:
            self.committed.add(first)
            self._cursor = 1
            self._advance()
        else:
            self._awaiting = first
            self.send(first, LrRequest(self.pid, True))

    def _advance(self) -> None:
        """Secure forks past the cursor with non-blocking tests."""
        while self._cursor < len(self._order):
            target = self._order[self._cursor]
            if self.forks[target]:
                self.committed.add(target)
                self._cursor += 1
                continue
            self._awaiting = target
            self.send(target, LrRequest(self.pid, False))
            return
        self._awaiting = None
        self._eat()

    def _abort_attempt(self) -> None:
        self._order = []
        self._cursor = 0
        self._awaiting = None
        self.committed.clear()
        self._grant_deferred()
        low, high = self.retry_backoff
        delay = low + self._rng.random() * (high - low)
        self.set_timer(delay, self._compete, label=f"lr-retry@{self.pid}")

    def _grant_deferred(self) -> None:
        """Hand every deferred blocking request its now-free fork."""
        ready = sorted(n for n in self._deferred if self.forks.get(n) and n not in self.committed)
        for neighbor in ready:
            self._deferred.discard(neighbor)
            self.forks[neighbor] = False
            self.send(neighbor, Fork(self.pid))

    # -- message handling ------------------------------------------------
    def on_message(self, src: ProcessId, message) -> None:
        if isinstance(message, LrRequest):
            if not self.forks.get(src, False):
                raise ConfigurationError(
                    f"lehmann-rabin diner {self.pid} asked for a fork it does "
                    f"not hold (edge {src}-{self.pid}): FIFO channels make "
                    "every request arrive at the current holder"
                )
            if src in self.committed or self.is_eating:
                if message.blocking:
                    self._deferred.add(src)
                else:
                    self.send(src, LrBusy(self.pid))
            else:
                self.forks[src] = False
                self.send(src, Fork(self.pid))
        elif isinstance(message, Fork):
            self.forks[src] = True
            if self._awaiting == src and self.is_hungry:
                self._awaiting = None
                self.committed.add(src)
                self._cursor += 1
                self._advance()
        elif isinstance(message, LrBusy):
            if self._awaiting == src and self.is_hungry:
                self._abort_attempt()
        else:
            raise ConfigurationError(
                f"lehmann-rabin diner {self.pid} got unexpected {message!r} from {src}"
            )

    def _release(self) -> None:
        self._order = []
        self._cursor = 0
        self.committed.clear()
        self._grant_deferred()

    # -- membership: a dead edge's fork stays where it was ---------------
    def neighbor_rejoined(self, neighbor: ProcessId) -> None:
        super().neighbor_rejoined(neighbor)
        self.forks.setdefault(neighbor, False)

    def add_neighbor(self, neighbor: ProcessId) -> None:
        super().add_neighbor(neighbor)
        # Hygienic placement for a fresh edge: higher pid holds the fork
        # (colors may collide across epochs; pids never do).
        self.forks.setdefault(neighbor, self.pid > neighbor)

    def remove_neighbor(self, neighbor: ProcessId) -> None:
        super().remove_neighbor(neighbor)
        self.forks.pop(neighbor, None)
        self.committed.discard(neighbor)
        self._deferred.discard(neighbor)
        if neighbor in self._order and self.is_hungry:
            # The drawn order is stale; abort and redraw over live edges.
            self._abort_attempt()


def lehmann_rabin_table(graph: ConflictGraph, **table_kwargs) -> DiningTable:
    """A DiningTable scheduled by randomized Lehmann–Rabin dining."""
    return fixed_table(
        "lehmann_rabin_table", graph, table_kwargs,
        diner_factory=LehmannRabinDiner, detector=null_detector(),
    )
