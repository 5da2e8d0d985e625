"""Event records and the deterministic pending-event queue.

The queue is a **calendar (bucket) queue** ordered by
``(time, priority, sequence)``.  The sequence number is assigned at
insertion, so two events scheduled for the same instant at the same
priority always fire in scheduling order.  This total order is what makes
whole simulations replayable from a seed: the kernel never consults
wall-clock time or iteration order of hash-based containers when choosing
the next event.

Structure
---------
Virtual time is mapped to integer ticks (``tick = int(time / bucket_width)``)
and pending entries live in one of three places:

* ``_cur`` + ``_idx`` — the tick currently being drained, as a list sorted
  once (C timsort) when the tick becomes current; draining it is an index
  increment per event, not a heap pop.  Entries scheduled *at or before*
  the current tick after that sort (guard re-evaluations at ``now``, most
  commonly) go to ``_extra``, a small binary heap merged at the front by a
  single tuple compare.
* ``_ring`` — ``span`` plain lists, one per upcoming tick.  Scheduling into
  the near future is a single ``list.append`` — no ordering discipline is
  paid until the tick actually becomes current, at which point the bucket
  is sorted wholesale.
* ``_far`` — a heap fallback for events beyond the ring's horizon
  (long timers, scripted detector flips, crash plans).  Entries migrate
  ring-ward as the front advances.

Entries are plain tuples ``(time, subkey, action, label, event_or_None)``
where ``subkey = (priority << 56) | sequence`` packs the priority-then-FIFO
tie-break into one integer compare.  Equal times therefore resolve on the
second tuple element and two entries can never compare equal (sequences are
unique), so heap comparisons never reach the (unorderable) action element.

Fire-and-forget scheduling (message deliveries, guard re-evaluations — the
overwhelming majority of traffic) uses :meth:`EventQueue.push_transient`,
which stores the bare tuple and allocates **no** :class:`Event` handle at
all.  This is the end state of the "pool Event objects" idea: recycling
exposed handles through a free list is unsound here because the contract
allows cancelling an event after it fired (a stale holder could then
cancel the handle's next incarnation), while handle-less entries make the
common case allocation-free outright.  Cancellable work (timers) still
gets a real :class:`Event`.

Cancellation marks the handle dead and the queue discards dead entries
lazily when they surface; a compaction pass bounds the garbage when mass
cancellation (10k retired timers) would otherwise leave the structures
full of dead tuples.

Priorities let infrastructure events (message deliveries) and derived
events (guard re-evaluation) interleave predictably; see
:class:`EventPriority`.
"""

from __future__ import annotations

from enum import IntEnum
from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.errors import SchedulingError
from repro.timebase import Instant


class EventPriority(IntEnum):
    """Tie-break order for events scheduled at the same instant.

    Lower values fire first.  ``CONTROL`` covers crash injection and other
    environment actions: a crash scheduled at time *t* must take effect
    before a message delivery at *t*, matching the paper's fault model in
    which a crashed process sends and receives nothing from its crash time
    onward.
    """

    CONTROL = 0
    DELIVERY = 1
    TIMER = 2
    REEVALUATE = 3


# Entry subkey layout: priority in the high bits, sequence below, so one
# integer comparison implements the (priority, sequence) tie-break.
_PRIO_SHIFT = 56
_SEQ_MASK = (1 << _PRIO_SHIFT) - 1

# Entry tuple indices (documentation; the hot paths use literal ints).
_TIME, _SUBKEY, _ACTION, _LABEL, _EVENT = range(5)

Entry = Tuple[Instant, int, Optional[Callable[[], None]], str, Optional["Event"]]


class Event:
    """A scheduled callback's cancellable handle.

    Events support cancellation: :meth:`cancel` marks the event dead and
    the queue silently discards its entry when it surfaces.  This is
    cheaper than heap removal and is how actors retire timers.
    """

    __slots__ = ("time", "priority", "sequence", "action", "label", "cancelled", "_queue")

    def __init__(
        self,
        time: Instant,
        priority: EventPriority,
        sequence: int,
        action: Optional[Callable[[], None]],
        label: str = "",
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.action = action
        self.label = label
        self.cancelled = cancelled
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Prevent this event from firing; idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        self.action = None
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_cancelled()

    def sort_key(self) -> tuple:
        return (self.time, int(self.priority), self.sequence)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = ", cancelled" if self.cancelled else ""
        return (
            f"Event(time={self.time!r}, priority={int(self.priority)}, "
            f"sequence={self.sequence}, label={self.label!r}{state})"
        )


class EventQueue:
    """Deterministic calendar queue of scheduled callbacks.

    Parameters
    ----------
    bucket_width:
        Virtual-time width of one calendar tick.  The default suits the
        dining workloads, whose timer and latency scales sit in the
        0.001–1.0 range; correctness does not depend on the value, only
        the constant factor does.
    span:
        Number of near-future ticks kept as plain append-lists; events
        past ``span * bucket_width`` from the front fall back to the
        ``_far`` heap.
    """

    __slots__ = (
        "_width",
        "_inv",
        "_span",
        "_ring",
        "_base",
        "_cur",
        "_idx",
        "_extra",
        "_far",
        "_near",
        "_live",
        "_dead",
        "_seq",
    )

    def __init__(self, *, bucket_width: float = 0.05, span: int = 256) -> None:
        if bucket_width <= 0.0:
            raise SchedulingError(f"bucket_width must be positive, got {bucket_width!r}")
        if span < 2:
            raise SchedulingError(f"span must be at least 2, got {span!r}")
        self._width = float(bucket_width)
        self._inv = 1.0 / self._width
        self._span = int(span)
        self._ring: List[list] = [[] for _ in range(self._span)]
        self._base = 0  # tick currently owned by _cur
        self._cur: list = []  # sorted list: the current tick's entries
        self._idx = 0  # drain cursor into _cur
        self._extra: list = []  # heap: late arrivals with tick <= _base
        self._far: list = []  # heap: entries with tick >= _base + span
        self._near = 0  # entries (live or dead) stored in the ring
        self._live = 0
        self._dead = 0
        self._seq = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def push(
        self,
        time: Instant,
        priority: EventPriority,
        action: Callable[[], None],
        *,
        label: str = "",
    ) -> Event:
        """Schedule ``action`` at ``time`` and return the (cancellable) event."""
        self._seq = sequence = self._seq + 1
        event = Event(time, priority, sequence, action, label)
        event._queue = self
        entry = (time, (priority << _PRIO_SHIFT) | sequence, action, label, event)
        tick = int(time * self._inv)
        base = self._base
        if tick <= base:
            heappush(self._extra, entry)
        elif tick < base + self._span:
            self._ring[tick % self._span].append(entry)
            self._near += 1
        else:
            heappush(self._far, entry)
        self._live += 1
        return event

    def push_transient(
        self,
        time: Instant,
        priority: EventPriority,
        action: Callable[[], None],
        label: str = "",
    ) -> None:
        """Schedule ``action`` with no cancellation handle (fire-and-forget).

        The hot path for message deliveries and guard re-evaluations:
        stores one tuple, allocates no :class:`Event`.  The insert logic
        is inlined (this is called once per message sent).
        """
        self._seq = sequence = self._seq + 1
        entry = (time, (priority << _PRIO_SHIFT) | sequence, action, label, None)
        tick = int(time * self._inv)
        base = self._base
        if tick <= base:
            heappush(self._extra, entry)
        elif tick < base + self._span:
            self._ring[tick % self._span].append(entry)
            self._near += 1
        else:
            heappush(self._far, entry)
        self._live += 1

    def _insert(self, entry: Entry) -> None:
        tick = int(entry[0] * self._inv)
        base = self._base
        if tick <= base:
            heappush(self._extra, entry)
        elif tick < base + self._span:
            self._ring[tick % self._span].append(entry)
            self._near += 1
        else:
            heappush(self._far, entry)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def _settle(self) -> Optional[Entry]:
        """Advance the calendar until the overall minimum entry sits at the
        front; return it (without removing), or None when empty.

        This is the single place that skips cancelled entries, so ``pop``,
        ``pop_due`` and ``peek_time`` can never disagree about what the
        front of the queue is.  The front is either ``_cur[_idx]`` or
        ``_extra[0]``; callers discriminate by identity (see
        :meth:`_remove_front`).
        """
        while True:
            cur = self._cur
            idx = self._idx
            stop = len(cur)
            while idx < stop:
                entry = cur[idx]
                event = entry[4]
                if event is not None and event.cancelled:
                    idx += 1
                    self._dead -= 1
                    continue
                break
            self._idx = idx
            extra = self._extra
            while extra:
                event = extra[0][4]
                if event is not None and event.cancelled:
                    heappop(extra)
                    self._dead -= 1
                    continue
                break
            if idx < stop:
                entry = cur[idx]
                if extra and extra[0] < entry:
                    return extra[0]
                return entry
            if extra:
                return extra[0]
            if self._near:
                # Advance to the next populated tick and make its bucket
                # current.  _near counts stored ring entries, so a
                # populated bucket exists within the next span-1 slots.
                base = self._base
                ring = self._ring
                span = self._span
                while True:
                    base += 1
                    bucket = ring[base % span]
                    if bucket:
                        break
                self._base = base
                ring[base % span] = []
                self._near -= len(bucket)
                # Sorting once (C timsort) beats heapifying + k heap pops;
                # subkeys are unique so tuple compares never reach the
                # action element.
                bucket.sort()
                self._cur = bucket
                self._idx = 0
                if self._far:
                    self._pull_far()
                continue
            if self._far:
                # The near window is empty: jump the calendar to the
                # earliest far entry and re-window around it.
                far = self._far
                while far:
                    event = far[0][4]
                    if event is not None and event.cancelled:
                        heappop(far)
                        self._dead -= 1
                        continue
                    break
                if not far:
                    return None
                self._base = int(far[0][0] * self._inv)
                self._pull_far()
                continue
            return None

    def _remove_front(self, entry: Entry) -> None:
        """Remove the entry :meth:`_settle` just returned."""
        extra = self._extra
        if extra and extra[0] is entry:
            heappop(extra)
        else:
            self._idx += 1
        self._live -= 1

    def _pull_far(self) -> None:
        """Migrate far entries that now fall inside the near window."""
        far = self._far
        base = self._base
        limit = base + self._span
        inv = self._inv
        ring = self._ring
        span = self._span
        near = 0
        while far:
            entry = far[0]
            tick = int(entry[0] * inv)
            if tick >= limit:
                break
            heappop(far)
            event = entry[4]
            if event is not None and event.cancelled:
                self._dead -= 1
                continue
            if tick <= base:
                heappush(self._extra, entry)
            else:
                ring[tick % span].append(entry)
                near += 1
        self._near += near

    def pop(self) -> Event:
        """Remove and return the next live event.

        Raises :class:`SchedulingError` when the queue holds no live events;
        callers should test truthiness first.  Transient entries are
        materialized into an :class:`Event` here (cold path — the kernel
        drains via :meth:`pop_due` instead).
        """
        entry = self._settle()
        if entry is None:
            raise SchedulingError("pop from an empty event queue")
        self._remove_front(entry)
        event = entry[4]
        if event is None:
            subkey = entry[1]
            event = Event(
                entry[0],
                EventPriority(subkey >> _PRIO_SHIFT),
                subkey & _SEQ_MASK,
                entry[2],
                entry[3],
            )
        else:
            event._queue = None
        return event

    def pop_due(self, until: Instant) -> Optional[Entry]:
        """Kernel fast path: remove and return the raw entry of the next
        live event with ``time <= until``, or None.

        Fuses the historical ``peek_time`` + ``pop`` pair into one settle
        and hands back the tuple itself, so firing a transient event
        allocates nothing.  The common case — a live entry at the drain
        cursor and no late same-tick arrivals — costs one list index, two
        compares and an increment.
        """
        cur = self._cur
        idx = self._idx
        if idx < len(cur):
            entry = cur[idx]
            event = entry[4]
            if event is None or not event.cancelled:
                extra = self._extra
                if not extra or entry < extra[0]:
                    if entry[0] > until:
                        return None
                    self._idx = idx + 1
                    self._live -= 1
                    if event is not None:
                        event._queue = None
                    return entry
        entry = self._settle()
        if entry is None or entry[0] > until:
            return None
        self._remove_front(entry)
        event = entry[4]
        if event is not None:
            event._queue = None
        return entry

    def peek_time(self) -> Optional[Instant]:
        """Return the firing time of the next live event, or None if empty."""
        entry = self._settle()
        return None if entry is None else entry[0]

    # ------------------------------------------------------------------
    # Cancellation accounting
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` to keep the live count honest.

        Dead entries are discarded lazily when they surface; when the
        dead outnumber the live (mass timer retirement) a compaction pass
        rebuilds the structures so garbage stays bounded by
        ``max(64, live)`` instead of growing without limit.
        """
        self._live -= 1
        self._dead = dead = self._dead + 1
        if dead > 64 and dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry from every structure."""
        # Filtering the undrained tail of _cur preserves its sortedness.
        cur = [
            e for e in self._cur[self._idx :] if e[4] is None or not e[4].cancelled
        ]
        self._cur = cur
        self._idx = 0
        extra = [e for e in self._extra if e[4] is None or not e[4].cancelled]
        heapify(extra)
        self._extra = extra
        near = 0
        ring = self._ring
        for index in range(self._span):
            bucket = ring[index]
            if bucket:
                kept = [e for e in bucket if e[4] is None or not e[4].cancelled]
                ring[index] = kept
                near += len(kept)
        self._near = near
        far = [e for e in self._far if e[4] is None or not e[4].cancelled]
        heapify(far)
        self._far = far
        self._dead = 0

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def storage_size(self) -> int:
        """Total entries physically stored, live **and** dead.

        Regression guard for the dead-entry leak: after mass cancellation
        this must stay within the compaction bound, not grow with the
        number of cancels.
        """
        return (
            len(self._cur)
            - self._idx
            + len(self._extra)
            + self._near
            + len(self._far)
        )
