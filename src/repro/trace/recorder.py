"""Trace recorders: the append-only event log of a run.

One recorder is shared by all actors of a simulation.  Records arrive in
arrival order (which, by kernel determinism, is a total order consistent
with virtual time) and typed accessors keep analysis code from
isinstance-scanning the raw list.

Two storage strategies:

* :class:`TraceRecorder` — everything in memory, type-indexed; the
  default, fastest for analysis-heavy workloads.
* :class:`StreamingTraceRecorder` — bounded memory: every record is
  spilled to a JSONL file (via :mod:`repro.trace.serialize`) and only a
  small tail stays resident.  Accessors stream back from disk, so all
  analysis code works unchanged — slower per query, but a soak run's
  footprint no longer grows with its horizon.

Both support :meth:`~TraceRecorder.add_listener`, the hook online
consumers (metrics instrumentation, invariant dashboards) use to observe
every record as it is written without owning the recorder.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Callable, Iterator, List, Optional, Type, TypeVar

from repro.timebase import Instant
from repro.trace.events import (
    Crash,
    DoorwayChange,
    MembershipChange,
    PhaseChange,
    ProtocolStep,
    SuspicionChange,
    TransientFault,
)

R = TypeVar("R")


class TraceRecorder:
    """Append-only, type-indexed event log."""

    def __init__(self) -> None:
        self._records: List[object] = []
        self._by_type: dict = {}
        self._listeners: List[Callable[[object], None]] = []
        self._typed_listeners: dict = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, record: object) -> None:
        """Append one record (any of the types in :mod:`repro.trace.events`)."""
        self._store(record)
        if self._listeners:
            for listener in self._listeners:
                listener(record)
        if self._typed_listeners:
            for listener in self._typed_listeners.get(type(record), ()):
                listener(record)

    def _store(self, record: object) -> None:
        self._records.append(record)
        by_type = self._by_type
        cls = type(record)
        bucket = by_type.get(cls)
        if bucket is None:
            bucket = by_type[cls] = []
        bucket.append(record)

    def add_listener(
        self,
        listener: Callable[[object], None],
        *,
        types: Optional[tuple] = None,
    ) -> None:
        """Invoke ``listener(record)`` on every subsequent record.

        With ``types``, the listener only receives records of exactly
        those classes — the record loop then skips it with a single dict
        lookup instead of calling into a dispatcher that discards the
        record, which is what keeps high-volume consumers (the metrics
        probes) cheap.
        """
        if types is None:
            self._listeners.append(listener)
        else:
            for record_type in types:
                self._typed_listeners.setdefault(record_type, []).append(listener)

    # Convenience emitters used by the actors --------------------------
    def phase_change(self, time: Instant, pid: int, old_phase: str, new_phase: str) -> None:
        self.record(PhaseChange(time, pid, old_phase, new_phase))

    def doorway_change(self, time: Instant, pid: int, inside: bool) -> None:
        self.record(DoorwayChange(time, pid, inside))

    def suspicion_change(self, time: Instant, observer: int, suspect: int, suspected: bool) -> None:
        self.record(SuspicionChange(time, observer, suspect, suspected))

    def crash(self, time: Instant, pid: int) -> None:
        self.record(Crash(time, pid))

    def membership_change(
        self, time: Instant, epoch: int, verb: str, pid: int, edges: tuple = ()
    ) -> None:
        self.record(MembershipChange(time, epoch, verb, pid, edges))

    def protocol_step(self, time: Instant, pid: int, action: str, detail: Optional[str] = None) -> None:
        self.record(ProtocolStep(time, pid, action, detail))

    def transient_fault(self, time: Instant, pid: int, detail: str) -> None:
        self.record(TransientFault(time, pid, detail))

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[object]:
        return iter(self._records)

    def of_type(self, record_type: Type[R]) -> List[R]:
        """All records of exactly ``record_type``, in arrival order."""
        return list(self._by_type.get(record_type, ()))

    def phase_changes(self, pid: Optional[int] = None) -> List[PhaseChange]:
        records = self.of_type(PhaseChange)
        if pid is None:
            return records
        return [r for r in records if r.pid == pid]

    def crashes(self) -> List[Crash]:
        return self.of_type(Crash)

    def protocol_steps(self, pid: Optional[int] = None) -> List[ProtocolStep]:
        records = self.of_type(ProtocolStep)
        if pid is None:
            return records
        return [r for r in records if r.pid == pid]


class StreamingTraceRecorder(TraceRecorder):
    """Bounded-memory recorder that spills every record to JSONL.

    Parameters
    ----------
    path:
        Destination JSONL file (one record per line, same format as
        :func:`repro.trace.serialize.dump_path`, so the spill file is
        directly loadable with :func:`~repro.trace.serialize.load_path`).
    keep_last:
        How many recent records to keep resident for quick inspection
        (:meth:`tail`); the full history lives only on disk.
    flush_every:
        Records buffered between file writes.

    Accessors (``of_type``, iteration, the typed helpers) re-stream the
    file, so post-hoc analysis behaves exactly as with the in-memory
    recorder — the trade is bounded resident memory for re-parse cost,
    which is the right trade for long soak runs.
    """

    def __init__(self, path, *, keep_last: int = 1000, flush_every: int = 1000) -> None:
        super().__init__()
        # Late import: serialize imports this module at load time.
        from repro.trace import serialize as _serialize

        self._serialize = _serialize
        self._path = str(path)
        self._count = 0
        self._tail: deque = deque(maxlen=int(keep_last))
        self._buffer: List[str] = []
        self._flush_every = max(1, int(flush_every))
        self._stream = open(self._path, "w", encoding="utf-8")
        self._closed = False

    @property
    def path(self) -> str:
        return self._path

    # ------------------------------------------------------------------
    # Recording (bounded)
    # ------------------------------------------------------------------
    def _store(self, record: object) -> None:
        self._count += 1
        self._tail.append(record)
        self._buffer.append(json.dumps(self._serialize.record_to_dict(record), sort_keys=True))
        if len(self._buffer) >= self._flush_every:
            self._flush()

    def _flush(self) -> None:
        if self._buffer:
            self._stream.write("\n".join(self._buffer))
            self._stream.write("\n")
            self._buffer.clear()
        self._stream.flush()

    def close(self) -> None:
        """Flush and close the spill file; the recorder becomes read-only."""
        if not self._closed:
            self._flush()
            self._stream.close()
            self._closed = True

    # ------------------------------------------------------------------
    # Access (streamed back from disk)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[object]:
        if not self._closed:
            self._flush()
        with open(self._path, "r", encoding="utf-8") as stream:
            for line in stream:
                line = line.strip()
                if line:
                    yield self._serialize.record_from_dict(json.loads(line))

    def of_type(self, record_type: Type[R]) -> List[R]:
        return [record for record in self if type(record) is record_type]

    def tail(self) -> List[object]:
        """The most recent ``keep_last`` records (resident, no disk read)."""
        return list(self._tail)

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
