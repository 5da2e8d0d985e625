"""Epoched topology views over a log of membership deltas.

The paper fixes the conflict graph ``C = (Π, E)`` for the lifetime of
the system; real daemon deployments see joins, leaves,
recover-and-rejoin, and edges that appear and disappear.  This module
lifts the static assumption without touching :class:`ConflictGraph`
itself: the immutable graph stays the *per-epoch snapshot*, and a
:class:`MembershipLog` of timestamped :class:`MembershipDelta` records
produces the view at any instant, with a monotone epoch counter (epoch 0
is the initial graph; every applied delta increments it).

The replay model keeps, per node, a *latent* neighbor set plus an
*active* flag:

* ``join(pid, edges)`` — a brand-new process arrives; its edges define
  its latent neighbor set, and any edge whose other endpoint is active
  materializes immediately.
* ``leave(pid)`` — the process departs; every incident edge leaves the
  view but its latent neighbor set survives (what a ``rejoin`` restores).
* ``rejoin(pid)`` — a departed process returns with fresh (hygienically
  re-initialized) per-edge state; latent edges to active endpoints
  rematerialize.
* ``add_edge(a, b)`` / ``remove_edge(a, b)`` — the latent edge set
  changes; the live view changes iff both endpoints are active.

:class:`TopologyTimeline` binds an initial graph to a log and answers
the queries the rest of the stack needs: the view (and epoch) at an
instant, per-edge existence intervals, and the *union graph* — every node and edge that ever exists, which is
what colorings and failure detectors are built over so that a process
joining at epoch 7 already has a priority color distinct from all its
eventual neighbors.  When the log is empty the union **is** the initial
graph object, so static runs are wired bit-identically to a world where
this module does not exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.graphs.conflict import ConflictGraph, Edge, ProcessId, _normalize_edge

#: The membership verbs, in the vocabulary both substrates execute.
VERBS = ("join", "leave", "rejoin", "add_edge", "remove_edge")


@dataclass(frozen=True)
class MembershipDelta:
    """One timestamped membership change.

    ``pid`` is the subject process for ``join``/``leave``/``rejoin``;
    for the edge verbs the subject pair is ``(pid, peer)``.  ``edges``
    carries a ``join``'s initial neighbor list.
    """

    time: float
    verb: str
    pid: ProcessId
    edges: Tuple[ProcessId, ...] = ()
    peer: Optional[ProcessId] = None

    def __post_init__(self) -> None:
        if self.verb not in VERBS:
            raise ConfigurationError(
                f"unknown membership verb {self.verb!r}; known: {VERBS}"
            )
        if self.time < 0:
            raise ConfigurationError(f"membership delta before t=0: {self.time!r}")
        if self.verb in ("add_edge", "remove_edge"):
            if self.peer is None:
                raise ConfigurationError(f"{self.verb} of {self.pid} needs a peer")
            _normalize_edge(self.pid, self.peer)  # rejects self-loops
        elif self.verb == "join" and not self.edges:
            raise ConfigurationError(
                f"join of {self.pid} needs at least one edge (an isolated "
                "diner never conflicts and never exercises the protocol)"
            )

    def describe(self) -> str:
        if self.verb == "join":
            return f"join {self.pid}~{list(self.edges)}@{self.time:g}"
        if self.peer is not None:
            return f"{self.verb} {self.pid}-{self.peer}@{self.time:g}"
        return f"{self.verb} {self.pid}@{self.time:g}"

    def to_json(self) -> dict:
        data = {"time": self.time, "verb": self.verb, "pid": self.pid}
        if self.edges:
            data["edges"] = list(self.edges)
        if self.peer is not None:
            data["peer"] = self.peer
        return data

    @classmethod
    def from_json(cls, data: dict) -> "MembershipDelta":
        return cls(
            time=float(data["time"]),
            verb=str(data["verb"]),
            pid=int(data["pid"]),
            edges=tuple(int(e) for e in data.get("edges") or ()),
            peer=int(data["peer"]) if data.get("peer") is not None else None,
        )


class MembershipLog:
    """An ordered, validated sequence of deltas.

    Construction sorts by ``(time, original position)`` — same-instant
    deltas apply in the order given — and rejects sequences that cannot
    replay (leaving a node that is not active, rejoining one that never
    left, joining an existing pid, …), so every log that constructs is
    replayable on both substrates.
    """

    def __init__(self, deltas: Iterable[MembershipDelta] = ()) -> None:
        ordered = sorted(enumerate(deltas), key=lambda item: (item[1].time, item[0]))
        self._deltas: Tuple[MembershipDelta, ...] = tuple(d for _, d in ordered)

    @property
    def deltas(self) -> Tuple[MembershipDelta, ...]:
        return self._deltas

    def __len__(self) -> int:
        return len(self._deltas)

    def __iter__(self) -> Iterator[MembershipDelta]:
        return iter(self._deltas)

    def __bool__(self) -> bool:
        return bool(self._deltas)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MembershipLog) and self._deltas == other._deltas

    def __hash__(self) -> int:
        return hash(self._deltas)

    def last_time(self) -> float:
        return self._deltas[-1].time if self._deltas else 0.0

    def to_json(self) -> List[dict]:
        return [d.to_json() for d in self._deltas]

    @classmethod
    def from_json(cls, data: Sequence[dict]) -> "MembershipLog":
        return cls(MembershipDelta.from_json(d) for d in data)

    def describe(self) -> str:
        return "; ".join(d.describe() for d in self._deltas) or "(static)"


class _Replay:
    """Mutable replay state: latent neighbor sets + the active set."""

    def __init__(self, initial: ConflictGraph) -> None:
        self.active = set(initial.nodes)
        self.latent: Dict[ProcessId, set] = {
            pid: set(initial.neighbors(pid)) for pid in initial.nodes
        }

    def apply(self, delta: MembershipDelta) -> None:
        pid = delta.pid
        if delta.verb == "join":
            if pid in self.latent:
                raise ConfigurationError(
                    f"{delta.describe()}: pid {pid} already exists (use rejoin)"
                )
            self.latent[pid] = set()
            for peer in delta.edges:
                if peer == pid:
                    raise ConfigurationError(f"{delta.describe()}: self-loop")
                if peer not in self.latent:
                    raise ConfigurationError(
                        f"{delta.describe()}: unknown neighbor {peer}"
                    )
                self.latent[pid].add(peer)
                self.latent[peer].add(pid)
            self.active.add(pid)
        elif delta.verb == "leave":
            if pid not in self.active:
                raise ConfigurationError(
                    f"{delta.describe()}: pid {pid} is not active"
                )
            self.active.discard(pid)
        elif delta.verb == "rejoin":
            if pid not in self.latent:
                raise ConfigurationError(
                    f"{delta.describe()}: pid {pid} never existed (use join)"
                )
            if pid in self.active:
                raise ConfigurationError(
                    f"{delta.describe()}: pid {pid} is already active"
                )
            self.active.add(pid)
        elif delta.verb == "add_edge":
            peer = delta.peer
            if pid not in self.latent or peer not in self.latent:
                raise ConfigurationError(
                    f"{delta.describe()}: unknown endpoint"
                )
            self.latent[pid].add(peer)
            self.latent[peer].add(pid)
        else:  # remove_edge
            peer = delta.peer
            if peer not in self.latent.get(pid, ()):
                raise ConfigurationError(
                    f"{delta.describe()}: edge does not exist"
                )
            self.latent[pid].discard(peer)
            self.latent[peer].discard(pid)

    def view_edges(self) -> set:
        edges = set()
        for pid in self.active:
            for peer in self.latent[pid]:
                if peer in self.active and pid < peer:
                    edges.add((pid, peer))
        return edges

    def snapshot(self) -> ConflictGraph:
        return ConflictGraph(self.active, self.view_edges())


@dataclass(frozen=True)
class TopologyView:
    """The conflict graph as it stands at one instant."""

    epoch: int
    time: float
    graph: ConflictGraph


class TopologyTimeline:
    """An initial graph bound to a membership log.

    Snapshots are materialized lazily-once at construction (the log is
    validated by replaying it); every query after that is a lookup.
    Epoch ``k`` is the view after the first ``k`` deltas; epoch 0 is the
    initial graph *object* — static callers holding the timeline of an
    empty log observe the exact graph they passed in.
    """

    def __init__(self, initial: ConflictGraph, log: Optional[MembershipLog] = None) -> None:
        self.initial = initial
        self.log = log if log is not None else MembershipLog()
        self._views: List[TopologyView] = [TopologyView(0, 0.0, initial)]
        replay = _Replay(initial)
        previous = initial
        for epoch, delta in enumerate(self.log, start=1):
            replay.apply(delta)
            previous = self._snapshot_after(previous, replay, delta)
            self._views.append(TopologyView(epoch, delta.time, previous))

    @staticmethod
    def _snapshot_after(
        previous: ConflictGraph, replay: _Replay, delta: MembershipDelta
    ) -> ConflictGraph:
        """The next snapshot via the structural-sharing delta constructor."""
        want_nodes = replay.active
        want_edges = replay.view_edges()
        have_nodes = set(previous.nodes)
        have_edges = set(previous.edges)
        return previous.with_delta(
            add_nodes=want_nodes - have_nodes,
            remove_nodes=have_nodes - want_nodes,
            add_edges=want_edges - have_edges,
            remove_edges={
                e
                for e in have_edges - want_edges
                # with_delta removes a dropped node's edges implicitly.
                if e[0] in want_nodes and e[1] in want_nodes
            },
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def final_epoch(self) -> int:
        return len(self._views) - 1

    def snapshots(self) -> Tuple[TopologyView, ...]:
        return tuple(self._views)

    def view_at(self, time: float) -> TopologyView:
        """The view in force at ``time`` (deltas apply at their instant)."""
        current = self._views[0]
        for view in self._views[1:]:
            if view.time <= time:
                current = view
            else:
                break
        return current

    def epoch_at(self, time: float) -> int:
        return self.view_at(time).epoch

    def final(self) -> TopologyView:
        return self._views[-1]

    def union(self) -> ConflictGraph:
        """Every node and edge that ever exists on this timeline.

        With an empty log this is the initial graph *object* — callers
        wiring colorings/detectors from the union are bit-identical to
        static construction.
        """
        if not self.log:
            return self.initial
        nodes = set(self.initial.nodes)
        edges = {tuple(e) for e in self.initial.edges}
        latent: Dict[ProcessId, set] = {
            pid: set(self.initial.neighbors(pid)) for pid in self.initial.nodes
        }
        for delta in self.log:
            if delta.verb == "join":
                nodes.add(delta.pid)
                latent.setdefault(delta.pid, set())
                for peer in delta.edges:
                    edges.add(_normalize_edge(delta.pid, peer))
            elif delta.verb == "add_edge":
                edges.add(_normalize_edge(delta.pid, delta.peer))
        return ConflictGraph(nodes, edges)

    def edge_intervals(self) -> Dict[Edge, List[Tuple[float, Optional[float]]]]:
        """Per-edge existence intervals ``[(start, end-or-None), ...]``.

        ``None`` ends an interval still open at the final epoch.  The
        ◇WX checker scopes overlap windows to these.
        """
        intervals: Dict[Edge, List[Tuple[float, Optional[float]]]] = {}
        open_since: Dict[Edge, float] = {}
        current: set = set()
        for view in self._views:
            edges = set(view.graph.edges)
            for edge in edges - current:
                open_since[edge] = view.time
            for edge in current - edges:
                intervals.setdefault(edge, []).append((open_since.pop(edge), view.time))
            current = edges
        for edge, start in sorted(open_since.items()):
            intervals.setdefault(edge, []).append((start, None))
        return intervals

    def describe(self) -> str:
        return (
            f"timeline: {len(self.initial)} node(s) initially, "
            f"{self.final_epoch} delta(s), {self.log.describe()}"
        )
