"""CheckSuite: compose checkers, feed one event stream, emit one Verdict."""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Type

from repro.checks.base import Checker
from repro.checks.properties import (
    OVERTAKING,
    PROGRESS,
    WX_SAFETY,
    ChannelBoundChecker,
    DinerLocalChecker,
    FifoChecker,
    ForkUniquenessChecker,
    OvertakingChecker,
    PendingPingChecker,
    ProgressChecker,
    QuiescenceChecker,
    WxSafetyChecker,
    neighbor_map,
)
from repro.checks.verdict import Verdict, Violation

Edge = Tuple[int, int]


@dataclass
class CheckConfig:
    """Shared knobs of a standard suite.

    ``None`` for a window parameter (``settle``, ``patience``,
    ``overtaking_after``, ``quiescence_grace``) means the corresponding
    eventual property is reported *informationally* — counters and
    witnesses but never a ``fail`` — because judging an eventual claim
    needs a concrete cutoff.  Substrates that know their convergence
    window (the cluster, ``repro check`` invocations, experiments) set
    them explicitly.
    """

    channel_bound: int = 4
    layer: Optional[str] = "dining"
    settle: Optional[float] = None
    patience: Optional[float] = None
    overtaking_bound: int = 2
    overtaking_after: Optional[float] = None
    quiescence_grace: Optional[float] = None
    correct: Optional[Sequence[int]] = None
    crash_time_of: Optional[Callable[[int], Optional[float]]] = None
    #: Attribute wall-clock per property (see CheckSuite ``profile``).
    profile: bool = False


class CheckSuite:
    """Drives a set of checkers over one normalized event stream.

    ``observe`` dispatches each event only to the checkers whose
    ``interests`` cover its type; violations a checker reports from
    ``observe`` are forwarded to ``on_violation`` (strict adapters raise
    there).  ``finalize(horizon=...)`` collects every checker's
    :class:`~repro.checks.verdict.PropertyVerdict` into a single
    :class:`~repro.checks.verdict.Verdict`.
    """

    def __init__(
        self,
        checkers: Sequence[Checker],
        *,
        on_violation: Optional[Callable[[Violation], None]] = None,
        profile: bool = False,
    ) -> None:
        self.checkers: Tuple[Checker, ...] = tuple(checkers)
        self.on_violation = on_violation
        self.events_observed = 0
        self.last_event_time: Optional[float] = None
        self.violations: List[Violation] = []
        self._finalizers: List[Callable[[], None]] = []
        self._dispatch: Dict[Type, List[Checker]] = {}
        for checker in self.checkers:
            for event_type in checker.interests:
                self._dispatch.setdefault(event_type, []).append(checker)
        # Per-property wall-clock attribution (the ROADMAP "checks under
        # 10%" work needs to know *which* checker to optimize).  Off by
        # default: the profiled dispatch table is a parallel structure,
        # so the unprofiled observe loop is untouched.
        self._profile_cells: Optional[Dict[str, List[float]]] = None
        self._profiled_dispatch: Dict[Type, List[Tuple[Checker, List[float]]]] = {}
        if profile:
            self._profile_cells = {c.name: [0.0, 0.0] for c in self.checkers}
            self._profiled_dispatch = {
                event_type: [(c, self._profile_cells[c.name]) for c in checkers_]
                for event_type, checkers_ in self._dispatch.items()
            }

    def add_finalizer(self, hook: Callable[[], None]) -> None:
        """Run ``hook()`` at the start of every :meth:`finalize`.

        Batching adapters use this to flush deferred counters (idempotent
        hooks only: ``finalize`` may be called more than once per run).
        """
        self._finalizers.append(hook)

    def checker(self, name: str) -> Checker:
        for checker in self.checkers:
            if checker.name == name:
                return checker
        raise KeyError(name)

    def bind_windows(
        self,
        settle: Optional[float] = None,
        patience: Optional[float] = None,
        after: Optional[float] = None,
    ) -> None:
        """Bind the eventual properties' judgement windows before finalize.

        ``settle`` bounds ◇WX, ``patience`` wait-freedom, ``after``
        ◇2-BW; a window left ``None`` stays as configured (default:
        informational).
        """
        if settle is not None:
            self.checker(WX_SAFETY).settle = settle
        if patience is not None:
            self.checker(PROGRESS).patience = patience
        if after is not None:
            self.checker(OVERTAKING).after = after

    def observe(self, event) -> List[Violation]:
        """Feed one event; returns (and records) immediate violations."""
        index = self.events_observed
        self.events_observed += 1
        time = event.time
        if self.last_event_time is None or time > self.last_event_time:
            self.last_event_time = time
        found: List[Violation] = []
        if self._profile_cells is None:
            for checker in self._dispatch.get(type(event), ()):
                reported = checker.observe(event, index)
                if reported:
                    found.extend(reported)
        else:
            for checker, cell in self._profiled_dispatch.get(type(event), ()):
                started = perf_counter()
                reported = checker.observe(event, index)
                cell[0] += perf_counter() - started
                cell[1] += 1.0
                if reported:
                    found.extend(reported)
        if found:
            self.violations.extend(found)
            if self.on_violation is not None:
                for violation in found:
                    self.on_violation(violation)
        return found

    def feed(self, events: Iterable) -> "CheckSuite":
        for event in events:
            self.observe(event)
        return self

    @property
    def profiling(self) -> bool:
        """Whether per-property wall-clock attribution is on."""
        return self._profile_cells is not None

    def profile_add(self, name: str, seconds: float, events: int = 0) -> None:
        """Attribute adapter-side work that bypasses ``observe``.

        Batching adapters (the kernel's) judge some properties inline and
        settle in bulk; this lets them charge that wall-clock to a named
        account so the attribution still sums to what checking truly
        cost.  No-op when profiling is off.
        """
        cells = self._profile_cells
        if cells is None:
            return
        cell = cells.get(name)
        if cell is None:
            cell = cells[name] = [0.0, 0.0]
        cell[0] += seconds
        cell[1] += events

    def profile_totals(self) -> Dict[str, Tuple[float, int]]:
        """Per-property ``(wall_seconds, observe_calls)`` attribution.

        Empty unless the suite was built with ``profile=True``.  Covers
        the dispatched ``observe`` calls plus each checker's ``finalize``
        (batching adapters that bypass ``observe`` attribute their replay
        there, so the totals still name the right checker to optimize).
        """
        if self._profile_cells is None:
            return {}
        return {
            name: (cell[0], int(cell[1]))
            for name, cell in self._profile_cells.items()
            if cell[0] or cell[1]
        }

    def finalize(self, horizon: Optional[float] = None) -> Verdict:
        """Judge the stream up to ``horizon`` (default: last event time)."""
        for hook in self._finalizers:
            hook()
        if horizon is None:
            horizon = self.last_event_time
        for checker in self.checkers:
            if hasattr(checker, "horizon"):
                checker.horizon = horizon
        properties = {}
        cells = self._profile_cells
        for checker in self.checkers:
            if cells is None:
                properties[checker.name] = checker.finalize()
            else:
                cell = cells[checker.name]
                started = perf_counter()
                properties[checker.name] = checker.finalize()
                cell[0] += perf_counter() - started
        return Verdict(
            properties=properties,
            events_observed=self.events_observed,
            horizon=horizon,
        )


def eventual_checkers(
    edges: Sequence[Edge], config: CheckConfig, *, membership=None
) -> List[Checker]:
    """The ◇WX, wait-freedom and ◇2-BW checkers of a :func:`standard_suite`.

    ``edges`` is the union edge set, each ``(a, b)`` with ``a < b``; a
    caller judging a recorded trace afresh (the dining table's queries)
    gets the same judges as the run's own suite.  ◇WX and overtaking
    read one neighbor map when they judge the same edges (a static run).
    """
    intervals = epoch_at = None
    neighbors = final_neighbors = neighbor_map(edges)
    if membership is not None:
        intervals = membership.edge_intervals()
        epoch_at = membership.epoch_at
        final_neighbors = neighbor_map(sorted(membership.final().graph.edges))
    return [
        WxSafetyChecker(
            neighbors, settle=config.settle, intervals=intervals, epoch_at=epoch_at
        ),
        ProgressChecker(patience=config.patience, correct=config.correct),
        OvertakingChecker(
            final_neighbors, bound=config.overtaking_bound, after=config.overtaking_after
        ),
    ]


def standard_suite(
    edges: Sequence[Edge],
    config: Optional[CheckConfig] = None,
    *,
    state_probes: bool = True,
    diner_locals: bool = True,
    on_violation: Optional[Callable[[Violation], None]] = None,
    profile: bool = False,
    membership=None,
) -> CheckSuite:
    """The full paper-property suite over a conflict graph's edge set.

    ``state_probes=False`` omits the state-based checkers (fork
    uniqueness, diner-local invariants) for substrates that cannot probe
    live state — offline replay reports them ``skip`` either way, so the
    flag is purely a construction convenience.  ``diner_locals=False``
    additionally omits the Algorithm-1-specific local invariants for
    tables running baseline diners that lack the probed fields.

    A churning run passes its
    :class:`~repro.graphs.membership.TopologyTimeline` as ``membership``
    (duck-typed: ``edge_intervals()``, ``epoch_at``, ``final()``) and the
    *union* edge set (every edge that ever exists) as ``edges``.  The
    checkers are the same ones a static run gets: ◇WX scopes each
    overlap to its edge's existence intervals, overtaking is judged on
    the final topology, and witnesses name their epoch.  A static run is
    the one-epoch case, every edge existing throughout.
    """
    config = config or CheckConfig()
    edges = tuple(
        sorted(e if type(e) is tuple and e[0] < e[1] else tuple(sorted(e)) for e in edges)
    )
    epoch_at = membership.epoch_at if membership is not None else None
    checkers: List[Checker] = []
    if state_probes:
        checkers.append(ForkUniquenessChecker(edges))
        if diner_locals:
            checkers.append(DinerLocalChecker())
    checkers.append(
        ChannelBoundChecker(
            bound=config.channel_bound, layer=config.layer, epoch_at=epoch_at
        )
    )
    checkers.append(FifoChecker())
    checkers.extend(eventual_checkers(edges, config, membership=membership))
    checkers.append(
        QuiescenceChecker(
            layer=config.layer,
            grace=config.quiescence_grace,
            crash_time_of=config.crash_time_of,
        )
    )
    if diner_locals:
        checkers.append(PendingPingChecker())
    return CheckSuite(
        checkers, on_violation=on_violation, profile=profile or config.profile
    )
