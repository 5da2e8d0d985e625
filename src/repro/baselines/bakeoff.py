"""The classical-DME bake-off: the whole zoo under one verdict pipeline.

Every scheduler this repo can run — Algorithm 1 over ◇P₁ (the paper's),
Algorithm 1 over P, Choy–Singh, fork-priority, edge reversal, Lamport's
bakery, Ricart–Agrawala, and Lehmann–Rabin — is driven through the *same*
fault plans, the same strict check suite, and the same verdict pipeline,
on both the kernel and the live loopback substrates.  One comparative
table falls out: throughput, message complexity (count *and* bits under
the Section 7 accounting), fairness, and the per-property verdict map.

The table doubles as a regression oracle.  Each algorithm records an
:class:`~repro.checks.expectations.ExpectedStatuses` per cell regime —
partial maps where **FAIL is a correct answer**: Ricart–Agrawala is
*supposed* to fail progress when a neighbor crashes; the bakery is
*supposed* to blow the Section 7 bit budget under contention; the
paper's algorithm is supposed to do neither.  :func:`run_bakeoff` exits
green iff every cell matches its recorded map, so "the classical
baselines still fail in exactly the ways the paper says they do" is a
checked property of the repo, not prose.

Cell grid:

* regimes — ``clean`` (crash-free), ``crash`` (one state-triggered
  ``when="eating"`` crash of a max-degree victim), ``churn`` (one
  ``leave`` of a max-degree resident, kernel-only: membership verbs ride
  the epoched suite);
* topologies — default ``ring``, ``geometric``, ``scale_free``;
* substrates — the kernel judges eventual properties against explicit
  horizon-scaled windows; the live loopback host runs informationally
  (``judge=False``), pinning the safety half of each map (heartbeat
  convergence on a compressed wall clock would otherwise convict ◇P₁ of
  slowness the plan never granted it time to overcome).

``repro bakeoff`` is the CLI face; the ``dme_bakeoff`` scenario wraps
the same engine for the experiments runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.baselines.bakery import BakeryDiner
from repro.baselines.choy_singh import ChoySinghDiner
from repro.baselines.edge_reversal import EdgeReversalDiner
from repro.baselines.fork_priority import ForkPriorityDiner
from repro.baselines.lehmann_rabin import LehmannRabinDiner
from repro.baselines.ricart_agrawala import RicartAgrawalaDiner
from repro.checks.expectations import ExpectedStatuses, Mismatch, describe_mismatches
from repro.core.messages import ForkRequest, message_size_bits
from repro.core.table import null_detector, perfect_detector
from repro.detectors import NullDetector
from repro.errors import ConfigurationError
from repro.faults.engine import JudgeWindows, run_plan_kernel, run_plan_live
from repro.faults.plan import (
    CrashSpec,
    FaultPlan,
    FlapSpec,
    LatencySpec,
    MembershipSpec,
    WorkloadSpec,
)
from repro.graphs import topologies
from repro.graphs.coloring import greedy_coloring
from repro.obs.instrument import MessageBitsInstrument

#: Default cell grid.
TOPOLOGIES = ("ring", "geometric", "scale_free")
REGIMES = ("clean", "crash", "churn")
SUBSTRATES = ("kernel", "live")

#: The safety floor every algorithm in the zoo must clear, everywhere.
_SAFE = {"fork-uniqueness": "pass", "fifo": "pass", "wx-safety": "pass"}


# ----------------------------------------------------------------------
# The zoo
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AlgorithmSpec:
    """One zoo entry: how to build it, and what verdicts it must earn.

    ``diner_factory`` is ``None`` for Algorithm 1 itself (the engines
    default to :class:`~repro.core.diner.DinerActor`).
    ``kernel_detector`` maps the plan to a kernel-table detector factory
    (``None`` = the engine's plan-scripted ◇P₁); ``live_detector`` is an
    :class:`~repro.net.host.AsyncHost` detector factory (``None`` = the
    real heartbeat ◇P₁).  ``expected`` maps cell keys — ``clean`` /
    ``crash`` / ``churn`` for kernel cells, ``live-clean`` /
    ``live-crash`` for live — to partial expected-status maps.
    """

    key: str
    title: str
    guarantees: str
    diner_factory: Optional[Callable] = None
    kernel_detector: Optional[Callable[[FaultPlan], object]] = None
    live_detector: Optional[Callable] = None
    expected: Mapping[str, ExpectedStatuses] = field(default_factory=dict)

    def expectation(self, cell_key: str) -> ExpectedStatuses:
        return self.expected.get(cell_key, ExpectedStatuses())


def _oblivious_detector(plan: FaultPlan):
    return null_detector()


def _expected(**regime_maps: Dict[str, str]) -> Dict[str, ExpectedStatuses]:
    return {key: ExpectedStatuses(statuses) for key, statuses in regime_maps.items()}


def _crash_aware_maps(*, overtaking: bool) -> Dict[str, ExpectedStatuses]:
    """Expectation set for the two detector-armed Algorithm 1 variants."""
    clean = {**_SAFE, "channel-bound": "pass", "progress": "pass"}
    if overtaking:
        clean["overtaking"] = "pass"
    return _expected(
        clean=clean,
        crash={**_SAFE, "channel-bound": "pass", "progress": "pass"},
        churn={**_SAFE, "progress": "pass"},
        **{"live-clean": _SAFE, "live-crash": _SAFE},
    )


def _oblivious_maps(
    *, clean_progress: Optional[str] = "pass", churn_progress: Optional[str] = "fail"
) -> Dict[str, ExpectedStatuses]:
    """Expectation set for the six crash-oblivious classics.

    ``clean_progress=None`` leaves crash-free progress unpinned
    (Lehmann–Rabin: probabilistic, judged over seed ensembles in the
    oracle tests instead).  ``churn_progress=None`` leaves the churn
    cell's progress unpinned (fork-based schedulers: whether a leaver's
    neighborhood starves depends on where the shared forks sat at
    departure).
    """
    clean = dict(_SAFE)
    if clean_progress is not None:
        clean["progress"] = clean_progress
    churn = dict(_SAFE)
    if churn_progress is not None:
        churn["progress"] = churn_progress
    return _expected(
        clean=clean,
        crash={**_SAFE, "progress": "fail"},
        churn=churn,
        **{"live-clean": _SAFE, "live-crash": _SAFE},
    )


ZOO: Dict[str, AlgorithmSpec] = {
    spec.key: spec
    for spec in (
        AlgorithmSpec(
            key="dsn",
            title="Algorithm 1 (◇P₁)",
            guarantees="◇WX safety, wait-free progress, eventual k-bounded fairness",
            expected=_crash_aware_maps(overtaking=True),
        ),
        AlgorithmSpec(
            key="perfect_dining",
            title="Algorithm 1 (P)",
            guarantees="perpetual WX from t=0; quantifies what the stronger oracle adds",
            kernel_detector=lambda plan: perfect_detector(
                detection_delay=_detection_delay(plan)
            ),
            expected=_crash_aware_maps(overtaking=True),
        ),
        AlgorithmSpec(
            key="choy_singh",
            title="Choy–Singh",
            guarantees="doorway fairness, crash-free progress; crash-oblivious",
            diner_factory=ChoySinghDiner,
            kernel_detector=_oblivious_detector,
            live_detector=NullDetector,
            # Inherits DinerActor's membership hooks, so a *leave* (unlike
            # a crash) releases its waiters: churn progress stays unpinned.
            expected=_oblivious_maps(churn_progress=None),
        ),
        AlgorithmSpec(
            key="fork_priority",
            title="Fork-priority",
            guarantees="safety only; unbounded overtaking starves under saturation",
            diner_factory=ForkPriorityDiner,
            kernel_detector=_oblivious_detector,
            live_detector=NullDetector,
            # Static priorities + always-hungry saturation: whether the
            # low-priority diner ever eats is a contention accident, so
            # crash-free progress stays unpinned alongside churn.
            expected=_oblivious_maps(clean_progress=None, churn_progress=None),
        ),
        AlgorithmSpec(
            key="edge_reversal",
            title="Edge reversal (SER)",
            guarantees="perpetual WX, zero request traffic; crash freezes the orientation",
            diner_factory=EdgeReversalDiner,
            kernel_detector=_oblivious_detector,
            live_detector=NullDetector,
            expected=_oblivious_maps(churn_progress=None),
        ),
        AlgorithmSpec(
            key="bakery",
            title="Lamport bakery",
            guarantees="FCFS in ticket order; unbounded tickets ⇒ unbounded bits",
            diner_factory=BakeryDiner,
            kernel_detector=_oblivious_detector,
            live_detector=NullDetector,
            expected=_oblivious_maps(),
        ),
        AlgorithmSpec(
            key="ricart_agrawala",
            title="Ricart–Agrawala",
            guarantees="timestamp-order fairness, 2 msgs/edge/session; starves on crash",
            diner_factory=RicartAgrawalaDiner,
            kernel_detector=_oblivious_detector,
            live_detector=NullDetector,
            expected=_oblivious_maps(),
        ),
        AlgorithmSpec(
            key="lehmann_rabin",
            title="Lehmann–Rabin",
            guarantees="symmetric, oracle-free; progress only with probability 1",
            diner_factory=LehmannRabinDiner,
            kernel_detector=_oblivious_detector,
            live_detector=NullDetector,
            expected=_oblivious_maps(clean_progress=None, churn_progress=None),
        ),
    )
}


# ----------------------------------------------------------------------
# Cell construction
# ----------------------------------------------------------------------
def _detection_delay(plan: FaultPlan) -> float:
    return min(1.0, 0.1 * plan.horizon)


def _max_degree_pid(graph) -> int:
    """The busiest process: crash/churn it and the blast radius is maximal."""
    return max(graph.nodes, key=lambda pid: (graph.degree(pid), -pid))


def bakeoff_windows(plan: FaultPlan) -> JudgeWindows:
    """Judgement windows scaled to the cell horizon.

    :meth:`JudgeWindows.for_plan`'s generous derivation can exceed a
    short bake-off horizon entirely (progress would never be judged), so
    cells bind fractions of the horizon instead: faults land by ``0.2 h``
    (see :func:`bakeoff_plans`), patience is ``0.7 h`` — above the
    post-fault recovery the crash-aware algorithms need, and far below
    the ``0.8 h`` of starvation a crash-oblivious victim's neighborhood
    accumulates by the end of the run.
    """
    h = plan.horizon
    return JudgeWindows(settle=0.3 * h, patience=0.7 * h, after=0.3 * h, grace=0.7 * h)


def bakeoff_plans(
    *, topology: str, n: int, duration: float, seed: int
) -> Dict[str, FaultPlan]:
    """The three fault plans (one per regime) for one topology cell."""
    if duration <= 0:
        raise ConfigurationError(f"duration must be positive, got {duration!r}")
    graph = topologies.by_name(topology, n, seed=seed)
    victim = _max_degree_pid(graph)
    base = dict(
        topology=topology,
        n=n,
        seed=seed,
        horizon=float(duration),
        latency=LatencySpec.of("fixed", delay=0.02),
        workload=WorkloadSpec.of("always", eat_time=0.15, think_time=0.05),
        flaps=FlapSpec(detection_delay=min(1.0, 0.1 * duration)),
    )
    return {
        "clean": FaultPlan(**base),
        "crash": FaultPlan(
            **base,
            crashes=(
                CrashSpec(
                    pid=victim,
                    when="eating",
                    after=0.05 * duration,
                    deadline=0.2 * duration,
                ),
            ),
        ),
        "churn": FaultPlan(
            **base,
            membership=(
                MembershipSpec(time=0.2 * duration, verb="leave", pid=victim),
            ),
        ),
    }


# ----------------------------------------------------------------------
# Cell execution
# ----------------------------------------------------------------------
@dataclass
class CellResult:
    """One (algorithm × topology × regime × substrate) run, judged."""

    algorithm: str
    topology: str
    regime: str
    substrate: str
    statuses: Dict[str, str]
    expected: Dict[str, str]
    mismatches: List[Mismatch]
    meals: int
    throughput: float  # meals per virtual time unit
    fairness: float  # Jain index over correct diners' meals
    messages: Optional[int]  # dining-layer sends (kernel cells)
    total_bits: Optional[int]
    max_bits: Optional[int]  # largest single frame, Section 7 accounting
    budget_bits: int  # the O(log n) per-message budget for this graph
    crash_times: Dict[int, float]

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "topology": self.topology,
            "regime": self.regime,
            "substrate": self.substrate,
            "statuses": dict(sorted(self.statuses.items())),
            "expected": dict(sorted(self.expected.items())),
            "mismatches": [m.describe() for m in self.mismatches],
            "meals": self.meals,
            "throughput": round(self.throughput, 4),
            "fairness": round(self.fairness, 4),
            "messages": self.messages,
            "total_bits": self.total_bits,
            "max_bits": self.max_bits,
            "budget_bits": self.budget_bits,
            "crash_times": {str(k): v for k, v in sorted(self.crash_times.items())},
            "ok": self.ok,
        }


def _jain_index(meals: Mapping[int, int], exclude: Sequence[int]) -> float:
    counts = [c for pid, c in sorted(meals.items()) if pid not in set(exclude)]
    if not counts or not any(counts):
        return 0.0
    return (sum(counts) ** 2) / (len(counts) * sum(c * c for c in counts))


def section7_budget_bits(graph) -> int:
    """The paper's per-message bit ceiling on this graph.

    The largest Algorithm 1 frame is the fork request (tag + sender id +
    color), so this is the O(log n) budget every zoo message is measured
    against.  Bakery/Lamport-clock frames exceed it once their counters
    outgrow the color domain — that excess is the Section 7 contrast.
    """
    coloring = greedy_coloring(graph)
    n_colors = max(coloring.values()) + 1
    n = len(graph.nodes)
    return message_size_bits(
        ForkRequest(0, n_colors - 1), n_processes=n, n_colors=n_colors
    )


def run_cell(
    spec: AlgorithmSpec,
    plan: FaultPlan,
    regime: str,
    *,
    substrate: str = "kernel",
    time_scale: float = 0.02,
) -> CellResult:
    """Run one algorithm through one plan on one substrate and judge it."""
    graph = topologies.by_name(plan.topology, plan.n, seed=plan.seed)
    coloring = greedy_coloring(graph)
    n_colors = max(coloring.values()) + 1
    budget = section7_budget_bits(graph)
    faulty = [c.pid for c in plan.crashes] + [m.pid for m in plan.membership]

    if substrate == "kernel":
        bits = MessageBitsInstrument(n_processes=plan.n, n_colors=n_colors)
        result = run_plan_kernel(
            plan,
            diner_factory=spec.diner_factory,
            detector=spec.kernel_detector(plan) if spec.kernel_detector else None,
            windows=bakeoff_windows(plan),
            stop_on_violation=False,
            monitors=(bits,),
        )
        messages: Optional[int] = bits.total_messages()
        total_bits: Optional[int] = bits.total_bits()
        max_bits: Optional[int] = bits.max_bits()
        cell_key = regime
    elif substrate == "live":
        result = run_plan_live(
            plan,
            time_scale=time_scale,
            judge=False,
            diner_factory=spec.diner_factory,
            detector=spec.live_detector,
        )
        messages = total_bits = max_bits = None
        cell_key = f"live-{regime}"
    else:
        raise ConfigurationError(f"unknown substrate {substrate!r}")

    statuses = result.verdict.statuses()
    expectation = spec.expectation(cell_key)
    meals_total = sum(result.meals.values())
    return CellResult(
        algorithm=spec.key,
        topology=plan.topology,
        regime=regime,
        substrate=substrate,
        statuses=statuses,
        expected=expectation.as_dict(),
        mismatches=expectation.mismatches(statuses),
        meals=meals_total,
        throughput=meals_total / plan.horizon,
        fairness=_jain_index(result.meals, exclude=faulty),
        messages=messages,
        total_bits=total_bits,
        max_bits=max_bits,
        budget_bits=budget,
        crash_times=dict(result.crash_times),
    )


# ----------------------------------------------------------------------
# The bake-off
# ----------------------------------------------------------------------
@dataclass
class BakeoffReport:
    """Every cell of one bake-off, plus the gate verdict."""

    cells: List[CellResult]
    config: Dict[str, object]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    def failing(self) -> List[CellResult]:
        return [cell for cell in self.cells if not cell.ok]

    def to_json(self) -> dict:
        return {
            "config": dict(self.config),
            "zoo": {
                key: {
                    "title": spec.title,
                    "guarantees": spec.guarantees,
                    "expected": {
                        cell: exp.as_dict() for cell, exp in sorted(spec.expected.items())
                    },
                }
                for key, spec in ZOO.items()
                if key in {c.algorithm for c in self.cells}
            },
            "cells": [cell.to_json() for cell in self.cells],
            "ok": self.ok,
        }

    def render_table(self) -> str:
        """The flagship comparison table, one row per cell."""
        headers = (
            "algorithm",
            "topology",
            "regime",
            "substrate",
            "meals",
            "thr",
            "fair",
            "msgs",
            "bits",
            "max/budget",
            "progress",
            "verdict",
        )
        rows = []
        for cell in self.cells:
            rows.append(
                (
                    cell.algorithm,
                    cell.topology,
                    cell.regime,
                    cell.substrate,
                    str(cell.meals),
                    f"{cell.throughput:.2f}",
                    f"{cell.fairness:.2f}",
                    "-" if cell.messages is None else str(cell.messages),
                    "-" if cell.total_bits is None else str(cell.total_bits),
                    "-"
                    if cell.max_bits is None
                    else f"{cell.max_bits}/{cell.budget_bits}",
                    cell.statuses.get("progress", "-"),
                    "ok" if cell.ok else "MISMATCH",
                )
            )
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows)) if rows else len(headers[i])
            for i in range(len(headers))
        ]
        lines = [
            "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
            "  ".join("-" * widths[i] for i in range(len(headers))),
        ]
        for row in rows:
            lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(headers))))
        for cell in self.failing():
            lines.append(
                f"MISMATCH {cell.algorithm}/{cell.topology}/{cell.regime}"
                f"/{cell.substrate}: {describe_mismatches(cell.mismatches)}"
            )
        return "\n".join(lines)


def run_bakeoff(
    *,
    topologies_list: Sequence[str] = TOPOLOGIES,
    n: int = 5,
    duration: float = 20.0,
    seed: int = 1,
    substrates: Sequence[str] = SUBSTRATES,
    algorithms: Optional[Sequence[str]] = None,
    time_scale: float = 0.02,
) -> BakeoffReport:
    """Run the full grid and judge every cell against its recorded map.

    Kernel cells cover every regime on every topology; live cells run
    ``clean`` and ``crash`` on the *first* listed topology (wall-clock
    bounded — the substrate-agnosticism claim needs one topology, not
    nine more minutes of loopback sockets).
    """
    keys = list(algorithms) if algorithms else list(ZOO)
    unknown = [k for k in keys if k not in ZOO]
    if unknown:
        raise ConfigurationError(f"unknown algorithms {unknown}; zoo: {sorted(ZOO)}")
    for substrate in substrates:
        if substrate not in SUBSTRATES:
            raise ConfigurationError(
                f"unknown substrate {substrate!r}; known: {SUBSTRATES}"
            )

    cells: List[CellResult] = []
    for topology in topologies_list:
        plans = bakeoff_plans(topology=topology, n=n, duration=duration, seed=seed)
        for key in keys:
            spec = ZOO[key]
            if "kernel" in substrates:
                for regime in REGIMES:
                    cells.append(run_cell(spec, plans[regime], regime))
            if "live" in substrates and topology == topologies_list[0]:
                for regime in ("clean", "crash"):
                    cells.append(
                        run_cell(
                            spec,
                            plans[regime],
                            regime,
                            substrate="live",
                            time_scale=time_scale,
                        )
                    )
    return BakeoffReport(
        cells=cells,
        config={
            "topologies": list(topologies_list),
            "n": n,
            "duration": duration,
            "seed": seed,
            "substrates": list(substrates),
            "algorithms": keys,
        },
    )


# ----------------------------------------------------------------------
# Scenario registration
# ----------------------------------------------------------------------
def _register() -> None:
    from repro.scenarios import ScenarioSpec, register_scenario

    @register_scenario(
        "dme_bakeoff",
        title="DME bake-off — the classical zoo under one verdict pipeline",
        claim=(
            "Every classical baseline matches its recorded expected "
            "property-status map: the paper's algorithm passes where the "
            "classics are supposed to fail, and nothing fails anywhere "
            "a map pins a pass."
        ),
        columns=(
            "algorithm",
            "topology",
            "regime",
            "substrate",
            "meals",
            "throughput",
            "messages",
            "total_bits",
            "max_bits",
            "ok",
        ),
        group_by=("algorithm",),
        spec=ScenarioSpec(
            topology=TOPOLOGIES,
            detector="scripted ◇P₁ / P / null (per algorithm)",
            crashes="one eating-triggered + one leave (per regime)",
            latency="fixed 0.02",
            workload="always-hungry",
            horizon=20.0,
            seeds=(1,),
            params={"topology": "ring", "n": 5, "duration": 20.0, "substrate": "kernel"},
        ),
        experiment="bakeoff",
    )
    def run_dme_bakeoff(
        *,
        topology: str = "ring",
        n: int = 5,
        duration: float = 20.0,
        substrate: str = "kernel",
        seed: int = 1,
    ) -> List[Dict[str, object]]:
        substrates = SUBSTRATES if substrate == "both" else (substrate,)
        report = run_bakeoff(
            topologies_list=(topology,),
            n=n,
            duration=duration,
            seed=seed,
            substrates=substrates,
        )
        return [
            {
                "algorithm": cell.algorithm,
                "topology": cell.topology,
                "regime": cell.regime,
                "substrate": cell.substrate,
                "meals": cell.meals,
                "throughput": round(cell.throughput, 3),
                "messages": cell.messages,
                "total_bits": cell.total_bits,
                "max_bits": cell.max_bits,
                "ok": cell.ok,
            }
            for cell in report.cells
        ]


_register()
