"""Budgeted fuzz campaigns and the mutation-testing harness.

A campaign is a deterministic walk over
:func:`repro.faults.sampler.sample_plan` indices, bounded by a run count
and optionally a wall-clock budget.  Against the pristine algorithm the
campaign is the empirical side of Theorems 1–3: every sampled adversary
must produce a verdict with zero violations.  Against a
:mod:`repro.faults.mutants` registry entry it is mutation testing: a
mutant is *killed* by the first sampled plan whose verdict fails, and
the fraction of killed mutants is the campaign's mutation score — a
direct measure of how much bug-finding power the property suite plus
the adversary schedule actually has.

Plans are pure functions of ``(spec, index)``, so a kernel campaign
walks them over :func:`repro.pool.ordered_map`: sampled here, judged in
worker processes, collected in index order.  The result is the serial
one for any job count.

Memory discipline: a kernel walk never builds a wire log and keeps no
trace reference (workers return the verdict and counters only).  The
first failing index is replayed once in this process with artifacts on
— that is the one trace and wire log the shrinker and the witness
writer need — and the replay must agree with the walk's result, which
doubles as a determinism check.
"""

from __future__ import annotations

import os
import time
from contextlib import closing
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.checks.context import active_collector
from repro.errors import ConfigurationError, SimulationError
from repro.faults.engine import FaultRunResult, run_plan
from repro.faults.mutants import Mutant, all_mutants, get_mutant
from repro.faults.plan import FaultPlan
from repro.faults.sampler import ARCHETYPES, sample_plan
from repro.obs.context import active_registry
from repro.pool import ordered_map, plan_workers

#: When a mutant only bites on the post-crash path (``needs_crash``),
#: crash-free sampled indices are skipped without counting against the
#: run budget — but never more than this many indices per counted run,
#: so a pathological sampler cannot spin the harness forever.
MAX_SKIP_FACTOR = 4

#: Shortest kernel campaign worth a process pool.  Building and joining
#: a forked pool of two costs ≈25 ms of wall here, repaid once half the
#: walk's run time exceeds it.  Measured serial/pool wall ratio (median
#: of 7 seeds, 2 vCPUs) for the cheapest plans the sampler makes, ring-5
#: at ≈7 ms each: 0.68 at 6 runs, 0.98 at 8, 1.39 at 12, 1.50 at 16,
#: 1.68 at 50.  Dearer plans cross earlier (mixed n=10, ≈25 ms: 1.09 at
#: 2 runs, 1.60 at 12), so 12 is the first size at which every shape wins.
POOL_MIN_RUNS = 12


# ----------------------------------------------------------------------
# Campaign spec / result
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignSpec:
    """Everything that determines a campaign, hashably.

    ``budget_seconds`` is a wall-clock lid checked before each run is
    *submitted*: the campaign never submits a run past the budget but
    always finishes those in flight.  ``runs`` is the index ceiling
    either way, so results are reproducible by (topology, n, seed) alone
    — the budget can only truncate the walk, never reorder it.  How many
    processes walk it is not part of the spec (see :func:`run_campaign`):
    the spec feeds cache fingerprints and the job count changes nothing
    a campaign produces.
    """

    topology: str = "ring"
    n: int = 5
    seed: int = 0
    runs: int = 20
    budget_seconds: Optional[float] = None
    substrate: str = "kernel"
    mutant: Optional[str] = None
    judge: bool = True
    stop_on_failure: bool = False
    #: Restrict the walk to these sampler archetypes (None = all ten).
    #: Run ``index`` k maps onto the k-th sampler index whose archetype
    #: is allowed, so a restricted campaign is still a pure function of
    #: (topology, n, seed, runs) — the restriction re-parameterizes the
    #: walk, it does not consume budget skipping foreign shapes.
    archetypes: Optional[Tuple[str, ...]] = None

    def __post_init__(self) -> None:
        if self.archetypes is not None:
            unknown = [a for a in self.archetypes if a not in ARCHETYPES]
            if unknown:
                raise ConfigurationError(
                    f"unknown archetype(s) {unknown}; known: {list(ARCHETYPES)}"
                )
            if not self.archetypes:
                raise ConfigurationError("archetype restriction is empty")

    @cached_property
    def _allowed(self) -> Tuple[int, ...]:
        """Sampler positions of the allowed archetypes, in sampler order."""
        return tuple(
            position
            for position, name in enumerate(ARCHETYPES)
            if self.archetypes is None or name in self.archetypes
        )

    def sampler_index(self, index: int) -> int:
        """The sampler index run ``index`` visits under the restriction."""
        cycle, offset = divmod(index, len(self._allowed))
        return cycle * len(ARCHETYPES) + self._allowed[offset]

    def plan(self, index: int) -> FaultPlan:
        """The ``index``-th plan of this campaign's walk."""
        return sample_plan(
            topology=self.topology,
            n=self.n,
            seed=self.seed,
            index=self.sampler_index(index),
            mutant=self.mutant,
        )

    def to_json(self) -> dict:
        return {
            "topology": self.topology,
            "n": self.n,
            "seed": self.seed,
            "runs": self.runs,
            "budget_seconds": self.budget_seconds,
            "substrate": self.substrate,
            "mutant": self.mutant,
            "judge": self.judge,
            "stop_on_failure": self.stop_on_failure,
            "archetypes": list(self.archetypes) if self.archetypes else None,
        }


@dataclass
class CampaignResult:
    """What a campaign produced: one :class:`FaultRunResult` per run."""

    spec: CampaignSpec
    results: List[FaultRunResult] = field(default_factory=list)
    elapsed: float = 0.0
    budget_exhausted: bool = False
    #: Processes that walked the plans (1: this one).
    jobs: int = 1
    #: CPU time the walk cost, this process plus its reaped workers —
    #: beside ``elapsed`` so a wall-clock win is not read as cheaper plans.
    cpu_seconds: float = 0.0

    @property
    def runs_executed(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[FaultRunResult]:
        return [r for r in self.results if r.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def first_failure_index(self) -> Optional[int]:
        return next((i for i, r in enumerate(self.results) if r.failed), None)

    @property
    def first_failure(self) -> Optional[FaultRunResult]:
        index = self.first_failure_index
        return self.results[index] if index is not None else None

    def violation_count(self) -> int:
        return sum(len(r.verdict.all_violations()) for r in self.results)

    def fail_counts(self) -> Dict[str, int]:
        """How often each property failed across the campaign."""
        counts: Dict[str, int] = {}
        for result in self.failures:
            for prop in result.failed:
                counts[prop] = counts.get(prop, 0) + 1
        return dict(sorted(counts.items()))

    def describe(self) -> str:
        lines = [
            f"campaign {self.spec.topology}-{self.spec.n} seed={self.spec.seed} "
            f"substrate={self.spec.substrate}"
            + (f" mutant={self.spec.mutant}" if self.spec.mutant else "")
        ]
        lines.append(
            f"  runs: {self.runs_executed}/{self.spec.runs}"
            + (" (budget exhausted)" if self.budget_exhausted else "")
            + f", elapsed {self.elapsed:.1f}s"
            + f" (jobs {self.jobs}, cpu {self.cpu_seconds:.2f}s)"
        )
        if self.ok:
            lines.append("  violations: 0")
        else:
            lines.append(
                f"  violations: {self.violation_count()} across "
                f"{len(self.failures)} failing run(s)"
            )
            for prop, count in self.fail_counts().items():
                lines.append(f"    {prop}: {count} run(s)")
            index = self.first_failure_index
            plan = self.results[index].plan
            lines.append(f"  first failure: run {index}: {plan.describe()}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "spec": self.spec.to_json(),
            "runs_executed": self.runs_executed,
            "budget_exhausted": self.budget_exhausted,
            "elapsed": self.elapsed,
            "cpu_seconds": self.cpu_seconds,
            "jobs": self.jobs,
            "ok": self.ok,
            "fail_counts": self.fail_counts(),
            "results": [r.to_json() for r in self.results],
        }


def _judge_plan(substrate: str, judge: bool, plan: FaultPlan) -> FaultRunResult:
    """One step of a campaign walk (the pool worker for kernel campaigns).

    Kernel plans run artifact-free; :func:`run_campaign` replays the one
    it needs artifacts for.  A live run cannot be replayed (it is wall
    clock), so it keeps its artifacts when it fails.
    """
    if substrate == "kernel":
        return run_plan(plan, substrate=substrate, judge=judge, artifacts=False)
    result = run_plan(plan, substrate=substrate, judge=judge)
    if result.ok:
        result.trace = None
        result.wire = []
    return result


def _replay_with_artifacts(spec: CampaignSpec, walked: FaultRunResult) -> FaultRunResult:
    """Re-run a failing kernel plan in this process, keeping trace and wire log."""
    replayed = run_plan(walked.plan, substrate=spec.substrate, judge=spec.judge)
    for what, seen, again in (
        ("statuses", walked.verdict.statuses(), replayed.verdict.statuses()),
        ("events", walked.events, replayed.events),
        ("meals", walked.meals, replayed.meals),
    ):
        if seen != again:
            raise SimulationError(
                f"replay of failing plan diverged from the campaign walk on {what}: "
                f"{seen!r} then {again!r} ({walked.plan.describe()})"
            )
    return replayed


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def run_campaign(spec: CampaignSpec, *, jobs: Optional[int] = None) -> CampaignResult:
    """Walk ``spec``'s sampled plans until runs, budget, or a kill stops it.

    ``jobs`` is how many processes judge plans: None means every CPU
    this process may use, 1 forces the in-process loop.  Only
    ``substrate="kernel"`` fans out — live plans are wall-clock asyncio
    runs that would perturb each other — and only when the pool can win
    (:func:`repro.pool.plan_workers`).  An ambient metrics registry or
    check collector (``repro report``) also keeps the walk in-process: a
    forked worker's copy of either is thrown away with the worker, and
    the report would judge nothing.  ``results`` is the contiguous
    prefix ``0..k`` of the walk in index order for every job count:
    ``stop_on_failure`` truncates after the first failing *index* and
    drops whatever was judged speculatively past it.
    """
    if spec.runs < 1:
        raise ConfigurationError(f"campaign needs at least 1 run, got {spec.runs}")
    kernel = spec.substrate == "kernel"
    observed = active_registry() is not None or active_collector() is not None
    start = time.monotonic()
    cpu_start = _cpu_seconds()
    out = CampaignResult(
        spec=spec,
        jobs=(
            plan_workers(jobs, spec.runs, min_items=POOL_MIN_RUNS)
            if kernel and not observed
            else 1
        ),
    )

    def plans() -> Iterator[FaultPlan]:
        for index in range(spec.runs):
            if (
                spec.budget_seconds is not None
                and index > 0
                and time.monotonic() - start >= spec.budget_seconds
            ):
                return  # the lid: submit nothing more
            yield spec.plan(index)

    step = partial(_judge_plan, spec.substrate, spec.judge)
    killed = False
    with closing(ordered_map(step, plans(), jobs=out.jobs)) as walk:
        for result in walk:
            out.results.append(result)
            if result.failed and spec.stop_on_failure:
                killed = True
                break
    # Only the lid or a kill ends a walk early, and a kill is never the lid's doing.
    out.budget_exhausted = not killed and len(out.results) < spec.runs
    index = out.first_failure_index
    if kernel and index is not None:
        out.results[index] = _replay_with_artifacts(spec, out.results[index])
    out.elapsed = time.monotonic() - start
    out.cpu_seconds = _cpu_seconds() - cpu_start
    return out


# ----------------------------------------------------------------------
# Mutation testing
# ----------------------------------------------------------------------
@dataclass
class MutantOutcome:
    """One mutant's fate under the campaign."""

    name: str
    description: str
    expected: Tuple[str, ...]
    killed: bool
    runs: int
    elapsed: float
    failed_properties: Tuple[str, ...] = ()
    matched_expected: bool = False
    killing_index: Optional[int] = None
    killing_result: Optional[FaultRunResult] = None
    shrink: Optional[object] = None  # ShrinkResult, attached by the caller

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "expected": list(self.expected),
            "killed": self.killed,
            "runs": self.runs,
            "elapsed": self.elapsed,
            "failed_properties": list(self.failed_properties),
            "matched_expected": self.matched_expected,
            "killing_index": self.killing_index,
            "killing_plan": (
                self.killing_result.plan.to_json()
                if self.killing_result is not None
                else None
            ),
        }


@dataclass
class MutationReport:
    """The harness result: per-mutant outcomes plus the mutation score."""

    base: CampaignSpec
    outcomes: List[MutantOutcome] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def killed(self) -> int:
        return sum(1 for o in self.outcomes if o.killed)

    @property
    def survivors(self) -> List[str]:
        return [o.name for o in self.outcomes if not o.killed]

    @property
    def score(self) -> float:
        return self.killed / self.total if self.outcomes else 0.0

    def describe(self) -> str:
        width = max((len(o.name) for o in self.outcomes), default=4)
        lines = [
            f"mutation harness: {self.killed}/{self.total} killed "
            f"(score {self.score:.2f}), elapsed {self.elapsed:.1f}s"
        ]
        for o in self.outcomes:
            if o.killed:
                props = ", ".join(o.failed_properties)
                match = "" if o.matched_expected else "  [unexpected property]"
                lines.append(
                    f"  [KILLED  ] {o.name:<{width}}  run {o.killing_index} "
                    f"({o.runs} tried): {props}{match}"
                )
            else:
                lines.append(
                    f"  [SURVIVED] {o.name:<{width}}  {o.runs} run(s), "
                    f"expected {', '.join(o.expected)}"
                )
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "base": self.base.to_json(),
            "total": self.total,
            "killed": self.killed,
            "score": self.score,
            "survivors": self.survivors,
            "elapsed": self.elapsed,
            "outcomes": [o.to_json() for o in self.outcomes],
        }


def run_mutation_harness(
    mutants: Optional[Iterable[Union[str, Mutant]]] = None,
    *,
    base: Optional[CampaignSpec] = None,
) -> MutationReport:
    """Run one kill-campaign per mutant and score the suite.

    Each mutant walks the same sampled-plan sequence (up to
    ``base.runs`` runs, stopping at the first kill); ``needs_crash``
    mutants skip crash-free indices and ``needs_churn`` mutants skip
    churn-free ones, without spending budget on plans that cannot
    possibly reach their bug.  ``base.budget_seconds``, if
    set, is a *per-mutant* wall lid.  ``base.mutant`` must be unset —
    the harness supplies it.
    """
    base = base or CampaignSpec()
    if base.mutant is not None:
        raise ConfigurationError(
            "run_mutation_harness supplies the mutant; leave base.mutant unset"
        )
    selected: List[Mutant] = [
        get_mutant(m) if isinstance(m, str) else m
        for m in (mutants if mutants is not None else all_mutants())
    ]
    start = time.monotonic()
    report = MutationReport(base=base)
    for mutant in selected:
        m_start = time.monotonic()
        runs = 0
        index = 0
        outcome = MutantOutcome(
            name=mutant.name,
            description=mutant.description,
            expected=mutant.expected,
            killed=False,
            runs=0,
            elapsed=0.0,
        )
        while runs < base.runs and index < base.runs * MAX_SKIP_FACTOR:
            if (
                base.budget_seconds is not None
                and runs > 0
                and time.monotonic() - m_start >= base.budget_seconds
            ):
                break
            plan = sample_plan(
                topology=base.topology,
                n=base.n,
                seed=base.seed,
                index=base.sampler_index(index),
                mutant=mutant.name,
            )
            index += 1
            if mutant.needs_crash and not plan.crashes:
                continue
            if mutant.needs_churn and not plan.membership:
                continue
            result = run_plan(plan, substrate=base.substrate, judge=base.judge)
            runs += 1
            if result.failed:
                outcome.killed = True
                outcome.failed_properties = tuple(result.failed)
                outcome.matched_expected = bool(
                    set(result.failed) & set(mutant.expected)
                )
                outcome.killing_index = index - 1
                outcome.killing_result = result
                break
            result.trace = None
            result.wire = []
        outcome.runs = runs
        outcome.elapsed = time.monotonic() - m_start
        report.outcomes.append(outcome)
    report.elapsed = time.monotonic() - start
    return report
