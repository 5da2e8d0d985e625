"""Seed-sweep execution: serial, process-parallel, and cached.

The :class:`Runner` turns a registered scenario name into rows:

* resolves the scenario and merges any per-call parameter overrides;
* answers each seed from the spec-hash cache when allowed;
* executes the remaining seeds — over :func:`repro.pool.ordered_map`,
  which fans out across processes when ``jobs > 1`` and runs the plain
  loop whenever a pool cannot win or cannot be built (one CPU, already
  inside a worker, sandboxed interpreters, unpicklable payloads);
* returns a :class:`RunResult` whose ``rows`` are in seed order and
  therefore identical for any job count.

Workers receive only ``(scenario name, kwargs, seed)`` — they rebuild
everything else from the registry, which
:func:`repro.scenarios.registry.ensure_registered` repopulates on first
lookup in any process.  :func:`map_seeds` exposes the same dispatch for
arbitrary run functions, which is how
:func:`repro.experiments.replication.replicate` parallelizes without
being scenario-aware.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.pool import ordered_map
from repro.scenarios.aggregate import aggregate_columns, aggregate_rows
from repro.scenarios.cache import ResultCache
from repro.scenarios.registry import get_scenario
from repro.scenarios.spec import ScenarioSpec

Rows = List[Dict[str, object]]


def _execute_seed(
    name: str,
    kwargs: Dict[str, object],
    collect_metrics: bool,
    collect_checks: bool,
    seed: int,
) -> Tuple[Rows, float, Optional[dict], Optional[dict]]:
    """Pool worker: run one seed of a registered scenario.

    With ``collect_metrics`` the whole seed executes inside an ambient
    :func:`repro.obs.collecting` block, so every simulation the run
    function builds reports into one registry; the returned snapshot is
    a plain dict (pickle- and JSON-safe) covering the full seed.  With
    ``collect_checks`` the seed likewise runs inside
    :func:`repro.checks.collecting_checks`, and the merged
    :class:`~repro.checks.Verdict` of every table the seed built comes
    back in JSON form.
    """
    scenario = get_scenario(name)
    call = dict(kwargs)
    call[scenario.seed_param] = seed
    started = time.perf_counter()
    with ExitStack() as stack:
        registry = None
        collector = None
        if collect_metrics:
            from repro.obs import collecting

            registry = stack.enter_context(collecting())
        if collect_checks:
            from repro.checks import collecting_checks

            collector = stack.enter_context(collecting_checks())
        rows = scenario.run(**call)
    elapsed = time.perf_counter() - started
    snapshot: Optional[dict] = registry.snapshot() if registry is not None else None
    checks: Optional[dict] = (
        collector.verdict().to_json() if collector is not None else None
    )
    return rows, elapsed, snapshot, checks


def _call_seeded(run_fn, kwargs: Dict[str, object], seed_param: str, seed: int) -> Rows:
    """Pool worker for :func:`map_seeds` over an arbitrary function."""
    call = dict(kwargs)
    call[seed_param] = seed
    return run_fn(**call)


def map_seeds(
    run_fn,
    *,
    seeds: Iterable[int],
    kwargs: Optional[dict] = None,
    seed_param: str = "seed",
    jobs: int = 1,
) -> List[Rows]:
    """Run ``run_fn`` once per seed; one row list per seed, in seed order.

    With ``jobs > 1`` the seeds fan out over a process pool; anything
    that prevents that (unpicklable function, no subprocess support)
    silently degrades to the serial path — the results are identical
    either way, only the wall clock differs.
    """
    call = partial(_call_seeded, run_fn, dict(kwargs or {}), seed_param)
    return list(ordered_map(call, list(seeds), jobs=jobs))


@dataclass(frozen=True)
class SeedResult:
    """Rows of one seed, plus how they were obtained.

    ``metrics`` is the seed's metrics snapshot (see
    :meth:`repro.obs.MetricsRegistry.snapshot`) when the run collected
    one — freshly computed or replayed from the cache — else None.
    ``checks`` is likewise the seed's merged check verdict in JSON form
    (see :meth:`repro.checks.Verdict.to_json`) when the run collected
    verdicts.
    """

    seed: int
    rows: Rows
    cached: bool
    elapsed: float
    metrics: Optional[dict] = None
    checks: Optional[dict] = None


@dataclass(frozen=True)
class RunResult:
    """Structured outcome of one scenario sweep."""

    scenario: str
    title: str
    claim: str
    columns: Tuple[str, ...]
    group_by: Tuple[str, ...]
    spec: ScenarioSpec
    seed_results: List[SeedResult] = field(default_factory=list)

    @property
    def seeds(self) -> Tuple[int, ...]:
        return tuple(result.seed for result in self.seed_results)

    @property
    def rows(self) -> Rows:
        """All rows, concatenated in seed order (deterministic)."""
        rows: Rows = []
        for result in self.seed_results:
            rows.extend(result.rows)
        return rows

    def rows_for(self, seed: int) -> Rows:
        for result in self.seed_results:
            if result.seed == seed:
                return result.rows
        raise KeyError(f"seed {seed} not part of this run")

    @property
    def cache_hits(self) -> int:
        return sum(1 for result in self.seed_results if result.cached)

    def merged_metrics(self) -> Optional[dict]:
        """Cross-seed metrics snapshot, or None if nothing was collected."""
        snapshots = [r.metrics for r in self.seed_results if r.metrics]
        if not snapshots:
            return None
        from repro.obs.metrics import merge_snapshots

        return merge_snapshots(snapshots)

    def merged_checks(self):
        """Cross-seed check :class:`~repro.checks.Verdict`, or None.

        Merges the per-seed verdicts with the same algebra the live
        cluster uses for per-host verdicts (fail dominates; counters
        sum, peaks take the max).
        """
        collected = [r.checks for r in self.seed_results if r.checks]
        if not collected:
            return None
        from repro.checks import Verdict

        return Verdict.merge(Verdict.from_json(checks) for checks in collected)

    @property
    def elapsed(self) -> float:
        """Total compute time across seeds (cache hits count as zero)."""
        return sum(result.elapsed for result in self.seed_results)

    def aggregate(self, group_by: Optional[Sequence[str]] = None) -> Rows:
        """Mean/min/max aggregation across seeds (replication-style)."""
        columns = tuple(group_by) if group_by is not None else self.group_by
        if not columns:
            raise ValueError(
                f"scenario {self.scenario!r} declares no group_by columns; "
                "pass group_by= explicitly"
            )
        return aggregate_rows((r.rows for r in self.seed_results), group_by=columns)

    def aggregate_table_columns(self, aggregated: Rows) -> Tuple[str, ...]:
        """Display columns matching :meth:`aggregate` output."""
        return aggregate_columns(self.columns, self.group_by, aggregated)


class Runner:
    """Executes registered scenarios: seed sweeps, caching, parallelism."""

    def __init__(
        self,
        *,
        jobs: int = 1,
        use_cache: bool = True,
        cache_dir=None,
        collect_metrics: bool = False,
        collect_checks: bool = False,
    ) -> None:
        self.jobs = max(1, int(jobs))
        self.use_cache = use_cache
        self.cache = ResultCache(cache_dir)
        # When collecting, a cached entry only counts as a hit if it
        # carries what the caller asked for (metrics snapshot / check
        # verdict) — older partial entries are recomputed so the report
        # never silently misses seeds.
        self.collect_metrics = collect_metrics
        self.collect_checks = collect_checks

    @property
    def cache_stats(self):
        """Hit/miss/byte tallies of this runner's cache instance."""
        return self.cache.stats

    def run(
        self,
        name: str,
        *,
        seeds: Optional[Iterable[int]] = None,
        overrides: Optional[dict] = None,
    ) -> RunResult:
        scenario = get_scenario(name)
        seed_list = [int(s) for s in (seeds if seeds is not None else scenario.spec.seeds)]
        if not seed_list:
            raise ValueError(f"scenario {name!r} needs at least one seed")
        effective = scenario.spec.with_seeds(seed_list)
        if overrides:
            effective = effective.with_overrides(**overrides)
        kwargs = dict(effective.params)

        cached: Dict[int, Tuple[Rows, Optional[dict], Optional[dict]]] = {}
        if self.use_cache:
            for seed in seed_list:
                hit = self.cache.load_entry(name, effective.fingerprint(scenario=name, seed=seed))
                if hit is None:
                    continue
                if self.collect_metrics and hit[1] is None:
                    continue  # rows-only entry: recompute to get metrics
                if self.collect_checks and hit[2] is None:
                    continue  # entry predates verdicts: recompute to get them
                cached[seed] = hit

        pending = [seed for seed in seed_list if seed not in cached]
        call = partial(_execute_seed, name, kwargs, self.collect_metrics, self.collect_checks)
        computed = dict(zip(pending, ordered_map(call, pending, jobs=self.jobs)))

        if self.use_cache:
            for seed in pending:
                rows, _, snapshot, checks = computed[seed]
                if _json_faithful(rows):
                    self.cache.store(
                        name,
                        effective.fingerprint(scenario=name, seed=seed),
                        rows,
                        metrics=snapshot,
                        checks=checks,
                    )

        seed_results = []
        for seed in seed_list:
            if seed in cached:
                rows, snapshot, checks = cached[seed]
                seed_results.append(SeedResult(seed, rows, True, 0.0, snapshot, checks))
            else:
                rows, elapsed, snapshot, checks = computed[seed]
                seed_results.append(SeedResult(seed, rows, False, elapsed, snapshot, checks))
        return RunResult(
            scenario=name,
            title=scenario.title,
            claim=scenario.claim,
            columns=scenario.columns,
            group_by=scenario.group_by,
            spec=effective,
            seed_results=seed_results,
        )


def _json_faithful(rows: Rows) -> bool:
    """True when rows survive a JSON round trip unchanged (safe to cache)."""
    try:
        return json.loads(json.dumps(rows)) == rows
    except (TypeError, ValueError):
        return False


def run_scenario(
    name: str,
    *,
    seeds: Optional[Iterable[int]] = None,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir=None,
    overrides: Optional[dict] = None,
    collect_metrics: bool = False,
    collect_checks: bool = False,
) -> RunResult:
    """One-call convenience over :class:`Runner`."""
    runner = Runner(
        jobs=jobs,
        use_cache=use_cache,
        cache_dir=cache_dir,
        collect_metrics=collect_metrics,
        collect_checks=collect_checks,
    )
    return runner.run(name, seeds=seeds, overrides=overrides)


def run_scenario_rows(name: str, **overrides: object) -> Rows:
    """Rows of a scenario's default sweep (the experiment ``main()`` path)."""
    return run_scenario(name, overrides=overrides or None).rows
