"""The ``fuzz_*`` scenario family: campaigns as registered scenarios.

Registering the fuzz surfaces with :mod:`repro.scenarios` buys them the
Runner's seed fan-out, process-pool dispatch, and the ``.repro_cache/``
result cache for free — ``repro experiments --only fuzz --seeds 0 1 2
--jobs 4`` replicates a whole campaign sweep, cached per seed like any
other experiment.

Three scenarios:

* ``fuzz_clean`` — the empirical soundness half: sampled adversarial
  plans against the pristine algorithm must produce zero violations.
* ``fuzz_mutation`` — the sensitivity half: the seeded-bug registry,
  one kill-campaign per mutant, one row per mutant.
* ``fuzz_differential`` — the substrate-agreement half: the same plans
  judged (informationally) on kernel and live host must agree on every
  per-property status.
"""

from __future__ import annotations

from typing import Dict, List

from repro.faults.campaign import CampaignSpec, run_campaign, run_mutation_harness
from repro.faults.engine import run_plan_kernel, run_plan_live
from repro.faults.sampler import ARCHETYPES, CHURN_ARCHETYPES, sample_plan
from repro.scenarios import ScenarioSpec, register_scenario

CLEAN_CLAIM = (
    "Theorems 1-3, adversarially: sampled latency/crash/flap/burst schedules "
    "against the pristine algorithm yield zero violations."
)

MUTATION_CLAIM = (
    "The property suite has teeth: every seeded Algorithm 1 bug is killed "
    "by a sampled adversarial schedule."
)

DIFFERENTIAL_CLAIM = (
    "Substrate agnosticism: the same plan judged on the kernel and on the "
    "live loopback host yields identical per-property statuses."
)

CHURN_CLAIM = (
    "Dynamic membership: sampled join/leave/rejoin/edge-flip schedules "
    "against the pristine algorithm satisfy the epoch-aware suite — "
    "joiners eat, leavers' forks are reclaimed, and no edge-scoped "
    "exclusion violation outlives the settle window."
)


@register_scenario(
    "fuzz_clean",
    title="Fuzz — clean campaign over sampled adversaries",
    claim=CLEAN_CLAIM,
    columns=("topology", "n", "runs", "failing_runs", "violations", "ok"),
    group_by=("topology",),
    spec=ScenarioSpec(
        topology=("ring",),
        detector="scripted",
        crashes="sampled (timed + state-triggered)",
        latency="sampled (uniform/storm/gst)",
        workload="sampled (always/burst)",
        horizon=0.0,
        seeds=(0,),
        params={"topology": "ring", "n": 5, "runs": 25},
    ),
    experiment="fuzz",
)
def run_fuzz_clean(
    *,
    topology: str = "ring",
    n: int = 5,
    runs: int = 25,
    seed: int = 0,
) -> List[Dict[str, object]]:
    result = run_campaign(CampaignSpec(topology=topology, n=n, seed=seed, runs=runs))
    return [
        {
            "topology": topology,
            "n": n,
            "runs": result.runs_executed,
            "failing_runs": len(result.failures),
            "violations": result.violation_count(),
            "ok": result.ok,
        }
    ]


@register_scenario(
    "fuzz_mutation",
    title="Fuzz — mutation score of the property suite",
    claim=MUTATION_CLAIM,
    columns=("mutant", "killed", "runs", "killing_index", "properties", "matched"),
    group_by=(),
    spec=ScenarioSpec(
        topology=("ring",),
        detector="scripted",
        crashes="sampled (timed + state-triggered)",
        latency="sampled (uniform/storm/gst)",
        workload="sampled (always/burst)",
        horizon=0.0,
        seeds=(0,),
        params={"topology": "ring", "n": 5, "runs": 10},
    ),
    experiment="fuzz",
)
def run_fuzz_mutation(
    *,
    topology: str = "ring",
    n: int = 5,
    runs: int = 10,
    seed: int = 0,
) -> List[Dict[str, object]]:
    report = run_mutation_harness(
        base=CampaignSpec(topology=topology, n=n, seed=seed, runs=runs)
    )
    return [
        {
            "mutant": o.name,
            "killed": o.killed,
            "runs": o.runs,
            "killing_index": o.killing_index,
            "properties": ", ".join(o.failed_properties),
            "matched": o.matched_expected,
        }
        for o in report.outcomes
    ]


@register_scenario(
    "fuzz_differential",
    title="Fuzz — kernel vs live substrate agreement",
    claim=DIFFERENTIAL_CLAIM,
    columns=("index", "plan", "kernel_ok", "live_ok", "statuses_match"),
    group_by=(),
    spec=ScenarioSpec(
        topology=("ring",),
        detector="heartbeat (live) / scripted (kernel)",
        crashes="sampled (timed + state-triggered)",
        latency="sampled, replayed through inject_latency",
        workload="sampled (always/burst)",
        horizon=0.0,
        seeds=(0,),
        params={"topology": "ring", "n": 4, "runs": 3, "time_scale": 0.01},
    ),
    experiment="fuzz",
)
def run_fuzz_differential(
    *,
    topology: str = "ring",
    n: int = 4,
    runs: int = 3,
    time_scale: float = 0.01,
    seed: int = 0,
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for index in range(runs):
        plan = sample_plan(
            topology=topology, n=n, seed=seed, index=index, horizon_floor=40.0
        )
        kernel = run_plan_kernel(plan, judge=False)
        live = run_plan_live(plan, judge=False, time_scale=time_scale)
        rows.append(
            {
                "index": index,
                "plan": plan.describe(),
                "kernel_ok": kernel.ok,
                "live_ok": live.ok,
                "statuses_match": kernel.verdict.statuses() == live.verdict.statuses(),
            }
        )
    return rows


@register_scenario(
    "churn_sweep",
    title="Churn — sampled membership schedules judged over their topology timeline",
    claim=CHURN_CLAIM,
    columns=(
        "topology",
        "archetype",
        "index",
        "n",
        "deltas",
        "joiners",
        "joiner_meals",
        "resident_meals",
        "failing",
        "ok",
    ),
    group_by=("topology", "archetype"),
    spec=ScenarioSpec(
        topology=("ring", "grid"),
        detector="scripted",
        crashes="none (churn only)",
        latency="sampled (uniform)",
        workload="sampled (always)",
        horizon=0.0,
        seeds=(0,),
        params={"topologies": ("ring", "grid"), "n": 6, "cycles": 2},
    ),
    experiment="churn",
)
def run_churn_sweep(
    *,
    topologies: tuple = ("ring", "grid"),
    n: int = 6,
    cycles: int = 2,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """One row per (topology, churn archetype, cycle) kernel run.

    The sweep walks the sampler's churn indices directly — the same
    plans a fuzz campaign would meet — and reports where the meals went:
    joiners must eat after their join, and residents must keep eating
    across every delta (the leaver's forks were reclaimed, or progress
    would fail and flip ``ok``).
    """
    rows: List[Dict[str, object]] = []
    for topology in topologies:
        for archetype in CHURN_ARCHETYPES:
            base = ARCHETYPES.index(archetype)
            for cycle in range(cycles):
                index = base + cycle * len(ARCHETYPES)
                plan = sample_plan(topology=topology, n=n, seed=seed, index=index)
                result = run_plan_kernel(plan)
                joiners = {
                    spec.pid for spec in plan.membership if spec.verb == "join"
                }
                rows.append(
                    {
                        "topology": topology,
                        "archetype": archetype,
                        "index": index,
                        "n": plan.n,
                        "deltas": len(plan.membership),
                        "joiners": len(joiners),
                        "joiner_meals": sum(
                            count
                            for pid, count in result.meals.items()
                            if pid in joiners
                        ),
                        "resident_meals": sum(
                            count
                            for pid, count in result.meals.items()
                            if pid not in joiners
                        ),
                        "failing": ", ".join(result.failed),
                        "ok": result.ok,
                    }
                )
    return rows
