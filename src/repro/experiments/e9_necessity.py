"""E9 — Necessity probes: break one ◇P₁ property, watch a guarantee fall.

Section 8 composes this paper's sufficiency result with the parallel
necessity result [21]: ◇P is the weakest detector for wait-free ◇k-BW
daemons.  Necessity itself is a reduction, not a program, but its
operational footprint is checkable: run the *same* Algorithm 1 over
oracles that violate exactly one ◇P₁ property, and the matching
guarantee — and only that guarantee — collapses.

| oracle | broken property | predicted collapse |
|---|---|---|
| ◇P₁ (control) | none | none |
| incomplete | local strong completeness | wait-freedom (a blind observer waits on a dead neighbor forever) |
| inaccurate | local eventual strong accuracy | ◇WX (recurring false suspicion authorizes forkless meals forever) |

The inaccurate oracle's violations are *recurring*: doubling the horizon
roughly doubles the violation count, i.e. no finite suffix is clean.
Wait-freedom survives under it — suspicion only ever unblocks.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core import AlwaysHungry, DiningTable, scripted_detector
from repro.core.table import inaccurate_detector, incomplete_detector
from repro.experiments.common import print_experiment
from repro.graphs import topologies
from repro.scenarios import ScenarioSpec, register_scenario, run_scenario_rows
from repro.sim.crash import CrashPlan

COLUMNS = (
    "oracle",
    "broken_property",
    "horizon",
    "starving_correct",
    "violations",
    "late_violations",
    "wait_free",
    "eventual_wx",
)

CLAIM = (
    "Section 8 / [21]: strip one ◇P₁ property from the oracle and the "
    "matching guarantee of Algorithm 1 collapses — completeness ↔ "
    "wait-freedom, eventual accuracy ↔ eventual weak exclusion."
)


def necessity_table(oracle: str, *, horizon: float, seed: int) -> Tuple[DiningTable, str]:
    """The probe's table (not yet run) and the ◇P₁ property its oracle breaks."""
    graph = topologies.ring(6)
    crash_plan = CrashPlan.scripted({2: 20.0})
    broken = "none"
    workload = AlwaysHungry(eat_time=1.0, think_time=0.01)
    if oracle == "control":
        detector = scripted_detector(convergence_time=10.0, random_mistakes=True)
    elif oracle == "incomplete":
        # Both neighbors of the crashed diner are blind to its crash.
        detector = incomplete_detector(blind_pairs=[(1, 2), (3, 2)])
        broken = "completeness"
    elif oracle == "inaccurate":
        # 4 and 5 (both correct) suspect each other in episodes forever.
        # The adversarial schedule isolates that edge: only 4 and 5 are
        # ever hungry, so every episode lets both eat simultaneously.
        # (Under full ring contention the rotation happens to serialize
        # them — a lucky schedule, not a guarantee.)
        detector = inaccurate_detector(
            recurring_pairs=[(4, 5), (5, 4)], period=12.0, episode=6.0
        )
        broken = "eventual accuracy"
        from repro.core import ScriptedWorkload

        sessions = int(horizon)
        workload = ScriptedWorkload(
            {4: [0.01] * sessions, 5: [0.01] * sessions}, default_eat=2.0
        )
    else:
        raise ValueError(oracle)

    table = DiningTable(
        graph,
        seed=seed,
        detector=detector,
        crash_plan=crash_plan,
        workload=workload,
    )
    return table, broken


def _run(
    oracle: str,
    *,
    horizon: float,
    seed: int,
) -> Dict[str, object]:
    table, broken = necessity_table(oracle, horizon=horizon, seed=seed)
    table.run(until=horizon)
    starving = table.starving_correct(patience=horizon * 0.4)
    violations = table.violations()
    late = table.violations_after(horizon * 0.5)
    return {
        "oracle": oracle,
        "broken_property": broken,
        "horizon": horizon,
        "starving_correct": len(starving),
        "violations": len(violations),
        "late_violations": len(late),
        "wait_free": "yes" if not starving else "NO",
        "eventual_wx": "yes" if not late else "NO",
    }


@register_scenario(
    "e9",
    title="E9 — Necessity probes (which property buys which guarantee)",
    claim=CLAIM,
    columns=COLUMNS,
    group_by=("oracle", "horizon"),
    spec=ScenarioSpec(
        topology=("ring",),
        detector="scripted / incomplete / inaccurate",
        crashes="scripted (pid 2 at t=20)",
        latency="zero",
        workload="always-hungry + scripted adversary",
        horizon=600.0,
        seeds=(9,),
    ),
)
def run_necessity(
    *,
    horizons=(300.0, 600.0),
    seed: int = 9,
) -> List[Dict[str, object]]:
    rows = []
    for oracle in ("control", "incomplete", "inaccurate"):
        for horizon in horizons:
            rows.append(_run(oracle, horizon=horizon, seed=seed))
    return rows


def main() -> List[Dict[str, object]]:
    rows = run_scenario_rows("e9")
    print_experiment("E9 — Necessity probes (which property buys which guarantee)", CLAIM, rows, COLUMNS)
    return rows


if __name__ == "__main__":
    main()
