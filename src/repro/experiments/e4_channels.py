"""E4 — Bounded channel capacity (Section 7).

Claim: at any instant, at most **4** dining-layer messages are in transit
between each pair of neighbors — the unique fork, the unique token, and
at most one pending ping-or-ack in each direction.

Method: long, high-contention runs across topologies with the online
:class:`~repro.checks.ChannelBoundChecker` armed at bound 4 (a
fifth concurrent message raises immediately).  We report the observed
per-edge maximum and how many edges ever reached it.  Detector traffic is
excluded by layer, exactly as the paper's accounting scopes the bound to
the algorithm's own messages.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core import AlwaysHungry, DiningTable, scripted_detector
from repro.experiments.common import print_experiment
from repro.graphs import topologies
from repro.scenarios import ScenarioSpec, register_scenario, run_scenario_rows
from repro.sim.crash import CrashPlan
from repro.sim.latency import LogNormalLatency
from repro.sim.rng import RandomStreams

COLUMNS = (
    "topology",
    "n",
    "edges",
    "max_in_transit",
    "edges_at_max",
    "bound_respected",
)

CLAIM = "Section 7: at most 4 dining-layer messages in transit per edge, ever."


@register_scenario(
    "e4",
    title="E4 — Bounded-capacity channels",
    claim=CLAIM,
    columns=COLUMNS,
    group_by=("topology",),
    spec=ScenarioSpec(
        topology=("ring", "clique", "star", "grid", "random"),
        detector="scripted",
        crashes="random 25% of n",
        latency="lognormal(median=1, sigma=0.8)",
        workload="always-hungry",
        horizon=400.0,
        seeds=(3,),
    ),
)
def run_channels(
    *,
    topology_names: Sequence[str] = ("ring", "clique", "star", "grid", "random"),
    n: int = 12,
    horizon: float = 400.0,
    crash_fraction: float = 0.25,
    seed: int = 3,
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for topology_name in topology_names:
        graph = topologies.by_name(topology_name, n, seed=seed)
        crash_plan = CrashPlan.random(
            graph.nodes,
            int(len(graph) * crash_fraction),
            (horizon * 0.1, horizon * 0.4),
            RandomStreams(seed),
        )
        table = DiningTable(
            graph,
            seed=seed,
            detector=scripted_detector(convergence_time=40.0, random_mistakes=True),
            crash_plan=crash_plan,
            workload=AlwaysHungry(eat_time=0.5, think_time=0.01),
            latency=LogNormalLatency(median=1.0, sigma=0.8, ceiling=20.0),
            channel_bound=4,  # the checker raises on a 5th in-transit message
        )
        table.run(until=horizon)
        peaks = [peak for _, _, peak, _ in table.occupancy.edges()]
        peak = max(peaks, default=0)
        at_max = peaks.count(peak)
        rows.append(
            {
                "topology": topology_name,
                "n": len(graph),
                "edges": len(graph.edges),
                "max_in_transit": peak,
                "edges_at_max": at_max,
                "bound_respected": "yes" if peak <= 4 else "NO",
            }
        )
    return rows


EFFICIENCY_COLUMNS = (
    "topology",
    "n",
    "delta",
    "dining_messages",
    "meals",
    "msgs_per_meal",
)


@register_scenario(
    "e4b",
    title="E4b — Message efficiency (messages per meal vs. degree)",
    claim="Constant messages per neighbor per session: msgs/meal tracks δ.",
    columns=EFFICIENCY_COLUMNS,
    group_by=("topology",),
    experiment="e4",
    spec=ScenarioSpec(
        topology=("ring", "grid", "star", "clique"),
        detector="scripted",
        crashes="none",
        latency="zero",
        workload="always-hungry",
        horizon=300.0,
        seeds=(3,),
    ),
)
def run_message_efficiency(
    *,
    topology_names: Sequence[str] = ("ring", "grid", "star", "clique"),
    n: int = 12,
    horizon: float = 300.0,
    seed: int = 3,
) -> List[Dict[str, object]]:
    """Messages per meal vs. degree.

    Each hungry session exchanges at most a constant number of messages
    per neighbor (one ping-ack and one request-fork round trip), so
    messages-per-meal tracks δ — constant on the ring, linear in n on the
    clique.  This is the practical reading of the Section 7 accounting.
    """
    from repro.core import AlwaysHungry

    rows: List[Dict[str, object]] = []
    for topology_name in topology_names:
        graph = topologies.by_name(topology_name, n, seed=seed)
        table = DiningTable(
            graph,
            seed=seed,
            detector=scripted_detector(),
            workload=AlwaysHungry(eat_time=0.5, think_time=0.01),
        )
        table.run(until=horizon)
        meals = sum(table.eat_counts().values())
        messages = table.message_stats.by_layer.get("dining", 0)
        rows.append(
            {
                "topology": topology_name,
                "n": len(graph),
                "delta": graph.max_degree,
                "dining_messages": messages,
                "meals": meals,
                "msgs_per_meal": messages / meals if meals else None,
            }
        )
    return rows


def main() -> List[Dict[str, object]]:
    rows = run_scenario_rows("e4")
    print_experiment("E4 — Bounded-capacity channels", CLAIM, rows, COLUMNS)
    efficiency = run_scenario_rows("e4b")
    print_experiment(
        "E4b — Message efficiency (messages per meal vs. degree)",
        "Constant messages per neighbor per session: msgs/meal tracks δ.",
        efficiency,
        EFFICIENCY_COLUMNS,
    )
    return rows


if __name__ == "__main__":
    main()
