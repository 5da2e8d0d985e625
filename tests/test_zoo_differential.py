"""Differential pinning of the new classics: kernel ≡ loopback.

Same plan, same diner, same (null) detector on the discrete-event kernel
and on a loopback AsyncHost, judged informationally (``judge=False``) so
every per-property status depends only on what the observed stream
proves.  The full status maps must be identical — the bake-off's claim
that bakery / Ricart–Agrawala / Lehmann–Rabin / edge reversal run
*unmodified* on both substrates, checked the same way
``test_fuzz_differential`` checks Algorithm 1.

Marked ``fuzz`` + ``live``: wall-clock asyncio runs.
"""

import pytest

from repro.baselines import (
    BakeryDiner,
    EdgeReversalDiner,
    LehmannRabinDiner,
    RicartAgrawalaDiner,
)
from repro.core.table import null_detector
from repro.detectors import NullDetector
from repro.faults import FaultPlan, run_plan_kernel, run_plan_live
from repro.faults.plan import LatencySpec, WorkloadSpec

pytestmark = [pytest.mark.fuzz, pytest.mark.live]

TIME_SCALE = 0.01

CLASSICS = [
    pytest.param(BakeryDiner, id="bakery"),
    pytest.param(RicartAgrawalaDiner, id="ricart_agrawala"),
    pytest.param(LehmannRabinDiner, id="lehmann_rabin"),
    pytest.param(EdgeReversalDiner, id="edge_reversal"),
]


def _plan(seed: int) -> FaultPlan:
    return FaultPlan(
        topology="ring",
        n=4,
        seed=seed,
        horizon=8.0,
        latency=LatencySpec.of("fixed", delay=0.02),
        workload=WorkloadSpec.of("always", eat_time=0.15, think_time=0.05),
    )


@pytest.mark.parametrize("diner_factory", CLASSICS)
@pytest.mark.parametrize("seed", [1, 2])
def test_kernel_and_live_status_maps_agree(diner_factory, seed):
    plan = _plan(seed)
    kernel = run_plan_kernel(
        plan, judge=False, diner_factory=diner_factory, detector=null_detector()
    )
    live = run_plan_live(
        plan,
        judge=False,
        time_scale=TIME_SCALE,
        diner_factory=diner_factory,
        detector=NullDetector,
    )
    assert kernel.verdict.statuses() == live.verdict.statuses(), (
        f"substrates disagree for {diner_factory.__name__} on {plan.describe()}"
    )
    # Informational judgement of a clean run never fails, on either side.
    assert kernel.ok and live.ok
    # Both substrates actually scheduled meals (the runs are non-vacuous).
    assert sum(kernel.meals.values()) > 0
    assert sum(live.meals.values()) > 0


@pytest.mark.parametrize("diner_factory", CLASSICS)
def test_live_run_speaks_the_same_wire_vocabulary(diner_factory):
    """The classics' frames survive the real codec: the live wire log
    contains the algorithm's own message types, not just heartbeats."""
    plan = _plan(seed=3)
    live = run_plan_live(
        plan,
        judge=False,
        time_scale=TIME_SCALE,
        diner_factory=diner_factory,
        detector=NullDetector,
    )
    kinds = {event["type"] for event in live.wire}
    expected = {
        BakeryDiner: "BakeryRequest",
        RicartAgrawalaDiner: "RaRequest",
        LehmannRabinDiner: "LrRequest",
        EdgeReversalDiner: "Fork",
    }[diner_factory]
    assert expected in kinds, sorted(kinds)
