"""The message-passing classics: bakery, Ricart–Agrawala, Lehmann–Rabin.

Known-outcome oracles (each classic must fail in exactly the way the
literature says it fails, and nowhere else) plus property-based checks
of the two mechanisms the oracles lean on: the bakery's ticket order and
Lehmann–Rabin's seeded determinism.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import (
    BakeryDiner,
    EdgeReversalDiner,
    LehmannRabinDiner,
    RicartAgrawalaDiner,
    bakery_table,
    edge_reversal_table,
    lehmann_rabin_table,
    ricart_agrawala_table,
)
from repro.baselines.bakery import bakery_precedes
from repro.baselines.bakeoff import section7_budget_bits
from repro.core.table import null_detector
from repro.detectors import NullDetector
from repro.faults import CrashSpec, FaultPlan, run_plan_kernel
from repro.faults.engine import JudgeWindows
from repro.graphs import ring, topologies
from repro.obs import MessageBitsInstrument
from repro.sim.crash import CrashPlan


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "factory,diner_type",
    [
        (bakery_table, BakeryDiner),
        (ricart_agrawala_table, RicartAgrawalaDiner),
        (lehmann_rabin_table, LehmannRabinDiner),
        (edge_reversal_table, EdgeReversalDiner),
    ],
)
def test_factory_wires_null_detector_and_diner(ring6, factory, diner_type):
    table = factory(ring6, seed=1)
    assert isinstance(table.detector, NullDetector)
    assert all(isinstance(d, diner_type) for d in table.diners.values())


@pytest.mark.parametrize(
    "factory", [bakery_table, ricart_agrawala_table, lehmann_rabin_table, edge_reversal_table]
)
def test_factory_rejects_detector_override(ring6, factory):
    with pytest.raises(TypeError):
        factory(ring6, detector=null_detector())


# ----------------------------------------------------------------------
# Oracle: the bakery is safe but blows the Section 7 bit budget
# ----------------------------------------------------------------------
def test_bakery_safe_but_exceeds_section7_bit_budget(ring6):
    """No dining-safety checker trips, yet sustained contention drives
    ticket numbers — and thus frame sizes — past the O(log n) budget the
    paper's own messages never exceed."""
    table = bakery_table(ring6, seed=1)
    n_colors = len(set(table.coloring.values()))
    bits = MessageBitsInstrument(n_processes=6, n_colors=n_colors)
    table.network.add_monitor(bits)
    table.run(until=80.0)
    assert table.violations() == []
    assert table.starving_correct(patience=40.0) == []
    budget = section7_budget_bits(ring6)
    assert bits.max_bits() > budget, (
        f"bakery frames stayed within {budget} bits; tickets never grew?"
    )


def test_bakery_tickets_grow_with_contention_not_n(ring6):
    """The largest ticket a saturated run chooses keeps climbing with the
    horizon — the unbounded-register cost the bakery pays for FCFS."""
    def max_ticket(until):
        table = bakery_table(ring6, seed=1).run(until=until)
        return max(d.last_number for d in table.diners.values())

    assert max_ticket(80.0) > max_ticket(10.0) > 0


# ----------------------------------------------------------------------
# Oracle: Ricart–Agrawala starves once a neighbor crashes mid-meal
# ----------------------------------------------------------------------
def test_ricart_agrawala_fails_progress_under_eating_crash():
    plan = FaultPlan(
        topology="ring",
        n=5,
        seed=1,
        horizon=20.0,
        crashes=(CrashSpec(pid=2, when="eating", after=1.0, deadline=5.0),),
    )
    result = run_plan_kernel(
        plan,
        diner_factory=RicartAgrawalaDiner,
        detector=null_detector(),
        windows=JudgeWindows(settle=5.0, patience=12.0, after=5.0, grace=12.0),
        stop_on_violation=False,
    )
    assert result.crash_times  # the trigger actually fired
    assert list(result.failed) == ["progress"], result.verdict.statuses()


def test_ricart_agrawala_clean_run_is_clean(ring6):
    table = ricart_agrawala_table(ring6, seed=1).run(until=60.0)
    assert table.violations() == []
    assert table.starving_correct(patience=30.0) == []
    # One request earns exactly one (possibly deferred) reply, so at the
    # horizon cutoff the deficit is at most one in-flight request per
    # directed edge — the 2-messages-per-edge-per-session economy.
    stats = table.message_stats.by_type
    unanswered = stats["RaRequest"] - stats["RaReply"]
    assert 0 <= unanswered <= 2 * len(ring6.edges)


# ----------------------------------------------------------------------
# Oracle: Lehmann–Rabin keeps exclusion on every seed of an ensemble
# ----------------------------------------------------------------------
LR_SEEDS = range(20)


def test_lehmann_rabin_exclusion_holds_on_every_seed():
    """Safety is deterministic even though progress is only probabilistic:
    across a 20-seed ensemble no run ever trips a dining-safety checker,
    and the ensemble as a whole makes progress."""
    meals_by_seed = []
    for seed in LR_SEEDS:
        table = lehmann_rabin_table(ring(5), seed=seed).run(until=30.0)
        assert table.violations() == [], f"seed {seed} violated exclusion"
        meals_by_seed.append(sum(table.eat_counts().values()))
    # Progress with probability 1: every seeded run of this length eats.
    assert all(meals > 0 for meals in meals_by_seed)


def test_lehmann_rabin_crash_starves_transitively(ring6):
    """A crash mid-protocol wedges a neighbor on its blocking first-fork
    wait, and the wedge chains: diners far from the victim starve too
    (the crash-obliviousness the bake-off's expected map records)."""
    table = lehmann_rabin_table(
        ring6, seed=1, crash_plan=CrashPlan.scripted({2: 5.0})
    )
    table.run(until=120.0)
    starving = set(table.starving_correct(patience=60.0))
    assert starving & {1, 3}  # at least one ring-neighbor of the victim
    assert 2 not in starving  # the crashed diner is not judged
    assert starving - {1, 3}  # and the wedge spreads beyond the neighbors


# ----------------------------------------------------------------------
# Property: bakery tickets are totally ordered, lexicographically
# ----------------------------------------------------------------------
tickets = st.tuples(
    st.integers(min_value=1, max_value=2**32), st.integers(min_value=0, max_value=2**16)
)


@settings(max_examples=200, deadline=None)
@given(tickets, tickets)
def test_bakery_precedes_is_lexicographic(a, b):
    assert bakery_precedes(a, b) == (a < b)


@settings(max_examples=200, deadline=None)
@given(tickets, tickets)
def test_bakery_precedes_is_a_total_order(a, b):
    if a == b:
        assert not bakery_precedes(a, b) and not bakery_precedes(b, a)
    else:
        # Totality + antisymmetry: exactly one direction wins, so two
        # contenders never both enter (the mutual-exclusion core).
        assert bakery_precedes(a, b) != bakery_precedes(b, a)


# ----------------------------------------------------------------------
# Property: Lehmann–Rabin is deterministic per scenario seed
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_lehmann_rabin_same_seed_same_trace(seed):
    """The randomized algorithm is replayable: its coin flips derive from
    the scenario seed, so equal seeds give byte-identical trace
    fingerprints (golden-pinnable like every deterministic scheduler)."""
    graph = topologies.ring(4)
    first = lehmann_rabin_table(graph, seed=seed).run(until=8.0)
    second = lehmann_rabin_table(graph, seed=seed).run(until=8.0)
    assert first.fingerprint() == second.fingerprint()


def test_lehmann_rabin_different_seeds_diverge():
    graph = topologies.ring(4)
    fingerprints = {
        lehmann_rabin_table(graph, seed=seed).run(until=8.0).fingerprint()
        for seed in range(6)
    }
    assert len(fingerprints) > 1  # the coin flips actually depend on the seed
