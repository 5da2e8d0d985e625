"""Dynamic membership: the epoched topology machinery end to end.

Three layers of coverage:

* **Replay model** (hypothesis) — arbitrary valid delta scripts replay
  deterministically, survive JSON round-trips, and the shrinker's
  equivalence-preserving cancellation rungs (a leave with its rejoin,
  an edge flip) never change the final :class:`TopologyView`.
* **Check-event plumbing** — ``MembershipChange`` trace records become
  :class:`MembershipEvent`\\ s, merge *before* same-instant sends, and
  the offline Lemma 2.2 checker retires outstanding pings exactly the
  way the online adapters do (join/rejoin/add_edge forgive, leave does
  not — stale traffic toward a departed pid must stay countable).
* **Acceptance runs** — a clean ring-6 churn plan exercising every verb
  PASSes the standard suite on the kernel, judged over its topology
  timeline, the seeded ``unreclaimed-leave`` mutant FAILs ◇WX with an
  epoch-stamped witness, kernel and live substrates agree property by
  property on the same churn plan *and* record the same
  ``membership_change`` sequence and final neighbor sets (one delta
  interpreter, two seats), an all-static run with an explicit
  empty log stays byte-identical to the pinned golden trace, and a real
  3-process cluster survives a mid-run join + leave.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.checks import (
    PROGRESS,
    WX_SAFETY,
    MembershipEvent,
    SendEvent,
    events_from_trace,
    merge_events,
)
from repro.checks.properties import PendingPingChecker
from repro.core import AlwaysHungry, DiningTable, scripted_detector
from repro.errors import ConfigurationError
from repro.faults.campaign import CampaignSpec
from repro.faults.engine import run_plan_kernel, run_plan_live
from repro.faults.plan import FaultPlan, MembershipSpec
from repro.faults.sampler import ARCHETYPES, CHURN_ARCHETYPES, sample_plan
from repro.faults.shrink import _membership_candidates
from repro.graphs import ring
from repro.graphs.membership import (
    MembershipDelta,
    MembershipLog,
    TopologyTimeline,
)
from repro.net.cluster import ClusterSpec, launch
from repro.net.host import AsyncHost, HostConfig, run_host
from repro.sim.crash import CrashPlan
from repro.sim.latency import UniformLatency
from repro.trace import serialize
from repro.trace.events import MembershipChange
from repro.trace.recorder import TraceRecorder

GOLDEN = Path(__file__).parent / "fixtures" / "golden_trace_ring5.json"


# ----------------------------------------------------------------------
# Strategy: valid membership scripts over a small ring
# ----------------------------------------------------------------------
@st.composite
def churn_histories(draw, max_deltas=10):
    """``(initial_graph, MembershipLog)`` pairs that replay by construction.

    The generator mirrors the replay model's latent/active state so every
    drawn verb is legal at its instant — the same discipline the sampler
    uses, but unconstrained by archetype shapes.
    """
    n = draw(st.integers(min_value=3, max_value=6))
    initial = ring(n)
    active = set(range(n))
    latent = {pid: set(initial.neighbors(pid)) for pid in range(n)}
    next_pid = n
    deltas = []
    t = 0.0
    for _ in range(draw(st.integers(min_value=0, max_value=max_deltas))):
        t += draw(st.floats(min_value=0.25, max_value=4.0, allow_nan=False))
        options = ["join"]
        departed = sorted(set(latent) - active)
        missing = sorted(
            (a, b)
            for a in latent
            for b in latent
            if a < b and b not in latent[a]
        )
        present = sorted((a, b) for a in latent for b in latent[a] if a < b)
        if len(active) > 1:
            # Never drain the graph: a snapshot needs at least one node.
            options.append("leave")
        if departed:
            options.append("rejoin")
        if missing:
            options.append("add_edge")
        if present:
            options.append("remove_edge")
        verb = draw(st.sampled_from(options))
        if verb == "join":
            peers = draw(
                st.lists(
                    st.sampled_from(sorted(latent)),
                    min_size=1,
                    max_size=3,
                    unique=True,
                )
            )
            deltas.append(
                MembershipDelta(time=t, verb="join", pid=next_pid, edges=tuple(peers))
            )
            latent[next_pid] = set(peers)
            for peer in peers:
                latent[peer].add(next_pid)
            active.add(next_pid)
            next_pid += 1
        elif verb == "leave":
            pid = draw(st.sampled_from(sorted(active)))
            deltas.append(MembershipDelta(time=t, verb="leave", pid=pid))
            active.discard(pid)
        elif verb == "rejoin":
            pid = draw(st.sampled_from(departed))
            deltas.append(MembershipDelta(time=t, verb="rejoin", pid=pid))
            active.add(pid)
        elif verb == "add_edge":
            a, b = draw(st.sampled_from(missing))
            deltas.append(MembershipDelta(time=t, verb="add_edge", pid=a, peer=b))
            latent[a].add(b)
            latent[b].add(a)
        else:
            a, b = draw(st.sampled_from(present))
            deltas.append(MembershipDelta(time=t, verb="remove_edge", pid=a, peer=b))
            latent[a].discard(b)
            latent[b].discard(a)
    return initial, MembershipLog(deltas)


def _final_shape(timeline: TopologyTimeline):
    view = timeline.final()
    return set(view.graph.nodes), {tuple(e) for e in view.graph.edges}


# ----------------------------------------------------------------------
# Replay model properties
# ----------------------------------------------------------------------
@given(churn_histories())
@settings(max_examples=100)
def test_replay_is_deterministic_and_roundtrips(history):
    initial, log = history
    first = TopologyTimeline(initial, log)
    again = TopologyTimeline(initial, log)
    assert _final_shape(first) == _final_shape(again)
    assert first.final_epoch == again.final_epoch == len(log)

    recovered = MembershipLog.from_json(log.to_json())
    assert recovered == log
    assert _final_shape(TopologyTimeline(initial, recovered)) == _final_shape(first)


@given(churn_histories())
@settings(max_examples=100)
def test_union_covers_every_snapshot(history):
    initial, log = history
    timeline = TopologyTimeline(initial, log)
    union = timeline.union()
    union_edges = {tuple(e) for e in union.edges}
    for view in timeline.snapshots():
        assert set(view.graph.nodes) <= set(union.nodes)
        assert {tuple(e) for e in view.graph.edges} <= union_edges
    if not log:
        # Static callers observe the exact graph object they passed in.
        assert union is initial


@given(churn_histories(max_deltas=8))
@settings(max_examples=60)
def test_cancellation_rungs_preserve_final_view(history):
    """A shrunk delta sequence replays to the same final TopologyView.

    The verb-aware rungs (cancel a leave/rejoin bounce, cancel an edge
    remove/re-add flip) are the shrinker's equivalence-preserving moves:
    whatever subset of them applies, the final snapshot must be
    unchanged — otherwise a minimized churn witness would describe a
    different topology than the failure it certifies.
    """
    initial, log = history
    specs = tuple(
        MembershipSpec(
            time=d.time, verb=d.verb, pid=d.pid, edges=d.edges, peer=d.peer
        )
        for d in log
    )
    plan = FaultPlan(topology="ring", n=len(initial), membership=specs)
    baseline = _final_shape(TopologyTimeline(initial, log))
    for label, candidate in _membership_candidates(plan):
        if not label.startswith("cancel"):
            continue
        try:
            shrunk = MembershipLog(m.to_delta() for m in candidate.membership)
            timeline = TopologyTimeline(initial, shrunk)
        except ConfigurationError:
            continue  # the ladder skips unreplayable candidates too
        assert _final_shape(timeline) == baseline, label


def test_campaign_archetype_restriction_walks_only_churn_shapes():
    """``repro fuzz --archetypes churn_storm ...`` re-parameterizes the
    walk: every counted run is a churn shape, none of the budget is
    spent skipping foreign archetypes."""
    spec = CampaignSpec(
        topology="ring", n=6, seed=0, runs=6, archetypes=CHURN_ARCHETYPES
    )
    churn_positions = [ARCHETYPES.index(name) for name in CHURN_ARCHETYPES]
    assert [spec.sampler_index(i) for i in range(6)] == [
        *churn_positions,
        *(p + len(ARCHETYPES) for p in churn_positions),
    ]
    assert all(spec.plan(i).membership for i in range(6))
    with pytest.raises(ConfigurationError):
        CampaignSpec(archetypes=("bogus",))


def test_unknown_membership_scripts_shrink_generically():
    """Drop-half bisection and per-delta drops need no verb knowledge."""
    specs = tuple(
        MembershipSpec(time=5.0 * (i + 1), verb="leave", pid=i) for i in range(4)
    )
    plan = FaultPlan(topology="ring", n=6, membership=specs)
    labels = [label for label, _ in _membership_candidates(plan)]
    assert "drop the membership script" in labels
    assert any("first 2" in label for label in labels)
    assert any("last 2" in label for label in labels)
    assert sum(1 for label in labels if label.startswith("drop membership delta")) == 4


# ----------------------------------------------------------------------
# Check-event plumbing
# ----------------------------------------------------------------------
def test_membership_trace_records_become_check_events():
    recorder = TraceRecorder()
    recorder.membership_change(3.0, 2, "rejoin", 4)
    recorder.membership_change(8.0, 3, "join", 6, (0, 5))
    events = [e for e in events_from_trace(recorder) if type(e) is MembershipEvent]
    assert events == [
        MembershipEvent(3.0, 2, "rejoin", 4),
        MembershipEvent(8.0, 3, "join", 6, (0, 5)),
    ]


def test_membership_events_merge_before_same_instant_sends():
    """The kernel stamps a delta and the fresh incarnation's first pings
    at the same sim instant; replay must apply the link resets first."""
    send = SendEvent(5.0, 2, 1, "Ping", "dining", seq=0)
    delta = MembershipEvent(5.0, 1, "rejoin", 2)
    merged = merge_events([send], [delta])
    assert merged == [delta, send]


def test_pending_ping_checker_forgives_rejoins_not_leaves():
    checker = PendingPingChecker()
    assert checker.record_ping_send(1, 2, 1.0) is None
    checker.note_membership("rejoin", 2, ())
    # The rejoin retired pid 2's link state: a fresh ping is legal.
    assert checker.record_ping_send(1, 2, 2.0) is None
    checker.note_membership("leave", 2, ())
    # A leave forgives nothing — a survivor re-pinging the departed pid
    # while its own ping is outstanding is exactly what Lemma 2.2 counts.
    assert checker.record_ping_send(1, 2, 3.0) is not None


def test_pending_ping_checker_resets_both_directions_on_add_edge():
    checker = PendingPingChecker()
    assert checker.record_ping_send(3, 4, 1.0) is None
    assert checker.record_ping_send(4, 3, 1.0) is None
    checker.note_membership("add_edge", 3, (4,))
    assert checker.record_ping_send(3, 4, 2.0) is None
    assert checker.record_ping_send(4, 3, 2.0) is None


# ----------------------------------------------------------------------
# Kernel acceptance: every verb, clean and mutated
# ----------------------------------------------------------------------
ALL_VERB_CHURN = (
    MembershipSpec(time=8.0, verb="join", pid=6, edges=(0, 5)),
    MembershipSpec(time=14.0, verb="leave", pid=2),
    MembershipSpec(time=22.0, verb="rejoin", pid=2),
    MembershipSpec(time=28.0, verb="add_edge", pid=1, peer=4),
    MembershipSpec(time=34.0, verb="remove_edge", pid=1, peer=4),
)


def _ring6_churn_plan(**overrides) -> FaultPlan:
    base = dict(
        topology="ring",
        n=6,
        seed=0,
        horizon=90.0,
        membership=ALL_VERB_CHURN,
    )
    base.update(overrides)
    return FaultPlan(**base)


def test_clean_ring6_churn_passes_dynamic_suite():
    result = run_plan_kernel(_ring6_churn_plan())
    assert result.ok, result.verdict.describe()
    # ◇WX judged the churn over its edges' existence intervals.
    assert result.verdict.properties[WX_SAFETY].status == "pass"
    # The joiner ate after arriving; the bounced pid ate after rejoining.
    assert result.meals.get(6, 0) > 0
    assert result.meals.get(2, 0) > 0


def bounce_and_flip():
    """Six rounds of: leave and rejoin pid 2k, then drop and re-add edge (1, 2)."""
    specs = []
    for k in range(6):
        t, pid = 2.0 + 6.0 * k, (2 * k) % 6
        specs += [
            MembershipSpec(t, "leave", pid),
            MembershipSpec(t + 1.5, "rejoin", pid),
            MembershipSpec(t + 3.0, "remove_edge", 1, peer=2),
            MembershipSpec(t + 4.5, "add_edge", 1, peer=2),
        ]
    return tuple(specs)


def _bounce_and_flip_table(seed, **options):
    return DiningTable(
        ring(6),
        seed=seed,
        latency=UniformLatency(0.5, 3.0),
        workload=AlwaysHungry(eat_time=0.3, think_time=0.01),
        detector=scripted_detector(),
        membership=MembershipLog(spec.to_delta() for spec in bounce_and_flip()),
        **options,
    )


@pytest.mark.parametrize("seed", range(6))
def test_fences_drop_stale_traffic_on_an_unchecked_table(seed):
    # Every send is numbered, checked or not, so a rejoin's or an edge
    # re-add's fence drops what the old incarnation left in flight.
    # Unnumbered, the stale fork reached the fresh link and raised
    # ForkDuplicationError on 33 of 40 seeds.
    table = _bounce_and_flip_table(seed, check_invariants=False)
    table.run(until=40.0)
    assert table.network.dropped_count > 0


@pytest.mark.parametrize("seed", (1, 6, 7, 18, 20, 24))
def test_channel_bound_counts_each_edge_incarnation(seed):
    # Section 7 bounds what an edge can still deliver.  A fence makes
    # the old incarnation's traffic depart; counted until its drop, it
    # put 5 dining messages on one edge and raised ChannelCapacityError
    # on these six of 40 seeds.
    table = _bounce_and_flip_table(seed, check_invariants=True)
    table.run(until=40.0)
    assert table.network.dropped_count > 0
    assert table.occupancy.max_occupancy <= 4


def test_churn_verdict_names_the_same_properties_as_a_static_one():
    """A static run is the one-epoch case of a churning run: one checker
    per property judges both, so neither verdict has a name the other
    lacks."""
    churn = run_plan_kernel(_ring6_churn_plan())
    static = run_plan_kernel(_ring6_churn_plan(membership=()))
    assert sorted(churn.verdict.properties) == sorted(static.verdict.properties)


def test_unreclaimed_leave_mutant_fails_wx_safety_with_epoch_witness():
    # The sampler's ring-6 index 7 (a rolling-restart shape with a
    # leave/rejoin bounce) is the deterministic plan the mutation
    # campaign kills this mutant with.
    plan = sample_plan(topology="ring", n=6, seed=0, index=7)
    assert any(m.verb == "rejoin" for m in plan.membership)
    result = run_plan_kernel(plan.with_(mutant="unreclaimed-leave"))
    assert WX_SAFETY in result.failed, result.verdict.describe()
    witness = result.verdict.properties[WX_SAFETY].first_violation
    assert witness is not None
    assert "epoch" in witness.detail


@pytest.mark.live
def test_churn_plan_statuses_agree_across_substrates():
    """The same all-verb churn plan, judged on the kernel and on the live
    loopback host, must produce identical per-property status maps."""
    plan = _ring6_churn_plan(horizon=60.0)
    kernel = run_plan_kernel(plan, judge=False)
    live = run_plan_live(plan, judge=False, time_scale=0.01)
    assert kernel.verdict.statuses() == live.verdict.statuses()


@pytest.mark.live
def test_all_verb_churn_rewires_both_substrates_identically():
    """One interpreter, two seats: the kernel table and a loopback host
    must record the same ``membership_change`` sequence and leave every
    live diner with the same neighbor set — statuses alone would not
    notice a verb that rewired one substrate differently."""
    time_scale = 0.01
    plan = _ring6_churn_plan(horizon=60.0)
    log = plan.membership_log()
    table = DiningTable(ring(6), seed=0, strict_checks=False, membership=log)
    table.run(until=plan.horizon)
    host = AsyncHost(
        ring(6),
        config=HostConfig(duration=plan.horizon * time_scale, seed=0),
        # Delta times scaled to host seconds, as run_plan_live scales them.
        membership=MembershipLog(
            MembershipDelta(d.time * time_scale, d.verb, d.pid, d.edges, d.peer)
            for d in log
        ),
    )
    run_host(host)
    assert not host.violations

    def deltas(seat):
        return [
            (r.epoch, r.verb, r.pid, tuple(r.edges))
            for r in seat.trace.of_type(MembershipChange)
        ]

    def links(seat):
        return {
            pid: sorted(diner.links)
            for pid, diner in seat.diners.items()
            if not diner.crashed
        }

    assert deltas(table) == deltas(host)
    assert [verb for _, verb, _, _ in deltas(table)] == [m.verb for m in ALL_VERB_CHURN]
    assert links(table) == links(host)
    assert links(table)[6] == [0, 5] and links(table)[2] == [1, 3]
    assert table.epoch == host.wiring.epoch == len(ALL_VERB_CHURN)


# ----------------------------------------------------------------------
# Static-path non-regression
# ----------------------------------------------------------------------
def test_explicit_empty_log_is_byte_identical_to_static_golden():
    """Passing ``membership=MembershipLog()`` must not perturb one byte
    of the pinned pre-refactor golden trace: an empty log costs nothing
    and changes nothing."""
    table = DiningTable(
        ring(5),
        seed=2026,
        detector=scripted_detector(
            convergence_time=20.0,
            detection_delay=1.0,
            random_mistakes=True,
            mistakes_per_edge=1.0,
        ),
        crash_plan=CrashPlan.scripted({2: 25.0}),
        workload=AlwaysHungry(eat_time=0.5, think_time=0.05),
        strict_checks=False,
        membership=MembershipLog(),
    )
    table.run(until=150.0)
    lines = [
        json.dumps(serialize.record_to_dict(record), sort_keys=True)
        for record in table.trace
    ]
    payload = ("\n".join(lines) + "\n").encode("utf-8")
    expected = json.loads(GOLDEN.read_text())
    assert hashlib.sha256(payload).hexdigest() == expected["sha256"]


# ----------------------------------------------------------------------
# Live cluster: a real mid-run join and leave across 3 OS processes
# ----------------------------------------------------------------------
@pytest.mark.live
def test_three_process_cluster_join_and_leave(tmp_path):
    """Ring-6 over 3 unix-socket processes: pid 6 joins at 0.8s, pid 2
    leaves at 1.2s.  The joined node must eat, and the departed node's
    forks must be reclaimed — its neighbors keep eating, so the merged
    progress property, owed by the final residents, passes."""
    spec = ClusterSpec(
        topology="ring",
        n=6,
        processes=3,
        duration=2.5,
        seed=3,
        eat_time=0.02,
        think_time=0.005,
        heartbeat_interval=0.1,
        initial_timeout=0.3,
        timeout_increment=0.1,
        run_dir=str(tmp_path / "churn-cluster"),
        membership=[
            {"time": 0.8, "verb": "join", "pid": 6, "edges": [0, 5]},
            {"time": 1.2, "verb": "leave", "pid": 2},
        ],
    )
    verdict = launch(spec, quiet=True)
    assert verdict.ok, verdict.describe()

    meals = {}
    for host in verdict.hosts:
        for pid, count in host.get("meals", {}).items():
            meals[int(pid)] = meals.get(int(pid), 0) + int(count)
    assert meals.get(6, 0) > 0  # the joined node eats
    # The leaver's forks were reclaimed: both ring neighbors keep making
    # progress, and the suite holds residents starvation-free.
    assert meals.get(1, 0) > 0 and meals.get(3, 0) > 0
    assert verdict.checks.properties[PROGRESS].status == "pass"
    assert verdict.checks.properties[WX_SAFETY].status == "pass"
