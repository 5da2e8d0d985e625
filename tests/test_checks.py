"""Unit tests for the substrate-agnostic :mod:`repro.checks` subsystem.

Each property has exactly one implementation; these tests drive them
directly through the normalized event vocabulary — the strict typed
exceptions (the DiningTable arming), the informational-vs-judged window
semantics of the eventual properties, verdict merge algebra, and the
offline replay adapters behind ``repro check``.
"""

from dataclasses import dataclass

import pytest

from repro.checks import (
    CHANNEL_BOUND,
    FIFO,
    FORK_UNIQUENESS,
    OVERTAKING,
    PROGRESS,
    QUIESCENCE,
    WX_SAFETY,
    ChannelBoundChecker,
    CheckConfig,
    CheckSuite,
    CrashEvent,
    DeliverEvent,
    DropEvent,
    FifoChecker,
    ForkUniquenessChecker,
    MembershipEvent,
    OvertakingChecker,
    PhaseEvent,
    ProbeEvent,
    ProgressChecker,
    PropertyVerdict,
    QuiescenceChecker,
    SendEvent,
    Verdict,
    Violation,
    WxSafetyChecker,
    load_events_path,
    merge_events,
    replay,
    standard_suite,
)
from repro.errors import (
    ChannelCapacityError,
    ConfigurationError,
    FifoViolationError,
    ForkDuplicationError,
)
from repro.graphs import ring
from repro.graphs.membership import MembershipDelta, MembershipLog, TopologyTimeline
from repro.sim.checks import raise_violation


@dataclass
class FakeDiner:
    forks: dict
    tokens: dict
    crashed: bool = False

    def holds_fork(self, neighbor):
        return self.forks.get(neighbor, False)

    def holds_token(self, neighbor):
        return self.tokens.get(neighbor, False)


def _strict(*checkers):
    return CheckSuite(checkers, on_violation=raise_violation)


def _send(time, src, dst, seq=None, type="Fork", layer="dining"):
    return SendEvent(time, src, dst, type, layer, seq)


def _deliver(time, src, dst, seq=None, type="Fork", layer="dining"):
    return DeliverEvent(time, src, dst, type, layer, seq)


# ----------------------------------------------------------------------
# Fork uniqueness (Lemma 1.2) — state probes
# ----------------------------------------------------------------------
class TestForkUniqueness:
    def _probe(self, diners, time=1.0):
        _strict(ForkUniquenessChecker([(0, 1)])).observe(ProbeEvent(time, diners))

    def test_clean_state_passes(self):
        self._probe(
            {0: FakeDiner({1: True}, {1: False}), 1: FakeDiner({0: False}, {0: True})}
        )

    def test_fork_in_transit_passes(self):
        self._probe(
            {0: FakeDiner({1: False}, {1: False}), 1: FakeDiner({0: False}, {0: True})}
        )

    def test_duplicated_fork_raises(self):
        with pytest.raises(ForkDuplicationError, match="fork"):
            self._probe(
                {0: FakeDiner({1: True}, {1: False}), 1: FakeDiner({0: True}, {0: False})}
            )

    def test_duplicated_token_raises(self):
        with pytest.raises(ForkDuplicationError, match="token"):
            self._probe(
                {0: FakeDiner({1: False}, {1: True}), 1: FakeDiner({0: False}, {0: True})}
            )

    def test_crashed_endpoint_skipped(self):
        self._probe(
            {
                0: FakeDiner({1: True}, {1: False}, crashed=True),
                1: FakeDiner({0: True}, {0: False}),
            }
        )

    def test_witness_names_the_edge(self):
        suite = CheckSuite([ForkUniquenessChecker([(0, 1)])])
        suite.observe(
            ProbeEvent(
                2.5,
                {0: FakeDiner({1: True}, {}), 1: FakeDiner({0: True}, {})},
            )
        )
        witness = suite.finalize().property(FORK_UNIQUENESS).first_violation
        assert witness.subject == (0, 1)
        assert witness.time == 2.5


# ----------------------------------------------------------------------
# Channel bound (Section 7)
# ----------------------------------------------------------------------
class TestChannelBound:
    def test_within_bound_passes(self):
        suite = _strict(ChannelBoundChecker(bound=2))
        suite.observe(_send(0.0, 0, 1))
        suite.observe(_send(0.0, 0, 1))
        suite.observe(_deliver(1.0, 0, 1))
        suite.observe(_send(1.0, 0, 1))

    def test_exceeding_bound_raises(self):
        suite = _strict(ChannelBoundChecker(bound=2))
        suite.observe(_send(0.0, 0, 1))
        suite.observe(_send(0.0, 1, 0))  # same undirected edge
        with pytest.raises(ChannelCapacityError):
            suite.observe(_send(0.0, 0, 1))

    def test_other_layers_ignored(self):
        suite = _strict(ChannelBoundChecker(bound=1))
        suite.observe(_send(0.0, 0, 1))
        for _ in range(5):
            suite.observe(_send(0.0, 0, 1, type="Heartbeat", layer="detector"))

    def test_different_edges_independent(self):
        suite = _strict(ChannelBoundChecker(bound=1))
        suite.observe(_send(0.0, 0, 1))
        suite.observe(_send(0.0, 2, 3))

    def test_departure_on_unseen_edge_is_ignored(self):
        # A receiver-only stream (live host watching inbound cross-host
        # traffic) must not drive occupancy negative or corrupt peaks.
        checker = ChannelBoundChecker(bound=2)
        suite = _strict(checker)
        suite.observe(_deliver(0.5, 7, 8))
        suite.observe(_send(1.0, 7, 8))
        assert checker.occupancy.current[(7, 8)] == 1

    def test_verdict_reports_edge_peaks(self):
        suite = CheckSuite([ChannelBoundChecker(bound=4)])
        suite.observe(_send(0.0, 0, 1))
        suite.observe(_send(0.1, 0, 1))
        verdict = suite.finalize().property(CHANNEL_BOUND)
        assert verdict.counters["max_in_transit"] == 2
        assert verdict.details["edge_peaks"] == {"0-1": 2}

    def test_witness_names_its_epoch_under_churn(self):
        suite = CheckSuite([ChannelBoundChecker(bound=1, epoch_at=lambda t: 3)])
        suite.observe(_send(0.0, 0, 1))
        suite.observe(_send(0.5, 0, 1))
        witness = suite.finalize().property(CHANNEL_BOUND).first_violation
        assert witness.detail.endswith("[epoch 3]")


# ----------------------------------------------------------------------
# FIFO/no-loss (the channel assumption)
# ----------------------------------------------------------------------
class TestFifo:
    def test_in_order_delivery_passes(self):
        suite = _strict(FifoChecker())
        suite.observe(_send(0.0, 0, 1, seq=1))
        suite.observe(_send(0.1, 0, 1, seq=2))
        suite.observe(_deliver(1.0, 0, 1, seq=1))
        suite.observe(_deliver(1.1, 0, 1, seq=2))

    def test_gap_raises(self):
        suite = _strict(FifoChecker())
        suite.observe(_deliver(1.0, 0, 1, seq=1))
        with pytest.raises(FifoViolationError, match="lost or reordered"):
            suite.observe(_deliver(1.1, 0, 1, seq=3))

    def test_receiver_only_stream_is_legal(self):
        # Sequence numbers start at 1 on every directed channel, so a
        # receiving host that never saw the sends can still judge FIFO.
        suite = _strict(FifoChecker())
        suite.observe(_deliver(1.0, 9, 0, seq=1))
        suite.observe(_deliver(1.1, 9, 0, seq=2))

    def test_channels_are_directed(self):
        suite = _strict(FifoChecker())
        suite.observe(_deliver(0.5, 1, 0, seq=1))
        suite.observe(_deliver(1.0, 0, 1, seq=1))

    def test_drop_consumes_in_order(self):
        suite = _strict(FifoChecker())
        suite.observe(DropEvent(1.0, 0, 1, "Fork", "dining", 1))
        suite.observe(_deliver(1.1, 0, 1, seq=2))

    def test_resync_after_violation(self):
        checker = FifoChecker()
        suite = CheckSuite([checker])
        suite.observe(_deliver(1.0, 0, 1, seq=1))
        suite.observe(_deliver(1.1, 0, 1, seq=3))  # one loss...
        suite.observe(_deliver(1.2, 0, 1, seq=4))  # ...does not cascade
        verdict = suite.finalize().property(FIFO)
        assert verdict.counters["violations_total"] == 1

    def test_sends_only_is_skip(self):
        suite = CheckSuite([FifoChecker()])
        suite.observe(_send(0.0, 0, 1, seq=1))
        assert suite.finalize().property(FIFO).status == "skip"


# ----------------------------------------------------------------------
# Eventual properties: judged with a window, informational without
# ----------------------------------------------------------------------
def _phases(*changes):
    return [PhaseEvent(t, pid, old, new) for t, pid, old, new in changes]


class TestWxSafety:
    EDGES = [(0, 1)]

    def test_overlap_before_settle_passes(self):
        suite = CheckSuite([WxSafetyChecker(self.EDGES, settle=10.0)])
        suite.feed(
            _phases(
                (1.0, 0, "hungry", "eating"),
                (2.0, 1, "hungry", "eating"),
                (3.0, 0, "eating", "thinking"),
                (4.0, 1, "eating", "thinking"),
            )
        )
        verdict = suite.finalize(20.0).property(WX_SAFETY)
        assert verdict.status == "pass"
        assert verdict.counters["overlap_windows_total"] == 1
        assert verdict.counters["last_overlap_end"] == 3.0

    def test_overlap_past_settle_fails(self):
        suite = CheckSuite([WxSafetyChecker(self.EDGES, settle=2.0)])
        suite.feed(
            _phases(
                (1.0, 0, "hungry", "eating"),
                (1.5, 1, "hungry", "eating"),
                (5.0, 0, "eating", "thinking"),
            )
        )
        verdict = suite.finalize(20.0).property(WX_SAFETY)
        assert verdict.status == "fail"
        assert verdict.first_violation.subject == (0, 1)

    def test_open_overlap_judged_at_horizon(self):
        suite = CheckSuite([WxSafetyChecker(self.EDGES, settle=2.0)])
        suite.feed(
            _phases((1.0, 0, "hungry", "eating"), (1.5, 1, "hungry", "eating"))
        )
        assert suite.finalize(20.0).property(WX_SAFETY).status == "fail"

    def test_no_settle_is_informational(self):
        suite = CheckSuite([WxSafetyChecker(self.EDGES)])
        suite.feed(
            _phases((1.0, 0, "hungry", "eating"), (1.5, 1, "hungry", "eating"))
        )
        verdict = suite.finalize(20.0).property(WX_SAFETY)
        assert verdict.status == "pass"
        assert verdict.counters["overlap_windows_total"] == 1

    def test_crashed_neighbor_stops_counting(self):
        suite = CheckSuite([WxSafetyChecker(self.EDGES, settle=0.0)])
        suite.observe(PhaseEvent(1.0, 0, "hungry", "eating"))
        suite.observe(CrashEvent(1.5, 0))
        suite.observe(PhaseEvent(2.0, 1, "hungry", "eating"))
        assert suite.finalize(20.0).property(WX_SAFETY).status == "pass"

    # Edge (0, 1) appears at t=10 (epoch 1) in both cases below.
    @staticmethod
    def _overlap_on_edge_from_10(start):
        checker = WxSafetyChecker(
            [(0, 1)],
            settle=0.0,
            intervals={(0, 1): [(10.0, None)]},
            epoch_at=lambda t: 1 if t >= 10.0 else 0,
        )
        suite = CheckSuite([checker])
        suite.feed(
            _phases(
                (start, 0, "hungry", "eating"),
                (start + 0.5, 1, "hungry", "eating"),
                (start + 4.0, 0, "eating", "thinking"),
            )
        )
        return suite.finalize(20.0).property(WX_SAFETY)

    def test_overlap_before_its_edge_exists_is_ignored(self):
        verdict = self._overlap_on_edge_from_10(1.0)
        assert verdict.status == "pass"
        assert verdict.counters["overlap_windows_total"] == 0

    def test_overlap_while_its_edge_exists_is_convicted_with_its_epoch(self):
        verdict = self._overlap_on_edge_from_10(11.0)
        assert verdict.status == "fail"
        assert verdict.first_violation.subject == (0, 1)
        assert "[epoch 1]" in verdict.first_violation.detail

    def test_overlap_is_cut_to_the_edges_existence(self):
        verdict = self._overlap_on_edge_from_10(8.0)
        assert verdict.status == "fail"
        assert verdict.first_violation.time == 10.0
        assert verdict.counters["last_overlap_end"] == 12.0


class TestProgress:
    def test_starving_diner_fails(self):
        suite = CheckSuite([ProgressChecker(patience=5.0, correct=[0, 1])])
        suite.observe(PhaseEvent(1.0, 0, "thinking", "hungry"))
        verdict = suite.finalize(20.0).property(PROGRESS)
        assert verdict.status == "fail"
        assert verdict.details["starving"] == [0]

    def test_served_diner_passes(self):
        suite = CheckSuite([ProgressChecker(patience=5.0, correct=[0])])
        suite.observe(PhaseEvent(1.0, 0, "thinking", "hungry"))
        suite.observe(PhaseEvent(2.0, 0, "hungry", "eating"))
        verdict = suite.finalize(20.0).property(PROGRESS)
        assert verdict.status == "pass"
        assert verdict.counters["sessions_served_total"] == 1

    def test_crashed_diner_not_starving(self):
        suite = CheckSuite([ProgressChecker(patience=5.0, correct=[0])])
        suite.observe(PhaseEvent(1.0, 0, "thinking", "hungry"))
        suite.observe(CrashEvent(2.0, 0))
        assert suite.finalize(20.0).property(PROGRESS).status == "pass"

    def test_rejoined_diner_is_judged_again(self):
        # A leave is a crash record; the phase events after it belong to
        # the rejoined incarnation, whose meals are owed again.
        suite = CheckSuite([ProgressChecker(patience=5.0, correct=[0])])
        suite.observe(PhaseEvent(1.0, 0, "thinking", "hungry"))
        suite.observe(CrashEvent(2.0, 0))
        suite.observe(PhaseEvent(3.0, 0, "thinking", "hungry"))
        verdict = suite.finalize(20.0).property(PROGRESS)
        assert verdict.status == "fail"
        assert verdict.details["starving"] == [0]

    def test_recent_waiter_within_patience_passes(self):
        suite = CheckSuite([ProgressChecker(patience=5.0, correct=[0])])
        suite.observe(PhaseEvent(18.0, 0, "thinking", "hungry"))
        assert suite.finalize(20.0).property(PROGRESS).status == "pass"

    def test_no_patience_is_informational(self):
        suite = CheckSuite([ProgressChecker(correct=[0])])
        suite.observe(PhaseEvent(1.0, 0, "thinking", "hungry"))
        verdict = suite.finalize(20.0).property(PROGRESS)
        assert verdict.status == "pass"
        assert verdict.counters["waiting_at_horizon"] == 1


class TestOvertaking:
    EDGES = [(0, 1)]

    def _three_overtakes(self, checker):
        suite = CheckSuite([checker])
        suite.observe(PhaseEvent(1.0, 1, "thinking", "hungry"))
        for start in (2.0, 4.0, 6.0):
            suite.observe(PhaseEvent(start, 0, "hungry", "eating"))
            suite.observe(PhaseEvent(start + 1.0, 0, "eating", "thinking"))
        suite.observe(PhaseEvent(8.0, 1, "hungry", "eating"))
        return suite

    def test_third_overtake_after_cutoff_fails(self):
        suite = self._three_overtakes(OvertakingChecker(self.EDGES, after=0.0))
        verdict = suite.finalize(10.0).property(OVERTAKING)
        assert verdict.status == "fail"
        assert verdict.first_violation.subject == (0, 1)
        assert verdict.counters["max_overtaking"] == 3

    def test_session_before_cutoff_exempt(self):
        suite = self._three_overtakes(OvertakingChecker(self.EDGES, after=50.0))
        assert suite.finalize(10.0).property(OVERTAKING).status == "pass"

    def test_no_cutoff_is_informational(self):
        suite = self._three_overtakes(OvertakingChecker(self.EDGES))
        verdict = suite.finalize(10.0).property(OVERTAKING)
        assert verdict.status == "pass"
        assert verdict.counters["max_overtaking"] == 3

    def test_two_overtakes_within_bound(self):
        suite = CheckSuite([OvertakingChecker(self.EDGES, after=0.0)])
        suite.observe(PhaseEvent(1.0, 1, "thinking", "hungry"))
        for start in (2.0, 4.0):
            suite.observe(PhaseEvent(start, 0, "hungry", "eating"))
            suite.observe(PhaseEvent(start + 1.0, 0, "eating", "thinking"))
        suite.observe(PhaseEvent(8.0, 1, "hungry", "eating"))
        assert suite.finalize(10.0).property(OVERTAKING).status == "pass"


class TestQuiescence:
    def test_send_past_grace_fails(self):
        suite = CheckSuite([QuiescenceChecker(grace=1.0)])
        suite.observe(CrashEvent(1.0, 1))
        suite.observe(_send(5.0, 0, 1, type="Ping"))
        verdict = suite.finalize(10.0).property(QUIESCENCE)
        assert verdict.status == "fail"
        assert verdict.counters["post_crash_sends_total"] == 1

    def test_send_within_grace_passes(self):
        suite = CheckSuite([QuiescenceChecker(grace=10.0)])
        suite.observe(CrashEvent(1.0, 1))
        suite.observe(_send(5.0, 0, 1, type="Ping"))
        assert suite.finalize(10.0).property(QUIESCENCE).status == "pass"

    def test_no_grace_is_informational(self):
        suite = CheckSuite([QuiescenceChecker()])
        suite.observe(CrashEvent(1.0, 1))
        suite.observe(_send(5.0, 0, 1, type="Ping"))
        verdict = suite.finalize(10.0).property(QUIESCENCE)
        assert verdict.status == "pass"
        assert verdict.counters["last_post_crash_send"] == 5.0

    def test_sends_to_a_rejoined_destination_are_ordinary_traffic(self):
        suite = CheckSuite([QuiescenceChecker(grace=1.0)])
        suite.observe(CrashEvent(1.0, 1))
        suite.observe(MembershipEvent(3.0, 2, "rejoin", 1))
        suite.observe(_send(5.0, 0, 1, type="Ping"))
        # A deferred replay re-walks the old incarnation's crash record.
        suite.observe(CrashEvent(1.0, 1))
        suite.observe(_send(6.0, 0, 1, type="Ping"))
        verdict = suite.finalize(10.0).property(QUIESCENCE)
        assert verdict.status == "pass"
        assert verdict.counters["post_crash_sends_total"] == 0


# ----------------------------------------------------------------------
# Verdict algebra and rendering
# ----------------------------------------------------------------------
class TestVerdictAlgebra:
    def test_property_merge_fail_dominates(self):
        merged = PropertyVerdict.merge(
            [
                PropertyVerdict(prop="fifo", status="skip"),
                PropertyVerdict(prop="fifo", status="pass", counters={"consumed_total": 3}),
                PropertyVerdict(
                    prop="fifo",
                    status="fail",
                    counters={"consumed_total": 2},
                    violations=[Violation("fifo", 1.0, "gap", (0, 1))],
                ),
            ]
        )
        assert merged.status == "fail"
        assert merged.counters["consumed_total"] == 5
        assert len(merged.violations) == 1

    def test_property_merge_all_skip_stays_skip(self):
        merged = PropertyVerdict.merge(
            [PropertyVerdict(prop="fifo", status="skip")] * 2
        )
        assert merged.status == "skip"

    def test_max_counters_take_max(self):
        merged = PropertyVerdict.merge(
            [
                PropertyVerdict(
                    prop="channel-bound", status="pass", counters={"max_in_transit": 3}
                ),
                PropertyVerdict(
                    prop="channel-bound", status="pass", counters={"max_in_transit": 2}
                ),
            ]
        )
        assert merged.counters["max_in_transit"] == 3

    def test_verdict_merge_keeps_judgement_over_skip(self):
        skip = Verdict(properties={"fifo": PropertyVerdict(prop="fifo", status="skip")})
        judged = Verdict(
            properties={"fifo": PropertyVerdict(prop="fifo", status="pass")}
        )
        assert Verdict.merge([skip, judged]).property("fifo").status == "pass"

    def test_json_round_trip(self):
        suite = standard_suite([(0, 1)], CheckConfig(settle=1.0, patience=2.0))
        suite.observe(_send(0.0, 0, 1, seq=1))
        suite.observe(_deliver(0.5, 0, 1, seq=1))
        verdict = suite.finalize(10.0)
        clone = Verdict.from_json(verdict.to_json())
        assert clone.statuses() == verdict.statuses()
        assert clone.ok == verdict.ok
        assert clone.events_observed == verdict.events_observed

    def test_describe_mentions_failures(self):
        suite = CheckSuite([ProgressChecker(patience=1.0, correct=[0])])
        suite.observe(PhaseEvent(1.0, 0, "thinking", "hungry"))
        verdict = suite.finalize(20.0)
        text = verdict.describe()
        assert "FAIL" in text
        assert "progress" in text
        assert "first violation" in text

    def test_unobserved_property_is_skip(self):
        verdict = standard_suite([(0, 1)]).finalize(1.0)
        assert verdict.ok
        assert verdict.property(FORK_UNIQUENESS).status == "skip"
        assert verdict.property(FIFO).status == "skip"


# ----------------------------------------------------------------------
# Offline replay (the `repro check` engine)
# ----------------------------------------------------------------------
class TestReplay:
    def test_mixed_artifact_replay(self, tmp_path):
        artifact = tmp_path / "mixed.jsonl"
        artifact.write_text(
            "\n".join(
                [
                    '{"kind": "phase", "time": 1.0, "pid": 0, "old_phase": "thinking", "new_phase": "hungry"}',
                    '{"kind": "send", "time": 1.1, "src": 0, "dst": 1, "type": "Request", "layer": "dining", "seq": 1}',
                    '{"kind": "deliver", "time": 1.2, "src": 0, "dst": 1, "type": "Request", "layer": "dining", "seq": 1}',
                    '{"kind": "phase", "time": 2.0, "pid": 0, "old_phase": "hungry", "new_phase": "eating"}',
                    '{"kind": "protocol_step", "time": 2.0, "pid": 0, "action": 9}',
                    '{"kind": "crash", "time": 3.0, "pid": 1}',
                ]
            )
            + "\n"
        )
        events = load_events_path(str(artifact))
        verdict = replay(
            [(0, 1)], events, CheckConfig(settle=5.0, patience=5.0), horizon=10.0
        )
        assert verdict.ok
        assert verdict.property(FORK_UNIQUENESS).status == "skip"  # no live state
        assert verdict.property(FIFO).status == "pass"
        assert verdict.property(WX_SAFETY).status == "pass"
        assert verdict.events_observed == 5  # protocol_step carries nothing

    def test_events_from_trace_returns_the_checkable_records_themselves(self):
        from repro.checks import events_from_trace
        from repro.trace.events import ProtocolStep, TransientFault
        from repro.trace.recorder import TraceRecorder

        trace = TraceRecorder()
        trace.phase_change(1.0, 0, "thinking", "hungry")
        trace.protocol_step(1.5, 0, "fire")
        trace.doorway_change(2.0, 0, True)
        trace.suspicion_change(2.5, 0, 1, True)
        trace.transient_fault(2.6, 1, "flip")
        trace.crash(3.0, 1)
        trace.membership_change(4.0, 1, "join", 2, (0, 1))
        events = events_from_trace(trace)
        checkable = [
            record for record in trace
            if type(record) not in (ProtocolStep, TransientFault)
        ]
        assert len(events) == len(checkable) == 5
        assert all(event is record for event, record in zip(events, checkable))

    def test_membership_record_from_a_json_list_survives_the_round_trip(self):
        import json

        from repro.checks import MembershipEvent, load_events_lines
        from repro.trace.events import MembershipChange
        from repro.trace.serialize import record_to_dict

        record = MembershipChange(4.0, 1, "join", 2, [0, 1])  # edges as JSON gives them
        (loaded,) = load_events_lines([json.dumps(record_to_dict(record))])
        assert loaded == record == MembershipEvent(4.0, 1, "join", 2, (0, 1))
        assert hash(loaded) == hash(record)

    def test_unknown_kind_rejected(self, tmp_path):
        artifact = tmp_path / "bad.jsonl"
        artifact.write_text('{"kind": "mystery", "time": 0.0}\n')
        with pytest.raises(ConfigurationError, match="unknown event kind"):
            load_events_path(str(artifact))

    def test_merge_orders_sends_before_departures(self):
        deliver = _deliver(1.0, 0, 1, seq=1)
        send = _send(1.0, 0, 1, seq=1)
        assert merge_events([deliver], [send]) == [send, deliver]


class TestBindWindows:
    """One place binds the eventual properties' windows on both substrates."""

    def test_static_suite_binds_each_eventual_window_on_its_one_checker(self):
        suite = standard_suite([(0, 1), (1, 2)])
        suite.bind_windows(settle=7.0, patience=30.0, after=9.0)
        assert suite.checker(WX_SAFETY).settle == 7.0
        assert suite.checker(PROGRESS).patience == 30.0
        assert suite.checker(OVERTAKING).after == 9.0
        names = [checker.name for checker in suite.checkers]
        assert len(names) == len(set(names))

    def test_none_leaves_a_window_as_configured(self):
        suite = standard_suite([(0, 1)], CheckConfig(settle=3.0, patience=11.0))
        suite.bind_windows(after=5.0)
        assert suite.checker(WX_SAFETY).settle == 3.0
        assert suite.checker(PROGRESS).patience == 11.0
        assert suite.checker(OVERTAKING).after == 5.0

    def test_churn_suite_binds_settle_on_its_one_wx_safety_checker(self):
        log = MembershipLog([MembershipDelta(time=4.0, verb="leave", pid=2)])
        timeline = TopologyTimeline(ring(4), log)
        suite = standard_suite(sorted(timeline.union().edges), membership=timeline)
        suite.bind_windows(settle=12.0)
        assert suite.checker(WX_SAFETY).settle == 12.0
        assert suite.checker(PROGRESS).patience is None
        static = standard_suite(sorted(ring(4).edges))
        assert [c.name for c in suite.checkers] == [c.name for c in static.checkers]

    def test_bound_settle_turns_a_late_overlap_into_a_failure(self):
        suite = standard_suite([(0, 1)], state_probes=False, diner_locals=False)
        for pid in (0, 1):
            suite.observe(PhaseEvent(5.0, pid, "hungry", "eating"))
        for pid in (0, 1):
            suite.observe(PhaseEvent(6.0, pid, "eating", "thinking"))
        assert suite.finalize(10.0).property(WX_SAFETY).status != "fail"
        suite.bind_windows(settle=2.0)
        assert suite.finalize(10.0).property(WX_SAFETY).status == "fail"
