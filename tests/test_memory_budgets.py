"""Memory budgets of the kernel's per-diner and per-channel state.

Section 7 bounds a process's local state at O(δ) bits; the kernel keeps
bytes, and these tests pin how many.  Both budgets are tracemalloc counts
on the ``kernel_scale`` table (geometric-1000, seed 0,
``UniformLatency(0.5, 1.5)``, ``AlwaysHungry(0.5, 0.01)``, 60 virtual s),
so they do not depend on the allocator or the box.  The figures in the
comments were measured with CPython 3.11.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core import AlwaysHungry, DiningTable, scripted_detector
from repro.graphs import topologies
from repro.sim.actor import Actor
from repro.sim.kernel import Simulator
from repro.sim.latency import UniformLatency
from repro.sim.network import Network
from repro.sim.rng import RandomStreams

# The files that hold per-channel state: the network (its channel ids,
# channel tables, pooled delivery records, and the check adapter's FIFO,
# pending-ping and occupancy tables, which the network allocates), and
# the latency streams' rows.
_CHANNEL_FILES = ("*/repro/sim/network.py", "*/repro/sim/rng.py", "*/repro/sim/latency.py")


def _traced(snapshot, patterns):
    filters = [tracemalloc.Filter(True, pattern) for pattern in patterns]
    return sum(stat.size for stat in snapshot.filter_traces(filters).statistics("filename"))


@pytest.fixture(scope="module")
def scale_table_memory():
    graph = topologies.by_name("geometric", 1000, seed=0)
    tracemalloc.start()
    try:
        empty = tracemalloc.take_snapshot()
        table = DiningTable(
            graph,
            seed=0,
            latency=UniformLatency(0.5, 1.5),
            workload=AlwaysHungry(eat_time=0.5, think_time=0.01),
            detector=scripted_detector(),
        )
        built = tracemalloc.take_snapshot()
        table.run(until=60.0)
        ran = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    built_bytes = sum(stat.size_diff for stat in built.compare_to(empty, "filename"))
    channel_bytes = _traced(ran, _CHANNEL_FILES) - _traced(built, _CHANNEL_FILES)
    return table, built_bytes, channel_bytes


def test_built_state_stays_under_4_5_kb_per_diner(scale_table_memory):
    # ≈6.3 KB per diner with an instance dict per diner (it outgrew the
    # shared-key limit), a (neighbor, link) tuple list, two empty
    # membership sets and a frozenset scope per detector module; ≈3.2 KB
    # with slotted actors and modules; ≈2.7 KB with one substrate per
    # network and one neighbor map for the ◇WX and overtaking checkers.
    table, built_bytes, _ = scale_table_memory
    assert built_bytes / len(table.diners) <= 4500


def test_channel_growth_stays_under_500_bytes_per_directed_channel(scale_table_memory):
    # ≈989 B per channel when each channel had a [front, seq] cell, a
    # (src, dst) key in three dicts, a kept stream name and a stream
    # object with a 32-value block; ≈456 B with channel ids, arrays, and
    # stream rows with a 16-value first fill; ≈405 B with the delivery
    # pool trimmed to the messages in flight (the channel-bound count's
    # 16 B per channel now counts here, in the network's tables).
    table, _, channel_bytes = scale_table_memory
    channels = sum(len(table.network.channel_ids(pid)) for pid in table.diners)
    assert channels == 9274
    assert channel_bytes / channels <= 500


class _Sink(Actor):
    def __init__(self, pid):
        super().__init__(pid)
        self.arrivals = []

    def on_message(self, src, message):
        self.arrivals.append(self.now)


def test_channel_delays_are_the_named_streams_draws_across_refills():
    # 60 sends cross the 16-value first fill and a 32-value refill.  Sends
    # are 10 s apart, so FIFO clamping never moves an arrival.
    low, high, seed, sends = 0.5, 1.5, 7, 60
    sim = Simulator(seed=seed)
    network = Network(sim, latency=UniformLatency(low, high))
    sender, receiver = _Sink(3), _Sink(5)
    network.register(sender)
    network.register(receiver)
    # Traffic on the reverse channel interleaves with the measured one.
    for k in range(sends):
        sim.schedule_at(10.0 * k, lambda: sender.send(5, "x"))
        sim.schedule_at(10.0 * k + 0.25, lambda: receiver.send(3, "y"))
    sim.run_until_quiescent()
    expected = RandomStreams(seed).stream("latency/3->5")
    assert receiver.arrivals == [10.0 * k + expected.uniform(low, high) for k in range(sends)]
