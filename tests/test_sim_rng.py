"""Unit tests for named random streams."""

import hashlib
import math
import random
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.sim import rng
from repro.sim.rng import RandomStreams


class TestStreamIdentity:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_different_names_are_independent_generators(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is not streams.stream("b")


class TestDeterminism:
    def test_same_seed_same_name_replays(self):
        first = RandomStreams(42).stream("latency/0->1")
        second = RandomStreams(42).stream("latency/0->1")
        assert [first.random() for _ in range(20)] == [second.random() for _ in range(20)]

    def test_different_seeds_diverge(self):
        a = RandomStreams(1).stream("x")
        b = RandomStreams(2).stream("x")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_names_diverge(self):
        streams = RandomStreams(7)
        a = streams.stream("one")
        b = streams.stream("two")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_adding_a_stream_does_not_perturb_existing(self):
        # Draw from "a", then create "b", then keep drawing from "a":
        # the sequence must match drawing from "a" alone.
        solo = RandomStreams(9).stream("a")
        expected = [solo.random() for _ in range(10)]

        streams = RandomStreams(9)
        a = streams.stream("a")
        got = [a.random() for _ in range(5)]
        streams.stream("b").random()
        got += [a.random() for _ in range(5)]
        assert got == expected


class TestSpawn:
    def test_spawn_is_deterministic(self):
        a = RandomStreams(3).spawn("child").stream("s")
        b = RandomStreams(3).spawn("child").stream("s")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_spawn_differs_from_parent(self):
        parent = RandomStreams(3)
        child = parent.spawn("child")
        assert child.master_seed != parent.master_seed

    def test_spawn_names_are_independent(self):
        parent = RandomStreams(3)
        a = parent.spawn("left").stream("s")
        b = parent.spawn("right").stream("s")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]


def test_master_seed_exposed():
    assert RandomStreams(17).master_seed == 17


# ----------------------------------------------------------------------
# Exactness: a stream returns what random.Random(seed) returns
# ----------------------------------------------------------------------
def _reference(master_seed, name):
    """``random.Random`` seeded as ``RandomStreams(master_seed).stream(name)`` is."""
    digest = hashlib.sha256(f"{master_seed}/{name}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


_POOL = list(range(37))

# Each op draws once from a generator and returns what a caller would see.
_OPS = {
    "random": lambda r: r.random(),
    "uniform": lambda r: r.uniform(0.5, 1.5),
    "expovariate": lambda r: r.expovariate(1.5),
    "normalvariate": lambda r: r.normalvariate(0.0, 1.0),
    "lognormvariate": lambda r: r.lognormvariate(0.0, 0.5),
    "triangular": lambda r: r.triangular(0.0, 1.0, 0.3),
    "gauss": lambda r: r.gauss(0.0, 1.0),
    "choice": lambda r: r.choice(_POOL),
    "randrange": lambda r: r.randrange(1000),
    "sample": lambda r: r.sample(_POOL, 5),
    "shuffle": lambda r: _shuffled(r),
    "getrandbits": lambda r: r.getrandbits(77),
}
_BLOCK_SERVED = [
    "random", "uniform", "expovariate", "normalvariate", "lognormvariate", "triangular",
]


def _shuffled(r):
    items = list(_POOL)
    r.shuffle(items)
    return items


def _programs():
    """Interleaved calls on two streams of one family.

    A leading run of block-served draws carries most programs across
    refills, and about half of them past the draw count at which a stream
    materializes; the other methods materialize it wherever they fall.
    """
    step = st.tuples(
        st.integers(min_value=0, max_value=1),
        st.sampled_from(_BLOCK_SERVED * 3 + sorted(set(_OPS) - set(_BLOCK_SERVED))),
        st.integers(min_value=1, max_value=80),
    )
    warmup = st.integers(min_value=0, max_value=700) | st.integers(min_value=500, max_value=540)
    return st.tuples(warmup, st.lists(step, max_size=12))


@given(st.integers(min_value=0, max_value=2**64 - 1), _programs())
@settings(max_examples=60, deadline=None)
def test_a_stream_returns_exactly_what_random_random_returns(master_seed, program):
    warmup, steps = program
    streams = RandomStreams(master_seed)
    names = ("latency/0->1", "latency/1->0")
    pairs = [(streams.stream(name), _reference(master_seed, name)) for name in names]
    steps = [(0, "uniform", warmup), (1, "random", 1)] + steps
    for which, op, repeat in steps:
        stream, reference = pairs[which]
        for _ in range(repeat):
            assert _OPS[op](stream) == _OPS[op](reference), (which, op)
    for stream, reference in pairs:
        assert stream.getstate() == reference.getstate()


def test_a_stream_is_compatible_with_but_not_a_random_random():
    stream = RandomStreams(4).stream("s")
    assert not isinstance(stream, random.Random)
    assert stream.choice(_POOL) == _reference(4, "s").choice(_POOL)


# ----------------------------------------------------------------------
# Memory and refill cost, pinned by counts rather than wall clock
# ----------------------------------------------------------------------
def test_a_drawn_stream_holds_hundreds_of_bytes_not_kilobytes():
    # A random.Random alone holds 2,500 B of Mersenne Twister state.
    streams = RandomStreams(5)
    names = [f"latency/{i}->{i + 1}" for i in range(1000)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for name in names:
            stream = streams.stream(name)
            for _ in range(20):
                stream.uniform(0.5, 1.5)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / len(names) < 600


def test_refills_reseed_once_per_block_and_materialize_at_most_once(monkeypatch):
    counts = {"made": 0, "seeded": 0}

    class Counting(random.Random):
        def __init__(self, x=None):
            counts["made"] += 1
            super().__init__(x)

        def seed(self, *args, **kwargs):
            counts["seeded"] += 1
            super().seed(*args, **kwargs)

    monkeypatch.setattr(rng, "Random", Counting)
    streams = RandomStreams(6)
    assert counts == {"made": 1, "seeded": 1}  # the family's scratch generator
    stream, reference = streams.stream("x"), _reference(6, "x")
    draws = 10_000
    assert [stream.uniform(0.5, 1.5) for _ in range(draws)] == [
        reference.uniform(0.5, 1.5) for _ in range(draws)
    ]
    materialized = counts["made"] - 1
    reseeds = counts["seeded"] - counts["made"]  # a construction seeds once
    assert materialized <= 1
    assert reseeds <= math.ceil(draws / 32)
