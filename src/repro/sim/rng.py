"""Named, independent random streams derived from a single master seed.

Every stochastic component of a simulation (per-channel latency, hunger
workloads, crash injectors, ...) draws from its own named stream.  Streams
are derived deterministically from ``(master_seed, name)``, so:

* the same master seed replays the same run bit-for-bit;
* adding a new stochastic component does not perturb the draws seen by
  existing components (no shared-stream coupling);
* two components can be compared across configurations while holding the
  other components' randomness fixed.

Derivation hashes the name with SHA-256 rather than Python's ``hash``,
which is salted per interpreter run and would break replayability.

A stream holds its seed, a draw count and at most 32 pre-drawn ``random()``
values, not 2.5 KB of :class:`random.Random` state.  A refill re-seeds the
family's scratch generator and skips the ``u`` values drawn with
``getrandbits(64 * u)``, exact as ``random()`` takes two 32-bit words; other
methods, or ``_MATERIALIZE_AT`` draws, build a private generator there.  So a
stream returns what ``random.Random(seed)`` would, but is not one.
"""

from __future__ import annotations

import hashlib
from array import array
from random import Random

_BLOCK = 32
_MATERIALIZE_AT = 512  # past this, a refill's skip costs more than its re-seed, and grows


class _Stream:
    """Seed, values drawn, unread block (reversed; None once materialized), generator."""

    __slots__ = ("_seed", "_drawn", "_block", "_source")

    def __init__(self, seed: int, scratch: Random) -> None:
        self._seed, self._drawn, self._block, self._source = seed, 0, (), scratch

    def random(self) -> float:
        block = self._block
        if block:
            return block.pop()
        if block is None:
            return self._source.random()
        if self._drawn >= _MATERIALIZE_AT:
            return self._materialize().random()
        scratch = self._source
        scratch.seed(self._seed)
        scratch.getrandbits(64 * self._drawn)
        block = self._block = array("d", reversed([scratch.random() for _ in range(_BLOCK)]))
        self._drawn += _BLOCK
        return block.pop()

    uniform = Random.uniform
    expovariate = Random.expovariate
    normalvariate = Random.normalvariate
    lognormvariate = Random.lognormvariate
    triangular = Random.triangular

    def _materialize(self) -> Random:
        if self._block is not None:
            skip, self._block = self._drawn - len(self._block), None
            self._source = Random(self._seed)
            self._source.getrandbits(64 * skip)
        return self._source


def _delegate(name: str):  # a method: a __getattr__ would slow every attribute read
    return lambda self, *args, **kwargs: getattr(self._materialize(), name)(*args, **kwargs)


for _name in dir(Random):  # every other public method materializes the stream first
    if _name[0] != "_" and callable(getattr(Random, _name)) and not hasattr(_Stream, _name):
        setattr(_Stream, _name, _delegate(_name))


class RandomStreams:
    """Factory of independent streams, each exact to a :class:`random.Random`."""

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = int(master_seed)
        self._streams: dict[str, _Stream] = {}
        self._scratch = Random(0)

    @property
    def master_seed(self) -> int:
        return self._master_seed

    def stream(self, name: str) -> _Stream:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the same stream object,
        so a component can re-fetch its stream instead of storing it.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(f"{self._master_seed}/{name}".encode("utf-8")).digest()
        stream = self._streams[name] = _Stream(int.from_bytes(digest[:8], "big"), self._scratch)
        return stream

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child family of streams, namespaced under ``name``.

        Useful when a sub-experiment needs its own independent universe of
        streams without coordinating names with the parent.
        """
        digest = hashlib.sha256(f"{self._master_seed}//{name}".encode("utf-8")).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))
