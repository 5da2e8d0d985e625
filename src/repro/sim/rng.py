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

A stream is a row of a :class:`StreamRows` table: its seed, a draw count and
at most 32 pre-drawn ``random()`` values, not 2.5 KB of
:class:`random.Random` state.  The first fill draws 16 (most channels draw
fewer), later ones 32.  A refill re-seeds the table's scratch generator and
skips the ``u`` values drawn with ``getrandbits(64 * u)``, exact as
``random()`` takes two 32-bit words; other methods, or ``_MATERIALIZE_AT``
draws, build a private generator there.  So a stream returns what
``random.Random(seed)`` would, but is not one.
"""

from __future__ import annotations

import hashlib
from array import array
from random import Random

_FIRST_BLOCK = 16  # a kernel_scale channel draws 14 at the median, and 83 % draw <= 16
_BLOCK = 32
_MATERIALIZE_AT = 512  # past this, a refill's skip costs more than its re-seed, and grows


class _Draws:
    """``random.Random``'s methods over ``random()``: the float methods call it,
    every other method materializes the stream first (``_materialize``)."""

    __slots__ = ()
    uniform = Random.uniform
    expovariate = Random.expovariate
    normalvariate = Random.normalvariate
    lognormvariate = Random.lognormvariate
    triangular = Random.triangular


def _delegate(name: str):  # a method: a __getattr__ would slow every attribute read
    return lambda self, *args, **kwargs: getattr(self._materialize(), name)(*args, **kwargs)


for _name in dir(Random):
    if _name[0] != "_" and callable(getattr(Random, _name)) and not hasattr(_Draws, _name):
        setattr(_Draws, _name, _delegate(_name))


class StreamRows(_Draws):
    """Many streams, one row each: the seed, the values drawn into blocks, and
    the unread block (reversed, served by ``pop``; ``()`` before the first
    fill, None once the row has a private generator).  It draws from row
    :attr:`row`, so a holder of many streams (the network, one row per
    channel id) points ``row`` at one and passes the table as the generator.
    """

    __slots__ = ("row", "_master_seed", "_scratch", "_seeds", "_drawn", "_blocks", "_private")

    def __init__(self, master_seed: int, scratch: Random) -> None:
        self.row, self._master_seed, self._scratch = 0, master_seed, scratch
        self._seeds, self._drawn, self._blocks, self._private = array("Q"), array("I"), [], {}

    def add(self, name: str) -> int:
        """Append the row of stream ``name``; returns its index."""
        digest = hashlib.sha256(f"{self._master_seed}/{name}".encode("utf-8")).digest()
        self._seeds.append(int.from_bytes(digest[:8], "big"))
        self._drawn.append(0)
        self._blocks.append(())
        return len(self._blocks) - 1

    def random(self) -> float:
        row = self.row
        block = self._blocks[row]
        if block:
            return block.pop()
        if block is None:
            return self._private[row].random()
        drawn = self._drawn[row]
        if drawn >= _MATERIALIZE_AT:
            return self._materialize().random()
        size = _BLOCK if drawn else _FIRST_BLOCK
        scratch = self._scratch
        scratch.seed(self._seeds[row])
        scratch.getrandbits(64 * drawn)
        block = self._blocks[row] = array("d", reversed([scratch.random() for _ in range(size)]))
        self._drawn[row] = drawn + size
        return block.pop()

    def _materialize(self) -> Random:
        row = self.row
        block = self._blocks[row]
        if block is not None:
            self._private[row] = Random(self._seeds[row])
            self._private[row].getrandbits(64 * (self._drawn[row] - len(block)))
            self._blocks[row] = None
        return self._private[row]


class _Stream(_Draws):
    """One named stream: a row of its family's table."""

    __slots__ = ("_rows", "_row")

    def __init__(self, rows: StreamRows, row: int) -> None:
        self._rows, self._row = rows, row

    def random(self) -> float:
        self._rows.row = self._row
        return self._rows.random()

    def _materialize(self) -> Random:
        self._rows.row = self._row
        return self._rows._materialize()


class RandomStreams:
    """Factory of independent streams, each exact to a :class:`random.Random`."""

    def __init__(self, master_seed: int = 0) -> None:
        self._master_seed = int(master_seed)
        self._streams: dict[str, _Stream] = {}
        self._scratch = Random(0)
        self._rows = self.rows()

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
        stream = self._streams[name] = _Stream(self._rows, self._rows.add(name))
        return stream

    def rows(self) -> StreamRows:
        """An empty table whose row ``add(name)`` draws what ``stream(name)``
        draws; neither the name nor a stream object is kept."""
        return StreamRows(self._master_seed, self._scratch)

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child family of streams, namespaced under ``name``.

        Useful when a sub-experiment needs its own independent universe of
        streams without coordinating names with the parent.
        """
        digest = hashlib.sha256(f"{self._master_seed}//{name}".encode("utf-8")).digest()
        return RandomStreams(int.from_bytes(digest[:8], "big"))
