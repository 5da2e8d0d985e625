"""Diner-local state (Section 3.1).

Each process keeps a trivalent dining phase, a doorway flag, a static
color, and six booleans per neighbor:

========== =====================================================
``pinged``   a ping to that neighbor is pending (sent, unanswered)
``ack``      an ack was received this hungry session, pre-doorway
``deferred`` a ping from that neighbor awaits our doorway exit
``replied``  an ack was already granted this hungry session
``fork``     we hold the shared fork
``token``    we hold the request token
========== =====================================================

:func:`local_state_bits` reproduces the Section 7 space bound
``log₂(δ) + 6δ + c``.  The kernel keeps bytes, not bits: a slotted
:class:`NeighborLinks` is 80 B, and a built diner ≈3.2 KB at mean degree
9.3 (``docs/PERFORMANCE.md`` compares the two).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from repro.trace.events import EATING, HUNGRY, THINKING


class DinerState(Enum):
    """The trivalent dining phase; values match the trace phase names."""

    THINKING = THINKING
    HUNGRY = HUNGRY
    EATING = EATING

    @property
    def phase(self) -> str:
        return self.value


@dataclass(slots=True)
class NeighborLinks:
    """The six per-neighbor booleans of Algorithm 1.

    ``fork``/``token`` initial placement follows Section 3.1: the fork
    starts at the higher-color endpoint, the token at the lower-color one
    (so exactly one of the two booleans is initially true on each side).
    """

    pinged: bool = False
    ack: bool = False
    deferred: bool = False
    replied: bool = False
    fork: bool = False
    token: bool = False

    @staticmethod
    def initial(own_color: int, neighbor_color: int) -> "NeighborLinks":
        if own_color == neighbor_color:
            raise ValueError(
                f"neighbors share color {own_color}; priorities must differ"
            )
        higher = own_color > neighbor_color
        return NeighborLinks(fork=higher, token=not higher)

    def deferring_fork_request(self) -> bool:
        """True when a fork request from this neighbor awaits our exit.

        The paper encodes a deferred fork request as ``token ∧ fork``: we
        hold both the fork and the (received) token.
        """
        return self.token and self.fork


def local_state_bits(degree: int, n_colors: int) -> int:
    """Section 7 space accounting: ``log₂(δ) + 6δ + c`` bits per process.

    ``n_colors`` is the number of distinct colors in use (O(δ) for the
    provided coloring algorithms); the constant covers the 2-bit phase and
    the doorway flag.
    """
    color_bits = max(1, math.ceil(math.log2(max(n_colors, 2))))
    return color_bits + 6 * degree + 3
