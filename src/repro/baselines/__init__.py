"""Baseline and comparison algorithms — the classical-DME zoo.

* :mod:`choy_singh` — the original asynchronous doorway algorithm
  (crash-oblivious; starves once anything crashes) and the no-ack-throttle
  ablation of Algorithm 1;
* :mod:`fork_priority` — forks-only static priority (no doorway;
  unbounded overtaking, starves under saturation);
* :mod:`edge_reversal` — Chandy–Misra acyclic-orientation scheduling
  (perpetual exclusion with zero request traffic; a crash freezes the
  orientation in its neighborhood);
* :mod:`perfect_dining` — Algorithm 1 over the perfect detector P
  (perpetual weak exclusion; the stronger-oracle comparison point);
* :mod:`bakery` — Lamport's bakery over message passing (FCFS in ticket
  order, but unbounded ticket numbers ⇒ unbounded message bits under the
  Section 7 accounting);
* :mod:`ricart_agrawala` — request/reply deferral with Lamport clocks
  (2 messages per edge per session; crash-oblivious by construction);
* :mod:`lehmann_rabin` — randomized fork-order dining (symmetric and
  oracle-free; progress only with probability 1, judged over seed
  ensembles);
* :mod:`classic` — ``ClassicDiner``, the session shell (timers, phase
  and crash records, crash-oblivious membership) that edge reversal, the
  bakery, Ricart–Agrawala and Lehmann–Rabin share, each keeping only its
  protocol;
* :mod:`messages` — the wire vocabulary the bakery / Ricart–Agrawala /
  Lehmann–Rabin diners speak;
* :mod:`bakeoff` — the comparative harness racing the whole zoo through
  one verdict pipeline (``repro bakeoff``; imported on demand, not here).
"""

from repro.baselines.ablations import NoDoorwaySuspicionDiner, NoForkSuspicionDiner
from repro.baselines.bakery import BakeryDiner, bakery_table
from repro.baselines.choy_singh import ChoySinghDiner, choy_singh_table
from repro.baselines.edge_reversal import EdgeReversalDiner, edge_reversal_table
from repro.baselines.fork_priority import ForkPriorityDiner, fork_priority_table
from repro.baselines.lehmann_rabin import LehmannRabinDiner, lehmann_rabin_table
from repro.baselines.perfect_dining import perfect_dining_table
from repro.baselines.ricart_agrawala import RicartAgrawalaDiner, ricart_agrawala_table

__all__ = [
    "BakeryDiner",
    "ChoySinghDiner",
    "EdgeReversalDiner",
    "ForkPriorityDiner",
    "LehmannRabinDiner",
    "NoDoorwaySuspicionDiner",
    "NoForkSuspicionDiner",
    "RicartAgrawalaDiner",
    "bakery_table",
    "choy_singh_table",
    "edge_reversal_table",
    "fork_priority_table",
    "lehmann_rabin_table",
    "perfect_dining_table",
    "ricart_agrawala_table",
]
