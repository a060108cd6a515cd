"""Coupon collector and the slow ``L, L -> L, F`` leader election.

Two classical processes the paper leans on:

* **Coupon collector** underlies the Omega(log n) lower bound for any
  SSLE protocol: from the valid initial configuration in which all
  ``n`` agents are leaders, ``n - 1`` of them must interact at least
  once, which takes Omega(log n) parallel time.

* **Slow leader election** ``L, L -> L, F`` is run by the dormant
  population inside Optimal-Silent-SSR's reset: with ``k`` leaders the
  next interaction merges two with probability
  ``k (k - 1) / (n (n - 1))``, so reaching a unique leader takes
  ``sum_k n (n-1) / (k (k-1)) = n (n - 1) (1 - 1/(n-1)) ~ n^2``
  interactions, i.e. Theta(n) parallel time -- which is why the dormant
  delay ``D_max`` must be Theta(n) for the election to finish during
  dormancy with constant probability.

Both are pure-death jump chains, simulated exactly with geometric
skips.
"""

from __future__ import annotations

import random

from repro.analysis.harmonic import harmonic
from repro.core.rng import geometric


def simulate_coupon_collector(n: int, rng: random.Random) -> int:
    """Draws until all ``n`` coupons have been seen (exact jump chain)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    draws = 0
    for collected in range(n):
        p = (n - collected) / n
        draws += geometric(rng, p) + 1
    return draws


def coupon_collector_expected_time(n: int) -> float:
    """Expected draws: ``n * H_n``."""
    return n * harmonic(n)


def simulate_slow_leader_election(
    n: int, rng: random.Random, initial_leaders: int = 0
) -> int:
    """Interactions for ``L, L -> L, F`` to reach a unique leader.

    ``initial_leaders`` defaults to all ``n`` agents (the post-trigger
    situation inside Optimal-Silent-SSR's dormant phase, where every
    agent entered the Resetting role as a leader).
    """
    leaders = initial_leaders or n
    if not 1 <= leaders <= n:
        raise ValueError(f"initial_leaders must be in 1..{n}")
    pairs = n * (n - 1)
    interactions = 0
    while leaders > 1:
        p = leaders * (leaders - 1) / pairs
        interactions += geometric(rng, p) + 1
        leaders -= 1
    return interactions


def slow_leader_election_expected_time(n: int, initial_leaders: int = 0) -> float:
    """Expected parallel time to a unique leader.

    ``E[interactions] = sum_{k=2}^{L} n (n - 1) / (k (k - 1))
    = n (n - 1) (1 - 1/L)``, divided by ``n`` for parallel time.
    """
    leaders = initial_leaders or n
    if not 1 <= leaders <= n:
        raise ValueError(f"initial_leaders must be in 1..{n}")
    return (n - 1) * (1.0 - 1.0 / leaders)
