"""Synthetic coins: derandomizing transitions (paper footnotes 5-6).

The paper allows randomized transitions "for ease of presentation" and
notes that all its protocols can be made deterministic by standard
*synthetic coin* techniques without changing the time or space bounds.
The technique: every agent carries one extra ``coin`` bit that it flips
on each of its interactions.  Because the scheduler pairs agents
uniformly at random, the parity of how many interactions a partner has
participated in is (after a short mixing period) essentially a fair,
independent coin -- so a transition that needs a random bit simply reads
its partner's coin, and the transition *function* is deterministic.

This module provides the primitive and its measurement:

* :func:`partner_coin_bit` / coin toggling conventions;
* :func:`measure_coin_bias` -- empirical bias of partner-observed coins
  from a worst-case (all-zeros) start, showing the geometric decay that
  makes the technique sound;
* Sublinear-Time-SSR exposes ``deterministic_names=True``, which wires
  the coin into the exact line the paper annotates ("append a random bit
  to name // can be derandomized", Protocol 5 line 15): dormant agents
  regrow their names from partner coin bits instead of the RNG.

One caveat, faithfully inherited from the technique: a coin-carrying
protocol is never *silent* (coins flip forever), so the derandomized
``H = 0`` variant trades away the silence property that the randomized
one has.  The bounds in Table 1 are unaffected.
"""

from __future__ import annotations

import random
from typing import List

from repro.core.scheduler import UniformRandomScheduler


def toggle(coin: int) -> int:
    """Flip a coin bit (agents do this on every interaction)."""
    return coin ^ 1


def partner_coin_bit(partner_coin: int) -> int:
    """The bit a transition reads when it needs randomness."""
    return partner_coin & 1


def measure_coin_bias(
    n: int,
    interactions: int,
    rng: random.Random,
    *,
    sample_after: int = 0,
) -> float:
    """Empirical bias of partner coins from the worst-case all-zeros start.

    Simulates a population doing nothing but flipping coins, records the
    coin bit each responder *observes* on its initiator (from interaction
    ``sample_after`` on), and returns ``|P[bit = 1] - 1/2|``.  From the
    adversarial all-zeros configuration the observed bias decays with
    mixing; sampling after ~n log n interactions it is statistically
    indistinguishable from fair.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if interactions <= sample_after:
        raise ValueError("need interactions > sample_after")
    coins: List[int] = [0] * n  # worst case: perfectly correlated start
    scheduler = UniformRandomScheduler(n)
    ones = 0
    samples = 0
    for step in range(interactions):
        i, j = scheduler.next_pair(rng)
        if step >= sample_after:
            ones += coins[i]  # the bit the responder would consume
            samples += 1
        coins[i] = toggle(coins[i])
        coins[j] = toggle(coins[j])
    return abs(ones / samples - 0.5)
