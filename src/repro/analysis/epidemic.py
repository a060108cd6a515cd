"""Epidemic processes (the paper's foundational propagation primitive).

In the *one-way* epidemic an infected initiator infects the responder;
in the *two-way* epidemic an interaction infects both participants if
either was infected.  Both complete in Theta(log n) parallel time; the
paper's reset wave, roster propagation and awakening wave are all
epidemics in disguise, so these simulators double as ground truth for
those components' timing.

The number of infected agents is a pure-birth jump chain, so we simulate
it exactly by skipping null interactions with geometric jumps (the same
technique as :mod:`repro.core.fastpath`): with ``k`` infected among
``n``, the next interaction spreads the infection with probability
``k (n - k) / (n (n - 1))`` (one-way) or twice that (two-way).
"""

from __future__ import annotations

import random

from repro.core.rng import geometric


def _simulate_epidemic(
    n: int, rng: random.Random, initial_infected: int, directional_factor: int
) -> int:
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1 <= initial_infected <= n:
        raise ValueError(f"initial_infected must be in 1..{n}")
    pairs = n * (n - 1)
    interactions = 0
    infected = initial_infected
    while infected < n:
        p = directional_factor * infected * (n - infected) / pairs
        interactions += geometric(rng, p) + 1
        infected += 1
    return interactions


def simulate_one_way_epidemic(
    n: int, rng: random.Random, initial_infected: int = 1
) -> int:
    """Interactions until a one-way epidemic infects all ``n`` agents."""
    return _simulate_epidemic(n, rng, initial_infected, directional_factor=1)


def simulate_two_way_epidemic(
    n: int, rng: random.Random, initial_infected: int = 1
) -> int:
    """Interactions until a two-way epidemic infects all ``n`` agents."""
    return _simulate_epidemic(n, rng, initial_infected, directional_factor=2)


def one_way_epidemic_expected_time(n: int) -> float:
    """Exact expected parallel time of the one-way epidemic.

    ``E[interactions] = sum_{k=1}^{n-1} n (n-1) / (k (n-k))
    = 2 (n-1) H_{n-1} ~ 2 n ln n``, i.e. ``~ 2 ln n`` parallel time.
    """
    from repro.analysis.harmonic import harmonic

    return 2.0 * (n - 1) * harmonic(n - 1) / n


def two_way_epidemic_expected_time(n: int) -> float:
    """Exact expected parallel time of the two-way epidemic (~ ln n)."""
    return one_way_epidemic_expected_time(n) / 2.0
