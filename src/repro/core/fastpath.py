"""Fast specialized simulators for rank-counter protocols.

The reproduction-difficulty note for this paper flags exactly one
engineering obstacle: Silent-n-state-SSR stabilizes in Theta(n^2)
*parallel* time, i.e. Theta(n^3) interactions, and a naive pairwise loop
in Python cannot reach interesting population sizes.  The protocol,
however, has a special structure: an interaction changes anything only
when the two participants hold the *same* rank, and the configuration's
future depends only on the vector of rank counts.  That makes the
process a continuous-of-discrete-time jump chain we can simulate
*exactly* (in distribution) by

1. sampling the number of null interactions before the next effective
   one from a geometric law with success probability
   ``p = sum_r c_r (c_r - 1) / (n (n - 1))``, and
2. choosing the colliding rank ``r`` with probability proportional to
   ``c_r (c_r - 1)`` and moving one agent from ``r`` to ``(r + 1) mod n``.

Every interaction the naive scheduler would have produced is accounted
for, so interaction counts (and hence parallel times) have exactly the
same distribution as the sequential engine's -- validated against the
generic engine in the test suite.

A Fenwick (binary indexed) tree (now shared with the count engine via
:mod:`repro.core.fenwick`) keeps the weighted rank choice at
``O(log n)`` per event, giving roughly ``O(E log n)`` total work for
``E`` effective events instead of ``Theta(n^3)`` scheduler draws.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.core.fenwick import FenwickTree
from repro.core.rng import geometric

__all__ = [
    "CiwJumpSimulator",
    "FenwickTree",  # historical import site; canonical home is core.fenwick
    "uniform_random_ciw_counts",
    "worst_case_ciw_counts",
]


class CiwJumpSimulator:
    """Exact-jump simulator for Silent-n-state-SSR (Protocol 1).

    Tracks only the rank-count vector ``counts[r]`` for ranks
    ``0..n-1`` (the paper's convention for this protocol).  The
    configuration is correct -- and, because the protocol is silent and
    the correct configuration has no applicable transition, *stably*
    correct -- exactly when every count equals 1.

    Attributes
    ----------
    interactions:
        Total interactions (null + effective) accounted for so far.
    events:
        Effective (state-changing) interactions so far.
    """

    def __init__(self, counts: Sequence[int], rng: random.Random):
        self.n = sum(counts)
        if self.n < 2:
            raise ValueError("population must have at least 2 agents")
        if len(counts) != self.n:
            raise ValueError(
                f"rank domain must have size n={self.n}, got {len(counts)} ranks"
            )
        if any(c < 0 for c in counts):
            raise ValueError("counts must be non-negative")
        self.counts: List[int] = list(counts)
        self.rng = rng
        self.interactions = 0
        self.events = 0
        self._pairs = self.n * (self.n - 1)
        self._tree = FenwickTree(self.n)
        for rank, count in enumerate(self.counts):
            self._tree.set(rank, count * (count - 1))

    @property
    def colliding_weight(self) -> int:
        """``sum_r c_r (c_r - 1)``: ordered colliding pairs available."""
        return self._tree.total()

    @property
    def converged(self) -> bool:
        """All ranks held by exactly one agent (silent, stably correct)."""
        return self.colliding_weight == 0

    @property
    def parallel_time(self) -> float:
        return self.interactions / self.n

    def step_event(self) -> None:
        """Advance to (and apply) the next effective interaction."""
        weight = self.colliding_weight
        if weight == 0:
            raise ValueError("simulator already converged; no events remain")
        p = weight / self._pairs
        self.interactions += geometric(self.rng, p) + 1
        self.events += 1
        rank = self._tree.sample(self.rng)
        counts = self.counts
        nxt = (rank + 1) % self.n
        counts[rank] -= 1
        counts[nxt] += 1
        self._tree.set(rank, counts[rank] * (counts[rank] - 1))
        self._tree.set(nxt, counts[nxt] * (counts[nxt] - 1))

    def run_to_convergence(self, max_events: Optional[int] = None) -> int:
        """Run until converged; return total interactions.

        ``max_events`` is a safety valve for tests; the chain converges
        with probability 1 so production use leaves it unset.
        """
        executed = 0
        while not self.converged:
            if max_events is not None and executed >= max_events:
                raise RuntimeError(f"exceeded {max_events} effective events")
            self.step_event()
            executed += 1
        return self.interactions


def worst_case_ciw_counts(n: int) -> List[int]:
    """The paper's Omega(n^2) witness configuration for Protocol 1.

    Two agents at rank 0, no agent at rank ``n - 1``, one agent at every
    other rank.  Stabilizing from here requires ``n - 1`` consecutive
    "bottleneck" transitions, each needing the two same-rank agents to
    meet directly.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    counts = [1] * n
    counts[0] = 2
    counts[n - 1] = 0
    return counts


def uniform_random_ciw_counts(n: int, rng: random.Random) -> List[int]:
    """Counts of a configuration with each agent's rank i.i.d. uniform."""
    counts = [0] * n
    for _ in range(n):
        counts[rng.randrange(n)] += 1
    return counts
