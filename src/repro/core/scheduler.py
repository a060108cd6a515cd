"""Interaction schedulers.

The population protocol model chooses, at every discrete step, a
uniformly random *ordered* pair of distinct agents (initiator,
responder).  :class:`UniformRandomScheduler` implements exactly that and
is the scheduler used by every experiment.

Deterministic schedulers are provided for tests and for reproducing the
paper's worked examples: Figure 2 is a specific scripted interaction
sequence, and several unit tests steer executions through exact corner
cases that random scheduling would reach only with tiny probability.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Callable, Iterable, Iterator, Tuple

Pair = Tuple[int, int]


class Scheduler(ABC):
    """Chooses the ordered agent pair interacting at each step."""

    @abstractmethod
    def next_pair(self, rng: random.Random) -> Pair:
        """Return the (initiator, responder) agent indices for this step.

        Every step yields a pair: an interaction fires at each tick of
        the global clock.
        """


class UniformRandomScheduler(Scheduler):
    """The standard probabilistic scheduler: uniform ordered pairs.

    Each of the ``n * (n - 1)`` ordered pairs of distinct agents is
    equally likely at every step, independently of the past.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"need at least 2 agents, got {n}")
        self.n = n

    def next_pair(self, rng: random.Random) -> Pair:
        initiator = rng.randrange(self.n)
        responder = rng.randrange(self.n - 1)
        if responder >= initiator:
            responder += 1
        return initiator, responder


class ScriptedScheduler(Scheduler):
    """Replays a fixed sequence of ordered pairs.

    Raises :class:`StopIteration` when the script is exhausted, which the
    simulation surfaces as the natural end of the run.  Used to reproduce
    the exact executions of Figure 2 and in deterministic unit tests.
    """

    def __init__(self, pairs: Iterable[Pair]):
        self._iterator: Iterator[Pair] = iter(pairs)

    def next_pair(self, rng: random.Random) -> Pair:
        return next(self._iterator)


class CallbackScheduler(Scheduler):
    """Delegates pair choice to a callable (an online adversary).

    The callback receives the step's RNG and returns an ordered pair.
    Tests use this to drive worst-case schedules, e.g. the bottleneck
    sequence behind the Omega(n^2) lower bound for Silent-n-state-SSR.
    """

    def __init__(self, choose: Callable[[random.Random], Pair]):
        self._choose = choose

    def next_pair(self, rng: random.Random) -> Pair:
        return self._choose(rng)
