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
from typing import Callable, Iterable, Iterator, List, Sequence, Tuple

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


class GraphScheduler(Scheduler):
    """Uniform random interactions restricted to the edges of a graph.

    The paper works in the complete graph ("the most difficult case");
    related work (e.g. Sudo et al., SIROCCO 2020, cited as [57]) adapts
    SSLE protocols to arbitrary connected topologies.  This scheduler
    lets the engine explore that territory: each step picks a uniformly
    random edge and a uniformly random orientation of it.

    ``edges`` is an iterable of undirected pairs over ``0..n-1``; the
    graph must be connected for any protocol in this package to make
    global progress (not validated here -- disconnected graphs are
    legitimately interesting failure demonstrations).
    """

    def __init__(self, n: int, edges):
        if n < 2:
            raise ValueError(f"need at least 2 agents, got {n}")
        self.n = n
        cleaned = []
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            key = (min(u, v), max(u, v))
            if key not in seen:
                seen.add(key)
                cleaned.append(key)
        if not cleaned:
            raise ValueError("graph has no edges")
        self.edges = cleaned

    @classmethod
    def complete(cls, n: int) -> "GraphScheduler":
        """The complete graph (equivalent to UniformRandomScheduler)."""
        return cls(n, [(u, v) for u in range(n) for v in range(u + 1, n)])

    @classmethod
    def ring(cls, n: int) -> "GraphScheduler":
        """A cycle -- the topology of the Chen & Chen (PODC '19) line."""
        return cls(n, [(i, (i + 1) % n) for i in range(n)])

    @classmethod
    def star(cls, n: int, center: int = 0) -> "GraphScheduler":
        """A star: every interaction involves the center agent."""
        return cls(n, [(center, i) for i in range(n) if i != center])

    def next_pair(self, rng: random.Random) -> Pair:
        u, v = self.edges[rng.randrange(len(self.edges))]
        if rng.getrandbits(1):
            return u, v
        return v, u


def script_from_names(
    names: Sequence[str], interactions: Iterable[Tuple[str, str]]
) -> List[Pair]:
    """Translate a human-readable script into index pairs.

    ``names`` fixes the agent order; ``interactions`` is a sequence of
    (initiator-name, responder-name) pairs, e.g. the "a-b interact" lines
    of Figure 2.
    """
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ValueError(f"agent names must be unique, got {names!r}")
    return [(index[x], index[y]) for x, y in interactions]
