"""The population protocol abstraction.

A population protocol (Angluin et al. 2006) is a collection of ``n``
anonymous agents, each holding a local state, interacting in ordered
pairs chosen uniformly at random by a probabilistic scheduler.  During
an interaction the two agents observe each other's states and update
their own according to the (possibly randomized) transition function.

This module defines :class:`PopulationProtocol`, the abstract interface
all protocols in this package implement, together with the small amount
of vocabulary shared by the simulation engine (:mod:`repro.core.simulation`),
monitors (:mod:`repro.core.monitors`) and adversarial configuration
generators (:mod:`repro.core.adversary`).

State-object contract
---------------------

Agent states are ordinary Python objects owned by the simulation.  The
``transition`` method receives the two participants' state objects and
returns the pair of post-interaction states.  Implementations **may**
mutate the received objects and return them, or return fresh objects;
either way, the returned objects must not alias mutable state held by
any third agent (protocols that copy structure from a partner must copy
whatever either side may later mutate; history trees share only leaves,
which are never mutated and say so through ``shareable()``, the one
exemption the transition sanitizer makes).
Monitors never rely on object identity; they observe protocols through
the cheap scalar summaries exposed by :meth:`PopulationProtocol.summarize`.
"""

from __future__ import annotations

import copy
import random
from abc import ABC, abstractmethod
from typing import Any, Generic, Hashable, List, Sequence, Tuple, TypeVar

from repro.core.errors import NotSilentError

S = TypeVar("S")


class PopulationProtocol(ABC, Generic[S]):
    """Abstract base class for population protocols on ``n`` agents.

    Subclasses fix the population size ``n`` at construction time.  This
    is not an implementation convenience: Theorem 2.1 of the paper (due
    to Cai, Izumi and Wada) shows every protocol solving self-stabilizing
    leader election is *strongly nonuniform* -- the transition relation
    itself must depend on the exact population size.
    """

    def __init__(self, n: int):
        if n < 2:
            raise ValueError(f"population size must be >= 2, got {n}")
        self._n = n

    @property
    def n(self) -> int:
        """Population size this protocol instance is hard-wired for."""
        return self._n

    def __getstate__(self) -> dict:
        # The schema :func:`repro.statics.schema.schema_for` keeps on the
        # instance does not pickle; a worker rebuilds it on first use.
        state = self.__dict__.copy()
        state.pop("_state_schema", None)
        return state

    # ------------------------------------------------------------------
    # Core dynamics
    # ------------------------------------------------------------------

    @abstractmethod
    def transition(self, initiator: S, responder: S, rng: random.Random) -> Tuple[S, S]:
        """Apply one interaction and return the post-interaction states.

        ``initiator`` and ``responder`` are the states of the ordered pair
        chosen by the scheduler.  See the module docstring for the
        ownership/mutation contract.
        """

    @abstractmethod
    def initial_state(self, rng: random.Random) -> S:
        """A fresh "clean start" state for one agent.

        Self-stabilizing protocols have no distinguished initial state --
        correctness must hold from *every* configuration -- but a sensible
        default start is still useful for examples and for measuring
        convergence from benign configurations.
        """

    @abstractmethod
    def random_state(self, rng: random.Random) -> S:
        """Sample a state uniformly-ish from the protocol's full state space.

        This is the adversary's tool: self-stabilization test batteries
        build initial configurations out of ``random_state`` draws, so the
        implementation must cover the entire declared state space
        (arbitrary roles, counters mid-range, ghost names, inconsistent
        trees, ...), not merely states reachable from clean starts.
        """

    # ------------------------------------------------------------------
    # Correctness and observation
    # ------------------------------------------------------------------

    @abstractmethod
    def is_correct(self, states: Sequence[S]) -> bool:
        """Whether a configuration is correct for this protocol's task."""

    @abstractmethod
    def summarize(self, state: S) -> Hashable:
        """A cheap hashable summary of one agent state.

        The summary must be fine enough that configuration correctness is
        a function of the multiset of summaries (monitors track
        correctness incrementally through it) yet cheap to compute, since
        it is taken twice per interaction per monitor.
        """

    def describe(self, state: S) -> str:
        """Human-readable one-line rendering of a state (for traces)."""
        return repr(state)

    def clone_state(self, state: S) -> S:
        """An independent copy of ``state`` (default: ``copy.deepcopy``).

        The count engine and the fault-injection layer copy states on
        hot paths (transition probing, corruption, cloning adversaries);
        protocols with flat value states should override this with a
        cheaper copy (``copy.copy`` for scalar dataclasses, identity for
        immutable states) -- the override must still return an object
        that shares no mutable structure with ``state``.
        """
        return copy.deepcopy(state)

    # ------------------------------------------------------------------
    # Silence
    # ------------------------------------------------------------------

    #: Whether the protocol is silent (reaches, with probability 1, a
    #: configuration in which no applicable transition changes any state).
    silent = False

    def is_pair_null(self, a: S, b: S) -> bool:
        """Whether the ordered interaction ``(a, b)`` is null.

        A pair is *null* if the transition leaves both states unchanged
        with certainty.  Silent protocols implement this analytically so
        the engine can detect silent configurations exactly; non-silent
        protocols raise :class:`NotSilentError`.
        """
        raise NotSilentError(
            f"{type(self).__name__} is not silent; null-pair queries are undefined"
        )

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    def initial_configuration(self, rng: random.Random) -> List[S]:
        """A clean-start configuration of all ``n`` agents."""
        return [self.initial_state(rng) for _ in range(self.n)]

    def random_configuration(self, rng: random.Random) -> List[S]:
        """An adversarial configuration of ``n`` independent random states."""
        return [self.random_state(rng) for _ in range(self.n)]

    def state_count(self) -> int:
        """Exact size of the protocol's state space, if tractable.

        Used to reproduce the "states" column of Table 1.  Protocols whose
        state space is astronomically large but still countable in closed
        form should return the exact integer; the default raises.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement exact state counting"
        )


def check_population(protocol: PopulationProtocol[Any], states: Sequence[Any]) -> None:
    """Validate that ``states`` has exactly ``protocol.n`` entries."""
    if len(states) != protocol.n:
        from repro.core.errors import ConfigurationError

        raise ConfigurationError(
            f"configuration has {len(states)} agents, protocol expects {protocol.n}"
        )
