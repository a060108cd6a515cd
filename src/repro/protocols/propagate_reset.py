"""Protocol 2: the Propagate-Reset subprotocol.

Propagate-Reset gives a population protocol a way to "reboot" itself
from scratch after some agent detects evidence that the configuration is
illegal.  The lifecycle, in the paper's vocabulary:

* an agent that detects an error becomes **triggered**: it enters the
  ``Resetting`` role with ``resetcount = R_max``;
* positive ``resetcount`` spreads by epidemic, *decreasing by one per
  hop* (an agent joining the wave gets ``max`` of the neighbours' counts
  minus one), so agents are **propagating** while ``resetcount > 0``;
* once an agent's ``resetcount`` reaches 0 it is **dormant**: it waits
  ``delaytimer`` (initialized to ``D_max``) of its own interactions so
  that the *whole* population has time to become dormant -- this is what
  prevents an agent from being reset twice by a single wave;
* a dormant agent whose timer expires -- or who meets an agent that has
  already resumed computing -- executes the host protocol's ``Reset``
  subroutine and returns to computation; this **awakening** also spreads
  by epidemic.

Crucially, after the reset agents retain *no* memory that a reset
happened (no phase flags an adversary could pre-set), which is what
makes the construction self-stabilizing.  The whole cycle completes in
O(log n) parallel time plus the dormant delay.

This module implements the subprotocol once, generically; the host
protocols (Optimal-Silent-SSR and Sublinear-Time-SSR) plug in their
role-switching and ``Reset`` logic through :class:`ResetHooks`.  A small
self-contained host, :class:`ResetTimingProtocol`, is included for unit
tests and for the Section-3 timing experiment.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Generic, Tuple, TypeVar

from repro.core.protocol import PopulationProtocol
from repro.protocols.parameters import ResetParameters
from repro.statics.schema import (
    Constraint,
    FieldSpec,
    IntRange,
    RoleSchema,
    StateSchema,
    register_schema,
)

A = TypeVar("A")


class ResetHooks(Generic[A]):
    """Host-protocol callbacks used by :func:`propagate_reset_interaction`.

    Parameters
    ----------
    is_resetting:
        Whether an agent currently has the ``Resetting`` role.
    enter_resetting:
        Convert a computing agent into the ``Resetting`` role (clearing
        the fields of its previous role and initializing any extra
        resetting-role fields the host defines, such as the leader bit of
        Optimal-Silent-SSR).  The caller sets ``resetcount`` and
        ``delaytimer`` afterwards; the hook must not.
    do_reset:
        The host's ``Reset`` subroutine: turn a resetting agent back into
        a (freshly initialized) computing agent.
    """

    def __init__(
        self,
        is_resetting: Callable[[A], bool],
        enter_resetting: Callable[[A, random.Random], None],
        do_reset: Callable[[A, random.Random], None],
    ):
        self.is_resetting = is_resetting
        self.enter_resetting = enter_resetting
        self.do_reset = do_reset


def propagate_reset_interaction(
    a: A,
    b: A,
    params: ResetParameters,
    hooks: ResetHooks[A],
    rng: random.Random,
) -> None:
    """Execute Protocol 2 for the pair ``(a, b)`` (mutating in place).

    Precondition: at least one of the two agents is in the ``Resetting``
    role.  Resetting agents must expose integer attributes ``resetcount``
    and ``delaytimer``.

    The pseudocode in the paper is written from the point of view of a
    resetting agent ``a``; this implementation symmetrizes it, which is
    how it is invoked by the host protocols ("if a.role = Resetting or
    b.role = Resetting then execute Propagate-Reset(a, b)").
    """
    a_resetting = hooks.is_resetting(a)
    b_resetting = hooks.is_resetting(b)
    if not (a_resetting or b_resetting):
        raise ValueError("propagate_reset_interaction needs a resetting agent")

    freshly_initialized = set()

    # Lines 1-3: a propagating agent recruits a computing partner into the
    # Resetting role (dormant for now; the max below may re-raise it).
    if a_resetting and a.resetcount > 0 and not b_resetting:
        hooks.enter_resetting(b, rng)
        b.resetcount = 0
        b.delaytimer = params.d_max
        b_resetting = True
        freshly_initialized.add(id(b))
    elif b_resetting and b.resetcount > 0 and not a_resetting:
        hooks.enter_resetting(a, rng)
        a.resetcount = 0
        a.delaytimer = params.d_max
        a_resetting = True
        freshly_initialized.add(id(a))

    # Lines 4-5: both resetting -> counts move together, decreasing.
    pre_counts = {}
    if a_resetting and b_resetting:
        pre_counts[id(a)] = a.resetcount
        pre_counts[id(b)] = b.resetcount
        merged = max(a.resetcount - 1, b.resetcount - 1, 0)
        a.resetcount = merged
        b.resetcount = merged
        if merged > 0:
            # delaytimer exists only while resetcount == 0: an agent
            # pulled back into propagation drops the field.
            a.delaytimer = 0
            b.delaytimer = 0

    # Lines 6-12: dormant agents tick their delay timers and awaken.
    for agent, partner in ((a, b), (b, a)):
        if not hooks.is_resetting(agent) or agent.resetcount != 0:
            continue
        just_became_dormant = (
            id(agent) in freshly_initialized or pre_counts.get(id(agent), 0) > 0
        )
        if just_became_dormant:
            agent.delaytimer = params.d_max
        else:
            agent.delaytimer = max(agent.delaytimer - 1, 0)
        if agent.delaytimer == 0 or not hooks.is_resetting(partner):
            # Awaken: either the delay expired or a computing agent was
            # met (awakening spreads by epidemic).
            hooks.do_reset(agent, rng)


# ---------------------------------------------------------------------------
# A minimal host protocol, for testing and the Section-3 experiment
# ---------------------------------------------------------------------------


class TimingRole(Enum):
    COMPUTING = "computing"
    RESETTING = "resetting"


@dataclass
class TimingAgent:
    """Agent of :class:`ResetTimingProtocol`.

    ``generation`` counts how many times this agent has executed
    ``Reset`` -- the paper's guarantee is that a single reset wave resets
    every agent exactly once.
    """

    role: TimingRole
    resetcount: int = 0
    delaytimer: int = 0
    generation: int = 0


class ResetTimingProtocol(PopulationProtocol[TimingAgent]):
    """Propagate-Reset wired to a trivial computation (do nothing).

    Used to measure the Section-3 claim in isolation: from a partially
    triggered configuration, the population reaches a fully computing,
    fully reset configuration within O(log n) time plus the dormant
    delay.  A configuration is "correct" here once every agent has reset
    at least once and is computing again.
    """

    def __init__(self, n: int, params: ResetParameters):
        super().__init__(n)
        self.params = params
        self.hooks: ResetHooks[TimingAgent] = ResetHooks(
            is_resetting=lambda s: s.role is TimingRole.RESETTING,
            enter_resetting=self._enter_resetting,
            do_reset=self._do_reset,
        )

    @staticmethod
    def _enter_resetting(agent: TimingAgent, rng: random.Random) -> None:
        agent.role = TimingRole.RESETTING

    @staticmethod
    def _do_reset(agent: TimingAgent, rng: random.Random) -> None:
        agent.role = TimingRole.COMPUTING
        agent.resetcount = 0
        agent.delaytimer = 0
        agent.generation += 1

    # -- PopulationProtocol interface -----------------------------------

    def transition(
        self, initiator: TimingAgent, responder: TimingAgent, rng: random.Random
    ) -> Tuple[TimingAgent, TimingAgent]:
        if (
            initiator.role is TimingRole.RESETTING
            or responder.role is TimingRole.RESETTING
        ):
            propagate_reset_interaction(
                initiator, responder, self.params, self.hooks, rng
            )
        return initiator, responder

    def initial_state(self, rng: random.Random) -> TimingAgent:
        return TimingAgent(role=TimingRole.COMPUTING)

    def triggered_state(self) -> TimingAgent:
        """An agent that has just detected an error (resetcount = R_max)."""
        return TimingAgent(role=TimingRole.RESETTING, resetcount=self.params.r_max)

    def random_state(self, rng: random.Random) -> TimingAgent:
        if rng.random() < 0.5:
            return TimingAgent(role=TimingRole.COMPUTING)
        resetcount = rng.randrange(self.params.r_max + 1)
        delaytimer = rng.randrange(self.params.d_max + 1) if resetcount == 0 else 0
        return TimingAgent(
            role=TimingRole.RESETTING, resetcount=resetcount, delaytimer=delaytimer
        )

    def is_correct(self, states) -> bool:
        return all(
            s.role is TimingRole.COMPUTING and s.generation >= 1 for s in states
        )

    def summarize(self, state: TimingAgent):
        return (state.role.value, state.resetcount, state.delaytimer, state.generation)

    def describe(self, state: TimingAgent) -> str:
        if state.role is TimingRole.COMPUTING:
            return f"computing(gen={state.generation})"
        if state.resetcount > 0:
            return f"propagating(rc={state.resetcount})"
        return f"dormant(delay={state.delaytimer})"


# ---------------------------------------------------------------------------
# Declared state schema (consumed by repro.statics and the count engine)
# ---------------------------------------------------------------------------


def _check_generation(state: TimingAgent):
    if state.generation < 0:
        return f"negative generation {state.generation}"
    return None


@register_schema(ResetTimingProtocol)
def _reset_timing_schema(protocol: ResetTimingProtocol) -> StateSchema:
    """Reset bookkeeping domains; ``generation`` is unbounded by design,
    so the schema validates but does not enumerate."""
    generation = Constraint("generation", _check_generation)
    computing = RoleSchema(
        role=TimingRole.COMPUTING, fields=(), constraints=(generation,)
    )
    resetting = RoleSchema(
        role=TimingRole.RESETTING,
        fields=(
            FieldSpec("resetcount", IntRange(0, protocol.params.r_max)),
            FieldSpec("delaytimer", IntRange(0, protocol.params.d_max)),
        ),
        constraints=(generation,),
    )
    return StateSchema("ResetTimingProtocol", [computing, resetting])
