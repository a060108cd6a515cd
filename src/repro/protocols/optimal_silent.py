"""Protocols 3-4: Optimal-Silent-SSR.

The paper's linear-time, linear-state, *silent* self-stabilizing ranking
protocol -- time- and space-optimal within the class of silent protocols
(Observation 2.2 gives the matching Omega(n) time lower bound).

How it works
------------

Agents are in one of three roles:

* ``Settled`` -- has a ``rank`` in ``{1..n}`` and a count of how many
  children (0..2) it has recruited;
* ``Unsettled`` -- has no rank; counts its own interactions down from
  ``E_max = Theta(n)`` and triggers a global reset if it is never
  ranked;
* ``Resetting`` -- executing Propagate-Reset (Protocol 2), with the
  dormant delay set to ``D_max = Theta(n)``.

Errors are detected two ways: two ``Settled`` agents with the same rank
meet (rank collision), or an ``Unsettled`` agent exhausts its error
counter.  Either triggers Propagate-Reset.  Because the dormant phase
lasts Theta(n) time, the dormant population has time to run the slow
leader election ``L, L -> L, F``; on awakening the (with constant
probability unique) leader settles at rank 1 and everyone else becomes
``Unsettled``.  The settled agents then rank the unsettled ones along a
full binary tree: the agent ranked ``r`` assigns its recruits the ranks
``2r`` and ``2r + 1`` (Figure 1), so ranks stay unique by construction
and the whole assignment finishes in Theta(n) time.

Pseudocode fidelity note: Protocol 3 line 10 writes the recruiting guard
as ``2 * i.rank + i.children < n``; taken literally (with ranks 1..n and
children 2r, 2r + 1) this would forbid assigning rank ``n`` itself and
ranking could never complete whenever ``n`` is even.  We use the clearly
intended ``<= n``.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from repro.protocols.base import RankingProtocol
from repro.protocols.parameters import (
    OptimalSilentParameters,
    calibrated_optimal_silent,
)
from repro.protocols.propagate_reset import ResetHooks, propagate_reset_interaction
from repro.statics.schema import (
    Choice,
    Constraint,
    FieldSpec,
    IntRange,
    RoleSchema,
    StateSchema,
    register_schema,
)


class Role(Enum):
    SETTLED = "settled"
    UNSETTLED = "unsettled"
    RESETTING = "resetting"


LEADER = "L"
FOLLOWER = "F"


@dataclass
class OptimalSilentAgent:
    """One agent of Optimal-Silent-SSR.

    Only the fields of the current role are meaningful; switching roles
    resets the other fields to canonical defaults, mirroring the paper's
    convention that a role switch *deletes* the previous role's fields
    (this is also what makes the state count additive across roles).
    """

    role: Role
    rank: int = 0  # Settled: 1..n
    children: int = 0  # Settled: 0..2
    errorcount: int = 0  # Unsettled: 0..E_max
    leader: str = LEADER  # Resetting: LEADER or FOLLOWER
    resetcount: int = 0  # Resetting: 0..R_max
    delaytimer: int = 0  # Resetting, while resetcount == 0: 0..D_max


class OptimalSilentSSR(RankingProtocol[OptimalSilentAgent]):
    """Optimal-Silent-SSR (Protocol 3) with its Reset (Protocol 4)."""

    silent = True

    def __init__(self, n: int, params: Optional[OptimalSilentParameters] = None):
        super().__init__(n)
        self.params = params or calibrated_optimal_silent(n)
        self.hooks: ResetHooks[OptimalSilentAgent] = ResetHooks(
            is_resetting=lambda s: s.role is Role.RESETTING,
            enter_resetting=self._enter_resetting,
            do_reset=self._do_reset,
        )

    # ------------------------------------------------------------------
    # Role switches
    # ------------------------------------------------------------------

    @staticmethod
    def _clear_fields(agent: OptimalSilentAgent) -> None:
        agent.rank = 0
        agent.children = 0
        agent.errorcount = 0
        agent.leader = LEADER
        agent.resetcount = 0
        agent.delaytimer = 0

    def _enter_resetting(self, agent: OptimalSilentAgent, rng: random.Random) -> None:
        # Section 4: "all agents set themselves to L upon entering the
        # Resetting role", so the dormant phase runs L, L -> L, F leader
        # election from an all-leader start.
        self._clear_fields(agent)
        agent.role = Role.RESETTING
        agent.leader = LEADER

    def _trigger(self, agent: OptimalSilentAgent) -> None:
        """Agent detected an error: become triggered (Protocol 3 l.6-8/18-20)."""
        self._clear_fields(agent)
        agent.role = Role.RESETTING
        agent.leader = LEADER
        agent.resetcount = self.params.reset.r_max

    def _do_reset(self, agent: OptimalSilentAgent, rng: random.Random) -> None:
        """Protocol 4: leaders settle at rank 1; followers become unsettled."""
        was_leader = agent.leader == LEADER
        self._clear_fields(agent)
        if was_leader:
            agent.role = Role.SETTLED
            agent.rank = 1
            agent.children = 0
        else:
            agent.role = Role.UNSETTLED
            agent.errorcount = self.params.e_max

    # ------------------------------------------------------------------
    # Transition (Protocol 3)
    # ------------------------------------------------------------------

    def transition(
        self,
        initiator: OptimalSilentAgent,
        responder: OptimalSilentAgent,
        rng: random.Random,
    ) -> Tuple[OptimalSilentAgent, OptimalSilentAgent]:
        a, b = initiator, responder

        # Lines 1-4: reset propagation, plus slow leader election among
        # agents still in the Resetting role.
        if a.role is Role.RESETTING or b.role is Role.RESETTING:
            propagate_reset_interaction(a, b, self.params.reset, self.hooks, rng)
            if (
                a.role is Role.RESETTING
                and b.role is Role.RESETTING
                and a.leader == LEADER
                and b.leader == LEADER
            ):
                b.leader = FOLLOWER

        # Lines 5-8: rank collision detection.
        if a.role is Role.SETTLED and b.role is Role.SETTLED and a.rank == b.rank:
            self._trigger(a)
            self._trigger(b)

        # Lines 9-13: leader-driven ranking along the full binary tree.
        for settled, unsettled in ((a, b), (b, a)):
            if (
                settled.role is Role.SETTLED
                and unsettled.role is Role.UNSETTLED
                and settled.children < 2
                and 2 * settled.rank + settled.children <= self.n
            ):
                child_rank = 2 * settled.rank + settled.children
                settled.children += 1
                self._clear_fields(unsettled)
                unsettled.role = Role.SETTLED
                unsettled.rank = child_rank
                unsettled.children = 0

        # Lines 14-20: unsettled agents count down towards a reset.
        for agent in (a, b):
            if agent.role is Role.UNSETTLED:
                agent.errorcount = max(agent.errorcount - 1, 0)
                if agent.errorcount == 0:
                    self._trigger(a)
                    self._trigger(b)
                    break

        return a, b

    # ------------------------------------------------------------------
    # States
    # ------------------------------------------------------------------

    def initial_state(self, rng: random.Random) -> OptimalSilentAgent:
        """Clean start: unsettled with a full error counter."""
        return OptimalSilentAgent(role=Role.UNSETTLED, errorcount=self.params.e_max)

    def random_state(self, rng: random.Random) -> OptimalSilentAgent:
        roll = rng.randrange(3)
        if roll == 0:
            return OptimalSilentAgent(
                role=Role.SETTLED,
                rank=rng.randrange(1, self.n + 1),
                children=rng.randrange(3),
            )
        if roll == 1:
            return OptimalSilentAgent(
                role=Role.UNSETTLED,
                errorcount=rng.randrange(self.params.e_max + 1),
            )
        resetcount = rng.randrange(self.params.reset.r_max + 1)
        delaytimer = (
            rng.randrange(self.params.reset.d_max + 1) if resetcount == 0 else 0
        )
        return OptimalSilentAgent(
            role=Role.RESETTING,
            leader=rng.choice((LEADER, FOLLOWER)),
            resetcount=resetcount,
            delaytimer=delaytimer,
        )

    def rank_of(self, state: OptimalSilentAgent) -> Optional[int]:
        if state.role is Role.SETTLED:
            return state.rank
        return None

    def summarize(self, state: OptimalSilentAgent):
        if state.role is Role.SETTLED:
            return ("S", state.rank, state.children)
        if state.role is Role.UNSETTLED:
            return ("U", state.errorcount)
        return ("R", state.leader, state.resetcount, state.delaytimer)

    def describe(self, state: OptimalSilentAgent) -> str:
        if state.role is Role.SETTLED:
            return f"settled(rank={state.rank}, children={state.children})"
        if state.role is Role.UNSETTLED:
            return f"unsettled(errorcount={state.errorcount})"
        kind = "propagating" if state.resetcount > 0 else "dormant"
        return (
            f"resetting[{kind}](leader={state.leader}, rc={state.resetcount}, "
            f"delay={state.delaytimer})"
        )

    def is_pair_null(self, a: OptimalSilentAgent, b: OptimalSilentAgent) -> bool:
        # Every interaction that involves an Unsettled agent decrements an
        # error counter, and every interaction involving a Resetting agent
        # moves a reset counter or a delay timer; only Settled pairs with
        # distinct ranks are inert.
        return (
            a.role is Role.SETTLED and b.role is Role.SETTLED and a.rank != b.rank
        )

    def clone_state(self, state: OptimalSilentAgent) -> OptimalSilentAgent:
        # All fields are scalars, so a shallow copy is an independent state.
        return copy.copy(state)

    def silent_class(self, state: OptimalSilentAgent) -> Optional[int]:
        # Settled agents at distinct ranks are null in both orders; any
        # pair involving an Unsettled or Resetting agent is effective,
        # so those states get no class (always active).
        if state.role is Role.SETTLED:
            return state.rank
        return None

    def state_count(self) -> int:
        """Exact state count: roles partition the space, so counts add.

        Settled contributes ``3n`` (rank x children), Unsettled
        ``E_max + 1`` error-counter values, Resetting ``2`` leader bits
        times ``R_max`` propagating counts plus ``D_max + 1`` dormant
        timer values.  All are Theta(n) with our parameters, so the total
        is Theta(n), matching Table 1.
        """
        settled = 3 * self.n
        unsettled = self.params.e_max + 1
        resetting = 2 * (self.params.reset.r_max + self.params.reset.d_max + 1)
        return settled + unsettled + resetting

    # ------------------------------------------------------------------
    # Notable configurations
    # ------------------------------------------------------------------

    def ranked_configuration(self) -> List[OptimalSilentAgent]:
        """The unique (up to renaming) stable silent configuration."""
        return [
            OptimalSilentAgent(
                role=Role.SETTLED,
                rank=rank,
                children=min(2, max(0, self.n - 2 * rank + 1)),
            )
            for rank in range(1, self.n + 1)
        ]

    def duplicate_rank_configuration(self, rank: int = 1) -> List[OptimalSilentAgent]:
        """All ranks distinct except two agents sharing ``rank``.

        The missing rank is the largest one, so the pigeonhole collision
        at ``rank`` is the only error present.
        """
        if not 1 <= rank <= self.n - 1:
            raise ValueError(f"rank must be in 1..{self.n - 1}, got {rank}")
        ranks = list(range(1, self.n)) + [rank]
        return [
            OptimalSilentAgent(role=Role.SETTLED, rank=r, children=2) for r in ranks
        ]


# ---------------------------------------------------------------------------
# Declared state schema (consumed by repro.statics and the count engine)
# ---------------------------------------------------------------------------


@register_schema(OptimalSilentSSR)
def _optimal_silent_schema(protocol: OptimalSilentSSR) -> StateSchema:
    """Role-partitioned domains; the enumeration matches ``state_count``.

    A role switch deletes the previous role's fields (they return to the
    dataclass defaults), so each role's schema constrains the *other*
    roles' fields to their canonical values -- exactly what makes the
    state count additive: ``3n + (E_max + 1) + 2(R_max + D_max + 1)``.
    """
    params = protocol.params
    n = protocol.n
    settled = RoleSchema(
        role=Role.SETTLED,
        fields=(
            FieldSpec("rank", IntRange(1, n), label="settled rank"),
            FieldSpec("children", IntRange(0, 2)),
        ),
        build=lambda rank, children: OptimalSilentAgent(
            role=Role.SETTLED, rank=rank, children=children
        ),
    )
    unsettled = RoleSchema(
        role=Role.UNSETTLED,
        fields=(FieldSpec("errorcount", IntRange(0, params.e_max)),),
        constraints=(
            Constraint(
                "unsettled-leak",
                lambda s: None
                if s.rank == 0 and s.children == 0
                else "unsettled agent leaked settled fields",
            ),
        ),
        build=lambda errorcount: OptimalSilentAgent(
            role=Role.UNSETTLED, errorcount=errorcount
        ),
    )
    resetting = RoleSchema(
        role=Role.RESETTING,
        fields=(
            FieldSpec("leader", Choice((LEADER, FOLLOWER)), label="leader bit"),
            FieldSpec("resetcount", IntRange(0, params.reset.r_max)),
            FieldSpec("delaytimer", IntRange(0, params.reset.d_max)),
        ),
        constraints=(
            # The delay timer exists only while dormant (resetcount == 0);
            # this constraint is what trims the resetting role's count to
            # R_max + D_max + 1 combinations per leader bit.
            Constraint(
                "propagating-delay",
                lambda s: "propagating agent carries a delay timer"
                if s.resetcount > 0 and s.delaytimer != 0
                else None,
            ),
            Constraint(
                "resetting-leak",
                lambda s: None
                if s.rank == 0 and s.children == 0 and s.errorcount == 0
                else "resetting agent leaked computing fields",
            ),
        ),
        build=lambda leader, resetcount, delaytimer: OptimalSilentAgent(
            role=Role.RESETTING,
            leader=leader,
            resetcount=resetcount,
            delaytimer=delaytimer,
        ),
    )
    return StateSchema("OptimalSilentSSR", [settled, unsettled, resetting])
