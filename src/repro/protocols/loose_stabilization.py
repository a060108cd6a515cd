"""Loosely-stabilizing leader election (the paper's foil).

Section 1 ("Problem variants") and the Conclusion contrast true
self-stabilization with *loose* stabilization (Sudo et al. [56], Izumi
[41]): from any configuration a unique leader emerges quickly, but it
persists only for a long **holding time** rather than forever.  The
payoff for giving up "forever" is space: loose stabilization works with
a state count independent of ``n``, which Theorem 2.1 proves impossible
for true SSLE.  This module implements a timeout-based
loosely-stabilizing protocol in the style of [56] so the package can
measure the trade-off the paper cites.

The protocol (two fields per agent: a leader bit and a timer in
``0..t_max``):

* **propagate-and-decay**: on interaction both agents set their timers
  to ``max(timer_a, timer_b) - 1`` -- high values spread by epidemic and
  erode by one per hop/interaction;
* **refresh**: a leader resets its own timer to ``t_max`` whenever it
  interacts;
* **reduce**: two leaders meeting resolve to one (``L, L -> L, F``);
* **timeout**: an agent whose timer reaches 0 has plausibly not heard
  from any leader for a long time -- it declares itself leader.

Why this cannot be (truly) self-stabilizing with few states is exactly
Theorem 2.1's argument: the single-leader configuration must tolerate a
sub-population that looks leaderless, so timeouts must eventually fire
even under a live leader -- the holding time is finite.  Raising
``t_max`` drives the expected holding time up rapidly (each extra tick
multiplies the chance that every agent keeps hearing a fresh timer
chain) while convergence cost grows only additively; the ``loose``
experiment measures both curves and the state count
(``2 (t_max + 1)``, below Theorem 2.1's ``n`` bound already for
moderate ``n``).  This simplified rendition trades [56]'s polylog
convergence machinery for clarity -- its convergence is Theta(n)-ish
(the leader reduction is the slow election) -- which does not affect
the holding-time/state trade-off being demonstrated.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.protocol import PopulationProtocol
from repro.statics.schema import (
    Choice,
    FieldSpec,
    IntRange,
    RoleSchema,
    StateSchema,
    register_schema,
)


@dataclass
class LooseAgent:
    """One agent: a leader bit and a timeout timer."""

    leader: bool
    timer: int


class LooselyStabilizingLE(PopulationProtocol[LooseAgent]):
    """Timeout-based loosely-stabilizing leader election.

    ``is_correct`` is the leader-election predicate (exactly one
    leader); unlike the SSR protocols this configuration is *not*
    stable -- that is the point -- so the stabilization-measurement
    helpers of :mod:`repro.experiments.common` do not apply.  Use
    :meth:`holding_time` (or the array-based fast loops in
    :mod:`repro.experiments.loose`).
    """

    silent = False

    def __init__(self, n: int, t_max: int):
        super().__init__(n)
        if t_max < 1:
            raise ValueError(f"t_max must be >= 1, got {t_max}")
        self.t_max = t_max

    # ------------------------------------------------------------------

    def transition(
        self, initiator: LooseAgent, responder: LooseAgent, rng: random.Random
    ) -> Tuple[LooseAgent, LooseAgent]:
        a, b = initiator, responder
        decayed = max(a.timer, b.timer) - 1
        if decayed < 0:
            decayed = 0
        a.timer = decayed
        b.timer = decayed
        if a.leader and b.leader:
            b.leader = False  # reduce
        for agent in (a, b):
            if agent.leader:
                agent.timer = self.t_max  # refresh
            elif agent.timer == 0:
                agent.leader = True  # timeout: nobody heard from a leader
                agent.timer = self.t_max
        return a, b

    # ------------------------------------------------------------------

    def initial_state(self, rng: random.Random) -> LooseAgent:
        return LooseAgent(leader=False, timer=0)

    def random_state(self, rng: random.Random) -> LooseAgent:
        return LooseAgent(
            leader=bool(rng.getrandbits(1)), timer=rng.randrange(self.t_max + 1)
        )

    def ideal_configuration(self) -> List[LooseAgent]:
        """One fresh leader, everyone else recently refreshed."""
        states = [LooseAgent(leader=True, timer=self.t_max)]
        states.extend(
            LooseAgent(leader=False, timer=self.t_max) for _ in range(self.n - 1)
        )
        return states

    def is_correct(self, states) -> bool:
        return sum(1 for s in states if s.leader) == 1

    def summarize(self, state: LooseAgent):
        return (state.leader, state.timer)

    def describe(self, state: LooseAgent) -> str:
        return f"{'leader' if state.leader else 'follower'}(timer={state.timer})"

    def state_count(self) -> int:
        """``2 (t_max + 1)`` -- independent of n.

        Strictly below Theorem 2.1's ``n`` lower bound for true SSLE as
        soon as ``t_max < n/2 - 1``: the protocol escapes the bound only
        because its single-leader configurations are not stable.
        """
        return 2 * (self.t_max + 1)

    # ------------------------------------------------------------------
    # Reference (object-based) measurement; the experiment uses the
    # fast array loop for large horizons.
    # ------------------------------------------------------------------

    def holding_time(
        self, rng: random.Random, max_time: float
    ) -> Tuple[float, bool]:
        """(parallel time until the unique leader is lost, censored?).

        Starts from the ideal configuration; returns the first moment
        the leader count differs from 1, or ``(max_time, True)`` if the
        leader held for the whole horizon.
        """
        from repro.core.simulation import Simulation

        sim = Simulation(self, self.ideal_configuration(), rng=rng)
        budget = int(max_time * self.n)
        while sim.interactions < budget:
            sim.step()
            if not self.is_correct(sim.states):
                return sim.parallel_time, False
        return max_time, True


# ---------------------------------------------------------------------------
# Declared state schema (consumed by repro.statics and the count engine)
# ---------------------------------------------------------------------------


@register_schema(LooselyStabilizingLE)
def _loose_schema(protocol: LooselyStabilizingLE) -> StateSchema:
    """Leader bit x timer: ``2 (t_max + 1)`` states, independent of n.

    Enumerable, so the model checker can sweep closure and determinism;
    the protocol is deliberately not silent (its correct configurations
    are unstable), so the silence/stabilization rules do not apply.
    """
    return StateSchema(
        "LooselyStabilizingLE",
        [
            RoleSchema(
                role=None,
                fields=(
                    FieldSpec("leader", Choice((False, True))),
                    FieldSpec("timer", IntRange(0, protocol.t_max)),
                ),
                build=lambda leader, timer: LooseAgent(leader=leader, timer=timer),
            )
        ],
    )
