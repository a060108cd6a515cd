"""Array-based fast simulator for Optimal-Silent-SSR.

The generic engine executes Optimal-Silent-SSR at about ten
microseconds per interaction (dataclass fields, enum dispatch, the
ranking tally's ``rank_of`` calls), which caps Table 1 row 2 at n ~ 64.  The question that needs
bigger n -- does the WHP stabilization time grow like n log n while the
expectation stays linear? -- motivates this specialized simulator: the
same protocol semantics, state kept in plain integer lists, correctness
tracked incrementally on integer ranks.

**Semantics parity is the whole point**: this module mirrors
:class:`repro.protocols.optimal_silent.OptimalSilentSSR` (including the
symmetrized Propagate-Reset, the sequential dormancy/awakening
evaluation, and the role-switch field hygiene) statement for statement,
and the test suite verifies that stabilization-time *distributions*
match the generic engine's.  Any change to the protocol must be made in
both places -- the cross-validation test is the tripwire.

Unlike the baseline protocol, Optimal-Silent-SSR's effective-event
structure is configuration-dependent in a way that defeats clean jump
sampling (errorcount and delaytimer tick on *every* interaction of the
agent), so every interaction is simulated, in one lean method body:
per-agent lists bound to locals, the pair drawn with inline
``getrandbits``.  From random starts at n = 64 it runs about 10^6
interactions/s against the generic engine's 10^5 (2-vCPU Intel Xeon,
CPython 3.11), enough for n = 512 sweeps.

The one shortcut is the dormant block.  Each reset epoch ends with the
whole population dormant (resetting, ``resetcount == 0``) while the
delay timers, loaded with the calibrated ``d_max = 4n``, count down;
in the ``whp`` sweeps about half of all interactions fall in such
stretches.  As long as no timer can reach 0, nobody wakes, so an
interaction there only ticks both timers and applies L, L -> L, F.
``_run`` runs those interactions in a short inner loop that draws the
same pairs from the same random words, so every seed keeps its
trajectory.  It checks for the all-dormant configuration at most once
per n interactions, and only from its Propagate-Reset branch.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence

from repro.protocols.optimal_silent import (
    LEADER,
    OptimalSilentAgent,
    Role,
)
from repro.protocols.parameters import (
    OptimalSilentParameters,
    calibrated_optimal_silent,
)

# Integer role encoding (list indices beat enum identity checks).
SETTLED, UNSETTLED, RESETTING = 0, 1, 2
_ROLE_CODE = {Role.SETTLED: SETTLED, Role.UNSETTLED: UNSETTLED, Role.RESETTING: RESETTING}

#: Fewest interactions worth a dormant block; a shorter safe stretch
#: runs in the general loop.
_MIN_DORMANT_BLOCK = 16


class OptimalSilentFastSim:
    """Sequential Optimal-Silent-SSR on integer arrays.

    Construct from an explicit agent-state list (``from_states``) or use
    :meth:`duplicate_rank_start` / :meth:`all_triggered_start` for the
    standard experiment starts.  ``run_to_convergence`` returns the
    interaction count at which the ranking became correct -- which, for
    this silent protocol, is also exact stabilization (the correct
    configuration has no applicable transition).
    """

    def __init__(
        self,
        n: int,
        rng: random.Random,
        params: Optional[OptimalSilentParameters] = None,
    ):
        if n < 2:
            raise ValueError(f"need n >= 2, got {n}")
        self.n = n
        self.rng = rng
        self.params = params or calibrated_optimal_silent(n)
        self.interactions = 0
        #: Interactions run in the all-dormant block (a subset of
        #: ``interactions``).
        self.dormant_interactions = 0
        # Per-agent fields.
        self.role: List[int] = [UNSETTLED] * n
        self.rank: List[int] = [0] * n
        self.children: List[int] = [0] * n
        self.errorcount: List[int] = [self.params.e_max] * n
        self.leader: List[int] = [1] * n  # 1 = L, 0 = F
        self.resetcount: List[int] = [0] * n
        self.delaytimer: List[int] = [0] * n
        # Incremental correctness tracking.
        self._rank_count: List[int] = [0] * (n + 2)
        self._good_ranks = 0  # ranks in 1..n covered exactly once

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_states(
        cls,
        states: Sequence[OptimalSilentAgent],
        rng: random.Random,
        params: Optional[OptimalSilentParameters] = None,
    ) -> "OptimalSilentFastSim":
        """Encode a generic-engine configuration."""
        sim = cls(len(states), rng, params)
        for index, agent in enumerate(states):
            sim.role[index] = _ROLE_CODE[agent.role]
            sim.children[index] = agent.children
            sim.errorcount[index] = agent.errorcount
            sim.leader[index] = 1 if agent.leader == LEADER else 0
            sim.resetcount[index] = agent.resetcount
            sim.delaytimer[index] = agent.delaytimer
            sim.rank[index] = 0
            if agent.role is Role.SETTLED:
                sim._set_rank(index, agent.rank)
        return sim

    def duplicate_rank_start(self) -> None:
        """The obs22 witness: ranks 1..n-1 settled, rank 1 duplicated."""
        ranks = list(range(1, self.n)) + [1]
        for index, value in enumerate(ranks):
            self.role[index] = SETTLED
            self.children[index] = 2
            self._set_rank(index, value)

    def random_start(self) -> None:
        """Uniformly random adversarial configuration (matches
        ``OptimalSilentSSR.random_state`` draw for draw)."""
        rng = self.rng
        params = self.params
        for index in range(self.n):
            roll = rng.randrange(3)
            if roll == 0:
                self.role[index] = SETTLED
                self._set_rank(index, rng.randrange(1, self.n + 1))
                self.children[index] = rng.randrange(3)
            elif roll == 1:
                self.role[index] = UNSETTLED
                self.errorcount[index] = rng.randrange(params.e_max + 1)
            else:
                self.role[index] = RESETTING
                self.leader[index] = rng.randrange(2)
                resetcount = rng.randrange(params.reset.r_max + 1)
                self.resetcount[index] = resetcount
                self.delaytimer[index] = (
                    rng.randrange(params.reset.d_max + 1) if resetcount == 0 else 0
                )

    # ------------------------------------------------------------------
    # Rank bookkeeping
    # ------------------------------------------------------------------

    def _set_rank(self, index: int, value: int) -> None:
        self.rank[index] = value
        counts = self._rank_count
        old = counts[value]
        counts[value] = old + 1
        if old == 0:
            self._good_ranks += 1
        elif old == 1:
            self._good_ranks -= 1

    def _clear_rank(self, index: int) -> None:
        value = self.rank[index]
        if value == 0:
            return
        counts = self._rank_count
        old = counts[value]
        counts[value] = old - 1
        if old == 1:
            self._good_ranks -= 1
        elif old == 2:
            self._good_ranks += 1
        self.rank[index] = 0

    @property
    def correct(self) -> bool:
        """Ranks are exactly {1..n} (and hence the configuration silent)."""
        return self._good_ranks == self.n

    # ------------------------------------------------------------------
    # Role switches (mirror OptimalSilentSSR's field hygiene)
    # ------------------------------------------------------------------

    def _clear_fields(self, index: int) -> None:
        self._clear_rank(index)
        self.children[index] = 0
        self.errorcount[index] = 0
        self.leader[index] = 1
        self.resetcount[index] = 0
        self.delaytimer[index] = 0

    def _trigger(self, index: int) -> None:
        self._clear_fields(index)
        self.role[index] = RESETTING
        self.resetcount[index] = self.params.reset.r_max

    def _enter_resetting(self, index: int) -> None:
        self._clear_fields(index)
        self.role[index] = RESETTING

    def _do_reset(self, index: int) -> None:
        was_leader = self.leader[index]
        self._clear_fields(index)
        if was_leader:
            self.role[index] = SETTLED
            self._set_rank(index, 1)
        else:
            self.role[index] = UNSETTLED
            self.errorcount[index] = self.params.e_max

    def all_triggered_start(self) -> None:
        for index in range(self.n):
            self._trigger(index)

    # ------------------------------------------------------------------
    # The transition loop
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Execute exactly one interaction."""
        self._run(self.interactions + 1, until_correct=False)

    def run_to_convergence(self, max_interactions: int) -> int:
        """Run until the ranking is correct; return the interaction count.

        Raises :class:`RuntimeError` when the budget is exhausted (the
        protocol converges with probability 1, so this indicates a
        too-small budget, not a protocol failure).
        """
        self._run(max_interactions, until_correct=True)
        if not self.correct:
            raise RuntimeError(
                f"no convergence within {max_interactions} interactions "
                f"(n={self.n})"
            )
        return self.interactions

    def _run(self, stop: int, until_correct: bool) -> None:
        """Interact until ``stop`` interactions have happened in total,
        or -- with ``until_correct`` -- until the ranking is correct.

        The one transition body of this module.  Everything the hot path
        touches is bound to a local once per call, and the ordered pair
        is drawn inline with the rejection loop of CPython's
        ``Random._randbelow_with_getrandbits`` -- exactly what
        ``rng.randrange(n)`` and ``rng.randrange(n - 1)`` execute -- so
        every seed keeps its random stream and its trajectory.  The
        dormant block (see the module docstring) needs no correctness
        check: a correct ranking has no resetting agent.
        """
        n = self.n
        getrandbits = self.rng.getrandbits
        bits_a = n.bit_length()
        others = n - 1
        bits_b = others.bit_length()
        d_max = self.params.reset.d_max
        role = self.role
        rank = self.rank
        children = self.children
        errorcount = self.errorcount
        leader = self.leader
        resetcount = self.resetcount
        delaytimer = self.delaytimer
        trigger = self._trigger
        enter_resetting = self._enter_resetting
        do_reset = self._do_reset
        clear_fields = self._clear_fields
        set_rank = self._set_rank
        interactions = self.interactions
        next_check = interactions
        try:
            while interactions < stop:
                if until_correct and self._good_ranks == n:
                    break
                a = getrandbits(bits_a)
                while a >= n:
                    a = getrandbits(bits_a)
                b = getrandbits(bits_b)
                while b >= others:
                    b = getrandbits(bits_b)
                if b >= a:
                    b += 1
                interactions += 1

                role_a = role[a]
                role_b = role[b]
                if role_a == RESETTING or role_b == RESETTING:
                    # ---- Propagate-Reset (Protocol 2, symmetrized) ------
                    fresh_a = fresh_b = False
                    if role_a == RESETTING:
                        if role_b != RESETTING and resetcount[a] > 0:
                            enter_resetting(b)
                            delaytimer[b] = d_max
                            role_b = RESETTING
                            fresh_b = True
                    elif resetcount[b] > 0:
                        enter_resetting(a)
                        delaytimer[a] = d_max
                        role_a = RESETTING
                        fresh_a = True

                    pre_a = pre_b = 0
                    if role_a == RESETTING and role_b == RESETTING:
                        pre_a = resetcount[a]
                        pre_b = resetcount[b]
                        merged = pre_a - 1 if pre_a >= pre_b else pre_b - 1
                        if merged < 0:
                            merged = 0
                        resetcount[a] = merged
                        resetcount[b] = merged
                        if merged > 0:
                            delaytimer[a] = 0
                            delaytimer[b] = 0

                    # Dormancy and awakening, evaluated a then b: b sees
                    # a's post-awakening role.
                    if role[a] == RESETTING and resetcount[a] == 0:
                        if fresh_a or pre_a > 0:
                            delaytimer[a] = d_max
                        elif delaytimer[a] > 0:
                            delaytimer[a] -= 1
                        if delaytimer[a] == 0 or role[b] != RESETTING:
                            do_reset(a)
                    if role[b] == RESETTING and resetcount[b] == 0:
                        if fresh_b or pre_b > 0:
                            delaytimer[b] = d_max
                        elif delaytimer[b] > 0:
                            delaytimer[b] -= 1
                        if delaytimer[b] == 0 or role[a] != RESETTING:
                            do_reset(b)

                    # ---- L, L -> L, F among still-resetting agents ------
                    role_a = role[a]
                    role_b = role[b]
                    if role_a == RESETTING and role_b == RESETTING:
                        if leader[a] and leader[b]:
                            leader[b] = 0
                        if interactions >= next_check:
                            next_check = interactions + n
                            if role.count(RESETTING) == n and not any(resetcount):
                                # ---- Dormant block (module docstring) -------
                                # No timer reaches 0 within ``budget``, so
                                # nobody wakes.  The pair is drawn as above,
                                # word for word.
                                while True:
                                    budget = min(min(delaytimer) - 1, stop - interactions)
                                    if budget < _MIN_DORMANT_BLOCK:
                                        break
                                    end = interactions + budget
                                    while interactions < end:
                                        a = getrandbits(bits_a)
                                        while a >= n:
                                            a = getrandbits(bits_a)
                                        b = getrandbits(bits_b)
                                        while b >= others:
                                            b = getrandbits(bits_b)
                                        if b >= a:
                                            b += 1
                                        interactions += 1
                                        delaytimer[a] -= 1
                                        delaytimer[b] -= 1
                                        if leader[a] and leader[b]:
                                            leader[b] = 0
                                    self.dormant_interactions += budget
                        # Neither agent is settled or unsettled: the
                        # ranking steps below do nothing.
                        continue

                # Rank collision (Protocol 3 lines 5-8), leader-driven
                # ranking (lines 9-13) and the starvation countdown
                # (lines 14-20).  A collision leaves both agents
                # resetting, and a ranked agent is no longer unsettled,
                # so each role pair reaches at most the steps below; a
                # countdown trigger on a skips b's tick.
                if role_a == SETTLED:
                    if role_b == SETTLED:
                        if rank[a] == rank[b]:
                            trigger(a)
                            trigger(b)
                    elif role_b == UNSETTLED:
                        count = children[a]
                        child_rank = 2 * rank[a] + count
                        if count < 2 and child_rank <= n:
                            children[a] = count + 1
                            clear_fields(b)
                            role[b] = SETTLED
                            set_rank(b, child_rank)
                        else:
                            value = errorcount[b] - 1
                            if value > 0:
                                errorcount[b] = value
                            else:
                                trigger(a)
                                trigger(b)
                elif role_a == UNSETTLED:
                    if role_b == SETTLED:
                        count = children[b]
                        child_rank = 2 * rank[b] + count
                        if count < 2 and child_rank <= n:
                            children[b] = count + 1
                            clear_fields(a)
                            role[a] = SETTLED
                            set_rank(a, child_rank)
                            continue
                    value = errorcount[a] - 1
                    if value > 0:
                        errorcount[a] = value
                        if role_b == UNSETTLED:
                            value = errorcount[b] - 1
                            if value > 0:
                                errorcount[b] = value
                            else:
                                trigger(a)
                                trigger(b)
                    else:
                        trigger(a)
                        trigger(b)
                elif role_b == UNSETTLED:
                    value = errorcount[b] - 1
                    if value > 0:
                        errorcount[b] = value
                    else:
                        trigger(a)
                        trigger(b)
        finally:
            self.interactions = interactions

    @property
    def parallel_time(self) -> float:
        return self.interactions / self.n


def random_start_time(n: int, rng: random.Random) -> float:
    """Parallel time to a correct ranking from a uniformly random start.

    The one trial body behind Table 1 row 2 and ``repro run whp``; the
    budget of 50 000 n^2 interactions is far above any observed run.
    """
    sim = OptimalSilentFastSim(n, rng)
    sim.random_start()
    return sim.run_to_convergence(50_000 * n * n) / n
