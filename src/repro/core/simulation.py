"""The sequential simulation engine.

:class:`Simulation` executes a population protocol under a scheduler,
one interaction at a time.  Parallel time follows the paper's
convention: number of interactions divided by the population size
``n``.

For protocols whose states are small integers there is a much faster
specialized engine in :mod:`repro.core.fastpath`; this generic engine is
the reference implementation the fast paths are validated against.

It keeps one contract with the count engine,
:class:`repro.core.countsim.CountSimulation`: the fault-injection
methods adversaries strike through (victims are agent indices here),
the ``ticks`` clock with :meth:`Simulation.advance`, the ``correct`` /
``silent`` / ``stabilized`` verdicts, the ranking tally's
``streak_start`` / ``regressions`` (both engines judge it with
:func:`judge_ranking`) and :meth:`Simulation.run_until_stable` -- see
docs/robustness.md, "The engine contract".
"""

from __future__ import annotations

import random
import time
from typing import Any, Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.core.configuration import is_silent
from repro.core.protocol import PopulationProtocol, check_population
from repro.core.scheduler import Scheduler, UniformRandomScheduler
from repro.obs.context import current_recorder

S = TypeVar("S")


def judge_ranking(engine: Any, correct: bool, *, resync: bool = False) -> bool:
    """Record the ranking tally's verdict ``correct`` on ``engine``; return it.

    The one rule both engines keep.  Without ``resync`` the verdict
    flipped over the interaction just taken: a correct streak starts at
    ``engine.interactions`` (a ``convergence`` event), or one ends (a
    ``regression`` event, counted in ``engine.regressions``).  A resync
    -- the tally started, or a fault changed the configuration behind
    the protocol's back -- is not a transition: it emits nothing,
    counts nothing, and a correct configuration's streak starts at the
    current interaction.  Events go to ``engine._obs`` when it is set,
    labelled ``engine._label``.
    """
    now = engine.interactions
    engine.streak_start = now if correct else None
    if resync:
        return correct
    if not correct:
        engine.regressions += 1
    if engine._obs is not None:
        engine._obs.event(
            "convergence" if correct else "regression",
            t=now / engine.protocol.n,
            engine=engine._label,
        )
    return correct


class Simulation(Generic[S]):
    """Drives one execution of a population protocol.

    Parameters
    ----------
    protocol:
        The protocol to execute.
    states:
        Initial configuration (list of ``protocol.n`` agent states).  If
        omitted, a clean-start configuration is drawn from
        ``protocol.initial_configuration``.
    rng:
        Source of randomness for both the scheduler and the (possibly
        randomized) transition function.
    scheduler:
        Defaults to the standard uniform random scheduler.
    recorder:
        Optional :class:`~repro.obs.metrics.MetricsRecorder`; defaults
        to the ambient recorder (see :mod:`repro.obs.context`).  When
        present, :meth:`run` credits interactions and wall time towards
        the throughput aggregate and, for a protocol with ``rank_of``,
        the ranking tally runs from the start: it emits ``convergence``
        / ``regression`` events and samples leaders, rank coverage and
        its verdict every ``recorder.sample_every`` interactions.

    The ranking tally counts the agents at each rank in ``1..n`` and
    the ranks held exactly once, O(1) per interaction, and keeps
    ``streak_start`` and ``regressions``.  It runs under a recorder or
    once :meth:`run_until_stable` starts it; an unrecorded :meth:`run`
    before that pays nothing for it.
    """

    #: The ``engine`` label of this engine's samples and events.
    _label = "generic"

    def __init__(
        self,
        protocol: PopulationProtocol[S],
        states: Optional[Sequence[S]] = None,
        *,
        rng: random.Random,
        scheduler: Optional[Scheduler] = None,
        recorder: Optional[Any] = None,
    ):
        self.protocol = protocol
        self.rng = rng
        if states is None:
            states = protocol.initial_configuration(rng)
        check_population(protocol, states)
        self.states: List[S] = list(states)
        self.scheduler = scheduler or UniformRandomScheduler(protocol.n)
        self._obs = recorder if recorder is not None else current_recorder()
        self.interactions = 0
        # -- the ranking tally (see the class docstring) -----------------
        self._rank_of = getattr(protocol, "rank_of", None)
        self._tallying = False
        self._rank_counts: List[int] = []
        self._good = 0  # ranks in 1..n held exactly once
        self._ranked = False  # the tally's verdict: ranks are exactly 1..n
        #: Interaction at which the current correct streak began, or None.
        self.streak_start: Optional[int] = None
        #: Times the tally's verdict went from correct to incorrect.
        self.regressions = 0
        if self._obs is not None and self._rank_of is not None:
            self._obs_next = self._obs.sample_every
            self._resync_tally()

    # ------------------------------------------------------------------

    @property
    def parallel_time(self) -> float:
        """Interactions executed so far, divided by ``n``."""
        return self.interactions / self.protocol.n

    def step(self) -> None:
        """Execute one interaction, keeping the ranking tally if it runs.

        Ranks are read before the transition, which may mutate its
        inputs in place (see :mod:`repro.core.protocol`).
        """
        i, j = self.scheduler.next_pair(self.rng)
        states = self.states
        if not self._tallying:
            new_i, new_j = self.protocol.transition(states[i], states[j], self.rng)
            states[i] = new_i
            states[j] = new_j
            self.interactions += 1
            return
        rank_of = self._rank_of
        old_i = rank_of(states[i])
        old_j = rank_of(states[j])
        new_i, new_j = self.protocol.transition(states[i], states[j], self.rng)
        states[i] = new_i
        states[j] = new_j
        self.interactions += 1
        rank_i = rank_of(new_i)
        rank_j = rank_of(new_j)
        if rank_i != old_i:
            self._count_rank(old_i, -1)
            self._count_rank(rank_i, +1)
        if rank_j != old_j:
            self._count_rank(old_j, -1)
            self._count_rank(rank_j, +1)
        if (self._good == self.protocol.n) != self._ranked:
            self._ranked = judge_ranking(self, not self._ranked)
        if self._obs is not None and self.interactions >= self._obs_next:
            self._sample()

    def _count_rank(self, rank: Optional[int], delta: int) -> None:
        """Move the tally's count of ``rank`` by ``delta``; ranks outside
        ``1..n`` (or ``None``) are not counted."""
        if rank is None or not 1 <= rank <= self.protocol.n:
            return
        counts = self._rank_counts
        old = counts[rank]
        counts[rank] = old + delta
        if old == 1:
            self._good -= 1
        if old + delta == 1:
            self._good += 1

    def _resync_tally(self) -> None:
        """(Re)count the ranks of the current states: a resync."""
        self._rank_counts = [0] * (self.protocol.n + 1)
        self._good = 0
        rank_of = self._rank_of
        for state in self.states:
            self._count_rank(rank_of(state), +1)
        self._tallying = True
        self._ranked = judge_ranking(
            self, self._good == self.protocol.n, resync=True
        )

    def _sample(self) -> None:
        """Emit one sampled time-series point from the tally."""
        interactions = self.interactions
        self._obs_next = interactions + self._obs.sample_every
        self._obs.sample(
            t=interactions / self.protocol.n,
            interactions=interactions,
            leaders=self._rank_counts[1],
            rank_coverage=self._good,
            correct=self._ranked,
            engine=self._label,
        )

    def run(self, interactions: int) -> None:
        """Execute exactly ``interactions`` steps (fewer if a script ends)."""
        if self._obs is None:
            try:
                for _ in range(interactions):
                    self.step()
            except StopIteration:
                pass  # a ScriptedScheduler ran out of script: natural end
            return
        before = self.interactions
        start = time.perf_counter()
        try:
            for _ in range(interactions):
                self.step()
        except StopIteration:
            pass
        finally:
            self._obs.count_interactions(
                self.interactions - before, time.perf_counter() - start
            )

    # -- the engine contract (shared with CountSimulation) --------------

    @property
    def ticks(self) -> int:
        """Interactions elapsed so far (every one of them simulated)."""
        return self.interactions

    def advance(self, interactions: int) -> None:
        """Let ``interactions`` more interactions elapse."""
        self.run(interactions)

    @property
    def correct(self) -> bool:
        """Whether the configuration is correct now (a scan of the states)."""
        return self.protocol.is_correct(self.states)

    @property
    def silent(self) -> bool:
        """Whether the protocol is silent and the configuration is, exactly."""
        return self.protocol.silent and is_silent(self.protocol, self.states)

    @property
    def stabilized(self) -> bool:
        """Correct and, for silent protocols, silent."""
        return self.correct and (not self.protocol.silent or self.silent)

    def run_until_stable(self, max_interactions: int, confirm_interactions: int) -> bool:
        """Run until stable; ``False`` if ``max_interactions`` more
        interactions pass first.

        Stable means the ranking tally reads correct and the states are
        silent or, as the empirical proxy for a non-silent protocol, the
        tally's correct streak is ``confirm_interactions`` long.  Both
        are probed before the first step and then every ``max(n, 16)``
        interactions.  A tally not yet running starts here, as a
        resync: its streak counts from the current interaction.
        """
        if not self._tallying:
            if self._rank_of is None:
                raise TypeError(
                    f"{type(self.protocol).__name__} has no rank_of; "
                    "run_until_stable judges by the ranking tally"
                )
            self._resync_tally()
        deadline = self.interactions + max_interactions
        probe_every = max(self.protocol.n, 16)
        while True:
            start = self.streak_start  # None unless the tally reads correct
            if start is not None and (
                self.silent or self.interactions - start >= confirm_interactions
            ):
                return True
            if self.interactions >= deadline:
                return False
            self.run(min(probe_every, deadline - self.interactions))

    def sample_victims(self, count: int, rng: random.Random) -> List[int]:
        """``min(count, n)`` distinct uniformly random agent indices."""
        n = self.protocol.n
        return rng.sample(range(n), min(count, n))

    def _ranked_agents(self) -> List[Tuple[int, int]]:
        """``(rank, index)`` of every agent with an integer rank."""
        rank_of = self._rank_of
        if rank_of is None:
            return []
        ranks = ((rank_of(state), index) for index, state in enumerate(self.states))
        return [(rank, index) for rank, index in ranks if isinstance(rank, int)]

    def ranked_victims(self, count: int, *, highest: bool) -> List[int]:
        """Up to ``count`` ranked agents: rank 1 first, or the highest ranks."""
        ranked = sorted(self._ranked_agents(), reverse=highest)
        return [index for _, index in ranked[:count]]

    def sample_live_state(self, rng: random.Random, *, leader: bool = False) -> S:
        """A copy of a uniform agent's state, or of a rank-1 agent's if
        ``leader`` and one exists (the clone adversary's source)."""
        leaders = [i for rank, i in self._ranked_agents() if rank == 1] if leader else []
        source = leaders[rng.randrange(len(leaders))] if leaders else rng.randrange(self.protocol.n)
        return self.protocol.clone_state(self.states[source])

    def corrupt(self, victims: Sequence[int], new_states: Sequence[S]) -> None:
        """Overwrite agent ``victims[i]`` with a copy of ``new_states[i]``.

        A fault is not an interaction, so ``interactions`` does not
        advance; a running ranking tally resyncs (:func:`judge_ranking`),
        since the world changed behind the protocol's back.
        """
        clone = self.protocol.clone_state
        for index, state in zip(victims, new_states):
            self.states[index] = clone(state)
        if self._tallying:
            self._resync_tally()
