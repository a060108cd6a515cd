"""The sequential simulation engine.

:class:`Simulation` executes a population protocol under a scheduler,
one interaction at a time, notifying monitors around each step.  Parallel
time follows the paper's convention: number of interactions divided by
the population size ``n``.

For protocols whose states are small integers there is a much faster
specialized engine in :mod:`repro.core.fastpath`; this generic engine is
the reference implementation the fast paths are validated against.

It keeps one contract with the count engine,
:class:`repro.core.countsim.CountSimulation`: the fault-injection
methods adversaries strike through (victims are agent indices here),
the ``ticks`` clock with :meth:`Simulation.advance`, the ``correct`` /
``silent`` / ``stabilized`` verdicts and :meth:`Simulation.run_until_stable`
-- see docs/robustness.md, "The engine contract".
"""

from __future__ import annotations

import random
import time
from typing import Any, Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.core.configuration import is_silent
from repro.core.monitors import ConvergenceMonitor, Monitor
from repro.core.protocol import PopulationProtocol, check_population
from repro.core.scheduler import Scheduler, UniformRandomScheduler
from repro.obs.context import current_recorder

S = TypeVar("S")


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
    monitors:
        Observers notified around every interaction.  The first
        :class:`~repro.core.monitors.ConvergenceMonitor` among them
        keeps ``streak_start`` and ``regressions``;
        :meth:`run_until_stable` attaches the protocol's own if none is.
    recorder:
        Optional :class:`~repro.obs.metrics.MetricsRecorder`; defaults
        to the ambient recorder (see :mod:`repro.obs.context`).  When
        present, :meth:`run` credits interactions and wall time towards
        the throughput aggregate.  Sampled metrics on this engine come
        from an attached :class:`~repro.obs.metrics.SampledMetricsMonitor`.
    """

    def __init__(
        self,
        protocol: PopulationProtocol[S],
        states: Optional[Sequence[S]] = None,
        *,
        rng: random.Random,
        scheduler: Optional[Scheduler] = None,
        monitors: Sequence[Monitor[S]] = (),
        recorder: Optional[Any] = None,
    ):
        self.protocol = protocol
        self.rng = rng
        if states is None:
            states = protocol.initial_configuration(rng)
        check_population(protocol, states)
        self.states: List[S] = list(states)
        self.scheduler = scheduler or UniformRandomScheduler(protocol.n)
        self.monitors = list(monitors)
        # Hoisted once: the notification loops dominate the per-step cost
        # of monitor-less runs otherwise.  Attach monitors at
        # construction time (``run_until_stable`` attaches its own the
        # same way); mutating ``self.monitors`` afterwards is
        # unsupported.
        self._has_monitors = bool(self.monitors)
        self._convergence: Optional[ConvergenceMonitor[S]] = next(
            (m for m in self.monitors if isinstance(m, ConvergenceMonitor)), None
        )
        self._obs = recorder if recorder is not None else current_recorder()
        self.interactions = 0
        for monitor in self.monitors:
            monitor.on_start(self.states)

    # ------------------------------------------------------------------

    @property
    def parallel_time(self) -> float:
        """Interactions executed so far, divided by ``n``."""
        return self.interactions / self.protocol.n

    def step(self) -> None:
        """Execute one interaction."""
        i, j = self.scheduler.next_pair(self.rng)
        states = self.states
        step = self.interactions
        if self._has_monitors:
            for monitor in self.monitors:
                monitor.before_step(step, i, j, states[i], states[j])
            new_i, new_j = self.protocol.transition(states[i], states[j], self.rng)
            states[i] = new_i
            states[j] = new_j
            self.interactions = step + 1
            for monitor in self.monitors:
                monitor.after_step(step + 1, i, j, new_i, new_j)
        else:
            new_i, new_j = self.protocol.transition(states[i], states[j], self.rng)
            states[i] = new_i
            states[j] = new_j
            self.interactions = step + 1

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

    @property
    def streak_start(self) -> Optional[int]:
        """Interaction at which the current correct streak began, or ``None``."""
        return self._convergence.streak_start if self._convergence else None

    @property
    def regressions(self) -> int:
        """Times correctness was lost after having held."""
        return self._convergence.regressions if self._convergence else 0

    def run_until_stable(self, max_interactions: int, confirm_interactions: int) -> bool:
        """Run until stable; ``False`` if ``max_interactions`` more
        interactions pass first.

        Stable means correct and silent or, as the empirical proxy for a
        non-silent protocol, correct for ``confirm_interactions`` in a
        row.  Both are probed before the first step and then every
        ``max(n, 16)`` interactions.  With no ConvergenceMonitor
        attached, the protocol's own is attached first, starting from
        the current states: call this before any other step, so its
        streak counts from interaction 0.
        """
        monitor = self._convergence
        if monitor is None:
            monitor = self.protocol.convergence_monitor()  # type: ignore[attr-defined]
            monitor.on_start(self.states)
            self.monitors.append(monitor)
            self._convergence = monitor
            self._has_monitors = True
        deadline = self.interactions + max_interactions
        probe_every = max(self.protocol.n, 16)
        while True:
            if monitor.correct and (
                self.silent
                or monitor.correct_streak(self.interactions) >= confirm_interactions
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
        rank_of = getattr(self.protocol, "rank_of", None)
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
        advance; the monitors restart through ``on_start``, since the
        world changed behind the protocol's back.
        """
        clone = self.protocol.clone_state
        for index, state in zip(victims, new_states):
            self.states[index] = clone(state)
        for monitor in self.monitors:
            monitor.on_start(self.states)
