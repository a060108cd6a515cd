"""The sequential simulation engine.

:class:`Simulation` executes a population protocol under a scheduler,
one interaction at a time, notifying monitors around each step.  Parallel
time follows the paper's convention: number of interactions divided by
the population size ``n``.

For protocols whose states are small integers there is a much faster
specialized engine in :mod:`repro.core.fastpath`; this generic engine is
the reference implementation the fast paths are validated against.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Generic, List, Optional, Sequence, TypeVar

from repro.core.errors import SimulationLimitError
from repro.core.monitors import Monitor
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
        Observers notified around every interaction.
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
        # construction time; mutating ``self.monitors`` afterwards is
        # unsupported.
        self._has_monitors = bool(self.monitors)
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

    def run_until(
        self,
        predicate: Callable[["Simulation[S]"], bool],
        *,
        max_interactions: int,
        check_every: Optional[int] = None,
    ) -> int:
        """Run until ``predicate(self)`` holds; return the interaction count.

        The predicate is evaluated before the first step and then every
        ``check_every`` interactions.  ``check_every`` defaults to
        ``max(1, n)`` -- one unit of parallel time -- because predicates
        are typically O(n) scans and polling them every interaction
        turns an O(T) run into O(n T); pass ``check_every=1`` when the
        exact first-hit interaction matters.  Raises
        :class:`~repro.core.errors.SimulationLimitError` if the budget is
        exhausted first.
        """
        if check_every is None:
            check_every = max(1, self.protocol.n)
        if check_every < 1:
            raise ValueError(f"check_every must be >= 1, got {check_every}")
        deadline = self.interactions + max_interactions
        while True:
            if predicate(self):
                return self.interactions
            if self.interactions >= deadline:
                raise SimulationLimitError(
                    f"predicate not reached within {max_interactions} interactions "
                    f"(n={self.protocol.n})",
                    interactions=self.interactions,
                )
            burst = min(check_every, deadline - self.interactions)
            try:
                for _ in range(burst):
                    self.step()
            except StopIteration:
                if predicate(self):
                    return self.interactions
                raise SimulationLimitError(
                    "scripted scheduler exhausted before predicate held",
                    interactions=self.interactions,
                ) from None
