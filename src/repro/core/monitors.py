"""Run-time observers of simulations.

Monitors are attached to a :class:`repro.core.simulation.Simulation` and
receive callbacks around every interaction.  Because protocols are
allowed to mutate state objects in place (see
:mod:`repro.core.protocol`), a monitor must extract whatever it needs
from the participants *before* the transition runs; the engine therefore
exposes a ``before_step`` / ``after_step`` pair rather than old/new
state objects.

The workhorse is :class:`ConvergenceMonitor`, which tracks ranking
correctness *incrementally* -- O(1) per interaction -- so that runs of
hundreds of millions of interactions never rescan the configuration.
"""

from __future__ import annotations

from typing import Callable, Generic, List, Optional, Tuple, TypeVar

S = TypeVar("S")


class Monitor(Generic[S]):
    """Base class: all callbacks are optional no-ops."""

    def on_start(self, states: List[S]) -> None:
        """Called once, before the first interaction."""

    def before_step(self, step: int, i: int, j: int, state_i: S, state_j: S) -> None:
        """Called with the participants' states before the transition."""

    def after_step(self, step: int, i: int, j: int, state_i: S, state_j: S) -> None:
        """Called with the participants' states after the transition."""


class ConvergenceMonitor(Monitor[S]):
    """Incrementally tracks whether ranks currently form ``{1..n}``.

    ``rank_of`` maps an agent state to its output rank (or ``None`` for
    agents that currently have no rank, e.g. mid-reset).  The monitor
    maintains the count of agents at each rank and the number of ranks in
    ``1..n`` covered exactly once; the configuration is correct iff that
    number is ``n``.

    It also keeps the bookkeeping needed to report *empirical convergence
    time*: the interaction index at which the current streak of correct
    configurations began.  If the run later ends while still inside that
    streak (and the streak is long, or the configuration is provably
    silent), that index is the measured convergence time.
    """

    def __init__(self, n: int, rank_of: Callable[[S], Optional[int]]):
        self.n = n
        self.rank_of = rank_of
        self._counts: dict = {}
        self._good = 0  # ranks in 1..n covered exactly once
        self.correct = False
        #: Interaction index at which the current correct streak began
        #: (0 if the initial configuration was already correct), or None.
        self.streak_start: Optional[int] = None
        #: Number of times correctness was lost after having held.
        self.regressions = 0
        #: Optional :class:`repro.obs.metrics.MetricsRecorder`; when set,
        #: correctness transitions are emitted as ``convergence`` /
        #: ``regression`` events.  Duck-typed to keep this module free of
        #: observability imports.
        self.recorder = None
        self._pending: Tuple[Optional[int], Optional[int]] = (None, None)

    # -- O(1) gauges (read by the sampled-metrics hooks) ----------------

    @property
    def leaders(self) -> int:
        """Number of agents currently holding rank 1."""
        return self._counts.get(1, 0)

    @property
    def rank_coverage(self) -> int:
        """Number of ranks in ``1..n`` currently covered exactly once."""
        return self._good

    # -- internal ------------------------------------------------------

    def _add(self, rank: Optional[int], delta: int) -> None:
        if rank is None or not 1 <= rank <= self.n:
            return
        old = self._counts.get(rank, 0)
        new = old + delta
        self._counts[rank] = new
        if old == 1:
            self._good -= 1
        if new == 1:
            self._good += 1

    def _refresh(self, step: int) -> None:
        now_correct = self._good == self.n
        if now_correct and not self.correct:
            self.streak_start = step
            if self.recorder is not None:
                self.recorder.event(
                    "convergence", t=step / self.n, engine="generic"
                )
        elif self.correct and not now_correct:
            self.streak_start = None
            self.regressions += 1
            if self.recorder is not None:
                self.recorder.event(
                    "regression", t=step / self.n, engine="generic"
                )
        self.correct = now_correct

    # -- Monitor interface ---------------------------------------------

    def on_start(self, states: List[S]) -> None:
        self._counts.clear()
        self._good = 0
        for state in states:
            self._add(self.rank_of(state), +1)
        self.correct = False
        self.streak_start = None
        self.regressions = 0
        # A (re)start is a resync, not a correctness transition: fault
        # surfaces call on_start after every strike, and emitting
        # convergence events from here would count resyncs as recoveries.
        recorder, self.recorder = self.recorder, None
        self._refresh(step=0)
        self.recorder = recorder

    def before_step(self, step: int, i: int, j: int, state_i: S, state_j: S) -> None:
        self._pending = (self.rank_of(state_i), self.rank_of(state_j))

    def after_step(self, step: int, i: int, j: int, state_i: S, state_j: S) -> None:
        old_i, old_j = self._pending
        new_i, new_j = self.rank_of(state_i), self.rank_of(state_j)
        if old_i != new_i:
            self._add(old_i, -1)
            self._add(new_i, +1)
        if old_j != new_j:
            self._add(old_j, -1)
            self._add(new_j, +1)
        self._refresh(step)

    # -- queries ---------------------------------------------------------

    def correct_streak(self, current_step: int) -> int:
        """Length (in interactions) of the current correct streak."""
        if not self.correct or self.streak_start is None:
            return 0
        return current_step - self.streak_start
