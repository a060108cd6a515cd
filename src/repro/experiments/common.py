"""Shared experiment machinery.

The central measurement is *empirical stabilization time*: run a
protocol from a given configuration under the uniform random scheduler
and report the parallel time at which the output became correct and
stayed correct.

For silent protocols this is exact: once the configuration is both
correct and silent (verified through the analytic null-pair predicate)
it is stably correct by definition, and the start of the current correct
streak is the stabilization time.  For non-silent protocols we use the
standard empirical proxy: the streak must survive a long confirmation
window (and the run records how often correctness was ever lost, so a
misbehaving protocol is visible rather than silently mis-measured).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro.analysis.stats import TrialSummary, summarize_trials
from repro.core.configuration import is_silent
from repro.core.countsim import CountSimulation, select_engine
from repro.core.monitors import Monitor
from repro.core.parallel import ParallelTrialRunner
from repro.core.simulation import Simulation
from repro.obs.context import current_recorder
from repro.obs.metrics import SampledMetricsMonitor
from repro.protocols.base import RankingProtocol

S = TypeVar("S")


@dataclass(frozen=True)
class ConvergenceOutcome:
    """Result of one stabilization-time measurement."""

    n: int
    converged: bool
    #: Parallel time at which the final correct streak began (valid only
    #: when ``converged``).
    convergence_time: float
    #: Total interactions executed by the run.
    interactions: int
    #: Whether stabilization was certified exactly by a silence check.
    silent_certified: bool
    #: Times correctness was lost after having held (adversarial starts
    #: may legitimately pass through transiently correct configurations).
    regressions: int


def measure_convergence(
    protocol: RankingProtocol[S],
    states: Sequence[S],
    *,
    rng: random.Random,
    max_time: float,
    confirm_time: Optional[float] = None,
    engine: str = "auto",
) -> ConvergenceOutcome:
    """Measure the stabilization time of one run.

    Parameters
    ----------
    max_time:
        Parallel-time budget; exceeding it reports ``converged=False``.
    confirm_time:
        Correct-streak length (parallel time) accepted as stabilization
        for non-silent protocols.  Defaults to ``30 + 20 ln n``.
    engine:
        A name in :data:`~repro.core.countsim.ENGINES`, resolved by
        :func:`~repro.core.countsim.select_engine` (``"auto"``, the
        default, runs silent protocols on the count engine).  A silent
        protocol's stabilization is certified by silence checks.
        All engines produce the same outcome *distribution* (enforced
        by the equivalence tests), but per-seed trajectories differ, so
        comparisons across engines must be distributional.
    """
    batched = select_engine(protocol, engine)
    if batched is not None:
        return _measure_convergence_counted(
            protocol, states, rng=rng, max_time=max_time, batched=batched
        )
    n = protocol.n
    monitor = protocol.convergence_monitor()
    monitors: List[Monitor] = [monitor]
    obs = current_recorder()
    if obs is not None:
        monitor.recorder = obs
        monitors.append(SampledMetricsMonitor(obs, monitor, n))
    sim = Simulation(protocol, states, rng=rng, monitors=monitors)
    if confirm_time is None:
        confirm_time = 30.0 + 20.0 * math.log(n)
    max_interactions = int(max_time * n)
    confirm_interactions = int(confirm_time * n)
    probe_every = max(n, 16)

    while True:
        if monitor.correct:
            if protocol.silent and is_silent(protocol, sim.states):
                return ConvergenceOutcome(
                    n=n,
                    converged=True,
                    convergence_time=(monitor.streak_start or 0) / n,
                    interactions=sim.interactions,
                    silent_certified=True,
                    regressions=monitor.regressions,
                )
            if monitor.correct_streak(sim.interactions) >= confirm_interactions:
                return ConvergenceOutcome(
                    n=n,
                    converged=True,
                    convergence_time=(monitor.streak_start or 0) / n,
                    interactions=sim.interactions,
                    silent_certified=False,
                    regressions=monitor.regressions,
                )
        if sim.interactions >= max_interactions:
            return ConvergenceOutcome(
                n=n,
                converged=False,
                convergence_time=float("nan"),
                interactions=sim.interactions,
                silent_certified=False,
                regressions=monitor.regressions,
            )
        burst = min(probe_every, max_interactions - sim.interactions)
        sim.run(burst)


def _measure_convergence_counted(
    protocol: RankingProtocol[S],
    states: Sequence[S],
    *,
    rng: random.Random,
    max_time: float,
    batched: bool,
) -> ConvergenceOutcome:
    """Count-engine measurement path: exact silence-certified outcomes.

    A silent protocol stabilizes exactly when it is correct and silent,
    so the measurement is simply "run until provably silent"; the
    confirmation-window machinery never applies here.
    """
    n = protocol.n
    sim = CountSimulation(protocol, list(states), rng=rng, batched=batched)
    max_interactions = int(max_time * n)
    # Match the generic path's time-zero probe: an initially silent and
    # correct configuration stabilized at time 0 regardless of budget.
    if sim.correct and is_silent(protocol, states):
        return ConvergenceOutcome(
            n=n,
            converged=True,
            convergence_time=0.0,
            interactions=0,
            silent_certified=True,
            regressions=0,
        )
    converged = sim.run_until_silent(max_interactions=max_interactions)
    if converged and sim.correct:
        return ConvergenceOutcome(
            n=n,
            converged=True,
            convergence_time=(sim.streak_start or 0) / n,
            interactions=sim.interactions,
            silent_certified=True,
            regressions=sim.regressions,
        )
    return ConvergenceOutcome(
        n=n,
        converged=False,
        convergence_time=float("nan"),
        interactions=max_interactions,
        silent_certified=False,
        regressions=sim.regressions,
    )


def _convergence_trial(
    make_protocol: Callable[[], RankingProtocol[S]],
    make_states: Callable[[RankingProtocol[S], random.Random], Sequence[S]],
    max_time: float,
    confirm_time: Optional[float],
    engine: str,
    rng: random.Random,
) -> ConvergenceOutcome:
    """One trial of :func:`repeat_convergence` (top-level: picklable)."""
    protocol = make_protocol()
    states = make_states(protocol, rng)
    return measure_convergence(
        protocol,
        states,
        rng=rng,
        max_time=max_time,
        confirm_time=confirm_time,
        engine=engine,
    )


def repeat_convergence(
    make_protocol: Callable[[], RankingProtocol[S]],
    make_states: Callable[[RankingProtocol[S], random.Random], Sequence[S]],
    *,
    seed: int,
    label: str,
    trials: int,
    max_time: float,
    confirm_time: Optional[float] = None,
    engine: str = "auto",
    runner: Optional[ParallelTrialRunner] = None,
) -> List[ConvergenceOutcome]:
    """Run ``trials`` independent stabilization measurements.

    Each trial gets an independent RNG derived from ``(seed, label, i)``,
    a fresh protocol instance and a fresh initial configuration.  A
    :class:`~repro.core.parallel.ParallelTrialRunner` fans trials out
    over worker processes with bit-identical results (the per-trial RNG
    derivation is unchanged); with picklability caveats, see
    :mod:`repro.core.parallel`.
    """
    task = partial(
        _convergence_trial, make_protocol, make_states, max_time, confirm_time, engine
    )
    return (runner or ParallelTrialRunner()).map_trials(
        task, seed=seed, labels=(label,), trials=trials
    )


def convergence_times(outcomes: Sequence[ConvergenceOutcome]) -> List[float]:
    """Extract convergence times, insisting every trial converged."""
    bad = [o for o in outcomes if not o.converged]
    if bad:
        raise RuntimeError(
            f"{len(bad)}/{len(outcomes)} trials failed to converge "
            f"(n={bad[0].n}); raise max_time or inspect the protocol"
        )
    return [o.convergence_time for o in outcomes]


def summarize_outcomes(outcomes: Sequence[ConvergenceOutcome]) -> TrialSummary:
    """Trial summary of the convergence times."""
    return summarize_trials(convergence_times(outcomes))


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class ExperimentReport:
    """Uniform output of every experiment runner.

    ``rows`` hold the regenerated table/series; ``checks`` map named
    shape assertions (exponents, orderings, ratios) to measured values
    alongside a pass flag; ``notes`` carry free-form context such as the
    constants used.
    """

    experiment_id: str
    title: str
    columns: List[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    checks: Dict[str, "CheckResult"] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        self.rows.append(values)

    def add_check(
        self, name: str, passed: bool, measured: object, expected: str
    ) -> None:
        self.checks[name] = CheckResult(
            passed=passed, measured=measured, expected=expected
        )

    @property
    def all_passed(self) -> bool:
        return all(check.passed for check in self.checks.values())

    def render_markdown(self) -> str:
        from repro.experiments.report import render_report

        return render_report(self)


@dataclass(frozen=True)
class CheckResult:
    """One shape assertion: what we measured vs what the paper predicts."""

    passed: bool
    measured: object
    expected: str

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] measured={self.measured} expected({self.expected})"
