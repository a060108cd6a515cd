"""Scaling frontier: the Table 1 CIW row at mega-scale populations.

Table 1 measures Silent-n-state-SSR from the paper's worst-case witness
up to n = 512; the count engine's exact-jump mode made n ~ 10^4
reachable, and its class-pruned pair classification (the
``silent_class`` contract, see :mod:`repro.core.countsim`) removes the
remaining O(k^2) entry cost, extending the *same measurement* --
identical per-seed trajectories, see
:func:`repro.experiments.table1._ciw_trial` -- to n = 10^7 on one core.
Each trial accounts for ~n^3/2 scheduler interactions (5 * 10^20 at
n = 10^7), which is the sense in which this row walks toward the
n = 10^9 frontier.  From the witness the engine holds k ~ n slots, so
memory, not time, bounds n: ~208 traced bytes per slot after a run
(n = 8192; see docs/performance.md, "Engine memory"), and a single
n = 10^6 trial peaks at ~273 MB resident.  The engine is built from the
witness's rank counts (:meth:`CountSimulation.from_counts`), so no
n-long agent list is ever expanded.

The check against ground truth is the closed form validated by
:func:`repro.analysis.exact.worst_case_expected_interactions` at small
n (where the general Markov solver is affordable): from the witness the
chain is a line of geometric waits with E[interactions] = n (n-1)^2 / 2
exactly, and the per-trial relative standard deviation is ~ 1/sqrt(n),
so even two trials pin the mean to well under a percent at these sizes.
"""

from __future__ import annotations

import random
import time
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.analysis.scaling import fit_power_law
from repro.core.countsim import CountSimulation
from repro.core.fastpath import worst_case_ciw_counts
from repro.core.parallel import ParallelTrialRunner
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import ExperimentReport
from repro.experiments.registry import check_engine
from repro.protocols.cai_izumi_wada import SilentNStateSSR

EXPERIMENT_ID = "frontier"
TITLE = "Scaling frontier -- Silent-n-state-SSR worst case at mega-scale n"
#: The engines ``run`` takes: only the count engine reaches these sizes.
ENGINES = ("count", "vector")


def _frontier_trial(n: int, rng: random.Random) -> Dict[str, float]:
    """One timed worst-case CIW run; returns measurement + wall time."""
    protocol = SilentNStateSSR(n)
    counts = worst_case_ciw_counts(n)
    started = time.perf_counter()
    sim = CountSimulation.from_counts(
        protocol,
        ((rank, count) for rank, count in enumerate(counts) if count),
        rng=rng,
        mode="jump",
    )
    sim.run_until_silent()
    wall = time.perf_counter() - started
    return {
        "time": sim.parallel_time,
        "interactions": float(sim.interactions),
        "events": float(sim.events),
        "wall": wall,
    }


def run(
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    workers: Optional[int] = None,
    engine: str = "vector",
    sizes: Optional[Sequence[int]] = None,
    trials: int = 2,
) -> ExperimentReport:
    """Extend the Table 1 CIW row to mega-scale n.

    ``quick`` uses n up to 10^4 (seconds; what CI exercises); the full
    run reaches n = 10^7.  ``engine``, one of :data:`ENGINES`, is
    ``"vector"`` (default) or ``"count"``; jump mode never batches, so
    both give the same rows at the same speed.
    """
    check_engine(EXPERIMENT_ID, engine)
    ns: List[int] = list(sizes) if sizes else ([4096, 10**4] if quick else [10**6, 10**7])
    runner = ParallelTrialRunner(workers)
    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "n",
            "mean_time",
            "exact_time",
            "ratio",
            "interactions",
            "wall_seconds",
            "interactions_per_sec",
            "engine",
            "trials",
        ],
    )
    means: Dict[int, float] = {}
    for n in ns:
        results = runner.map_trials(
            partial(_frontier_trial, n),
            seed=seed,
            labels=("frontier", n),
            trials=trials,
        )
        mean_time = sum(r["time"] for r in results) / len(results)
        mean_wall = sum(r["wall"] for r in results) / len(results)
        mean_inter = sum(r["interactions"] for r in results) / len(results)
        # Closed form, solver-validated at small n (see module docstring).
        exact_time = (n - 1) * (n - 1) / 2.0
        means[n] = mean_time
        report.add_row(
            n=n,
            mean_time=mean_time,
            exact_time=exact_time,
            ratio=round(mean_time / exact_time, 4),
            interactions=mean_inter,
            wall_seconds=round(mean_wall, 3),
            interactions_per_sec=f"{mean_inter / mean_wall:.3e}",
            engine=engine,
            trials=len(results),
        )

    largest = max(ns)
    exact_largest = (largest - 1) * (largest - 1) / 2.0
    ratio = means[largest] / exact_largest
    report.add_check(
        "frontier-matches-exact-chain",
        # Per-trial relative sd ~ 1/sqrt(n); 5% is dozens of sigmas wide.
        passed=abs(ratio - 1.0) < 0.05,
        measured=f"measured/exact = {ratio:.4f} at n={largest}",
        expected="exact E[time] = (n-1)^2/2 from the witness",
    )
    fit = fit_power_law(list(means), [means[n] for n in means])
    report.add_check(
        "frontier-exponent",
        passed=1.7 <= fit.exponent <= 2.3,
        measured=round(fit.exponent, 3),
        expected="Theta(n^2): exponent ~ 2 persists at mega-scale",
    )
    report.notes.append(
        "Same measurement as the Table 1 CIW row (identical per-seed "
        "trajectories across engines on this row); only the engine and "
        "the sizes changed."
    )
    return report
