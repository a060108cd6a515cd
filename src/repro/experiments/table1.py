"""Table 1: time and space complexities of all SSR protocols.

The paper's Table 1 states asymptotic complexities; this experiment
regenerates it empirically.  For each protocol we measure stabilization
time across a geometric range of population sizes from adversarial
starts, report the expected-time column (sample mean) and the WHP-time
column (90th percentile), count states exactly (or in log scale where
the count is astronomical), and check the *shape* claims:

* Silent-n-state-SSR grows ~ n^2 (fit exponent close to 2),
* Optimal-Silent-SSR grows ~ n (fit exponent close to 1),
* Sublinear-Time-SSR at H = ceil(log2 n) grows ~ log n (fit exponent
  well below the silent protocols', log-fit with good R^2),
* the ordering at comparable n is CIW > Optimal-Silent > Sublinear.

Protocol constants are the calibrated set from
:mod:`repro.protocols.parameters` (same asymptotic form as the paper's
proof-grade constants; recorded in the report notes).
"""

from __future__ import annotations

import math
import random
from functools import partial
from typing import Dict, Optional, Sequence

from repro.analysis.scaling import fit_logarithm, fit_power_law
from repro.analysis.statecount import (
    optimal_silent_state_count,
    silent_n_state_count,
    sublinear_state_log2_estimate,
)
from repro.analysis.stats import TrialSummary, summarize_trials
from repro.core.countsim import CountSimulation, select_engine
from repro.core.fastpath import worst_case_ciw_counts
from repro.core.fastpath_optimal_silent import random_start_time
from repro.core.parallel import ParallelTrialRunner
from repro.core.rng import DEFAULT_SEED
from repro.experiments.common import (
    ExperimentReport,
    repeat_convergence,
    summarize_outcomes,
)
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.sublinear.protocol import SublinearTimeSSR

EXPERIMENT_ID = "table1"
TITLE = "Table 1 -- SSR protocol time/space complexities (measured)"
#: The engines ``run`` takes: its CIW row needs the count engine.
ENGINES = ("count", "vector")


def _ciw_trial(n: int, batched: bool, rng: random.Random) -> float:
    """One CIW stabilization measurement from the worst-case start.

    Runs a count-based engine in jump mode.  From a worst-case start
    the count engine's trajectory is interaction-for-interaction
    identical to the historical
    :class:`repro.core.fastpath.CiwJumpSimulator` for the same seed
    (both draw one geometric and one Fenwick sample per effective
    event, over identical weight tables) -- enforced by the equivalence
    tests, so this engine swap changed no reported Table 1 value.
    ``batched`` keeps the identical trajectory here too: jump mode
    never batches.
    """
    protocol = SilentNStateSSR(n)
    states = protocol.counts_to_configuration(worst_case_ciw_counts(n))
    sim = CountSimulation(protocol, states, rng=rng, mode="jump", batched=batched)
    sim.run_until_silent()
    return sim.parallel_time


def _ciw_times(
    ns: Sequence[int],
    trials: int,
    seed: int,
    runner: ParallelTrialRunner,
    engine: str = "count",
) -> Dict[int, TrialSummary]:
    """Silent-n-state-SSR stabilization times from the worst-case start.

    Uses the exact-jump count engine (distributionally identical to the
    sequential engine; cross-validated in the test suite), which is what
    makes Theta(n^3) interactions reachable.
    """
    results: Dict[int, TrialSummary] = {}
    for n in ns:
        batched = bool(select_engine(SilentNStateSSR(n), engine))
        times = runner.map_trials(
            partial(_ciw_trial, n, batched),
            seed=seed,
            labels=("ciw", n),
            trials=trials,
        )
        results[n] = summarize_trials(times)
    return results


def _optimal_silent_times(
    ns: Sequence[int], trials: int, seed: int, runner: ParallelTrialRunner
) -> Dict[int, TrialSummary]:
    """Optimal-Silent-SSR from uniformly random adversarial starts.

    Uses the array-based fast simulator (semantics- and distribution-
    validated against the reference engine in the test suite), which is
    what lets this row reach n = 256.  For this silent protocol the
    first correct configuration is already silent, so the fast path's
    convergence time is exact stabilization -- the same quantity the
    generic measurement certifies.
    """
    results: Dict[int, TrialSummary] = {}
    for n in ns:
        times = runner.map_trials(
            partial(random_start_time, n),
            seed=seed,
            labels=(f"optimal-silent-{n}",),
            trials=trials,
        )
        results[n] = summarize_trials(times)
    return results


def _make_sublinear(n: int, h: int) -> SublinearTimeSSR:
    return SublinearTimeSSR(n, h=h)


def _random_configuration(protocol, rng: random.Random):
    return protocol.random_configuration(rng)


def _sublinear_times(
    ns: Sequence[int], trials: int, seed: int, runner: ParallelTrialRunner
) -> Dict[int, TrialSummary]:
    """Sublinear-Time-SSR at H = ceil(log2 n), random adversarial starts."""
    results: Dict[int, TrialSummary] = {}
    for n in ns:
        h = max(1, (n - 1).bit_length())
        outcomes = repeat_convergence(
            make_protocol=partial(_make_sublinear, n, h),
            make_states=_random_configuration,
            seed=seed,
            label=f"sublinear-log-{n}",
            trials=trials,
            max_time=4000.0 + 400.0 * math.log(n),
            confirm_time=25.0 + 4.0 * math.log(n),
            runner=runner,
        )
        results[n] = summarize_outcomes(outcomes)
    return results


def _add_rows(
    report: ExperimentReport,
    protocol: str,
    summaries: Dict[int, TrialSummary],
    states: Dict[int, str],
    silent: str,
) -> None:
    for n, summary in sorted(summaries.items()):
        report.add_row(
            protocol=protocol,
            n=n,
            expected_time=summary.mean,
            ci95=summary.ci95_halfwidth,
            whp_time_q90=summary.q90,
            max_time=summary.maximum,
            states=states[n],
            silent=silent,
            trials=summary.count,
        )


def run(
    seed: int = DEFAULT_SEED,
    quick: bool = False,
    workers: Optional[int] = None,
    engine: str = "count",
    checkpoint: Optional[str] = None,
) -> ExperimentReport:
    """Regenerate Table 1.  ``quick`` shrinks sizes/trials for CI use.

    ``workers`` > 1 fans the independent trials of each row out over a
    process pool; results are bit-identical to the serial run (per-trial
    RNG streams are derived inside the workers from the same label
    paths).  ``engine``, one of :data:`ENGINES`, selects the count
    representation for the CIW row: ``"count"`` (default) or
    ``"vector"`` (batched sampling -- which this row's jump mode never
    uses, so the reported values are the same).
    """
    runner = ParallelTrialRunner(workers, checkpoint=checkpoint)
    if quick:
        ciw_ns, ciw_trials = [16, 32, 64], 5
        os_ns, os_trials = [8, 16, 32], 8
        sub_ns, sub_trials = [4, 6, 8], 3
    else:
        ciw_ns, ciw_trials = [32, 64, 128, 256, 512], 25
        os_ns, os_trials = [16, 32, 64, 128, 256], 30
        sub_ns, sub_trials = [4, 6, 8, 10, 12], 8

    report = ExperimentReport(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        columns=[
            "protocol",
            "n",
            "expected_time",
            "ci95",
            "whp_time_q90",
            "max_time",
            "states",
            "silent",
            "trials",
        ],
    )

    ciw = _ciw_times(ciw_ns, ciw_trials, seed, runner, engine=engine)
    osr = _optimal_silent_times(os_ns, os_trials, seed, runner)
    sub = _sublinear_times(sub_ns, sub_trials, seed, runner)

    _add_rows(
        report,
        "Silent-n-state-SSR [CIW]",
        ciw,
        {n: str(silent_n_state_count(n)) for n in ciw},
        silent="yes",
    )
    _add_rows(
        report,
        "Optimal-Silent-SSR",
        osr,
        {n: str(optimal_silent_state_count(n)) for n in osr},
        silent="yes",
    )
    _add_rows(
        report,
        "Sublinear-Time-SSR (H=log2 n)",
        sub,
        {
            n: f"2^{sublinear_state_log2_estimate(n, max(1, (n - 1).bit_length())):.0f}"
            for n in sub
        },
        silent="no",
    )

    # ---- shape checks -------------------------------------------------
    ciw_fit = fit_power_law(list(ciw), [ciw[n].mean for n in ciw])
    report.add_check(
        "ciw-exponent",
        passed=1.6 <= ciw_fit.exponent <= 2.4,
        measured=round(ciw_fit.exponent, 3),
        expected="Theta(n^2): exponent ~ 2",
    )
    os_fit = fit_power_law(list(osr), [osr[n].mean for n in osr])
    report.add_check(
        "optimal-silent-exponent",
        passed=0.6 <= os_fit.exponent <= 1.4,
        measured=round(os_fit.exponent, 3),
        expected="Theta(n): exponent ~ 1",
    )
    sub_fit = fit_power_law(list(sub), [sub[n].mean for n in sub])
    sub_logfit = fit_logarithm(list(sub), [sub[n].mean for n in sub])
    report.add_check(
        "sublinear-exponent",
        # At toy sizes the Theta(log n) protocol's additive reset
        # machinery (itself ~ c log n with a large c) dominates; the
        # power-law exponent just needs to sit clearly below the silent
        # protocols' (~1 and ~2), with the log-fit carrying the shape.
        passed=sub_fit.exponent < 0.8,
        measured=round(sub_fit.exponent, 3),
        expected="Theta(log n): power-law exponent well below linear",
    )
    report.add_check(
        "sublinear-log-fit",
        passed=sub_logfit.slope > 0 or sub_fit.exponent < 0.3,
        measured=f"slope={sub_logfit.slope:.2f}, R2={sub_logfit.r_squared:.2f}",
        expected="time grows ~ a + b log n",
    )

    # Exact ground truth: from the worst-case witness the chain is a
    # line of geometric waits with E[time] = (n-1)^2 / 2 exactly
    # (validated against the general Markov solver in analysis.exact).
    from repro.analysis.exact import worst_case_expected_interactions

    largest = max(ciw)
    exact_time = worst_case_expected_interactions(largest) / largest
    ratio = ciw[largest].mean / exact_time
    report.add_check(
        "ciw-mean-matches-exact-chain",
        passed=abs(ratio - 1.0) < 0.1,
        measured=f"measured/exact = {ratio:.3f} at n={largest}",
        expected="exact E[time] = (n-1)^2/2 from the witness",
    )

    # Ordering at the shared size (or nearest available).
    shared = max(set(ciw) & set(osr), default=None)
    if shared is not None:
        report.add_check(
            "ordering-ciw-vs-optimal",
            passed=ciw[shared].mean > osr[shared].mean,
            measured=(
                f"ciw={ciw[shared].mean:.1f} vs optimal={osr[shared].mean:.1f} "
                f"at n={shared}"
            ),
            expected="Theta(n^2) slower than Theta(n) at equal n",
        )

    from repro.experiments.asciiplot import scaling_chart

    report.notes.append(
        "\n"
        + scaling_chart(
            "Table 1: mean stabilization time vs n (log-log)",
            [
                ("Silent-n-state [CIW]", [(n, ciw[n].mean) for n in sorted(ciw)]),
                ("Optimal-Silent", [(n, osr[n].mean) for n in sorted(osr)]),
                ("Sublinear (H=log n)", [(n, sub[n].mean) for n in sorted(sub)]),
            ],
        )
    )
    report.notes.append(
        "Calibrated constants (see repro/protocols/parameters.py): same "
        "asymptotic form as the paper's proof-grade values, smaller "
        "multipliers so toy populations exhibit the asymptotic regime."
    )
    report.notes.append(
        "CIW start: the paper's worst case (two agents at rank 0, rank n-1 "
        "empty). Others: uniformly random adversarial configurations."
    )
    report.notes.append(
        "Expected time = sample mean; WHP time = 90th percentile, matching "
        "Table 1's 1 - O(1/n) convention in shape."
    )
    return report
