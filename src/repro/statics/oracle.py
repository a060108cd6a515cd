"""The quantitative oracle behind ``repro verify``.

The dynamic layer already cross-validates its two simulation engines
against each other (distributional KS tests); this module validates both
of them against something sharper: the *exact* expected stabilization
time of the protocol's Markov chain (:mod:`repro.statics.quant`), with
error bars that are themselves exact.  For a silent protocol the
stabilization time is the hitting time ``T`` of the correct-sink set, so

    mean of N trials  ~  E[T]  +/-  z sqrt(Var[T] / N)

where both ``E[T]`` and ``Var[T]`` come from the chain's first and
second hitting moments -- no estimated variance, no asymptotic hand
waving beyond the CLT itself.  With the default ``z = 4`` a correct
engine fails one target roughly 6 in 100,000 runs; an engine whose mean
drifts by even a fraction of an interaction fails it almost surely as
the trial count grows.

Each verify target names an implementation factory and (optionally) a
*reference* factory.  When both are present their exact expectations are
compared first -- a deterministic, simulation-free check that flags any
protocol whose chain got quantitatively slower or faster while staying
qualitatively indistinguishable.  That is precisely the seeded
:class:`~repro.statics.mutants.SluggishRankingSSR` mutant: every
``repro lint`` rule passes, only this comparison (rule ``quant-spec``)
catches it, and ``repro verify SluggishRankingSSR`` exits 1.

Findings reuse the lint currency (:mod:`repro.statics.findings`), so
reports render identically and exit codes mean the same thing.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from math import sqrt
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.countsim import select_engine
from repro.core.rng import make_rng
from repro.statics.findings import Finding, Severity, has_errors, render_report
from repro.statics.quant import (
    HittingMoments,
    QuantError,
    build_chain,
    hitting_moments,
)

VERIFY_SEED = 0x0FAC1E
DEFAULT_TRIALS = 400
DEFAULT_Z = 4.0
#: Exact values are floats out of one shared solver; impl-vs-reference
#: disagreement beyond this is a real chain difference, not rounding.
SPEC_RTOL = 1e-9

RULE_QUANT_SPEC = "quant-spec"
RULE_MC_BAND = "mc-band"
RULE_VERIFY_SKIPPED = "verify-skipped"


@dataclass(frozen=True)
class VerifyTarget:
    """One protocol's quantitative verification setup.

    ``make_protocol`` builds the implementation under test at population
    ``n``; ``make_reference`` (optional) builds the protocol whose exact
    chain defines the specification -- identical expectations required.
    ``make_start`` produces the start configuration (explicit states)
    whose hitting moments anchor the bands.
    """

    name: str
    make_protocol: Callable[[int], Any]
    make_start: Callable[[Any], List[Any]]
    make_reference: Optional[Callable[[int], Any]] = None
    #: Engines to exercise, skipping those that cannot run the protocol
    #: (:func:`~repro.core.countsim.select_engine`).  ``vector`` is the
    #: count engine with batched sampling: per seed it is not the
    #: unbatched trajectory (independent scheduling draws), so it earns
    #: its own Monte-Carlo band against the exact chain.
    engines: Tuple[str, ...] = ("generic", "count", "vector")


@dataclass
class EngineEstimate:
    """One engine's Monte-Carlo estimate against the exact band."""

    engine: str
    trials: int
    mean_interactions: float
    exact_interactions: float
    band_interactions: float
    within_band: bool


@dataclass
class VerifyReport:
    """Everything ``repro verify`` learned about one target."""

    target: str
    n: int
    exact_interactions: float
    exact_variance: float
    reference_interactions: Optional[float]
    chain_size: int
    solver: str
    estimates: List[EngineEstimate] = field(default_factory=list)
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not has_errors(self.findings)


_TARGETS: Dict[str, VerifyTarget] = {}


def _register(target: VerifyTarget) -> None:
    _TARGETS[target.name] = target


def _tiny_optimal(n: int) -> Any:
    from repro.protocols.optimal_silent import OptimalSilentSSR
    from repro.protocols.parameters import OptimalSilentParameters, ResetParameters

    return OptimalSilentSSR(
        n, OptimalSilentParameters(reset=ResetParameters(r_max=2, d_max=2), e_max=2)
    )


def _silent_n_state(n: int) -> Any:
    from repro.protocols.cai_izumi_wada import SilentNStateSSR

    return SilentNStateSSR(n)


def _sluggish(n: int) -> Any:
    from repro.statics.mutants import SluggishRankingSSR

    return SluggishRankingSSR(n)


def _worst_case_start(protocol: Any) -> List[Any]:
    return list(protocol.worst_case_configuration())


def _initial_start(protocol: Any) -> List[Any]:
    rng = random.Random(VERIFY_SEED)
    return [protocol.initial_state(rng) for _ in range(protocol.n)]


# Both Table 1 protocols, from their canonical hard starts, plus the
# quantitative mutant verified against the clean baseline it mutates.
_register(
    VerifyTarget(
        name="SilentNStateSSR",
        make_protocol=_silent_n_state,
        make_start=_worst_case_start,
    )
)
_register(
    VerifyTarget(
        name="OptimalSilentSSR",
        make_protocol=_tiny_optimal,
        make_start=_initial_start,
    )
)
_register(
    VerifyTarget(
        name="SluggishRankingSSR",
        make_protocol=_sluggish,
        make_start=_worst_case_start,
        make_reference=_silent_n_state,
    )
)


def verify_target_names() -> List[str]:
    return list(_TARGETS)


def default_verify_names() -> List[str]:
    """The clean acceptance set (the mutant is addressable explicitly)."""
    return ["SilentNStateSSR", "OptimalSilentSSR"]


def exact_start_moments(
    protocol: Any, start: Sequence[Any], *, solver: str = "auto"
) -> Tuple[float, float, HittingMoments]:
    """(E, Var) of the stabilization time from ``start``, in interactions."""
    chain = build_chain(protocol, starts=[list(start)])
    moments = hitting_moments(chain, solver=solver)
    config = chain.config_of(list(start))
    return (
        moments.expected_from(config),
        moments.variance_from(config),
        moments,
    )


def _runs_on(protocol: Any, engine: str) -> bool:
    """Whether the engine ``engine`` can run ``protocol`` (:func:`select_engine`)."""
    try:
        select_engine(protocol, engine)
    except ValueError:
        return False
    return True


def _measure_mean(
    make_protocol: Callable[[], Any],
    start: Sequence[Any],
    *,
    engine: str,
    trials: int,
    seed: int,
    max_time: float,
) -> float:
    """Mean stabilization interactions over ``trials`` fresh runs."""
    from repro.experiments.common import measure_convergence

    total = 0.0
    for trial in range(trials):
        protocol = make_protocol()
        outcome = measure_convergence(
            protocol,
            [copy.deepcopy(state) for state in start],
            rng=make_rng(seed, "verify", engine, trial),
            max_time=max_time,
            engine=engine,
        )
        if not outcome.converged:
            raise QuantError(
                f"engine {engine!r} trial {trial} did not converge within "
                f"max_time={max_time}; the exact expectation says it should"
            )
        total += outcome.convergence_time * protocol.n
    return total / trials


def verify_target(
    name: str,
    *,
    n: int = 4,
    trials: int = DEFAULT_TRIALS,
    seed: int = VERIFY_SEED,
    z: float = DEFAULT_Z,
    solver: str = "auto",
) -> VerifyReport:
    """Run the full quantitative verification of one registered target."""
    target = _TARGETS.get(name)
    if target is None:
        report = VerifyReport(
            target=name,
            n=n,
            exact_interactions=float("nan"),
            exact_variance=float("nan"),
            reference_interactions=None,
            chain_size=0,
            solver="none",
        )
        report.findings.append(
            Finding(
                Severity.ERROR,
                name,
                "unknown-protocol",
                f"no verify target named {name!r}; known: "
                f"{', '.join(verify_target_names())}",
            )
        )
        return report

    protocol = target.make_protocol(n)
    start = target.make_start(protocol)
    exact, variance, moments = exact_start_moments(protocol, start, solver=solver)
    report = VerifyReport(
        target=name,
        n=n,
        exact_interactions=exact,
        exact_variance=variance,
        reference_interactions=None,
        chain_size=moments.chain.size,
        solver=moments.solver,
    )

    # Deterministic specification check: the implementation's exact chain
    # must match the reference protocol's, expectation for expectation.
    if target.make_reference is not None:
        reference = target.make_reference(n)
        ref_exact, _, _ = exact_start_moments(reference, start, solver=solver)
        report.reference_interactions = ref_exact
        scale = max(abs(exact), abs(ref_exact), 1.0)
        if abs(exact - ref_exact) > SPEC_RTOL * scale:
            report.findings.append(
                Finding(
                    Severity.ERROR,
                    name,
                    RULE_QUANT_SPEC,
                    f"n={n}: exact expected stabilization differs from the "
                    f"reference {type(reference).__name__}: "
                    f"{exact:.6f} vs {ref_exact:.6f} interactions "
                    "(qualitatively clean, quantitatively wrong)",
                    witness=" | ".join(
                        protocol.describe(state) for state in start
                    ),
                )
            )
        else:
            report.findings.append(
                Finding(
                    Severity.INFO,
                    name,
                    RULE_QUANT_SPEC,
                    f"n={n}: exact expectation matches the reference "
                    f"({exact:.6f} interactions)",
                )
            )

    if variance == float("inf") or exact == float("inf"):
        report.findings.append(
            Finding(
                Severity.ERROR,
                name,
                RULE_MC_BAND,
                f"n={n}: infinite expected stabilization time from the "
                "verify start; the protocol does not stabilize",
            )
        )
        return report

    band = z * sqrt(variance / trials) if trials else float("inf")
    # Generously past any band: exact + 40 sigma of a single trial.
    max_time = (exact + 40.0 * sqrt(max(variance, 1.0))) / n + 1.0
    engines = [engine for engine in target.engines if _runs_on(protocol, engine)]
    for engine in engines:
        mean = _measure_mean(
            lambda: target.make_protocol(n),
            start,
            engine=engine,
            trials=trials,
            seed=seed,
            max_time=max_time,
        )
        within = abs(mean - exact) <= band
        report.estimates.append(
            EngineEstimate(
                engine=engine,
                trials=trials,
                mean_interactions=mean,
                exact_interactions=exact,
                band_interactions=band,
                within_band=within,
            )
        )
        severity = Severity.INFO if within else Severity.ERROR
        verdict = "within" if within else "OUTSIDE"
        report.findings.append(
            Finding(
                severity,
                name,
                RULE_MC_BAND,
                f"n={n}: engine {engine!r} mean {mean:.3f} is {verdict} the "
                f"exact band {exact:.3f} +/- {band:.3f} interactions "
                f"({trials} trials, z={z:g}, exact Var={variance:.3f})",
            )
        )
    return report


def run_verify(
    names: Optional[Sequence[str]] = None,
    *,
    n: int = 4,
    trials: int = DEFAULT_TRIALS,
    seed: int = VERIFY_SEED,
    z: float = DEFAULT_Z,
    solver: str = "auto",
) -> List[VerifyReport]:
    """Verify each named target (default: the clean acceptance set)."""
    selected = list(names) if names else default_verify_names()
    return [
        verify_target(name, n=n, trials=trials, seed=seed, z=z, solver=solver)
        for name in selected
    ]


def render_verify_report(reports: Sequence[VerifyReport]) -> str:
    findings = [finding for report in reports for finding in report.findings]
    checked = [f"{report.target}(n={report.n})" for report in reports]
    return render_report(findings, title="repro verify report", checked=checked)


def main(
    names: Optional[Sequence[str]] = None,
    *,
    n: int = 4,
    trials: int = DEFAULT_TRIALS,
    seed: int = VERIFY_SEED,
    z: float = DEFAULT_Z,
    solver: str = "auto",
    output: Optional[str] = None,
) -> int:
    """CLI body: print (or write) the report, return the exit code."""
    reports = run_verify(names, n=n, trials=trials, seed=seed, z=z, solver=solver)
    text = render_verify_report(reports)
    if output:
        with open(output, "w", encoding="utf8") as handle:
            handle.write(text + "\n")
        print(f"verify: wrote report to {output}")
    else:
        print(text)
    errors = sum(
        1
        for report in reports
        for finding in report.findings
        if finding.severity is Severity.ERROR
    )
    if errors:
        print(f"verify: {errors} error finding(s)")
        return 1
    return 0


__all__ = [
    "DEFAULT_TRIALS",
    "DEFAULT_Z",
    "EngineEstimate",
    "VerifyReport",
    "VerifyTarget",
    "default_verify_names",
    "exact_start_moments",
    "main",
    "render_verify_report",
    "run_verify",
    "verify_target",
    "verify_target_names",
]
