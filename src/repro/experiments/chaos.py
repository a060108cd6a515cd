"""Chaos sweep driver behind the ``repro chaos`` CLI subcommand.

Runs a named adversary (see :mod:`repro.core.chaos`) against one or
more protocols across an n-sweep, measuring per-strike recovery time
and availability with :func:`repro.core.chaos.measure_recovery`, and
renders a JSON + ascii-chart report.  Populations start in their stable
ranked configuration -- chaos runs measure *recovery*, not initial
convergence -- and trials fan out over worker processes with the usual
bit-identical seeded-RNG contract.

Example::

    repro chaos --protocol optimal-silent --adversary leader \\
        --n 64 128 256 --trials 3 --json chaos.json
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.core.chaos import (
    BurstProcess,
    FaultProcess,
    PoissonProcess,
    RecoveryReport,
    adversary_names,
    measure_recovery,
)
from repro.core.countsim import CHAOS_PARAMS, select_engine
from repro.core.parallel import ParallelTrialRunner, check_counts
from repro.obs.context import current_recorder
from repro.experiments.asciiplot import scaling_chart
from repro.protocols.base import RankingProtocol
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentSSR

#: Protocols the chaos CLI can target: key -> protocol factory.
CHAOS_PROTOCOLS: Dict[str, Callable[[int], RankingProtocol]] = {
    "ciw": SilentNStateSSR,
    "optimal-silent": OptimalSilentSSR,
}


def _stable_configuration(protocol: RankingProtocol) -> List:
    """The stable ranked configuration chaos runs start from."""
    if isinstance(protocol, OptimalSilentSSR):
        return protocol.ranked_configuration()
    if isinstance(protocol, SilentNStateSSR):
        return list(range(protocol.n))
    raise ValueError(f"no stable configuration for {type(protocol).__name__}")


def _chaos_trial(
    protocol_key: str,
    n: int,
    adversary: str,
    agents: int,
    period: float,
    strikes: int,
    poisson_rate: Optional[float],
    engine: str,
    recovery_budget: float,
    rng: random.Random,
) -> RecoveryReport:
    """One seeded chaos run (top-level and picklable for the runner)."""
    protocol = CHAOS_PROTOCOLS[protocol_key](n)
    process: FaultProcess
    if poisson_rate is not None:
        process = PoissonProcess(poisson_rate, agents=agents, horizon=period * strikes)
    else:
        process = BurstProcess.periodic(period=period, agents=agents, count=strikes)
    return measure_recovery(
        protocol,
        process,
        rng=rng,
        initial_states=_stable_configuration(protocol),
        settle_time=10.0,  # starts stable; settling is a formality
        max_recovery_time=recovery_budget,
        engine=engine,
        adversary=adversary,
    )


@dataclass
class ChaosCell:
    """Aggregated trials for one (protocol, n) sweep cell."""

    protocol: str
    n: int
    trials: int
    strikes: int
    injected: int
    recovered: int
    mean_recovery: float
    worst_recovery: float
    mean_availability: float

    @property
    def all_recovered(self) -> bool:
        return self.recovered == self.strikes


@dataclass
class ChaosResult:
    """Everything one ``repro chaos`` invocation produced."""

    adversary: str
    engine: str
    seed: int
    cells: List[ChaosCell] = field(default_factory=list)

    @property
    def all_recovered(self) -> bool:
        return all(cell.all_recovered for cell in self.cells)

    def to_json(self) -> Dict:
        return {**asdict(self), "all_recovered": self.all_recovered}

    def render(self) -> str:
        lines = [
            f"chaos sweep: adversary={self.adversary} engine={self.engine} "
            f"seed={self.seed}",
            "",
            f"{'protocol':<18} {'n':>6} {'strikes':>8} {'recovered':>10} "
            f"{'mean rec':>10} {'worst rec':>10} {'avail':>7}",
        ]
        for cell in self.cells:
            lines.append(
                f"{cell.protocol:<18} {cell.n:>6} {cell.strikes:>8} "
                f"{cell.recovered:>10} {cell.mean_recovery:>10.2f} "
                f"{cell.worst_recovery:>10.2f} {cell.mean_availability:>7.3f}"
            )
        by_protocol: Dict[str, List] = {}
        for cell in self.cells:
            if cell.recovered:
                by_protocol.setdefault(cell.protocol, []).append(
                    (cell.n, max(cell.mean_recovery, 1e-9))
                )
        chartable = [(name, pts) for name, pts in by_protocol.items() if len(pts) >= 2]
        if chartable:
            lines.append("")
            lines.append(
                scaling_chart(
                    "mean recovery time (parallel time) vs n", chartable
                )
            )
        if not self.all_recovered:
            lines.append("")
            lines.append("REGRESSION: at least one strike did not recover")
        return "\n".join(lines)


def check_chaos_params(params: Mapping[str, Any]) -> None:
    """Reject a sweep that cannot run or would pass vacuously.

    The one range check behind both entry points: :func:`run_chaos`
    calls it before any trial starts, and the job service calls it at
    submission.  ``params`` maps :data:`~repro.core.countsim.CHAOS_PARAMS`
    names to values; an absent optional one is unset.  An empty sweep
    or zero strikes would report ``all_recovered`` with nothing
    measured; a non-positive period, rate or victim count, or an engine
    that cannot run a protocol (:func:`~repro.core.countsim.select_engine`),
    would only fail inside trial 0, and more victims than agents would strike
    fewer agents than asked.  Raises :class:`ValueError` naming the first
    bad parameter.
    """
    protocols, ns = params["protocols"], params["ns"]
    if not protocols:
        raise ValueError("'protocols' must name at least one protocol")
    for key in protocols:
        if not isinstance(key, str) or key not in CHAOS_PROTOCOLS:
            raise ValueError(
                f"unknown protocol {key!r}; known: {', '.join(sorted(CHAOS_PROTOCOLS))}"
            )
    if params["adversary"] not in adversary_names():
        raise ValueError(
            f"unknown adversary {params['adversary']!r}; "
            f"known: {', '.join(adversary_names())}"
        )
    if not ns or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 2 for n in ns
    ):
        raise ValueError("'ns' must be a non-empty list of ints >= 2")
    smallest = min(ns)
    for key in protocols:
        select_engine(CHAOS_PROTOCOLS[key](smallest), params["engine"])
    check_counts(**{
        name: params.get(name) for name in ("trials", "strikes", "agents", "workers")
    })
    agents = params.get("agents")
    if agents is not None and agents > smallest:
        raise ValueError(f"'agents' must be <= the smallest n ({smallest}), got {agents}")
    if not 0 < params["fraction"] <= 1:
        raise ValueError(f"'fraction' must be in (0, 1], got {params['fraction']}")
    for name in ("period_factor", "poisson_rate", "recovery_budget_factor"):
        value = params.get(name)
        if value is not None and not value > 0:
            raise ValueError(f"{name!r} must be > 0, got {value}")


_DEFAULT = {param.name: param.default for param in CHAOS_PARAMS}


def run_chaos(
    *,
    protocols: Sequence[str] = _DEFAULT["protocols"],
    ns: Sequence[int] = _DEFAULT["ns"],
    adversary: str = _DEFAULT["adversary"],
    trials: int = _DEFAULT["trials"],
    seed: int = _DEFAULT["seed"],
    agents: Optional[int] = _DEFAULT["agents"],
    fraction: float = _DEFAULT["fraction"],
    period_factor: float = _DEFAULT["period_factor"],
    strikes: int = _DEFAULT["strikes"],
    poisson_rate: Optional[float] = _DEFAULT["poisson_rate"],
    engine: str = _DEFAULT["engine"],
    workers: Optional[int] = _DEFAULT["workers"],
    recovery_budget_factor: float = _DEFAULT["recovery_budget_factor"],
    checkpoint: Optional[str] = None,
) -> ChaosResult:
    """Sweep ``adversary`` over ``protocols`` x ``ns``; aggregate recovery.

    The keywords and their defaults are
    :data:`~repro.core.countsim.CHAOS_PARAMS`.  ``agents`` fixes the
    per-strike victim count; otherwise it is ``max(1, fraction * n)``.
    ``period_factor`` and ``recovery_budget_factor`` scale with n
    (parallel time).  With ``poisson_rate`` set, strikes follow a
    Poisson process at that rate (per unit parallel time) over the same
    horizon instead of the periodic schedule.  The float parameters are
    coerced with ``float()``, so a job spec that gives ``2`` runs the
    same sweep as ``2.0``.  ``checkpoint`` names a durable trial
    journal: an interrupted sweep re-run with the same arguments
    resumes from it, recomputing only the missing trials with
    bit-identical results (this is how service jobs survive a killed
    server).
    """
    check_chaos_params(locals())  # the keywords: nothing else is bound yet
    fraction, period_factor = float(fraction), float(period_factor)
    recovery_budget_factor = float(recovery_budget_factor)
    if poisson_rate is not None:
        poisson_rate = float(poisson_rate)
    runner = ParallelTrialRunner(workers, checkpoint=checkpoint)
    obs = current_recorder()
    result = ChaosResult(adversary=adversary, engine=engine, seed=seed)
    for key in protocols:
        for n in ns:
            victim_count = agents if agents is not None else max(1, int(fraction * n))
            task = partial(
                _chaos_trial,
                key,
                n,
                adversary,
                victim_count,
                period_factor * n,
                strikes,
                poisson_rate,
                engine,
                recovery_budget_factor * n,
            )
            cell_phase = (
                obs.phase(f"chaos[{key},n={n}]")
                if obs is not None
                else nullcontext()
            )
            with cell_phase:
                outcomes: List[RecoveryReport] = runner.map_trials(
                    task, seed=seed, labels=("chaos", adversary, key, n), trials=trials
                )
            records = [record for out in outcomes for record in out.records]
            recovered = [r for r in records if r.recovered]
            recoveries = [r.recovery_time for r in recovered]
            availabilities = [out.availability for out in outcomes]
            result.cells.append(
                ChaosCell(
                    protocol=key,
                    n=n,
                    trials=trials,
                    strikes=len(records),
                    injected=sum(r.injected for r in records),
                    recovered=len(recovered),
                    mean_recovery=(
                        sum(recoveries) / len(recoveries) if recoveries else float("nan")
                    ),
                    worst_recovery=max(recoveries) if recoveries else float("nan"),
                    mean_availability=(
                        sum(availabilities) / len(availabilities)
                        if availabilities
                        else 0.0
                    ),
                )
            )
    return result
