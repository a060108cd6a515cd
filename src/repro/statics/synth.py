"""Parameter synthesis over exact chains: the ``repro synth`` driver.

In the style of Prism-based bias synthesis for Herman's algorithm, but
computed natively: sweep a declared protocol parameter over a grid,
build the exact configuration chain at each value
(:mod:`repro.statics.quant`), solve the declared objective, and emit the
optimal setting with the full objective curve.  Because the solver
reports *infinite* expected hitting times exactly (a parameter value
whose chain cannot reach the target at all), infeasible grid points are
first-class citizens of the curve instead of crashes -- which is what
makes the flagship spec work:

* ``loose-tmax`` -- smallest timeout ``t_max`` for which
  loosely-stabilizing leader election elects a unique leader from the
  cold (all-follower, all-zero-timer) start in finite expected time.
  ``t_max = 1`` is *provably* infeasible: after any interaction the
  participants' timers decay to ``max - 1 = 0`` and immediately time out
  into two leaders, so a one-leader configuration is unreachable -- the
  chain has no target at all, the objective is infinite, and the
  synthesized optimum is the known answer ``t_max = 2`` (equivalently,
  the minimal state count ``2 (t_max + 1) = 6``).
* ``loose-holding`` -- maximize the expected holding time (hitting time
  of the *incorrect* set from the ideal one-leader configuration).
  Known to be strictly increasing in ``t_max`` (each extra tick
  multiplies the chance every agent keeps hearing a fresh timer chain),
  so the synthesized optimum is the top of the grid -- the monotone
  trade-off the paper cites, now exact.
* ``optimal-e-max`` -- minimize the full-space *worst-case* expected
  stabilization time of the paper's optimal silent protocol over the
  error-counter bound ``E_max`` (more tolerance states, faster recovery
  from the nastiest configuration).

Each spec declares its known-optimal parameter on the default grid;
``repro synth`` re-derives it end-to-end and exits 1 on disagreement, so
the synthesis path itself is under regression.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.statics.findings import Finding, Severity, has_errors, render_report
from repro.statics.quant import QuantError, build_chain, hitting_moments

SYNTH_SEED = 0x57A7E
RULE_SYNTH = "synth-optimal"
RULE_SYNTH_INFEASIBLE = "synth-infeasible"

#: How the optimum is selected from the finite points of the curve.
SELECT_MODES = ("min", "max", "min-feasible")


@dataclass(frozen=True)
class SynthSpec:
    """One parameter-synthesis problem.

    ``build(param, n)`` returns ``(protocol, starts, target)`` where
    ``starts`` is a list of explicit start configurations (the objective
    is the exact expected hitting time from the first one) or ``None``
    for the full-space worst case.  ``select`` picks the optimum:
    ``"min"``/``"max"`` over the finite objectives, ``"min-feasible"``
    the smallest parameter whose objective is finite at all.
    """

    name: str
    parameter: str
    description: str
    objective_label: str
    default_grid: Tuple[int, ...]
    default_n: int
    select: str
    build: Callable[[int, int], Tuple[Any, Optional[List[List[Any]]], Any]]
    #: The provably/empirically pinned optimum on the default grid; the
    #: driver re-derives it and errors on disagreement.
    known_optimal: Optional[int] = None


@dataclass
class SynthPoint:
    """One grid point: parameter value, exact objective, chain size."""

    param: int
    objective: float
    chain_size: int
    note: str = ""

    @property
    def feasible(self) -> bool:
        return self.objective != float("inf")


@dataclass
class SynthResult:
    """The full curve plus the synthesized optimum for one spec."""

    spec: SynthSpec
    n: int
    grid: List[int]
    points: List[SynthPoint] = field(default_factory=list)
    best: Optional[SynthPoint] = None
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not has_errors(self.findings)


_SPECS: Dict[str, SynthSpec] = {}


def _register(spec: SynthSpec) -> None:
    if spec.select not in SELECT_MODES:
        raise ValueError(f"select must be one of {SELECT_MODES}")
    _SPECS[spec.name] = spec


def _build_loose_convergence(
    t_max: int, n: int
) -> Tuple[Any, Optional[List[List[Any]]], Any]:
    from repro.protocols.loose_stabilization import LooselyStabilizingLE

    protocol = LooselyStabilizingLE(n, t_max=t_max)
    rng = random.Random(SYNTH_SEED)
    start = [protocol.initial_state(rng) for _ in range(n)]
    return protocol, [start], "correct"


def _build_loose_holding(
    t_max: int, n: int
) -> Tuple[Any, Optional[List[List[Any]]], Any]:
    from repro.protocols.loose_stabilization import LooselyStabilizingLE

    protocol = LooselyStabilizingLE(n, t_max=t_max)
    return protocol, [protocol.ideal_configuration()], "incorrect"


def _build_optimal_e_max(
    e_max: int, n: int
) -> Tuple[Any, Optional[List[List[Any]]], Any]:
    from repro.protocols.optimal_silent import OptimalSilentSSR
    from repro.protocols.parameters import OptimalSilentParameters, ResetParameters

    params = OptimalSilentParameters(
        reset=ResetParameters(r_max=2, d_max=2), e_max=e_max
    )
    return OptimalSilentSSR(n, params), None, "auto"


_register(
    SynthSpec(
        name="loose-tmax",
        parameter="t_max",
        description=(
            "smallest loose-stabilization timeout electing a unique leader "
            "from the cold start in finite expected time"
        ),
        objective_label="E[interactions to unique leader]",
        default_grid=(1, 2, 3, 4, 5),
        default_n=4,
        select="min-feasible",
        build=_build_loose_convergence,
        known_optimal=2,
    )
)
_register(
    SynthSpec(
        name="loose-holding",
        parameter="t_max",
        description=(
            "loose-stabilization timeout maximizing the expected holding "
            "time of the unique leader (exact, from the ideal configuration)"
        ),
        objective_label="E[interactions until leadership lost]",
        default_grid=(1, 2, 3, 4),
        default_n=4,
        select="max",
        build=_build_loose_holding,
        known_optimal=4,
    )
)
_register(
    SynthSpec(
        name="optimal-e-max",
        parameter="e_max",
        description=(
            "error-counter bound minimizing the full-space worst-case "
            "expected stabilization time of the optimal silent protocol"
        ),
        objective_label="max over configs of E[interactions to silence]",
        default_grid=(2, 3, 4),
        default_n=3,
        select="min",
        build=_build_optimal_e_max,
        known_optimal=4,
    )
)


def synth_spec_names() -> List[str]:
    return list(_SPECS)


def get_spec(name: str) -> SynthSpec:
    spec = _SPECS.get(name)
    if spec is None:
        raise KeyError(
            f"no synthesis spec named {name!r}; known: "
            f"{', '.join(synth_spec_names())}"
        )
    return spec


def _evaluate(spec: SynthSpec, param: int, n: int, solver: str) -> SynthPoint:
    """Exact objective at one grid point; QuantError means infeasible."""
    try:
        protocol, starts, target = spec.build(param, n)
        chain = build_chain(protocol, starts=starts, target=target)
        moments = hitting_moments(chain, solver=solver, on_unreachable="inf")
        if starts is None:
            objective, _ = moments.worst_case()
        else:
            objective = moments.expected_from_states(starts[0])
        return SynthPoint(param=param, objective=objective, chain_size=chain.size)
    except QuantError as error:
        return SynthPoint(
            param=param,
            objective=float("inf"),
            chain_size=0,
            note=str(error),
        )


def _select_best(spec: SynthSpec, points: Sequence[SynthPoint]) -> Optional[SynthPoint]:
    feasible = [point for point in points if point.feasible]
    if not feasible:
        return None
    if spec.select == "min":
        return min(feasible, key=lambda p: (p.objective, p.param))
    if spec.select == "max":
        return max(feasible, key=lambda p: (p.objective, -p.param))
    # "min-feasible": the smallest parameter that works at all.
    return min(feasible, key=lambda p: p.param)


def run_synth(
    name: str,
    *,
    n: Optional[int] = None,
    grid: Optional[Sequence[int]] = None,
    solver: str = "auto",
) -> SynthResult:
    """Sweep one spec's grid and synthesize the optimal parameter."""
    spec = get_spec(name)
    population = n if n is not None else spec.default_n
    sweep = list(grid) if grid is not None else list(spec.default_grid)
    result = SynthResult(spec=spec, n=population, grid=sweep)
    for param in sweep:
        result.points.append(_evaluate(spec, param, population, solver))
    result.best = _select_best(spec, result.points)

    if result.best is None:
        result.findings.append(
            Finding(
                Severity.ERROR,
                spec.name,
                RULE_SYNTH_INFEASIBLE,
                f"n={population}: every grid point in {sweep} is infeasible "
                f"({spec.objective_label} is infinite)",
            )
        )
        return result

    infeasible = [point.param for point in result.points if not point.feasible]
    if infeasible:
        result.findings.append(
            Finding(
                Severity.INFO,
                spec.name,
                RULE_SYNTH_INFEASIBLE,
                f"n={population}: infeasible {spec.parameter} values "
                f"{infeasible} excluded (infinite objective)",
            )
        )

    # The regression face of synthesis: on the default grid and
    # population, the derived optimum must match the pinned one.
    defaults = (
        grid is None or list(grid) == list(spec.default_grid)
    ) and population == spec.default_n
    if spec.known_optimal is not None and defaults:
        if result.best.param == spec.known_optimal:
            result.findings.append(
                Finding(
                    Severity.INFO,
                    spec.name,
                    RULE_SYNTH,
                    f"n={population}: synthesized {spec.parameter}="
                    f"{result.best.param} matches the known optimum "
                    f"({spec.objective_label} = {result.best.objective:.4f})",
                )
            )
        else:
            result.findings.append(
                Finding(
                    Severity.ERROR,
                    spec.name,
                    RULE_SYNTH,
                    f"n={population}: synthesized {spec.parameter}="
                    f"{result.best.param}, expected the known optimum "
                    f"{spec.known_optimal}",
                )
            )
    else:
        result.findings.append(
            Finding(
                Severity.INFO,
                spec.name,
                RULE_SYNTH,
                f"n={population}: synthesized {spec.parameter}="
                f"{result.best.param} "
                f"({spec.objective_label} = {result.best.objective:.4f})",
            )
        )
    return result


def render_synth_report(results: Sequence[SynthResult]) -> str:
    """Markdown: one curve table per spec, then the findings table."""
    lines: List[str] = ["# repro synth report", ""]
    for result in results:
        spec = result.spec
        lines.append(f"## {spec.name} (n={result.n})")
        lines.append("")
        lines.append(spec.description)
        lines.append("")
        lines.append(f"| {spec.parameter} | {spec.objective_label} | configs |")
        lines.append("|---|---|---|")
        for point in result.points:
            value = "inf" if not point.feasible else f"{point.objective:.4f}"
            marker = " **<- optimal**" if point is result.best else ""
            lines.append(
                f"| {point.param} | {value}{marker} | {point.chain_size} |"
            )
        lines.append("")
    findings = [finding for result in results for finding in result.findings]
    lines.append(
        render_report(
            findings,
            title="synthesis checks",
            checked=[result.spec.name for result in results],
        )
    )
    return "\n".join(lines)


def main(
    names: Optional[Sequence[str]] = None,
    *,
    n: Optional[int] = None,
    grid: Optional[Sequence[int]] = None,
    solver: str = "auto",
    output: Optional[str] = None,
) -> int:
    """CLI body: sweep the named specs (default: all), exit 1 on errors."""
    selected = list(names) if names else synth_spec_names()
    try:
        results = [
            run_synth(name, n=n, grid=grid, solver=solver) for name in selected
        ]
    except KeyError as error:
        print(f"synth: {error.args[0]}")
        return 1
    text = render_synth_report(results)
    if output:
        with open(output, "w", encoding="utf8") as handle:
            handle.write(text + "\n")
        print(f"synth: wrote report to {output}")
    else:
        print(text)
    errors = sum(
        1
        for result in results
        for finding in result.findings
        if finding.severity is Severity.ERROR
    )
    if errors:
        print(f"synth: {errors} error finding(s)")
        return 1
    return 0


__all__ = [
    "SynthPoint",
    "SynthResult",
    "SynthSpec",
    "get_spec",
    "main",
    "render_synth_report",
    "run_synth",
    "synth_spec_names",
]
