"""The ``python -m repro lint`` driver.

Ties the static passes together over a registry of lint targets -- one
per protocol, instantiated at small fixed populations:

1. **schema resolution** -- every target must have a registered
   :class:`~repro.statics.schema.StateSchema` (rule ``schema-missing``);
2. **adversary validation** -- every configuration produced by
   :func:`repro.core.adversary.adversarial_battery` must validate
   against the schema (rule ``adversary-schema``): the adversary is
   required to cover the declared space, not exceed it;
3. **transition sanitizing** -- the state-object contract checks of
   :mod:`repro.statics.sanitize`, swept over the whole battery;
4. **fault-model validation** -- ``random_state`` draws and the
   post-strike configurations of every registered chaos adversary must
   stay inside the declared schema (rules ``fault-model-random-state``,
   ``fault-model-corruption``), and for silent protocols exposing
   ``silent_class`` the cross-class null-pair contract the count
   engine's active mode relies on is checked exhaustively
   (``silent-class-soundness``);
5. **small-n model checking** -- for protocols with enumerable schemas,
   the exhaustive certification of :mod:`repro.statics.modelcheck` at
   n = 2, 3, 4 (closure, determinism, null-pair consistency, and for
   silent protocols silence + probability-1 stabilization).  Passing
   rules are reported as INFO findings so the certificate is visible in
   the report;
6. **monitor purity** -- the ranking monitors and observability hooks
   (:class:`~repro.core.monitors.ConvergenceMonitor`,
   :class:`~repro.obs.metrics.SampledMetricsMonitor` with a live
   recorder) are run against a small simulation behind a probe that
   snapshots each participant's canonical key around every callback;
   a monitor mutating agent state is an ERROR (rule
   ``monitor-purity``) -- observers must observe;
7. optionally (``--audit-states``) a **state-count audit**: the
   schema-enumerated state count must equal both the protocol's
   ``state_count()`` and the Table 1 closed form from
   :mod:`repro.analysis.statecount`; rows land in
   ``reports/csv/statecount_audit.csv``.

Model-checked protocols run with deliberately tiny parameters
(``R_max = D_max = E_max = 2``): the configuration graph must stay
enumerable, and the paper's structural claims -- closure, silence,
stabilization from *every* configuration -- are parameter-shape
independent, so certifying them at toy scale still certifies the
transition logic.  (Timing claims are not: those stay with the dynamic
experiments.)

Exit code 0 means no ERROR findings.  The deliberately broken mutants
(:mod:`repro.statics.mutants`) are addressable by name but excluded
from the default target set.
"""

from __future__ import annotations

import csv
import os
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.statecount import optimal_silent_state_count, silent_n_state_count
from repro.core.adversary import adversarial_battery
from repro.protocols import (
    DirectCollisionSSR,
    ImmobilizedLeaderProtocol,
    LooselyStabilizingLE,
    OptimalSilentParameters,
    OptimalSilentSSR,
    ResetParameters,
    ResetTimingProtocol,
    SilentNStateSSR,
    SublinearTimeSSR,
    SyncDictionarySSR,
)
from repro.protocols.naming import NamingOnlyProtocol
from repro.statics.findings import (
    Finding,
    Severity,
    has_errors,
    render_report,
    render_witness_configuration,
)
from repro.statics.modelcheck import ModelCheckError, model_check
from repro.statics.mutants import (
    BrokenRankingSSR,
    NondeterministicRankingSSR,
    SluggishRankingSSR,
)
from repro.statics.sanitize import sanitize_protocol
from repro.statics.schema import has_schema, schema_for

LINT_SEED = 0x11A7
DEFAULT_AUDIT_PATH = os.path.join("reports", "csv", "statecount_audit.csv")


def _tiny_optimal_params() -> OptimalSilentParameters:
    """Smallest legal constants: keeps the configuration graph enumerable."""
    return OptimalSilentParameters(
        reset=ResetParameters(r_max=2, d_max=2), e_max=2
    )


@dataclass(frozen=True)
class LintTarget:
    """One protocol's lint configuration."""

    name: str
    factory: Callable[[int], Any]
    #: Populations to model check exhaustively; empty for protocols whose
    #: schema is not enumerable (they still get sanitized).
    model_check_ns: Tuple[int, ...] = ()
    #: Population for the adversary-battery + sanitizer sweep.
    sanitize_n: int = 4
    #: Closed-form reference for ``--audit-states``:
    #: ``(n, protocol) -> (count, source-label)``.
    audit: Optional[Callable[[int, Any], Tuple[int, str]]] = None


SMALL_NS = (2, 3, 4)

_TARGETS: Dict[str, LintTarget] = {}


def _register(target: LintTarget) -> None:
    _TARGETS[target.name] = target


_register(
    LintTarget(
        name="SilentNStateSSR",
        factory=lambda n: SilentNStateSSR(n),
        model_check_ns=SMALL_NS,
        audit=lambda n, p: (silent_n_state_count(n), "analysis.statecount"),
    )
)
_register(
    LintTarget(
        name="OptimalSilentSSR",
        factory=lambda n: OptimalSilentSSR(n, _tiny_optimal_params()),
        model_check_ns=SMALL_NS,
        audit=lambda n, p: (
            optimal_silent_state_count(n, p.params),
            "analysis.statecount",
        ),
    )
)
_register(
    LintTarget(
        name="LooselyStabilizingLE",
        factory=lambda n: LooselyStabilizingLE(n, t_max=3),
        model_check_ns=SMALL_NS,
        audit=lambda n, p: (p.state_count(), "protocol.state_count"),
    )
)
_register(
    LintTarget(
        name="DirectCollisionSSR", factory=lambda n: DirectCollisionSSR(n)
    )
)
_register(
    LintTarget(name="SublinearTimeSSR", factory=lambda n: SublinearTimeSSR(n))
)
_register(
    LintTarget(name="SyncDictionarySSR", factory=lambda n: SyncDictionarySSR(n))
)
_register(
    LintTarget(
        name="ResetTimingProtocol",
        factory=lambda n: ResetTimingProtocol(
            n, ResetParameters(r_max=3, d_max=4)
        ),
    )
)
_register(
    LintTarget(
        name="ImmobilizedLeaderProtocol",
        factory=lambda n: ImmobilizedLeaderProtocol(
            OptimalSilentSSR(n, _tiny_optimal_params())
        ),
    )
)
_register(
    LintTarget(
        name="NamingOnlyProtocol",
        factory=lambda n: NamingOnlyProtocol(SilentNStateSSR(n)),
    )
)

#: Mutants: addressable explicitly, excluded from the default clean run.
MUTANT_NAMES = (
    "BrokenRankingSSR",
    "NondeterministicRankingSSR",
    "SluggishRankingSSR",
)
_register(
    LintTarget(
        name="BrokenRankingSSR",
        factory=lambda n: BrokenRankingSSR(n),
        model_check_ns=(2, 3),
        sanitize_n=3,
    )
)
_register(
    LintTarget(
        name="NondeterministicRankingSSR",
        factory=lambda n: NondeterministicRankingSSR(n),
        model_check_ns=(2, 3),
        sanitize_n=3,
    )
)
# The quantitative mutant deliberately passes every qualitative pass here
# (that is its point); ``repro verify`` is what catches it.
_register(
    LintTarget(
        name="SluggishRankingSSR",
        factory=lambda n: SluggishRankingSSR(n),
        model_check_ns=(2, 3),
        sanitize_n=3,
    )
)


def default_target_names() -> List[str]:
    return [name for name in _TARGETS if name not in MUTANT_NAMES]


def all_target_names() -> List[str]:
    return list(_TARGETS)


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _battery_findings(target: LintTarget, protocol: Any, schema: Any) -> List[Finding]:
    findings: List[Finding] = []
    battery = adversarial_battery(protocol, random.Random(LINT_SEED))
    for label, states in battery.items():
        problems = []
        for index, state in enumerate(states):
            problems.extend(
                f"agent {index}: {problem}" for problem in schema.validate(state)
            )
        if problems:
            findings.append(
                Finding(
                    Severity.ERROR,
                    target.name,
                    "adversary-schema",
                    f"battery configuration '{label}' violates the schema: "
                    f"{'; '.join(problems[:4])}",
                    render_witness_configuration(
                        [protocol.describe(state) for state in states]
                    ),
                )
            )
    return findings


def _sanitize_findings(target: LintTarget, protocol: Any, schema: Any) -> List[Finding]:
    battery = adversarial_battery(protocol, random.Random(LINT_SEED))
    return sanitize_protocol(
        protocol, schema, configurations=list(battery.items())
    )


def _fault_model_findings(
    target: LintTarget, protocol: Any, schema: Any
) -> List[Finding]:
    """Fault-model check: everything the fault machinery can write into an
    agent must stay inside the declared state space.

    Three rules:

    * ``fault-model-random-state`` -- ``random_state`` draws (the raw
      material of every corruption) validate against the schema;
    * ``fault-model-corruption`` -- each registered chaos adversary is
      struck against a small simulation and every post-strike agent
      state still validates;
    * ``silent-class-soundness`` -- for silent protocols exposing
      ``silent_class``, every class is ``None`` or an int in ``0..n``
      (the count engine indexes an array by it), and any two states
      with distinct non-``None`` classes must be null pairs in both
      orders (the contract the count engine's active mode builds its
      skip distribution on).
    """
    # Imported lazily: the static passes should not drag the dynamic
    # fault machinery in at module import.
    from repro.core.chaos import adversary_names, strike
    from repro.core.simulation import Simulation

    findings: List[Finding] = []

    rng = random.Random(LINT_SEED)
    draw_problems: List[str] = []
    for draw in range(64):
        state = protocol.random_state(rng)
        draw_problems.extend(
            f"draw {draw}: {problem}" for problem in schema.validate(state)
        )
    if draw_problems:
        findings.append(
            Finding(
                Severity.ERROR,
                target.name,
                "fault-model-random-state",
                "random_state leaves the declared state space: "
                f"{'; '.join(draw_problems[:4])}",
            )
        )
    else:
        findings.append(
            Finding(
                Severity.INFO,
                target.name,
                "fault-model-random-state",
                "certified: 64 random_state draws inside the declared schema",
            )
        )

    for adversary_name in adversary_names():
        sim = Simulation(protocol, rng=random.Random(LINT_SEED))
        strike_rng = random.Random(LINT_SEED)
        sim.run(4 * protocol.n)
        strike(sim, adversary_name, max(1, protocol.n // 2), strike_rng)
        problems = [
            f"agent {index}: {problem}"
            for index, state in enumerate(sim.states)
            for problem in schema.validate(state)
        ]
        if problems:
            findings.append(
                Finding(
                    Severity.ERROR,
                    target.name,
                    "fault-model-corruption",
                    f"adversary '{adversary_name}' leaves the declared state "
                    f"space: {'; '.join(problems[:4])}",
                    render_witness_configuration(
                        [protocol.describe(state) for state in sim.states]
                    ),
                )
            )
    if not any(f.rule_id == "fault-model-corruption" for f in findings):
        findings.append(
            Finding(
                Severity.INFO,
                target.name,
                "fault-model-corruption",
                f"certified: {len(adversary_names())} adversaries strike "
                "inside the declared schema",
            )
        )

    silent_class = getattr(protocol, "silent_class", None)
    if protocol.silent and silent_class is not None and schema.enumerable:
        states = schema.enumerate_states()
        out_of_range = [
            f"{protocol.describe(state)} -> {cls!r}"
            for state in states
            if (cls := silent_class(state)) is not None
            and not (cls.__class__ is int and 0 <= cls <= protocol.n)
        ]
        if out_of_range:
            findings.append(
                Finding(
                    Severity.ERROR,
                    target.name,
                    "silent-class-soundness",
                    f"silent_class returns classes outside None and 0..{protocol.n} "
                    "(the count engine indexes its class map by them)",
                    witness="; ".join(out_of_range[:4]),
                )
            )
        elif len(states) > 2000:
            findings.append(
                Finding(
                    Severity.WARNING,
                    target.name,
                    "silent-class-soundness",
                    f"skipped: {len(states)} states is too many for the "
                    "pairwise soundness sweep",
                )
            )
        else:
            witnesses: List[str] = []
            pairs = 0
            classed = [
                (state, cls)
                for state in states
                if (cls := silent_class(state)) is not None
            ]
            for state_a, class_a in classed:
                for state_b, class_b in classed:
                    if class_a == class_b:
                        continue
                    pairs += 1
                    if not protocol.is_pair_null(state_a, state_b):
                        witnesses.append(
                            f"{protocol.describe(state_a)} x "
                            f"{protocol.describe(state_b)} is not null"
                        )
                        if len(witnesses) >= 4:
                            break
                if len(witnesses) >= 4:
                    break
            if witnesses:
                findings.append(
                    Finding(
                        Severity.ERROR,
                        target.name,
                        "silent-class-soundness",
                        "silent_class claims null pairs that are not null "
                        "(the count engine's active mode would skip real "
                        "interactions)",
                        witness="; ".join(witnesses),
                    )
                )
            else:
                findings.append(
                    Finding(
                        Severity.INFO,
                        target.name,
                        "silent-class-soundness",
                        f"certified: all {pairs} cross-class ordered pairs "
                        "are null",
                    )
                )
    return findings


def _monitor_purity_findings(
    target: LintTarget, protocol: Any, schema: Any
) -> List[Finding]:
    """Monitor-purity probe: observers must never mutate agent state.

    Wraps each observability-facing monitor in a probe that snapshots
    the participants' canonical keys around every callback, then drives
    a small simulation (with a live recorder, so the sampled-metrics
    and event-emission paths actually execute).  A key changing across
    a callback means the monitor wrote into the population -- which
    would silently skew every measurement built on it.
    """
    # Imported lazily: the static passes should not drag the dynamic
    # engines or the observability layer in at module import.
    from repro.core.monitors import Monitor
    from repro.core.simulation import Simulation
    from repro.obs.metrics import MetricsRecorder, SampledMetricsMonitor

    if getattr(protocol, "rank_of", None) is None:
        return []

    class PurityProbe(Monitor):
        def __init__(self, inner: Any):
            self.inner = inner
            self.witnesses: List[str] = []

        def on_start(self, states: List[Any]) -> None:
            before = [schema.key(state) for state in states]
            self.inner.on_start(states)
            if [schema.key(state) for state in states] != before:
                self.witnesses.append("on_start mutated the configuration")

        def before_step(
            self, step: int, i: int, j: int, state_i: Any, state_j: Any
        ) -> None:
            before = (schema.key(state_i), schema.key(state_j))
            self.inner.before_step(step, i, j, state_i, state_j)
            if (schema.key(state_i), schema.key(state_j)) != before:
                self.witnesses.append(f"before_step mutated a participant at step {step}")

        def after_step(
            self, step: int, i: int, j: int, state_i: Any, state_j: Any
        ) -> None:
            before = (schema.key(state_i), schema.key(state_j))
            self.inner.after_step(step, i, j, state_i, state_j)
            if (schema.key(state_i), schema.key(state_j)) != before:
                self.witnesses.append(f"after_step mutated a participant at step {step}")

    recorder = MetricsRecorder(sample_every=max(1, protocol.n))
    convergence = protocol.convergence_monitor()
    convergence.recorder = recorder
    sampled = SampledMetricsMonitor(
        recorder, convergence, protocol.n, sample_every=protocol.n
    )
    probes = {
        type(monitor).__name__: PurityProbe(monitor)
        for monitor in (convergence, sampled)
    }
    sim = Simulation(
        protocol,
        rng=random.Random(LINT_SEED),
        monitors=list(probes.values()),
        recorder=recorder,
    )
    steps = 8 * protocol.n
    sim.run(steps)

    findings: List[Finding] = []
    for monitor_name, probe in probes.items():
        if probe.witnesses:
            findings.append(
                Finding(
                    Severity.ERROR,
                    target.name,
                    "monitor-purity",
                    f"{monitor_name} mutated agent state from a monitor "
                    "callback (observers must observe)",
                    witness="; ".join(probe.witnesses[:4]),
                )
            )
    if not findings:
        findings.append(
            Finding(
                Severity.INFO,
                target.name,
                "monitor-purity",
                f"certified: {len(probes)} monitors left agent states "
                f"untouched across {steps} interactions",
            )
        )
    return findings


def _model_check_findings(target: LintTarget) -> List[Finding]:
    findings: List[Finding] = []
    for n in target.model_check_ns:
        protocol = target.factory(n)
        try:
            outcomes = model_check(protocol)
        except ModelCheckError as error:
            findings.append(
                Finding(
                    Severity.WARNING,
                    target.name,
                    "model-check-skipped",
                    f"n={n}: {error}",
                )
            )
            continue
        for outcome in outcomes:
            if outcome.passed:
                verb = "" if outcome.detail.startswith("skipped") else "certified: "
                findings.append(
                    Finding(
                        Severity.INFO,
                        target.name,
                        outcome.rule_id,
                        f"n={n}: {verb}{outcome.detail}",
                    )
                )
            else:
                findings.append(
                    Finding(
                        Severity.ERROR,
                        target.name,
                        outcome.rule_id,
                        f"n={n}: {outcome.detail}",
                        witness="; ".join(outcome.witnesses) or None,
                    )
                )
    return findings


def _audit_rows(
    target: LintTarget, findings: List[Finding]
) -> List[Dict[str, Any]]:
    """Rows for ``--audit-states``; appends mismatch findings in place."""
    rows: List[Dict[str, Any]] = []
    if target.audit is None or not target.model_check_ns:
        return rows
    for n in target.model_check_ns:
        protocol = target.factory(n)
        declared = schema_for(protocol).declared_state_count()
        own = protocol.state_count()
        reference, source = target.audit(n, protocol)
        matches = declared == own == reference
        rows.append(
            {
                "protocol": target.name,
                "n": n,
                "declared_states": declared,
                "protocol_state_count": own,
                "reference_states": reference,
                "reference_source": source,
                "matches": matches,
            }
        )
        if not matches:
            findings.append(
                Finding(
                    Severity.ERROR,
                    target.name,
                    "statecount-audit",
                    f"n={n}: schema enumerates {declared} states, "
                    f"state_count() says {own}, {source} says {reference}",
                )
            )
    return rows


def write_audit_csv(rows: Sequence[Dict[str, Any]], path: str) -> str:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    columns = [
        "protocol",
        "n",
        "declared_states",
        "protocol_state_count",
        "reference_states",
        "reference_source",
        "matches",
    ]
    with open(path, "w", encoding="utf8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)
    return path


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)
    checked: List[str] = field(default_factory=list)
    audit_rows: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not has_errors(self.findings)

    def render(self) -> str:
        return render_report(
            self.findings, title="repro lint report", checked=self.checked
        )


def run_lint(
    protocol_names: Optional[Sequence[str]] = None,
    *,
    audit_states: bool = False,
) -> LintResult:
    """Run every pass over the selected targets (default: all non-mutants)."""
    names = list(protocol_names) if protocol_names else default_target_names()
    result = LintResult()
    for name in names:
        target = _TARGETS.get(name)
        if target is None:
            result.findings.append(
                Finding(
                    Severity.ERROR,
                    name,
                    "unknown-protocol",
                    f"no lint target named {name!r}; known: "
                    f"{', '.join(all_target_names())}",
                )
            )
            continue
        result.checked.append(name)
        protocol = target.factory(target.sanitize_n)
        if not has_schema(protocol):
            result.findings.append(
                Finding(
                    Severity.ERROR,
                    name,
                    "schema-missing",
                    f"{type(protocol).__name__} has no registered state schema",
                )
            )
            continue
        schema = schema_for(protocol)
        result.findings.extend(_battery_findings(target, protocol, schema))
        result.findings.extend(_sanitize_findings(target, protocol, schema))
        result.findings.extend(_fault_model_findings(target, protocol, schema))
        result.findings.extend(_monitor_purity_findings(target, protocol, schema))
        result.findings.extend(_model_check_findings(target))
        if audit_states:
            result.audit_rows.extend(_audit_rows(target, result.findings))
    return result


def main(
    protocol_names: Optional[Sequence[str]] = None,
    *,
    audit_states: bool = False,
    audit_path: str = DEFAULT_AUDIT_PATH,
    output: Optional[str] = None,
) -> int:
    """CLI entry point: print (or write) the report, return the exit code."""
    result = run_lint(protocol_names, audit_states=audit_states)
    text = result.render()
    if audit_states:
        created = write_audit_csv(result.audit_rows, audit_path)
        text += f"\n\nState-count audit: {len(result.audit_rows)} rows -> {created}"
    if output:
        with open(output, "w", encoding="utf8") as handle:
            handle.write(text + "\n")
        print(f"lint: wrote report to {output}")
    else:
        print(text)
    errors = [f for f in result.findings if f.severity is Severity.ERROR]
    if errors:
        print(f"lint: {len(errors)} error finding(s)")
        return 1
    return 0


__all__ = [
    "LintResult",
    "LintTarget",
    "MUTANT_NAMES",
    "all_target_names",
    "default_target_names",
    "main",
    "run_lint",
    "write_audit_csv",
]
