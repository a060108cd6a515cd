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
6. **observer purity** -- the one observer left on the engines, the
   ranking tally, reads each agent's ``rank_of`` under a recorder; a
   small recorded run of each engine the protocol is eligible for
   calls it through a probe that compares the state's canonical key
   before and after every call, and a ``rank_of`` mutating agent state
   is an ERROR (rule ``monitor-purity``) -- observers must observe;
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
    """Observer-purity probe: ``rank_of`` must never mutate agent state.

    Both engines' ranking tallies read ``rank_of`` (the generic engine
    around every interaction, the count engine once per new slot), and
    a recorder makes them run from the start.  The probe shadows the
    protocol's ``rank_of`` for the duration of a small recorded run of
    each engine the protocol is eligible for, comparing the state's
    canonical key before and after every call.  A key that changes
    means the observer wrote into the population -- which would
    silently skew every measurement built on it.
    """
    # Imported lazily: the static passes should not drag the dynamic
    # engines or the observability layer in at module import.
    from repro.core.countsim import build_engine, count_engine_eligible
    from repro.obs.context import recording
    from repro.obs.metrics import MetricsRecorder

    rank_of = getattr(protocol, "rank_of", None)
    if rank_of is None:
        return []
    witnesses: List[str] = []

    def probe(state: Any) -> Any:
        before = schema.key(state)
        rank = rank_of(state)
        if schema.key(state) != before and len(witnesses) < 4:
            witnesses.append(f"{engine} engine: rank_of({before!r}) mutated the state")
        return rank

    engines = ["generic"]
    if protocol.silent and count_engine_eligible(protocol):
        engines.append("count")
    steps = 8 * protocol.n
    protocol.rank_of = probe
    try:
        for engine in engines:
            with recording(MetricsRecorder(sample_every=protocol.n)):
                sim = build_engine(
                    protocol, None, rng=random.Random(LINT_SEED), engine=engine
                )
                sim.run(steps)
    finally:
        del protocol.rank_of

    if witnesses:
        return [
            Finding(
                Severity.ERROR,
                target.name,
                "monitor-purity",
                "rank_of mutated agent state while the ranking tally "
                "observed it (observers must observe)",
                witness="; ".join(witnesses),
            )
        ]
    return [
        Finding(
            Severity.INFO,
            target.name,
            "monitor-purity",
            f"certified: rank_of left agent states untouched across {steps} "
            f"recorded interactions on each of {len(engines)} engine(s)",
        )
    ]


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
