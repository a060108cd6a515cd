"""Transition sanitizer: replay-based checks of the state-object contract.

:mod:`repro.core.protocol` documents the ownership contract transition
implementations must obey: the returned states may be the (mutated)
participants or fresh objects, but they must never alias structure held
by a **third** agent, must not touch agents that were not part of the
interaction, and must be reproducible under an identically seeded RNG.
Violations are invisible to schema validation (which only looks at
values, never identity) yet corrupt simulations in ways that surface
far from the cause -- a shared roster mutated through one agent shows
up as another agent's "spontaneous" state change thousands of steps
later.

This module replays transitions on deep-copied snapshots of whole
configurations and checks the contract directly:

* **aliasing** -- after a transition, the mutable-object graphs of the
  two returned states are intersected (by ``id``) with each other and
  with every non-participant's graph.  Immutable containers (tuples,
  frozensets) and enum singletons are traversed but never reported:
  sharing them is legitimate and the sublinear protocols do it on
  purpose with their frozenset rosters.  So are objects whose
  ``shareable()`` method says so: the history-tree leaves that copies
  share, which are never mutated.  Attributes are read from
  ``__dict__`` and ``__slots__`` alike.
* **third-agent mutation** -- every non-participant must ``repr`` the
  same before and after the interaction.
* **hidden nondeterminism** -- replaying the transition from a second
  deep-copied snapshot with an identically seeded RNG must reproduce
  the outputs exactly (by ``repr``).
* **schema escape** -- outputs must validate against the protocol's
  registered :class:`~repro.statics.schema.StateSchema`.  For the
  protocols whose schema is not enumerable this is the only automated
  closure evidence, complementing the exhaustive pair sweep that
  :mod:`repro.statics.modelcheck` applies to the finite ones.

Unlike the model checker, the sanitizer samples: it sweeps all ordered
pairs over a handful of configurations rather than the full state
space, so it works for every protocol including the name/roster/tree
ones whose state spaces are astronomically large.
"""

from __future__ import annotations

import copy
import random
from enum import Enum
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.statics.findings import Finding, Severity
from repro.statics.schema import StateSchema, schema_for

RULE_ALIASING = "state-aliasing"
RULE_THIRD_MUTATION = "third-agent-mutation"
RULE_NONDETERMINISM = "hidden-nondeterminism"
RULE_SCHEMA_ESCAPE = "schema-escape"

_PRIMITIVES = (str, bytes, int, float, complex, bool, type(None))


def mutable_ids(obj: Any, path: str = "state") -> Dict[int, str]:
    """Map ``id`` -> path for every *mutable* object reachable from ``obj``.

    Enum members are singletons shared by design and primitives are
    interned/copied freely by Python, so neither is recorded.  Immutable
    containers, and objects whose ``shareable()`` returns true, are
    traversed (their *contents* may be mutable) but not recorded
    themselves.
    """
    found: Dict[int, str] = {}

    def visit(node: Any, where: str) -> None:
        if isinstance(node, Enum) or isinstance(node, _PRIMITIVES):
            return
        if isinstance(node, (tuple, frozenset)):
            for position, item in enumerate(node):
                visit(item, f"{where}[{position}]")
            return
        if id(node) in found:
            return
        shareable = getattr(node, "shareable", None)
        if not (callable(shareable) and shareable()):
            found[id(node)] = where
        if isinstance(node, Mapping):
            for key, value in node.items():
                visit(key, f"{where} key {key!r}")
                visit(value, f"{where}[{key!r}]")
        elif isinstance(node, (list, set)):
            for position, item in enumerate(node):
                visit(item, f"{where}[{position}]")
        else:
            for name, value in _attributes(node):
                visit(value, f"{where}.{name}")

    visit(obj, path)
    return found


def _attributes(node: Any) -> List[Tuple[str, Any]]:
    """``(name, value)`` for each instance attribute, in ``__dict__`` or ``__slots__``."""
    attributes = list(getattr(node, "__dict__", {}).items())
    for klass in type(node).__mro__:
        slots = klass.__dict__.get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if name not in ("__dict__", "__weakref__") and hasattr(node, name):
                attributes.append((name, getattr(node, name)))
    return attributes


def _shared_paths(
    ours: Dict[int, str], theirs: Dict[int, str], limit: int = 3
) -> List[str]:
    shared = []
    for object_id in ours.keys() & theirs.keys():
        shared.append(f"{ours[object_id]} is {theirs[object_id]}")
        if len(shared) >= limit:
            break
    return sorted(shared)


def _witness(
    protocol: Any, states: Sequence[Any], initiator: int, responder: int
) -> str:
    tags = {initiator: " (initiator)", responder: " (responder)"}
    return " | ".join(
        f"agent {index}{tags.get(index, '')}: {protocol.describe(state)}"
        for index, state in enumerate(states)
    )


def sanitize_configuration(
    protocol: Any,
    states: Sequence[Any],
    schema: Optional[StateSchema] = None,
    *,
    label: str = "",
    seed: int = 0x5EED,
    max_findings: int = 8,
) -> List[Finding]:
    """Sweep every ordered pair of ``states``, checking the contract.

    ``states`` is never modified: each pair replays on deep copies of
    the full configuration.  ``label`` names the configuration in
    messages (e.g. the battery key that produced it).
    """
    schema = schema or schema_for(protocol)
    name = type(protocol).__name__
    origin = f" [{label}]" if label else ""
    findings: List[Finding] = []
    size = len(states)

    def report(rule_id: str, message: str, witness: str) -> None:
        if len(findings) < max_findings:
            findings.append(
                Finding(Severity.ERROR, name, rule_id, message + origin, witness)
            )

    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            working = copy.deepcopy(list(states))
            before = [repr(state) for state in working]
            witness = _witness(protocol, working, i, j)
            out_a, out_b = protocol.transition(
                working[i], working[j], random.Random(seed)
            )
            for k in range(size):
                if k in (i, j):
                    continue
                if repr(working[k]) != before[k]:
                    report(
                        RULE_THIRD_MUTATION,
                        f"pair ({i},{j}) mutated bystander agent {k}: "
                        f"{before[k]} became {repr(working[k])}",
                        witness,
                    )
            graph_a = mutable_ids(out_a, "initiator-output")
            graph_b = mutable_ids(out_b, "responder-output")
            for clash in _shared_paths(graph_a, graph_b):
                report(
                    RULE_ALIASING,
                    f"pair ({i},{j}) outputs share a mutable object: {clash}",
                    witness,
                )
            for k in range(size):
                if k in (i, j):
                    continue
                bystander = mutable_ids(working[k], f"agent {k}")
                for graph in (graph_a, graph_b):
                    for clash in _shared_paths(graph, bystander):
                        report(
                            RULE_ALIASING,
                            f"pair ({i},{j}) output aliases a third agent's "
                            f"state: {clash}",
                            witness,
                        )
            replay = copy.deepcopy(list(states))
            re_a, re_b = protocol.transition(replay[i], replay[j], random.Random(seed))
            if (repr(re_a), repr(re_b)) != (repr(out_a), repr(out_b)):
                report(
                    RULE_NONDETERMINISM,
                    f"pair ({i},{j}) does not replay: first run gave "
                    f"({out_a!r}, {out_b!r}), second gave ({re_a!r}, {re_b!r})",
                    witness,
                )
            problems = schema.validate(out_a) + schema.validate(out_b)
            if problems:
                report(
                    RULE_SCHEMA_ESCAPE,
                    f"pair ({i},{j}) output violates the schema: "
                    f"{'; '.join(problems)}",
                    witness,
                )
            if len(findings) >= max_findings:
                return findings
    return findings


def sanitize_protocol(
    protocol: Any,
    schema: Optional[StateSchema] = None,
    *,
    configurations: Optional[Iterable[Tuple[str, Sequence[Any]]]] = None,
    rng: Optional[random.Random] = None,
    random_configs: int = 2,
    max_findings: int = 8,
) -> List[Finding]:
    """Sanitize a battery of configurations for ``protocol``.

    By default sweeps the clean-start configuration plus
    ``random_configs`` adversarial random configurations; callers with
    richer batteries (e.g. :func:`repro.core.adversary.adversarial_battery`)
    pass them via ``configurations`` as ``(label, states)`` pairs.
    """
    schema = schema or schema_for(protocol)
    if configurations is None:
        rng = rng or random.Random(0x5A17)
        battery: List[Tuple[str, Sequence[Any]]] = [
            ("clean", protocol.initial_configuration(rng))
        ]
        battery += [
            (f"random-{index}", protocol.random_configuration(rng))
            for index in range(random_configs)
        ]
        configurations = battery
    findings: List[Finding] = []
    for label, states in configurations:
        remaining = max_findings - len(findings)
        if remaining <= 0:
            break
        findings.extend(
            sanitize_configuration(
                protocol, states, schema, label=label, max_findings=remaining
            )
        )
    return findings
