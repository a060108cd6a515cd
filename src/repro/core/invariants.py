"""Runtime invariant checking, driven by the declared state schemas.

A protocols library lives or dies by its state-space hygiene: every
field must stay inside its declared domain, role switches must delete
the old role's fields, derived structures (history trees) must keep
their structural invariants.  Those declarations live in one place --
the :class:`~repro.statics.schema.StateSchema` each protocol module
registers (see :mod:`repro.statics.schema`) -- and this module turns
them into runtime monitoring:

* :func:`invariant_for` resolves a protocol's schema from the registry
  and wraps it as an *invariant function* ``check(protocol, state) ->
  list[str]`` returning human-readable violations (empty = clean);
* :class:`InvariantMonitor` attaches any invariant function to a running
  :class:`~repro.core.simulation.Simulation` and either records or raises
  on the first violation -- the simulation-level analogue of debug
  assertions.

The same schemas feed the static passes (:mod:`repro.statics.modelcheck`
enumerates them exhaustively at small n; ``python -m repro lint`` drives
everything), so the runtime monitor and the static verifier can never
drift apart: there is only one description of each state space.
"""

from __future__ import annotations

from typing import Callable, List, Optional, TypeVar

from repro.core.monitors import Monitor
from repro.core.protocol import PopulationProtocol
from repro.statics.schema import has_schema, schema_for

S = TypeVar("S")

InvariantFn = Callable[[PopulationProtocol, object], List[str]]


class InvariantViolation(AssertionError):
    """Raised by a strict :class:`InvariantMonitor` on the first violation."""


# ---------------------------------------------------------------------------
# Schema-driven invariant functions
# ---------------------------------------------------------------------------


def check_schema(protocol: PopulationProtocol, state: object) -> List[str]:
    """The generic invariant function: validate against the registered schema.

    Schemas are resolved per call (they are cheap to build and depend
    only on the protocol instance), so a checker obtained for one
    protocol object applies correctly to another of the same type.
    """
    return schema_for(protocol).validate(state)


def invariant_for(protocol: PopulationProtocol) -> InvariantFn:
    """Resolve the invariant function for a protocol instance.

    Derived from the schema registry: any protocol whose module
    registered a :class:`~repro.statics.schema.StateSchema` builder
    (including subclasses, via the registry's MRO walk) gets the
    schema-validating checker.  Raises :class:`KeyError` for protocols
    without a schema, mirroring the registry's contract.
    """
    if not has_schema(protocol):
        raise KeyError(
            f"no state schema registered for {type(protocol).__name__}; "
            "register one with repro.statics.schema.register_schema"
        )
    return check_schema


def check_configuration(
    protocol: PopulationProtocol, states, checker: Optional[InvariantFn] = None
) -> List[str]:
    """Check every agent; violations are prefixed with the agent index."""
    checker = checker or invariant_for(protocol)
    problems: List[str] = []
    for index, state in enumerate(states):
        problems.extend(
            f"agent {index}: {problem}" for problem in checker(protocol, state)
        )
    return problems


# ---------------------------------------------------------------------------
# Monitor
# ---------------------------------------------------------------------------


class InvariantMonitor(Monitor):
    """Checks the two participants' states after every interaction.

    In ``strict`` mode the first violation raises
    :class:`InvariantViolation` (tests); otherwise violations accumulate
    in :attr:`violations` with the interaction index attached.
    """

    def __init__(
        self,
        protocol: PopulationProtocol,
        checker: Optional[InvariantFn] = None,
        *,
        strict: bool = True,
    ):
        self.protocol = protocol
        self.checker = checker or invariant_for(protocol)
        self.strict = strict
        self.violations: List[str] = []

    def _handle(self, step: int, index: int, state) -> None:
        for problem in self.checker(self.protocol, state):
            message = f"interaction {step}, agent {index}: {problem}"
            if self.strict:
                raise InvariantViolation(message)
            self.violations.append(message)

    def on_start(self, states) -> None:
        # Initial configurations may be adversarial on purpose; only the
        # protocol's *own* writes are held to the invariants, so the
        # starting state is not checked.
        return None

    def after_step(self, step: int, i: int, j: int, state_i, state_j) -> None:
        self._handle(step, i, state_i)
        self._handle(step, j, state_j)
