"""Static protocol verification.

Layers (see docs/static_analysis.md for the rule catalogue):

* :mod:`repro.statics.schema` -- declarative per-role state schemas;
  the single source of truth consumed by the sanitizer, the model
  checker, the state-count audit and the count engine.  Protocol
  modules register builders at import time.
* :mod:`repro.statics.modelcheck` -- exhaustive small-n certification
  of closure, determinism, null-pair consistency, silence and
  probability-1 stabilization over the full configuration graph.
* :mod:`repro.statics.sanitize` -- replay-based checks of the
  state-object contract (aliasing, bystander mutation, hidden
  nondeterminism) for *all* protocols, enumerable or not.
* :mod:`repro.statics.lint` -- the ``python -m repro lint`` driver
  tying the passes together into a findings report and an exit code.
* :mod:`repro.statics.mutants` -- deliberately broken protocols used to
  prove the passes actually catch violations.

This ``__init__`` re-exports only the schema and findings vocabulary:
protocol modules import :mod:`repro.statics.schema` at import time, so
anything heavier here (``lint`` imports ``repro.protocols``) would be
an import cycle.
"""

from repro.statics.findings import (
    Finding,
    Severity,
    has_errors,
    render_report,
    worst_severity,
)
from repro.statics.schema import (
    Anything,
    Choice,
    Const,
    Constraint,
    Domain,
    FieldSpec,
    IntRange,
    NonNegativeInt,
    NotEnumerableError,
    Predicate,
    RoleSchema,
    SchemaError,
    StateSchema,
    has_schema,
    register_schema,
    registered_protocol_types,
    scalar_schema,
    schema_for,
)

__all__ = [
    "Anything",
    "Choice",
    "Const",
    "Constraint",
    "Domain",
    "FieldSpec",
    "Finding",
    "IntRange",
    "NonNegativeInt",
    "NotEnumerableError",
    "Predicate",
    "RoleSchema",
    "SchemaError",
    "Severity",
    "StateSchema",
    "has_errors",
    "has_schema",
    "register_schema",
    "registered_protocol_types",
    "render_report",
    "scalar_schema",
    "schema_for",
    "worst_severity",
]
