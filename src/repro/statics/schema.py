"""Declarative state schemas: the single source of truth for state spaces.

Every protocol in this package quantifies its correctness claims over a
*declared* state space -- Table 1 counts it, the sanitizer's
``schema-escape`` rule polices it, and the small-n model checker
enumerates it.  This module makes the description *data*:

* a :class:`Domain` gives one field's legal values -- an integer range,
  a finite choice set, or an arbitrary predicate for spaces too large to
  enumerate (names, rosters, history trees);
* a :class:`RoleSchema` lists the fields of one role together with
  cross-field :class:`Constraint` rules (e.g. "a propagating agent
  carries no delay timer") and a ``build`` constructor used for
  exhaustive enumeration;
* a :class:`StateSchema` bundles the role schemas of one protocol
  instance and exposes ``validate`` (the ``schema-escape`` check), ``key``
  (canonical hashing for the model checker), ``index`` (a dense integer
  form of the key, for the count engine's slot arrays) and
  ``enumerate_states`` (the exact declared state space, when finite and
  small);
* protocols self-register a schema *builder* with
  :func:`register_schema`; consumers resolve one with
  :func:`schema_for`.

Roles partition the state space, so ``declared_state_count`` is the sum
over roles of the constraint-filtered product of field domains -- by
construction the same quantity Table 1 reports, which
``repro lint --audit-states`` cross-checks against
:mod:`repro.analysis.statecount`.

This module deliberately imports nothing from the rest of the package:
protocol modules import it to register their schemas at import time, so
any dependency here would be a cycle.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from itertools import product
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)


class SchemaError(Exception):
    """A schema is malformed or used beyond its capabilities."""


class NotEnumerableError(SchemaError):
    """Raised when enumerating a domain/schema that is not finite-small."""


# ---------------------------------------------------------------------------
# Domains
# ---------------------------------------------------------------------------


class Domain(ABC):
    """The set of legal values for one field."""

    #: Whether :meth:`values` can list the domain exhaustively.
    enumerable: bool = False

    @abstractmethod
    def contains(self, value: Any) -> bool:
        """Whether ``value`` is a member of the domain."""

    @abstractmethod
    def describe(self) -> str:
        """Human-readable rendering used in violation messages."""

    def values(self) -> Iterator[Any]:
        """All members, for exhaustive enumeration."""
        raise NotEnumerableError(f"domain {self.describe()} is not enumerable")


@dataclass(frozen=True)
class IntRange(Domain):
    """Integers in the inclusive range ``lo..hi``."""

    lo: int
    hi: int
    enumerable = True

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise SchemaError(f"empty range {self.lo}..{self.hi}")

    def contains(self, value: Any) -> bool:
        return (
            isinstance(value, int)
            and not isinstance(value, bool)
            and self.lo <= value <= self.hi
        )

    def describe(self) -> str:
        return f"{self.lo}..{self.hi}"

    def values(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1))


@dataclass(frozen=True)
class Choice(Domain):
    """A finite explicit set of values (enum members, bits, booleans)."""

    options: Tuple[Any, ...]
    enumerable = True

    def __post_init__(self) -> None:
        if not self.options:
            raise SchemaError("Choice needs at least one option")

    def contains(self, value: Any) -> bool:
        return any(value is option or value == option for option in self.options)

    def describe(self) -> str:
        return "{" + ", ".join(repr(option) for option in self.options) + "}"

    def values(self) -> Iterator[Any]:
        return iter(self.options)


def Const(value: Any) -> Choice:
    """The one-point domain: a field this role keeps at a fixed default."""
    return Choice((value,))


@dataclass(frozen=True)
class Predicate(Domain):
    """An opaque membership test, for domains too large to enumerate.

    Used for names (``{0,1}^<=3log n``), rosters, history trees and
    unbounded bookkeeping counters.  A schema containing a Predicate
    field still supports ``validate`` and ``key`` but not enumeration,
    so the model checker skips the protocol (and ``repro lint`` says
    so).
    """

    test: Callable[[Any], bool]
    description: str
    enumerable = False

    def contains(self, value: Any) -> bool:
        return bool(self.test(value))

    def describe(self) -> str:
        return self.description


def NonNegativeInt() -> Predicate:
    """Unbounded counters (e.g. reset generations)."""
    return Predicate(
        lambda value: isinstance(value, int)
        and not isinstance(value, bool)
        and value >= 0,
        "int >= 0",
    )


def Anything() -> Predicate:
    """A field validated only through role constraints."""
    return Predicate(lambda value: True, "unconstrained")


# ---------------------------------------------------------------------------
# Fields, constraints, roles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldSpec:
    """One named field and its domain.

    ``label`` overrides the field name in violation messages (e.g.
    ``settled rank`` instead of ``rank``); ``in_key`` excludes fields
    from the canonical :meth:`StateSchema.key` (for unhashable
    structures like history trees, which enumerable schemas never
    carry).
    """

    name: str
    domain: Domain
    label: Optional[str] = None
    in_key: bool = True

    def violation(self, value: Any) -> str:
        return f"{self.label or self.name} {value!r} outside {self.domain.describe()}"


@dataclass(frozen=True)
class Constraint:
    """A cross-field rule within one role.

    ``check`` returns a violation message (or a list of messages) for a
    bad state and ``None`` for a clean one.  Constraints both validate
    states at runtime and filter the enumeration, so encoding exactly
    the reachable combinations keeps ``declared_state_count`` equal to
    the protocol's closed-form ``state_count()``.
    """

    rule_id: str
    check: Callable[[Any], Any]

    def violations(self, state: Any) -> List[str]:
        result = self.check(state)
        if result is None:
            return []
        if isinstance(result, str):
            return [result]
        return list(result)


@dataclass
class RoleSchema:
    """The fields and constraints of one role.

    ``role`` is the value :attr:`StateSchema.role_of` must yield for
    the schema to apply (``None`` for single-role protocols).  ``build``
    constructs a state object from enumerated field values; fields not
    listed are expected to take the constructor's canonical defaults.
    """

    role: Any
    fields: Tuple[FieldSpec, ...]
    constraints: Tuple[Constraint, ...] = ()
    build: Optional[Callable[..., Any]] = None
    label: Optional[str] = None

    @property
    def enumerable(self) -> bool:
        return self.build is not None and all(
            spec.domain.enumerable for spec in self.fields
        )

    def describe(self) -> str:
        return self.label or (repr(self.role) if self.role is not None else "state")


# ---------------------------------------------------------------------------
# StateSchema
# ---------------------------------------------------------------------------


def _default_role_of(state: Any) -> Any:
    return getattr(state, "role", None)


def _default_extract(state: Any, field_name: str) -> Any:
    return getattr(state, field_name)


def _scalar_role_of(state: Any) -> None:
    return None


def _scalar_extract(state: Any, field_name: str) -> Any:
    return state


def _compile_key(
    index: int, names: Tuple[str, ...], extract: Callable[[Any, str], Any]
) -> Callable[[Any], Tuple[Any, ...]]:
    """One role's key function: ``(index,)`` plus its in-key field values."""
    if extract is not _default_extract or not names:
        if len(names) == 1:
            (name,) = names
            return lambda state: (index, extract(state, name))
        return lambda state: (index,) + tuple([extract(state, name) for name in names])
    getter = attrgetter(*names)
    if len(names) == 1:
        return lambda state: (index, getter(state))
    return lambda state: (index,) + getter(state)


def _position_of(domain: Domain) -> Tuple[int, Callable[[Any], int]]:
    """An enumerable domain's size and its value -> position function.

    ``IntRange`` maps ``v`` to ``v - lo`` and ``Choice`` an option to
    its position; both raise :class:`SchemaError` outside the domain,
    exactly where :meth:`Domain.contains` is false (a ``bool`` is not in
    an ``IntRange``).
    """
    if isinstance(domain, IntRange):
        lo, hi = domain.lo, domain.hi

        def int_position(value: Any) -> int:
            if (
                value.__class__ is int
                or (isinstance(value, int) and not isinstance(value, bool))
            ) and lo <= value <= hi:
                return value - lo
            raise SchemaError(f"{value!r} outside {domain.describe()}")

        return hi - lo + 1, int_position
    options = tuple(domain.values())

    def option_position(value: Any) -> int:
        for position, option in enumerate(options):
            if value is option or value == option:
                return position
        raise SchemaError(f"{value!r} outside {domain.describe()}")

    return len(options), option_position


def _compile_index(
    offset: int, specs: Sequence[FieldSpec], extract: Callable[[Any, str], Any]
) -> Tuple[int, Callable[[Any], int]]:
    """One role's index span and function: ``offset`` plus a mixed radix
    over its in-key fields, the first field most significant."""
    plan: List[Tuple[str, Callable[[Any], int], int]] = []
    span = 1
    for spec in reversed(specs):
        size, position = _position_of(spec.domain)
        plan.insert(0, (spec.name, position, span))
        span *= size
    if not plan:
        return span, lambda state: offset
    if extract is _scalar_extract and offset == 0 and len(plan) == 1:
        return span, plan[0][1]  # the one field is the state itself
    get = getattr if extract is _default_extract else extract

    def index(state: Any) -> int:
        total = offset
        for name, position, stride in plan:
            try:
                value = get(state, name)
            except AttributeError:
                raise SchemaError(f"missing field {name!r}") from None
            total += position(value) * stride
        return total

    return span, index


class StateSchema:
    """The declared state space of one protocol *instance*.

    Schemas are per-instance because domains depend on ``n`` and on the
    concrete parameters (``E_max``, ``R_max``, ...).  Resolve one with
    :func:`schema_for`; protocols register builders at import time.
    """

    def __init__(
        self,
        protocol_name: str,
        roles: Sequence[RoleSchema],
        *,
        role_of: Callable[[Any], Any] = _default_role_of,
        extract: Callable[[Any, str], Any] = _default_extract,
    ):
        if not roles:
            raise SchemaError("a schema needs at least one role")
        self.protocol_name = protocol_name
        self.roles: Tuple[RoleSchema, ...] = tuple(roles)
        self.role_of = role_of
        self.extract = extract
        # ``key`` is hot (the count engine calls it per new state, the
        # exact-chain oracle per chain state), so each role's key
        # function is compiled once.
        self._key_plan: Tuple[Tuple[Any, Callable[[Any], Tuple[Any, ...]]], ...] = tuple(
            (
                role_schema.role,
                _compile_key(
                    index,
                    tuple(spec.name for spec in role_schema.fields if spec.in_key),
                    extract,
                ),
            )
            for index, role_schema in enumerate(self.roles)
        )
        # The dense index (see :meth:`index`), compiled beside the key:
        # each role a span of the product of its in-key domain sizes.
        # ``None`` when some in-key domain is not enumerable.
        self.index_size: Optional[int] = None
        self._index_plan: Tuple[Tuple[Any, Callable[[Any], int]], ...] = ()
        in_key = [
            [spec for spec in role_schema.fields if spec.in_key]
            for role_schema in self.roles
        ]
        if all(spec.domain.enumerable for specs in in_key for spec in specs):
            offset = 0
            plan = []
            for role_schema, specs in zip(self.roles, in_key):
                span, index_of = _compile_index(offset, specs, extract)
                plan.append((role_schema.role, index_of))
                offset += span
            self._index_plan = tuple(plan)
            self.index_size = offset
            if role_of is _scalar_role_of and len(plan) == 1:
                # A scalar schema's one role applies to every state: its
                # index is the field's position, with no role lookup.
                self.index = plan[0][1]  # type: ignore[method-assign]

    # -- lookup ---------------------------------------------------------

    def role_schema(self, state: Any) -> Optional[RoleSchema]:
        """The role schema applying to ``state``, or ``None``."""
        role = self.role_of(state)
        for role_schema in self.roles:
            if role_schema.role is role or role_schema.role == role:
                return role_schema
        return None

    # -- validation -----------------------------------------------------

    def validate(self, state: Any) -> List[str]:
        """All violations of ``state`` against the schema (empty = clean)."""
        role_schema = self.role_schema(state)
        if role_schema is None:
            return [f"unknown role {self.role_of(state)!r}"]
        problems: List[str] = []
        for spec in role_schema.fields:
            try:
                value = self.extract(state, spec.name)
            except AttributeError:
                problems.append(f"missing field {spec.name!r}")
                continue
            if not spec.domain.contains(value):
                problems.append(spec.violation(value))
        for constraint in role_schema.constraints:
            problems.extend(constraint.violations(state))
        return problems

    def is_valid(self, state: Any) -> bool:
        return not self.validate(state)

    # -- canonical keys -------------------------------------------------

    def key(self, state: Any) -> Hashable:
        """Canonical hashable form of a (valid) state.

        Distinguishes valid states exactly, because a role's declared
        key fields determine the state up to the constraint-frozen
        remainder.  The model checker uses it to index the enumerated
        state space.
        """
        role = self.role_of(state)
        for candidate, key_of in self._key_plan:
            if candidate is role or candidate == role:
                return key_of(state)
        raise SchemaError(f"state has unknown role: {role!r}")

    def index(self, state: Any) -> int:
        """Dense integer index of ``state`` in ``range(index_size)``.

        A role's offset plus a mixed radix over its in-key field values,
        so two states share an index exactly when they share a
        :meth:`key`.  Raises :class:`SchemaError` when a key field's
        value is outside its domain or missing, when the role is
        unknown, and when the schema has no index (``index_size`` is
        ``None``: some key field's domain is not enumerable).
        """
        role = self.role_of(state)
        for candidate, index_of in self._index_plan:
            if candidate is role or candidate == role:
                return index_of(state)
        if self.index_size is None:
            raise NotEnumerableError(
                f"{self.protocol_name} schema has key fields that are not enumerable"
            )
        raise SchemaError(f"state has unknown role: {role!r}")

    # -- enumeration ----------------------------------------------------

    @property
    def enumerable(self) -> bool:
        """Whether the full declared state space can be listed."""
        return all(role_schema.enumerable for role_schema in self.roles)

    def enumerate_states(self) -> List[Any]:
        """Every state of the declared space, constraint-filtered."""
        if not self.enumerable:
            raise NotEnumerableError(
                f"{self.protocol_name} schema has non-enumerable fields"
            )
        states: List[Any] = []
        for role_schema in self.roles:
            assert role_schema.build is not None  # enumerable guarantees it
            names = [spec.name for spec in role_schema.fields]
            domains = [list(spec.domain.values()) for spec in role_schema.fields]
            for combo in product(*domains):
                state = role_schema.build(**dict(zip(names, combo)))
                if all(not c.violations(state) for c in role_schema.constraints):
                    states.append(state)
        return states

    def declared_state_count(self) -> int:
        """Size of the declared state space (Table 1's "states" column)."""
        return len(self.enumerate_states())


def scalar_schema(
    protocol_name: str,
    field_spec: FieldSpec,
    *,
    build: Callable[..., Any],
    constraints: Tuple[Constraint, ...] = (),
) -> StateSchema:
    """A schema for protocols whose whole state is one scalar value."""
    return StateSchema(
        protocol_name,
        [RoleSchema(role=None, fields=(field_spec,), constraints=constraints,
                    build=build)],
        role_of=_scalar_role_of,
        extract=_scalar_extract,
    )


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

SchemaBuilder = Callable[[Any], StateSchema]

_SCHEMA_BUILDERS: Dict[type, SchemaBuilder] = {}


def register_schema(protocol_type: type) -> Callable[[SchemaBuilder], SchemaBuilder]:
    """Class decorator target: register a schema builder for a protocol type.

    ::

        @register_schema(SilentNStateSSR)
        def _build_schema(protocol: SilentNStateSSR) -> StateSchema:
            ...

    Resolution walks the protocol's MRO, so subclasses (e.g.
    ``DirectCollisionSSR``) inherit their parent's schema unless they
    register their own.
    """

    def decorator(builder: SchemaBuilder) -> SchemaBuilder:
        _SCHEMA_BUILDERS[protocol_type] = builder
        return builder

    return decorator


def schema_for(protocol: Any) -> StateSchema:
    """Resolve and build the schema for a protocol instance, once.

    The schema is kept on the instance as ``_state_schema``, so the
    count engine's eligibility check and its constructor share one
    build; :class:`~repro.core.protocol.PopulationProtocol` leaves it
    out of pickles, because builders close over local lambdas.  Raises
    :class:`KeyError` for protocols without a registered schema.
    """
    schema = getattr(protocol, "_state_schema", None)
    if schema is not None:
        return schema
    for klass in type(protocol).__mro__:
        builder = _SCHEMA_BUILDERS.get(klass)
        if builder is not None:
            schema = protocol._state_schema = builder(protocol)
            return schema
    raise KeyError(
        f"no state schema registered for {type(protocol).__name__}; "
        "register one with repro.statics.schema.register_schema"
    )


def has_schema(protocol: Any) -> bool:
    """Whether :func:`schema_for` would succeed for ``protocol``."""
    return any(klass in _SCHEMA_BUILDERS for klass in type(protocol).__mro__)


def registered_protocol_types() -> Tuple[Type, ...]:
    """All protocol types with a directly registered schema builder."""
    return tuple(_SCHEMA_BUILDERS)
