"""Tests for the declarative state-schema layer.

Domains, field specs, constraints, enumeration, and the registry's
MRO-walk resolution -- the vocabulary every other statics pass builds on.
"""

import pytest

from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.direct_collision import DirectCollisionSSR
from repro.protocols.optimal_silent import OptimalSilentAgent, OptimalSilentSSR, Role
from repro.protocols.parameters import OptimalSilentParameters, ResetParameters
from repro.statics.schema import (
    Anything,
    NotEnumerableError,
    SchemaError,
    Choice,
    Const,
    FieldSpec,
    IntRange,
    NonNegativeInt,
    Predicate,
    has_schema,
    register_schema,
    scalar_schema,
    schema_for,
)


def tiny_params() -> OptimalSilentParameters:
    return OptimalSilentParameters(reset=ResetParameters(r_max=2, d_max=2), e_max=2)


class TestDomains:
    def test_int_range(self):
        domain = IntRange(0, 3)
        assert domain.contains(0) and domain.contains(3)
        assert not domain.contains(-1) and not domain.contains(4)
        assert not domain.contains(True)  # bools are not ranks
        assert not domain.contains("1")
        assert list(domain.values()) == [0, 1, 2, 3]
        assert domain.describe() == "0..3"

    def test_int_range_rejects_empty(self):
        with pytest.raises(SchemaError):
            IntRange(3, 2)

    def test_choice_uses_identity_then_equality(self):
        domain = Choice((Role.SETTLED, Role.UNSETTLED))
        assert domain.contains(Role.SETTLED)
        assert not domain.contains(Role.RESETTING)
        assert list(domain.values()) == [Role.SETTLED, Role.UNSETTLED]

    def test_const(self):
        domain = Const(0)
        assert domain.contains(0) and not domain.contains(1)
        assert list(domain.values()) == [0]

    def test_predicate_not_enumerable(self):
        domain = Predicate(lambda v: isinstance(v, str), "a string")
        assert domain.contains("x") and not domain.contains(3)
        assert not domain.enumerable
        assert domain.describe() == "a string"

    def test_non_negative_and_anything(self):
        assert NonNegativeInt().contains(7)
        assert not NonNegativeInt().contains(-1)
        assert Anything().contains(object())
        assert not Anything().enumerable


class TestFieldSpec:
    def test_violation_message_uses_label(self):
        spec = FieldSpec("rank", IntRange(1, 4), label="settled rank")
        assert spec.violation(9) == "settled rank 9 outside 1..4"

    def test_violation_message_defaults_to_name(self):
        spec = FieldSpec("timer", IntRange(0, 2))
        assert spec.violation(-1) == "timer -1 outside 0..2"


class TestScalarSchema:
    def test_exact_ciw_message(self):
        # The historical hand-written checker's exact message is part of
        # the schema contract (tests and logs depend on it).
        schema = schema_for(SilentNStateSSR(3))
        assert schema.validate(99) == ["rank 99 outside 0..2"]
        assert schema.validate(0) == []
        assert schema.is_valid(2)

    def test_enumeration_and_count(self):
        schema = schema_for(SilentNStateSSR(4))
        states = schema.enumerate_states()
        assert states == [0, 1, 2, 3]
        assert schema.declared_state_count() == 4
        assert len({schema.key(s) for s in states}) == 4


class TestRoleSchemas:
    def test_optimal_silent_roles_and_constraints(self):
        protocol = OptimalSilentSSR(4, tiny_params())
        schema = schema_for(protocol)
        clean = OptimalSilentAgent(role=Role.SETTLED, rank=2, children=1)
        assert schema.validate(clean) == []
        # Field domain violation with the declared label.
        bad_rank = OptimalSilentAgent(role=Role.SETTLED, rank=9, children=0)
        assert any("settled rank 9" in p for p in schema.validate(bad_rank))
        # Constraint violation: an unsettled agent must zero settled fields.
        leaked = OptimalSilentAgent(role=Role.UNSETTLED, rank=3, errorcount=0)
        assert any(
            "unsettled agent leaked settled fields" in p
            for p in schema.validate(leaked)
        )

    def test_unknown_role(self):
        protocol = OptimalSilentSSR(4, tiny_params())
        schema = schema_for(protocol)
        problems = schema.validate(object())
        assert problems and "unknown role" in problems[0]

    def test_enumeration_matches_closed_form(self):
        params = tiny_params()
        for n in (2, 3, 4):
            protocol = OptimalSilentSSR(n, params)
            schema = schema_for(protocol)
            assert schema.declared_state_count() == protocol.state_count()

    def test_keys_are_unique(self):
        protocol = OptimalSilentSSR(3, tiny_params())
        schema = schema_for(protocol)
        states = schema.enumerate_states()
        assert len({schema.key(s) for s in states}) == len(states)


class TestRegistry:
    def test_subclass_resolves_via_mro(self):
        # DirectCollisionSSR registers no schema of its own; it inherits
        # SublinearTimeSSR's through the registry's MRO walk.
        import random

        protocol = DirectCollisionSSR(4)
        assert has_schema(protocol)
        schema = schema_for(protocol)
        assert schema.validate(protocol.initial_state(random.Random(0))) == []

    def test_unregistered_type_raises_keyerror(self):
        class Unregistered:
            pass

        assert not has_schema(Unregistered())
        with pytest.raises(KeyError):
            schema_for(Unregistered())

    def test_register_decorator(self):
        class Toy:
            n = 2

        @register_schema(Toy)
        def _toy_schema(protocol):
            return scalar_schema(
                "Toy",
                FieldSpec("value", IntRange(0, protocol.n - 1)),
                build=lambda value: value,
            )

        assert has_schema(Toy())
        assert schema_for(Toy()).enumerate_states() == [0, 1]


class TestNonEnumerable:
    def test_roster_protocols_are_not_enumerable(self):
        from repro.protocols.sublinear.protocol import SublinearTimeSSR

        schema = schema_for(SublinearTimeSSR(4))
        assert not schema.enumerable
        with pytest.raises(NotEnumerableError):
            schema.enumerate_states()


class TestCompiledKeys:
    """``key`` is compiled once per role.  It must return exactly the
    tuples of its definition, because ``CountSimulation.occupancy`` and
    the exact-chain oracle's state indices are built from them."""

    @staticmethod
    def reference_key(schema, state):
        role_schema = schema.role_schema(state)
        index = schema.roles.index(role_schema)
        return (index,) + tuple(
            schema.extract(state, spec.name) for spec in role_schema.fields if spec.in_key
        )

    @staticmethod
    def protocols():
        from repro.statics.mutants import BrokenRankingSSR, NondeterministicRankingSSR
        from tests.statics.test_schema_coverage import FACTORIES

        factories = dict(FACTORIES)
        factories["BrokenRankingSSR"] = lambda: BrokenRankingSSR(4)
        factories["NondeterministicRankingSSR"] = lambda: NondeterministicRankingSSR(4)
        return factories

    def test_every_enumerable_schema_keys_like_its_definition(self):
        checked = []
        for name, factory in sorted(self.protocols().items()):
            schema = schema_for(factory())
            if not schema.enumerable:
                continue
            for state in schema.enumerate_states():
                key = schema.key(state)
                assert type(key) is tuple
                assert key == self.reference_key(schema, state), name
            checked.append(name)
        assert {"SilentNStateSSR", "OptimalSilentSSR", "BrokenRankingSSR"} <= set(checked)

    def test_out_of_key_fields_stay_out(self):
        """Non-enumerable schemas (rosters, history trees) on random states."""
        import random

        for name, factory in sorted(self.protocols().items()):
            protocol = factory()
            schema = schema_for(protocol)
            if schema.enumerable:
                continue
            for state in protocol.random_configuration(random.Random(name)):
                assert schema.key(state) == self.reference_key(schema, state), name

    def test_every_key_shape(self):
        """Default and custom extractors, with zero, one and several
        in-key fields, on roles past the first."""
        from types import SimpleNamespace

        from repro.statics.schema import RoleSchema, StateSchema

        roles = [
            RoleSchema(role="a", fields=(FieldSpec("x", IntRange(0, 3)),)),
            RoleSchema(role="b", fields=(FieldSpec("x", IntRange(0, 3)),
                                         FieldSpec("tree", Anything(), in_key=False))),
            RoleSchema(role="c", fields=(FieldSpec("x", IntRange(0, 3)),
                                         FieldSpec("y", IntRange(0, 3)),
                                         FieldSpec("tree", Anything(), in_key=False))),
            RoleSchema(role="d", fields=(FieldSpec("tree", Anything(), in_key=False),)),
        ]
        states = [
            SimpleNamespace(role=role, x=2, y=3, tree=object()) for role in "abcd"
        ]
        for schema in (
            StateSchema("Attrs", roles),
            StateSchema("Dict", roles, role_of=lambda s: s["role"],
                        extract=lambda s, name: s[name]),
        ):
            for state in states:
                if schema.protocol_name == "Dict":
                    state = vars(state)
                assert schema.key(state) == self.reference_key(schema, state)
        assert [StateSchema("Attrs", roles).key(state) for state in states] == [
            (0, 2), (1, 2), (2, 2, 3), (3,)
        ]

    def test_unknown_role_raises(self):
        schema = schema_for(OptimalSilentSSR(4, tiny_params()))
        with pytest.raises(SchemaError, match="unknown role"):
            schema.key(object())


class TestDenseIndex:
    """``index`` is the count engine's slot-map key: a dense integer form
    of ``key``, so it must be injective on the declared states and stay
    inside ``range(index_size)``."""

    @staticmethod
    def protocols(n):
        from repro.protocols.loose_stabilization import LooselyStabilizingLE
        from repro.statics.mutants import BrokenRankingSSR, NondeterministicRankingSSR
        from tests.core.test_countsim import CoinFlipToy, EpidemicToy, GaussToy
        from tests.core.test_kernel import KernelCoinFlip

        return [
            SilentNStateSSR(n),
            OptimalSilentSSR(n),
            OptimalSilentSSR(n, tiny_params()),
            LooselyStabilizingLE(n, t_max=3),
            BrokenRankingSSR(n),
            NondeterministicRankingSSR(n),
            CoinFlipToy(n),
            GaussToy(n),
            EpidemicToy(n),
            KernelCoinFlip(n),
        ]

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_index_is_injective_into_its_range(self, n):
        for protocol in self.protocols(n):
            schema = schema_for(protocol)
            name = type(protocol).__name__
            assert schema.enumerable and schema.index_size is not None, name
            states = schema.enumerate_states()
            indices = [schema.index(state) for state in states]
            assert len(set(indices)) == len(states), name
            assert all(0 <= index < schema.index_size for index in indices), name

    def test_every_index_shape(self):
        """A role's offset plus a mixed radix over its in-key fields,
        first field most significant; out-of-key fields take no part."""
        from types import SimpleNamespace

        from repro.statics.schema import RoleSchema, StateSchema

        roles = [
            RoleSchema(role="a", fields=(FieldSpec("x", IntRange(0, 3)),)),
            RoleSchema(role="b", fields=(FieldSpec("x", IntRange(1, 4)),
                                         FieldSpec("tree", Anything(), in_key=False))),
            RoleSchema(role="c", fields=(FieldSpec("x", IntRange(0, 3)),
                                         FieldSpec("y", Choice(("p", "q", "r", "s"))))),
            RoleSchema(role="d", fields=(FieldSpec("tree", Anything(), in_key=False),)),
        ]
        states = [
            SimpleNamespace(role=role, x=2, y="s", tree=object()) for role in "abcd"
        ]
        attrs = StateSchema("Attrs", roles)
        by_name = StateSchema("Dict", roles, role_of=lambda s: s["role"],
                              extract=lambda s, name: s[name])
        assert attrs.index_size == by_name.index_size == 4 + 4 + 16 + 1
        expected = [2, 4 + 1, 8 + 2 * 4 + 3, 24]
        assert [attrs.index(state) for state in states] == expected
        assert [by_name.index(vars(state)) for state in states] == expected

    @pytest.mark.parametrize(
        "state, message",
        [
            (OptimalSilentAgent(role=Role.SETTLED, rank=9, children=0), "9 outside 1..4"),
            (OptimalSilentAgent(role=Role.SETTLED, rank=True, children=0), "True outside"),
            (OptimalSilentAgent(role=Role.SETTLED, rank="1", children=0), "'1' outside"),
            (OptimalSilentAgent(role=Role.RESETTING, leader="X"), "'X' outside"),
            (object(), "unknown role"),
        ],
        ids=["out-of-range", "bool", "wrong-type", "choice", "unknown-role"],
    )
    def test_index_raises_outside_the_schema(self, state, message):
        schema = schema_for(OptimalSilentSSR(4, tiny_params()))
        with pytest.raises(SchemaError, match=message):
            schema.index(state)

    def test_missing_field_raises(self):
        from types import SimpleNamespace

        from repro.statics.schema import RoleSchema, StateSchema

        schema = StateSchema("Attrs", [
            RoleSchema(role=None, fields=(FieldSpec("x", IntRange(0, 3)),
                                          FieldSpec("y", IntRange(0, 3)))),
        ])
        with pytest.raises(SchemaError, match="missing field 'y'"):
            schema.index(SimpleNamespace(x=1))

    def test_no_index_without_enumerable_key_fields(self):
        from repro.statics.schema import RoleSchema, StateSchema

        schema = StateSchema("Counter", [
            RoleSchema(role=None, fields=(FieldSpec("count", NonNegativeInt()),)),
        ])
        assert schema.index_size is None
        with pytest.raises(NotEnumerableError):
            schema.index(3)
