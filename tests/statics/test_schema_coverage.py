"""Every exported protocol has a registered schema; the adversary obeys it.

Two guarantees:

* **coverage** -- every concrete protocol class exported from
  :mod:`repro.protocols` (plus the lint-only wrappers) resolves a
  schema, so ``repro lint`` can never silently skip one;
* **adversary containment** -- every configuration the adversarial
  battery produces validates against the declared schema, across seeds
  (property-style): the adversary covers the state space, it does not
  exceed it.
"""

import inspect
import random

import pytest

import repro.protocols as protocols_pkg
from repro.core.adversary import adversarial_battery
from repro.core.protocol import PopulationProtocol
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
from repro.statics.schema import has_schema, schema_for


def tiny_optimal() -> OptimalSilentSSR:
    params = OptimalSilentParameters(reset=ResetParameters(r_max=2, d_max=2), e_max=2)
    return OptimalSilentSSR(4, params)


#: One instantiation per concrete protocol class.  The coverage test
#: below fails if a newly exported protocol class is missing from here.
FACTORIES = {
    "SilentNStateSSR": lambda: SilentNStateSSR(4),
    "DirectCollisionSSR": lambda: DirectCollisionSSR(4),
    "LooselyStabilizingLE": lambda: LooselyStabilizingLE(4, t_max=3),
    "OptimalSilentSSR": tiny_optimal,
    "SublinearTimeSSR": lambda: SublinearTimeSSR(4),
    "SyncDictionarySSR": lambda: SyncDictionarySSR(4),
    "ResetTimingProtocol": lambda: ResetTimingProtocol(
        4, ResetParameters(r_max=3, d_max=4)
    ),
    "ImmobilizedLeaderProtocol": lambda: ImmobilizedLeaderProtocol(tiny_optimal()),
    "NamingOnlyProtocol": lambda: NamingOnlyProtocol(SilentNStateSSR(4)),
}


def exported_protocol_classes():
    """Concrete PopulationProtocol subclasses in repro.protocols.__all__."""
    classes = []
    for name in protocols_pkg.__all__:
        obj = getattr(protocols_pkg, name)
        if (
            inspect.isclass(obj)
            and issubclass(obj, PopulationProtocol)
            and not inspect.isabstract(obj)
        ):
            classes.append((name, obj))
    return classes


class TestCoverage:
    def test_exports_include_protocols(self):
        names = [name for name, _ in exported_protocol_classes()]
        assert "SilentNStateSSR" in names and "OptimalSilentSSR" in names

    @pytest.mark.parametrize("name,cls", exported_protocol_classes())
    def test_every_exported_protocol_has_a_schema(self, name, cls):
        assert name in FACTORIES, (
            f"{name} is exported from repro.protocols but has no factory in "
            "tests/statics/test_schema_coverage.py -- add one (and register "
            "a schema in its module)"
        )
        protocol = FACTORIES[name]()
        assert has_schema(protocol), f"{name} has no registered state schema"
        state = protocol.initial_state(random.Random(0))
        assert schema_for(protocol).validate(state) == []

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_wrappers_and_extras_resolve(self, name):
        protocol = FACTORIES[name]()
        assert has_schema(protocol)
        assert schema_for(protocol).validate(
            protocol.initial_state(random.Random(1))
        ) == []


class TestAdversaryRespectsSchemas:
    """Property-style: batteries validate clean across protocols x seeds."""

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    @pytest.mark.parametrize("seed", [0, 1, 7, 0xBEEF])
    def test_battery_validates(self, name, seed):
        protocol = FACTORIES[name]()
        schema = schema_for(protocol)
        battery = adversarial_battery(protocol, random.Random(seed))
        assert battery, "battery should produce at least one configuration"
        for label, states in battery.items():
            assert len(states) == protocol.n
            for index, state in enumerate(states):
                problems = schema.validate(state)
                assert not problems, (
                    f"{name} battery '{label}' (seed {seed}) agent {index}: "
                    f"{problems}"
                )
