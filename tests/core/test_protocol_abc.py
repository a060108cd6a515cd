"""Tests for the PopulationProtocol base class and error hierarchy."""

import pytest

from repro.core.errors import (
    ConfigurationError,
    NotSilentError,
    ProtocolDefinitionError,
    ReproError,
)
from repro.core.protocol import PopulationProtocol, check_population
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.sync_dictionary import SyncDictionarySSR


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc_type in (
            ConfigurationError,
            ProtocolDefinitionError,
            NotSilentError,
        ):
            assert issubclass(exc_type, ReproError)


class TestPopulationProtocolBasics:
    def test_population_size_validated(self):
        with pytest.raises(ValueError):
            SilentNStateSSR(0)

    def test_n_is_read_only_property(self):
        protocol = SilentNStateSSR(5)
        assert protocol.n == 5
        with pytest.raises(AttributeError):
            protocol.n = 7

    def test_initial_configuration_size(self, rng):
        protocol = SilentNStateSSR(6)
        assert len(protocol.initial_configuration(rng)) == 6

    def test_random_configuration_size(self, rng):
        protocol = SilentNStateSSR(6)
        assert len(protocol.random_configuration(rng)) == 6

    def test_default_describe_is_repr(self, rng):
        protocol = SyncDictionarySSR(4)
        # SyncDictionarySSR overrides describe; base default checked via a stub.

        class Stub(PopulationProtocol):
            def transition(self, a, b, rng):
                return a, b

            def initial_state(self, rng):
                return 0

            def random_state(self, rng):
                return 0

            def is_correct(self, states):
                return True

            def summarize(self, state):
                return state

        assert Stub(2).describe(41) == "41"

    def test_default_is_pair_null_raises(self):
        protocol = SyncDictionarySSR(4)
        with pytest.raises(NotSilentError):
            protocol.is_pair_null(None, None)

    def test_default_state_count_raises(self):
        protocol = SyncDictionarySSR(4)
        with pytest.raises(NotImplementedError):
            protocol.state_count()

    def test_check_population(self):
        protocol = SilentNStateSSR(3)
        check_population(protocol, [0, 1, 2])  # no raise
        with pytest.raises(ConfigurationError):
            check_population(protocol, [0, 1])


class TestRankingProtocolDerivedBehavior:
    def test_is_correct_uses_rank_of(self):
        protocol = SilentNStateSSR(3)
        assert protocol.is_correct([2, 0, 1])
        assert not protocol.is_correct([2, 2, 1])

    def test_is_leader_is_rank_one(self):
        protocol = SilentNStateSSR(3)
        assert protocol.is_leader(0)
        assert not protocol.is_leader(1)

    def test_convergence_monitor_is_bound_to_protocol(self, rng):
        protocol = SilentNStateSSR(3)
        monitor = protocol.convergence_monitor()
        monitor.on_start([0, 1, 2])
        assert monitor.correct
