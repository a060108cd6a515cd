"""Tests for Protocol 1 (Silent-n-state-SSR)."""

import pytest

from repro.core.configuration import is_silent
from repro.core.simulation import Simulation
from repro.protocols.cai_izumi_wada import SilentNStateSSR


class TestTransition:
    def test_equal_ranks_bump_responder(self, rng):
        protocol = SilentNStateSSR(5)
        assert protocol.transition(3, 3, rng) == (3, 4)

    def test_wraparound_mod_n(self, rng):
        protocol = SilentNStateSSR(5)
        assert protocol.transition(4, 4, rng) == (4, 0)

    def test_distinct_ranks_are_null(self, rng):
        protocol = SilentNStateSSR(5)
        assert protocol.transition(1, 4, rng) == (1, 4)

    def test_initiator_never_changes(self, rng):
        protocol = SilentNStateSSR(5)
        for a in range(5):
            for b in range(5):
                new_a, _ = protocol.transition(a, b, rng)
                assert new_a == a


class TestStateSpace:
    def test_state_count_is_exactly_n(self):
        assert SilentNStateSSR(17).state_count() == 17

    def test_random_state_in_domain(self, rng):
        protocol = SilentNStateSSR(6)
        assert all(0 <= protocol.random_state(rng) < 6 for _ in range(100))

    def test_rank_of_shifts_to_one_based(self):
        protocol = SilentNStateSSR(4)
        assert protocol.rank_of(0) == 1
        assert protocol.rank_of(3) == 4

    def test_rejects_population_below_two(self):
        with pytest.raises(ValueError):
            SilentNStateSSR(1)


class TestCorrectnessAndSilence:
    def test_permutation_is_correct(self):
        protocol = SilentNStateSSR(4)
        assert protocol.is_correct([2, 0, 3, 1])

    def test_duplicate_is_incorrect(self):
        protocol = SilentNStateSSR(4)
        assert not protocol.is_correct([2, 2, 3, 1])

    def test_null_pair_predicate(self):
        protocol = SilentNStateSSR(4)
        assert protocol.is_pair_null(1, 2)
        assert not protocol.is_pair_null(2, 2)

    def test_correct_configuration_is_silent_and_stable(self, rng):
        protocol = SilentNStateSSR(5)
        states = [3, 1, 0, 4, 2]
        assert is_silent(protocol, states)
        sim = Simulation(protocol, states, rng=rng)
        sim.run(500)
        assert sim.states == states


class TestNotableConfigurations:
    def test_worst_case_configuration(self):
        protocol = SilentNStateSSR(6)
        config = protocol.worst_case_configuration()
        assert sorted(config) == [0, 0, 1, 2, 3, 4]

    def test_counts_to_configuration_roundtrip(self):
        protocol = SilentNStateSSR(4)
        config = protocol.counts_to_configuration([2, 0, 1, 1])
        assert sorted(config) == [0, 0, 2, 3]

    def test_counts_to_configuration_validates(self):
        protocol = SilentNStateSSR(4)
        with pytest.raises(ValueError):
            protocol.counts_to_configuration([1, 1, 1])  # wrong length
        with pytest.raises(ValueError):
            protocol.counts_to_configuration([2, 2, 1, 0])  # wrong sum


class TestConvergence:
    def test_converges_from_worst_case(self, rng):
        protocol = SilentNStateSSR(8)
        sim = Simulation(protocol, protocol.worst_case_configuration(), rng=rng)
        assert sim.run_until_stable(10**7, 0)
        assert protocol.is_correct(sim.states)
        assert is_silent(protocol, sim.states)

    def test_converges_from_all_zero(self, rng):
        protocol = SilentNStateSSR(6)
        sim = Simulation(protocol, [0] * 6, rng=rng)
        assert sim.run_until_stable(10**7, 0)
        assert sorted(sim.states) == list(range(6))
