"""Tests for the naming problem and the ranking => naming => SSLE hierarchy."""

from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.leader import has_unique_leader
from repro.protocols.naming import (
    NamingOnlyProtocol,
    names_are_unique,
    _next_prime,
)
from repro.protocols.sublinear.protocol import SubRole, SublinearTimeSSR


class TestPredicates:
    def test_names_are_unique(self):
        assert names_are_unique([1, 2, 3])
        assert not names_are_unique([1, 1, 3])
        assert not names_are_unique([1, None, 3])
        assert names_are_unique([])

    def test_hierarchy_on_a_correct_ranking(self):
        """ranking correct => naming correct => unique leader."""
        protocol = SilentNStateSSR(4)
        states = [3, 1, 0, 2]
        assert protocol.is_correct(states)
        assert names_are_unique([protocol.rank_of(s) for s in states])
        assert has_unique_leader(protocol, states)

    def test_naming_weaker_than_ranking(self):
        """Distinct ranks not covering {1..n}: naming yes, ranking no."""
        # Simulate with rank_of output directly: a protocol whose output
        # happens to be {2, 3, 4} on n=3 would name but not rank.
        assert names_are_unique([2, 3, 4])
        from repro.core.configuration import ranks_are_permutation

        assert not ranks_are_permutation([2, 3, 4], 3)


class TestSublinearNamesView:
    def test_names_stabilize_before_ranks(self):
        """Sublinear-Time-SSR solves naming strictly earlier than ranking.

        From a clean unique-name start the *names* are correct from
        interaction 0, while ranks wait for rosters to fill.
        """
        protocol = SublinearTimeSSR(6, h=1)
        rng = make_rng(1, "naming")
        states = protocol.unique_names_configuration(rng)
        assert all(s.role is SubRole.COLLECTING and s.name for s in states)
        assert names_are_unique([s.name for s in states])
        assert not protocol.is_correct(states)  # ranks all default to 1

        sim = Simulation(protocol, states, rng=rng)
        naming_time = 0.0  # already naming-correct
        budget = 500_000
        while not protocol.is_correct(sim.states):
            assert sim.interactions < budget
            sim.step()
        assert sim.parallel_time > naming_time
        # And naming stayed correct the whole way (no reset was needed).
        assert all(s.role is SubRole.COLLECTING for s in sim.states)
        assert names_are_unique([s.name for s in sim.states])


class TestNamingOnlyProtocol:
    def test_tokens_distinct_iff_ranks_distinct(self, rng):
        inner = SilentNStateSSR(5)
        wrapper = NamingOnlyProtocol(inner)
        correct = [0, 1, 2, 3, 4]
        tokens = [wrapper.token_of(s) for s in correct]
        assert names_are_unique(tokens)
        assert wrapper.is_correct(correct)
        assert not wrapper.is_correct([0, 0, 2, 3, 4])

    def test_tokens_censor_order(self):
        inner = SilentNStateSSR(5)
        wrapper = NamingOnlyProtocol(inner)
        tokens = [wrapper.token_of(s) for s in [0, 1, 2, 3, 4]]
        # The token sequence is not monotone in rank (order destroyed).
        assert tokens != sorted(tokens)
        # And the wrapper exposes no rank at all.
        assert wrapper.rank_of(2) is None

    def test_dynamics_unchanged(self, rng):
        inner = SilentNStateSSR(5)
        wrapper = NamingOnlyProtocol(inner)
        assert wrapper.transition(3, 3, rng) == inner.transition(3, 3, rng)
        assert wrapper.is_pair_null(1, 2)
        assert wrapper.silent

    def test_wrapper_still_stabilizes_as_naming(self, rng):
        inner = SilentNStateSSR(6)
        wrapper = NamingOnlyProtocol(inner)
        sim = Simulation(wrapper, [0] * 6, rng=rng)
        budget = 2_000_000
        while not wrapper.is_correct(sim.states):
            assert sim.interactions < budget
            sim.step()

    def test_next_prime(self):
        assert _next_prime(2) == 2
        assert _next_prime(8) == 11
        assert _next_prime(14) == 17
