"""Tests for Protocols 3-4 (Optimal-Silent-SSR)."""

import pytest

from repro.core.configuration import is_silent
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.protocols.optimal_silent import (
    FOLLOWER,
    LEADER,
    OptimalSilentAgent,
    OptimalSilentSSR,
    Role,
)
from repro.protocols.parameters import OptimalSilentParameters, ResetParameters

SMALL_PARAMS = OptimalSilentParameters(
    reset=ResetParameters(r_max=6, d_max=24), e_max=120
)


def settled(rank: int, children: int = 0) -> OptimalSilentAgent:
    return OptimalSilentAgent(role=Role.SETTLED, rank=rank, children=children)


def unsettled(errorcount: int = 100) -> OptimalSilentAgent:
    return OptimalSilentAgent(role=Role.UNSETTLED, errorcount=errorcount)


def protocol6() -> OptimalSilentSSR:
    return OptimalSilentSSR(6, SMALL_PARAMS)


class TestRankCollision:
    def test_same_rank_triggers_reset(self, rng):
        p = protocol6()
        a, b = p.transition(settled(3), settled(3), rng)
        assert a.role is b.role is Role.RESETTING
        assert a.resetcount == b.resetcount == SMALL_PARAMS.reset.r_max
        assert a.leader == b.leader == LEADER

    def test_distinct_ranks_are_null(self, rng):
        p = protocol6()
        a, b = p.transition(settled(2, 2), settled(5, 2), rng)
        assert (a.role, a.rank) == (Role.SETTLED, 2)
        assert (b.role, b.rank) == (Role.SETTLED, 5)


class TestRanking:
    def test_settled_recruits_first_child(self, rng):
        p = protocol6()
        a, b = p.transition(settled(2, children=0), unsettled(), rng)
        assert a.children == 1
        assert b.role is Role.SETTLED
        assert b.rank == 4  # 2 * 2 + 0
        assert b.children == 0

    def test_settled_recruits_second_child(self, rng):
        p = protocol6()
        a, b = p.transition(settled(2, children=1), unsettled(), rng)
        assert b.rank == 5  # 2 * 2 + 1
        assert a.children == 2

    def test_full_parent_does_not_recruit(self, rng):
        p = protocol6()
        a, b = p.transition(settled(2, children=2), unsettled(100), rng)
        assert b.role is Role.UNSETTLED
        assert b.errorcount == 99  # but its error counter ticked

    def test_rank_bound_respected(self, rng):
        # n = 6: rank 3's children are 6 (ok) and 7 (> n: forbidden).
        p = protocol6()
        a, b = p.transition(settled(3, children=1), unsettled(), rng)
        assert b.role is Role.UNSETTLED
        a2, b2 = p.transition(settled(3, children=0), unsettled(), rng)
        assert b2.rank == 6

    def test_unsettled_pair_both_tick(self, rng):
        p = protocol6()
        a, b = p.transition(unsettled(10), unsettled(20), rng)
        assert a.errorcount == 9
        assert b.errorcount == 19

    def test_starved_unsettled_triggers_both(self, rng):
        p = protocol6()
        a, b = p.transition(unsettled(1), settled(2, 2), rng)
        assert a.role is b.role is Role.RESETTING
        assert a.resetcount == SMALL_PARAMS.reset.r_max


class TestResetSubroutine:
    def test_leader_settles_at_rank_one(self, rng):
        p = protocol6()
        agent = OptimalSilentAgent(
            role=Role.RESETTING, leader=LEADER, resetcount=0, delaytimer=1
        )
        partner = OptimalSilentAgent(
            role=Role.RESETTING, leader=FOLLOWER, resetcount=0, delaytimer=50
        )
        a, b = p.transition(agent, partner, rng)
        # The pseudocode runs sequentially: both awaken (leader settles at
        # rank 1, follower becomes unsettled), and then the ranking block
        # of the same interaction already recruits the fresh unsettled
        # agent as the leader's first child.
        assert a.role is Role.SETTLED and a.rank == 1 and a.children == 1
        assert b.role is Role.SETTLED and b.rank == 2

    def test_dormant_leader_election(self, rng):
        p = protocol6()
        a = OptimalSilentAgent(
            role=Role.RESETTING, leader=LEADER, resetcount=0, delaytimer=20
        )
        b = OptimalSilentAgent(
            role=Role.RESETTING, leader=LEADER, resetcount=0, delaytimer=20
        )
        a, b = p.transition(a, b, rng)
        assert (a.leader, b.leader) == (LEADER, FOLLOWER)

    def test_election_only_among_resetting(self, rng):
        # A settled agent never participates in L,L -> L,F.
        p = protocol6()
        a = settled(2, 2)
        b = OptimalSilentAgent(
            role=Role.RESETTING, leader=LEADER, resetcount=0, delaytimer=20
        )
        a2, b2 = p.transition(a, b, rng)
        assert a2.role is Role.SETTLED  # unchanged
        # b awakened by epidemic (partner computing).
        assert b2.role is Role.SETTLED and b2.rank == 1


class TestStateSpace:
    def test_state_count_formula(self):
        p = protocol6()
        expected = (
            3 * 6
            + (SMALL_PARAMS.e_max + 1)
            + 2 * (SMALL_PARAMS.reset.r_max + SMALL_PARAMS.reset.d_max + 1)
        )
        assert p.state_count() == expected

    def test_state_count_is_linear_in_n(self):
        counts = [OptimalSilentSSR(n).state_count() for n in (16, 32, 64)]
        ratios = [b / a for a, b in zip(counts, counts[1:])]
        assert all(1.5 < r < 2.5 for r in ratios)

    def test_random_state_fields_in_domain(self, rng):
        p = protocol6()
        for _ in range(200):
            s = p.random_state(rng)
            if s.role is Role.SETTLED:
                assert 1 <= s.rank <= 6 and 0 <= s.children <= 2
            elif s.role is Role.UNSETTLED:
                assert 0 <= s.errorcount <= SMALL_PARAMS.e_max
            else:
                assert s.leader in (LEADER, FOLLOWER)
                assert 0 <= s.resetcount <= SMALL_PARAMS.reset.r_max
                assert 0 <= s.delaytimer <= SMALL_PARAMS.reset.d_max


class TestConfigurations:
    def test_ranked_configuration_is_correct_and_silent(self):
        p = protocol6()
        states = p.ranked_configuration()
        assert p.is_correct(states)
        assert is_silent(p, states)

    def test_ranked_configuration_is_stable(self, rng):
        p = protocol6()
        states = p.ranked_configuration()
        sim = Simulation(p, states, rng=rng)
        sim.run(2000)
        assert p.is_correct(sim.states)

    def test_duplicate_rank_configuration(self):
        p = protocol6()
        states = p.duplicate_rank_configuration(rank=2)
        ranks = sorted(s.rank for s in states)
        assert ranks == [1, 2, 2, 3, 4, 5]
        assert not p.is_correct(states)
        assert not is_silent(p, states)

    def test_duplicate_rank_validates_range(self):
        p = protocol6()
        with pytest.raises(ValueError):
            p.duplicate_rank_configuration(rank=6)


class TestScenario:
    def test_duplicate_rank_recovers(self):
        """Full loop: collision -> reset -> election -> ranking."""
        p = OptimalSilentSSR(8)
        rng = make_rng(5, "recover")
        sim = Simulation(p, p.duplicate_rank_configuration(rank=1), rng=rng)
        budget = 3_000_000
        assert sim.run_until_stable(budget, confirm_interactions=budget)
        assert p.is_correct(sim.states) and is_silent(p, sim.states)

    def test_leader_is_rank_one(self, rng):
        p = protocol6()
        states = p.ranked_configuration()
        leaders = [s for s in states if p.is_leader(s)]
        assert len(leaders) == 1
        assert leaders[0].rank == 1

    def test_trigger_clears_stale_fields(self, rng):
        p = protocol6()
        a, b = p.transition(settled(3, children=2), settled(3, children=1), rng)
        # Old rank/children must not leak across the role switch.
        assert a.rank == 0 and a.children == 0
        assert b.rank == 0 and b.children == 0
