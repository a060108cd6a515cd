"""Tests for the exact Markov-chain solver, and the cross-validation of
both simulation engines against its ground truth."""

import pytest

from repro.analysis.exact import (
    colliding_weight,
    expected_absorption_interactions,
    is_absorbing,
    successors,
    worst_case_expected_interactions,
)
from repro.core.fastpath import CiwJumpSimulator, worst_case_ciw_counts
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.protocols.cai_izumi_wada import SilentNStateSSR


class TestChainStructure:
    def test_absorbing_states(self):
        assert is_absorbing((1, 1, 1))
        assert not is_absorbing((2, 1, 0))

    def test_colliding_weight(self):
        assert colliding_weight((1, 1, 1)) == 0
        assert colliding_weight((3, 0, 0)) == 6
        assert colliding_weight((2, 2, 0, 0)) == 4

    def test_successors_move_one_agent_mod_n(self):
        moves = dict(successors((2, 1, 0)))
        assert moves == {(1, 2, 0): 2}
        wrap = dict(successors((0, 1, 2)))
        assert wrap == {(1, 1, 1): 2}


class TestExpectedAbsorption:
    def test_absorbing_start_is_zero(self):
        assert expected_absorption_interactions((1, 1, 1)) == 0.0

    def test_two_agents_closed_form(self):
        # n=2, both at rank 0: one ordered pair collides out of 2.
        assert expected_absorption_interactions((2, 0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_worst_case_closed_form(self, n):
        # The witness chain is a straight line of geometric waits:
        # E = n (n-1)^2 / 2 interactions.
        assert worst_case_expected_interactions(n) == pytest.approx(
            n * (n - 1) ** 2 / 2
        )

    def test_all_zero_start_is_finite_and_positive(self):
        value = expected_absorption_interactions((4, 0, 0, 0))
        assert value > 0
        assert value < 10_000


class TestSimulatorsMatchGroundTruth:
    """Both engines' mean interaction counts must match the exact chain."""

    N = 5
    TRIALS = 3000

    def exact(self) -> float:
        return expected_absorption_interactions(
            tuple(worst_case_ciw_counts(self.N))
        )

    def test_jump_simulator_mean(self):
        total = 0
        for trial in range(self.TRIALS):
            sim = CiwJumpSimulator(
                worst_case_ciw_counts(self.N), make_rng(1, "xjump", trial)
            )
            total += sim.run_to_convergence()
        mean = total / self.TRIALS
        assert mean == pytest.approx(self.exact(), rel=0.05)

    @pytest.mark.slow
    def test_sequential_engine_mean(self):
        protocol = SilentNStateSSR(self.N)
        total = 0
        trials = 800
        for trial in range(trials):
            rng = make_rng(2, "xseq", trial)
            sim = Simulation(protocol, protocol.worst_case_configuration(), rng=rng)
            assert sim.run_until_stable(10**8, 0)
            total += sim.streak_start  # correct configurations are silent
        mean = total / trials
        assert mean == pytest.approx(self.exact(), rel=0.08)

    def test_random_start_ground_truth(self):
        """A branching (non-line) start: exact vs jump simulator."""
        start = (4, 0, 1, 0, 0)  # four agents piled on rank 0
        exact = expected_absorption_interactions(start)
        total = 0
        for trial in range(self.TRIALS):
            sim = CiwJumpSimulator(list(start), make_rng(3, "xrand", trial))
            total += sim.run_to_convergence()
        assert total / self.TRIALS == pytest.approx(exact, rel=0.05)
