"""Tests for the loosely-stabilizing leader election foil."""

import pytest

from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.experiments.loose import fast_convergence_time, fast_holding_time
from repro.protocols.loose_stabilization import LooseAgent, LooselyStabilizingLE


def agent(leader: bool, timer: int) -> LooseAgent:
    return LooseAgent(leader=leader, timer=timer)


class TestTransition:
    def test_propagate_and_decay(self, rng):
        p = LooselyStabilizingLE(8, t_max=10)
        a, b = p.transition(agent(False, 7), agent(False, 3), rng)
        assert a.timer == b.timer == 6

    def test_leader_refreshes_own_timer(self, rng):
        p = LooselyStabilizingLE(8, t_max=10)
        a, b = p.transition(agent(True, 2), agent(False, 5), rng)
        assert a.timer == 10  # refreshed
        assert b.timer == 4  # decayed copy of the max

    def test_two_leaders_reduce(self, rng):
        p = LooselyStabilizingLE(8, t_max=10)
        a, b = p.transition(agent(True, 10), agent(True, 10), rng)
        assert a.leader and not b.leader

    def test_timeout_creates_leader(self, rng):
        p = LooselyStabilizingLE(8, t_max=10)
        a, b = p.transition(agent(False, 1), agent(False, 0), rng)
        assert a.leader and b.leader  # both decayed to 0 and timed out
        assert a.timer == b.timer == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            LooselyStabilizingLE(8, t_max=0)


class TestStateSpace:
    def test_state_count_independent_of_n(self):
        assert LooselyStabilizingLE(8, t_max=5).state_count() == 12
        assert LooselyStabilizingLE(800, t_max=5).state_count() == 12

    def test_below_theorem21_bound(self):
        # The escape hatch Theorem 2.1 leaves open: not truly stable.
        p = LooselyStabilizingLE(64, t_max=10)
        assert p.state_count() < p.n

    def test_correctness_predicate(self, rng):
        p = LooselyStabilizingLE(4, t_max=5)
        assert p.is_correct(p.ideal_configuration())
        assert not p.is_correct([agent(True, 5), agent(True, 5), agent(False, 5), agent(False, 5)])


class TestLifecycle:
    def test_converges_from_random_start(self):
        p = LooselyStabilizingLE(16, t_max=10)
        rng = make_rng(1, "loose-conv")
        sim = Simulation(p, [p.random_state(rng) for _ in range(16)], rng=rng)
        while not p.is_correct(sim.states):
            assert sim.parallel_time < 20_000.0
            sim.step()

    def test_holding_is_finite_at_small_t_max(self):
        p = LooselyStabilizingLE(16, t_max=4)
        elapsed, censored = p.holding_time(make_rng(2, "loose-hold"), max_time=5_000.0)
        assert not censored
        assert elapsed < 5_000.0

    def test_holding_grows_with_t_max(self):
        quick = [
            fast_holding_time(32, 6, seed=5, trial=t, horizon_time=4_000.0)[0]
            for t in range(6)
        ]
        slow = [
            fast_holding_time(32, 12, seed=5, trial=t, horizon_time=4_000.0)[0]
            for t in range(6)
        ]
        assert sum(slow) > 5 * sum(quick)

    def test_fast_and_reference_loops_agree_in_scale(self):
        """The array loop and the object protocol measure the same thing."""
        t_max, n, trials = 6, 16, 12
        fast = [
            fast_holding_time(n, t_max, seed=9, trial=t, horizon_time=4_000.0)[0]
            for t in range(trials)
        ]
        reference = []
        for t in range(trials):
            p = LooselyStabilizingLE(n, t_max)
            elapsed, _ = p.holding_time(make_rng(10, "ref", t), max_time=4_000.0)
            reference.append(elapsed)
        mean_fast = sum(fast) / trials
        mean_ref = sum(reference) / trials
        assert 0.3 < mean_fast / mean_ref < 3.0

    def test_fast_convergence_reaches_unique_leader(self):
        elapsed = fast_convergence_time(32, 10, seed=11, trial=0, horizon_time=20_000.0)
        assert 0 <= elapsed < 20_000.0
