"""Tests for repro.core.monitors.

The crucial property is that ConvergenceMonitor's O(1)-per-step
bookkeeping always agrees with a from-scratch recomputation -- checked
here on random runs of a real protocol.
"""

from repro.core.configuration import ranks_are_permutation
from repro.core.monitors import ConvergenceMonitor
from repro.core.simulation import Simulation
from repro.protocols.cai_izumi_wada import SilentNStateSSR


class TestConvergenceMonitorIncremental:
    def test_agrees_with_recomputation_on_random_run(self, rng):
        n = 6
        protocol = SilentNStateSSR(n)
        monitor = protocol.convergence_monitor()
        states = [rng.randrange(n) for _ in range(n)]
        sim = Simulation(protocol, states, rng=rng, monitors=[monitor])
        for _ in range(400):
            sim.step()
            expected = ranks_are_permutation(
                [protocol.rank_of(s) for s in sim.states], n
            )
            assert monitor.correct == expected

    def test_initially_correct_configuration(self, rng):
        protocol = SilentNStateSSR(4)
        monitor = protocol.convergence_monitor()
        Simulation(protocol, [0, 1, 2, 3], rng=rng, monitors=[monitor])
        assert monitor.correct
        assert monitor.streak_start == 0

    def test_streak_start_records_when_correct_began(self, rng):
        n = 5
        protocol = SilentNStateSSR(n)
        monitor = protocol.convergence_monitor()
        sim = Simulation(
            protocol, [0, 0, 1, 2, 3], rng=rng, monitors=[monitor]
        )
        while not monitor.correct:
            sim.step()
        assert monitor.streak_start == sim.interactions
        streak_began = sim.interactions
        sim.run(50)  # CIW correct configurations are stable
        assert monitor.correct
        assert monitor.streak_start == streak_began
        assert monitor.correct_streak(sim.interactions) == sim.interactions - streak_began

    def test_regressions_counted(self):
        # Drive the monitor by hand: correct -> broken -> correct.
        monitor = ConvergenceMonitor(2, rank_of=lambda s: s)
        monitor.on_start([1, 2])
        assert monitor.correct and monitor.regressions == 0
        monitor.before_step(1, 0, 1, 1, 2)
        monitor.after_step(1, 0, 1, 2, 2)  # now [2, 2]: broken
        assert not monitor.correct
        assert monitor.regressions == 1
        monitor.before_step(2, 0, 1, 2, 2)
        monitor.after_step(2, 0, 1, 1, 2)  # back to [1, 2]
        assert monitor.correct
        assert monitor.streak_start == 2

    def test_correct_streak_zero_when_incorrect(self):
        monitor = ConvergenceMonitor(2, rank_of=lambda s: s)
        monitor.on_start([1, 1])
        assert monitor.correct_streak(100) == 0

    def test_out_of_range_ranks_ignored(self):
        monitor = ConvergenceMonitor(2, rank_of=lambda s: s)
        monitor.on_start([1, 99])  # 99 outside 1..2: not counted
        assert not monitor.correct
