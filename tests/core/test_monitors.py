"""Tests for the generic engine's ranking-correctness tally.

The crucial property is that :class:`~repro.core.simulation.Simulation`'s
O(1)-per-step tally (rank counts, leaders, rank coverage, the verdict
and its streak) always agrees with a from-scratch recomputation --
checked here on random runs of a real protocol.  The resync rule both
engines share is covered in tests/core/test_chaos.py.
"""

from repro.core.configuration import ranks_are_permutation
from repro.core.scheduler import ScriptedScheduler
from repro.core.simulation import Simulation
from repro.obs.metrics import MetricsRecorder
from repro.protocols.cai_izumi_wada import SilentNStateSSR


class TestConvergenceMonitorIncremental:
    def test_agrees_with_recomputation_on_random_run(self, rng):
        """Every sample's leaders, coverage and verdict match a rescan."""
        n = 6
        protocol = SilentNStateSSR(n)
        recorder = MetricsRecorder(sample_every=1)
        states = [rng.randrange(n) for _ in range(n)]
        sim = Simulation(protocol, states, rng=rng, recorder=recorder)
        for _ in range(400):
            sim.step()
            ranks = [protocol.rank_of(s) for s in sim.states]
            sample = recorder.samples[-1]
            assert sample["interactions"] == sim.interactions
            assert sample["leaders"] == ranks.count(1)
            assert sample["rank_coverage"] == sum(
                ranks.count(rank) == 1 for rank in range(1, n + 1)
            )
            assert sample["correct"] == ranks_are_permutation(ranks, n) == sim.correct
        assert len(recorder.samples) == 400

    def test_initially_correct_configuration(self, rng):
        protocol = SilentNStateSSR(4)
        sim = Simulation(protocol, [0, 1, 2, 3], rng=rng, recorder=MetricsRecorder())
        assert sim.streak_start == 0 and sim.regressions == 0

    def test_streak_start_records_when_correct_began(self, rng):
        n = 5
        protocol = SilentNStateSSR(n)
        sim = Simulation(protocol, [0, 0, 1, 2, 3], rng=rng, recorder=MetricsRecorder())
        while sim.streak_start is None:
            sim.step()
        assert sim.correct
        streak_began = sim.interactions
        sim.run(50)  # CIW correct configurations are stable
        assert sim.correct
        assert sim.streak_start == streak_began

    def test_regressions_counted(self, rng):
        """Correct -> broken -> correct, driven by a scripted schedule."""

        class Swap(SilentNStateSSR):
            """A responder one above the initiator copies it (0,1 -> 0,0
            breaks the ranking); any other responder steps up mod n
            (0,0 -> 0,1 restores it)."""

            def transition(self, a, b, rng):
                return (a, a) if a == b - 1 else (a, (b + 1) % self.n)

        protocol = Swap(2)
        recorder = MetricsRecorder()
        sim = Simulation(
            protocol,
            [0, 1],
            rng=rng,
            scheduler=ScriptedScheduler([(0, 1), (0, 1)]),
            recorder=recorder,
        )
        assert sim.streak_start == 0 and sim.regressions == 0
        sim.step()  # now [0, 0]: broken
        assert sim.states == [0, 0]
        assert sim.streak_start is None and sim.regressions == 1
        sim.step()  # back to [0, 1]
        assert sim.states == [0, 1]
        assert sim.streak_start == 2 and sim.regressions == 1
        assert [(e["kind"], e["t"]) for e in recorder.events] == [
            ("regression", 0.5),
            ("convergence", 1.0),
        ]

    def test_correct_streak_zero_when_incorrect(self, rng):
        """An incorrect tally has no streak, so no confirm window passes."""
        protocol = SilentNStateSSR(2)
        sim = Simulation(protocol, [0, 0], rng=rng)
        assert not sim.run_until_stable(0, 0)
        assert sim.streak_start is None

    def test_out_of_range_ranks_ignored(self, rng):
        class OffByMany(SilentNStateSSR):
            def rank_of(self, state):
                return 99 if state == 1 else state + 1  # 99 outside 1..2

        sim = Simulation(OffByMany(2), [0, 1], rng=rng, recorder=MetricsRecorder())
        assert not sim.run_until_stable(0, 0)
        assert sim.streak_start is None
