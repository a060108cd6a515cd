"""Tests for repro.core.simulation: stepping and the ranking tally's
start in ``run_until_stable``."""

import pytest

from repro.core.countsim import build_engine
from repro.core.errors import ConfigurationError
from repro.core.rng import make_rng
from repro.core.scheduler import ScriptedScheduler
from repro.core.simulation import Simulation
from repro.obs.metrics import MetricsRecorder
from repro.protocols.cai_izumi_wada import SilentNStateSSR


class TestSimulationBasics:
    def test_wrong_population_size_rejected(self, rng):
        protocol = SilentNStateSSR(4)
        with pytest.raises(ConfigurationError):
            Simulation(protocol, [0, 1], rng=rng)

    def test_default_initial_configuration(self, rng):
        protocol = SilentNStateSSR(4)
        sim = Simulation(protocol, rng=rng)
        assert sim.states == [0, 0, 0, 0]

    def test_step_applies_transition(self, rng):
        protocol = SilentNStateSSR(3)
        sim = Simulation(
            protocol, [1, 1, 2], rng=rng, scheduler=ScriptedScheduler([(0, 1)])
        )
        sim.step()
        assert sim.states == [1, 2, 2]
        assert sim.interactions == 1

    def test_parallel_time(self, rng):
        protocol = SilentNStateSSR(4)
        sim = Simulation(protocol, rng=rng)
        sim.run(10)
        assert sim.parallel_time == pytest.approx(2.5)

    def test_run_stops_at_script_end(self, rng):
        protocol = SilentNStateSSR(3)
        sim = Simulation(
            protocol, [0, 1, 2], rng=rng, scheduler=ScriptedScheduler([(0, 1), (1, 2)])
        )
        sim.run(100)  # script has only 2 steps
        assert sim.interactions == 2


class TestRunUntilStable:
    def test_starts_the_tally_it_needs(self):
        """An unrecorded engine starts the ranking tally on its first
        ``run_until_stable``: the same run as a recorded engine, whose
        tally ran from the start."""
        protocol = SilentNStateSSR(6)
        start = protocol.worst_case_configuration()
        bare = Simulation(protocol, start, rng=make_rng(38, "attach"))
        recorded = Simulation(
            protocol, start, rng=make_rng(38, "attach"), recorder=MetricsRecorder()
        )
        assert not bare._tallying and bare.streak_start is None
        assert bare.run_until_stable(10**6, 0) and recorded.run_until_stable(10**6, 0)
        assert (bare.interactions, bare.streak_start, bare.regressions, bare.states) == (
            recorded.interactions,
            recorded.streak_start,
            recorded.regressions,
            recorded.states,
        )
        assert bare.streak_start > 0

    def test_late_start_stamps_the_current_interaction(self):
        """A tally started after earlier steps is a resync: a correct
        configuration's streak starts now, not at interaction 0."""
        protocol = SilentNStateSSR(8)
        sim = Simulation(protocol, list(range(8)), rng=make_rng(39, "late"))
        sim.run(500)
        assert sim.run_until_stable(10**6, 0)
        assert (sim.interactions, sim.streak_start, sim.regressions) == (500, 500, 0)

    def test_unrecorded_generic_engine_has_no_monitor(self):
        """``build_engine`` adds no per-interaction tally work to an
        unrecorded generic run: recovery steps it without one."""
        protocol = SilentNStateSSR(6)
        sim = build_engine(protocol, None, rng=make_rng(38, "bare"), engine="generic")
        assert isinstance(sim, Simulation) and not sim._tallying
        sim.run(100)
        assert not sim._tallying and sim.streak_start is None
