"""Tests for repro.core.simulation and the monitor callback contract."""

import pytest

from repro.core.errors import ConfigurationError
from repro.core.monitors import Monitor
from repro.core.scheduler import ScriptedScheduler
from repro.core.simulation import Simulation
from repro.protocols.cai_izumi_wada import SilentNStateSSR


class RecordingMonitor(Monitor):
    def __init__(self):
        self.events = []

    def on_start(self, states):
        self.events.append(("start", list(states)))

    def before_step(self, step, i, j, state_i, state_j):
        self.events.append(("before", step, i, j, state_i, state_j))

    def after_step(self, step, i, j, state_i, state_j):
        self.events.append(("after", step, i, j, state_i, state_j))


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


class TestMonitorContract:
    def test_callbacks_in_order_with_pre_and_post_states(self, rng):
        protocol = SilentNStateSSR(3)
        monitor = RecordingMonitor()
        sim = Simulation(
            protocol,
            [1, 1, 0],
            rng=rng,
            scheduler=ScriptedScheduler([(0, 1)]),
            monitors=[monitor],
        )
        sim.step()
        assert monitor.events[0] == ("start", [1, 1, 0])
        assert monitor.events[1] == ("before", 0, 0, 1, 1, 1)
        assert monitor.events[2] == ("after", 1, 0, 1, 1, 2)

    def test_multiple_monitors_all_notified(self, rng):
        protocol = SilentNStateSSR(3)
        monitors = [RecordingMonitor(), RecordingMonitor()]
        sim = Simulation(protocol, rng=rng, monitors=monitors)
        sim.run(3)
        assert len(monitors[0].events) == len(monitors[1].events) == 1 + 2 * 3
