"""Tests for repro.core.simulation and the monitor callback contract."""

import pytest

from repro.core.countsim import build_engine
from repro.core.errors import ConfigurationError
from repro.core.monitors import Monitor
from repro.core.rng import make_rng
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


class TestRunUntilStable:
    def test_attaches_the_convergence_monitor_it_needs(self):
        """A monitor-less engine gets the protocol's convergence monitor
        on its first ``run_until_stable``: the same run as an engine
        built with that monitor attached."""
        protocol = SilentNStateSSR(6)
        start = protocol.worst_case_configuration()
        bare = Simulation(protocol, start, rng=make_rng(38, "attach"))
        attached = Simulation(
            protocol,
            start,
            rng=make_rng(38, "attach"),
            monitors=[protocol.convergence_monitor()],
        )
        assert bare.monitors == [] and bare.streak_start is None
        assert bare.run_until_stable(10**6, 0) and attached.run_until_stable(10**6, 0)
        assert len(bare.monitors) == 1
        assert (bare.interactions, bare.streak_start, bare.regressions, bare.states) == (
            attached.interactions,
            attached.streak_start,
            attached.regressions,
            attached.states,
        )
        assert bare.streak_start > 0

    def test_unrecorded_generic_engine_has_no_monitor(self):
        """``build_engine`` adds no per-interaction monitor work to an
        unrecorded generic run: recovery steps it without one."""
        protocol = SilentNStateSSR(6)
        sim = build_engine(protocol, None, rng=make_rng(38, "bare"), engine="generic")
        assert isinstance(sim, Simulation) and sim.monitors == []
