"""Tests for repro.core.chaos and the engine-parity recovery contract.

Covers the composable adversary pieces (fault processes, victim
selectors + corruption models via :class:`Adversary`), the
engine-neutral fault surfaces over both the generic and the count
engine, and :func:`repro.core.chaos.measure_recovery`: its
recovery accounting, and the cross-engine contract of identical
semantics and statistically indistinguishable recovery-time
distributions.
"""

import math
import random

import pytest

from repro.core.chaos import (
    Adversary,
    BurstProcess,
    CloneCorruption,
    CountSurface,
    FaultEvent,
    PoissonProcess,
    SimulationSurface,
    UniformVictims,
    adversary_names,
    make_adversary,
    measure_recovery,
)
from repro.core.countsim import CountSimulation
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.sync_dictionary import SyncDictionarySSR


class TestFaultProcesses:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(at=-1.0, agents=1)
        with pytest.raises(ValueError):
            FaultEvent(at=0.0, agents=0)

    def test_burst_process_requires_time_order(self):
        with pytest.raises(ValueError):
            BurstProcess([FaultEvent(5.0, 1), FaultEvent(1.0, 1)])

    def test_burst_process_keeps_ties_in_order(self):
        events = [FaultEvent(1.0, 1), FaultEvent(1.0, 2), FaultEvent(2.0, 1)]
        process = BurstProcess(events)
        assert list(process.events(random.Random(0))) == events
        with pytest.raises(ValueError):
            BurstProcess([FaultEvent(1.0, 1), FaultEvent(3.0, 1), FaultEvent(2.0, 1)])

    def test_periodic_factory(self):
        process = BurstProcess.periodic(period=3.0, agents=2, count=3)
        assert [e.at for e in process.bursts] == [3.0, 6.0, 9.0]
        assert all(e.agents == 2 for e in process.bursts)
        assert list(process.events(random.Random(0))) == list(process.bursts)

    def test_periodic_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            BurstProcess.periodic(period=0, agents=1, count=1)
        with pytest.raises(ValueError):
            BurstProcess.periodic(period=-2.0, agents=1, count=1)

    def test_periodic_validates_each_event(self):
        with pytest.raises(ValueError):
            BurstProcess.periodic(period=1.0, agents=0, count=2)

    def test_poisson_is_seed_reproducible_and_bounded(self):
        process = PoissonProcess(0.5, agents=3, horizon=40.0)
        first = list(process.events(random.Random(7)))
        second = list(process.events(random.Random(7)))
        assert first == second
        assert first  # rate * horizon = 20 expected events
        times = [e.at for e in first]
        assert times == sorted(times)
        assert all(0 < t < 40.0 for t in times)
        assert all(e.agents == 3 for e in first)

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            PoissonProcess(0.0, horizon=1.0)
        with pytest.raises(ValueError):
            PoissonProcess(1.0, horizon=0.0)
        with pytest.raises(ValueError):
            PoissonProcess(1.0, agents=0, horizon=1.0)


def _stable_ciw_pair(n):
    """A stabilized CIW population on both engines (states 0..n-1)."""
    states = list(range(n))
    protocol = SilentNStateSSR(n)
    sim = Simulation(protocol, states, rng=random.Random(1))
    count = CountSimulation(SilentNStateSSR(n), states, rng=random.Random(1))
    return SimulationSurface(sim), CountSurface(count)


class TestFaultSurfaces:
    @pytest.mark.parametrize("which", [0, 1], ids=["generic", "count"])
    def test_sample_victims_counts(self, which, rng):
        surface = _stable_ciw_pair(8)[which]
        victims = surface.sample_victims(3, rng)
        assert len(victims) == 3
        assert len(surface.sample_victims(99, rng)) == 8  # capped at n

    def test_count_engine_rejects_more_victims_than_agents(self, rng):
        """Asked for more agents than exist, the engine raises as
        ``rng.sample`` does; asked for all n, it takes every agent."""
        sim = _stable_ciw_pair(8)[1].sim
        with pytest.raises(ValueError, match="9 victims from 8 agents"):
            sim.sample_victim_slots(9, rng)
        assert sorted(sim.sample_victim_slots(8, rng)) == sorted(
            slot for slot, count in sim.occupied_slots() for _ in range(count)
        )

    @pytest.mark.parametrize("which", [0, 1], ids=["generic", "count"])
    def test_ranked_victims_target_leadership(self, which, rng):
        surface = _stable_ciw_pair(8)[which]
        low = surface.ranked_victims(2, highest=False)
        high = surface.ranked_victims(2, highest=True)
        # CIW rank(state) == state + 1, so leadership = states {0, 1},
        # max rank = states {7, 6} -- on either victim representation.
        assert sorted(surface.protocol.rank_of(_state_of(surface, v)) for v in low) == [
            1,
            2,
        ]
        assert sorted(
            surface.protocol.rank_of(_state_of(surface, v)) for v in high
        ) == [7, 8]

    @pytest.mark.parametrize("which", [0, 1], ids=["generic", "count"])
    def test_sample_live_state_leader(self, which, rng):
        surface = _stable_ciw_pair(8)[which]
        state = surface.sample_live_state(rng, leader=True)
        assert surface.protocol.rank_of(state) == 1

    def test_generic_overwrite_resyncs_monitors(self, rng):
        protocol = SilentNStateSSR(6)
        monitor = protocol.convergence_monitor()
        sim = Simulation(protocol, list(range(6)), rng=rng, monitors=[monitor])
        sim.run(1)
        assert monitor.correct
        surface = SimulationSurface(sim)
        surface.overwrite([0], [1])  # duplicate rank 2
        assert sim.states[0] == 1
        assert not monitor.correct
        assert surface.injected == 1

    def test_count_overwrite_updates_multiset(self, rng):
        _, surface = _stable_ciw_pair(6)
        sim = surface.sim
        victims = surface.ranked_victims(1, highest=False)  # the leader slot
        surface.overwrite(victims, [3])
        assert sorted(sim.expand_states()) == [1, 2, 3, 3, 4, 5]
        assert not sim.correct

    def test_count_ranked_victims_expand_multiplicity(self, rng):
        # Three agents share state 2 -> the slot is returned three times.
        states = [2, 2, 2, 0, 1, 5]
        sim = CountSimulation(SilentNStateSSR(6), states, rng=random.Random(2))
        surface = CountSurface(sim)
        high = surface.ranked_victims(3, highest=True)
        assert [surface.sim.slot_state(v) for v in high] == [5, 2, 2]

    @pytest.mark.parametrize("engine", ["generic", "count"])
    def test_advance_on_silent_correct_configuration(self, engine):
        """Silent dwell: the count surface skips it on its virtual clock.

        Both surfaces advance ``ticks()`` by exactly the requested
        interactions; only the generic engine actually simulates them.
        The count engine (in the active mode ``measure_recovery`` uses)
        returns at once from a provably silent configuration, and the
        surface credits the skipped null interactions to its clock.
        """
        n = 8
        protocol = SilentNStateSSR(n)
        if engine == "generic":
            sim = Simulation(protocol, list(range(n)), rng=random.Random(3))
            surface = SimulationSurface(sim)
        else:
            sim = CountSimulation(
                protocol, list(range(n)), rng=random.Random(3), mode="active"
            )
            surface = CountSurface(sim)
        assert surface.correct() and surface.stabilized()
        surface.advance(10 * n)
        surface.advance(5 * n)
        assert surface.ticks() == 15 * n
        assert sim.interactions == (15 * n if engine == "generic" else 0)
        assert surface.correct() and surface.stabilized()
        # A strike ends the dwell: the count engine simulates again.
        surface.overwrite(surface.ranked_victims(1, highest=False), [3])
        assert not surface.correct() and not surface.stabilized()
        surface.advance(n)
        assert surface.ticks() == 16 * n
        assert sim.interactions == (16 * n if engine == "generic" else n)


def _state_of(surface, victim):
    """Resolve a victim reference to a state on either surface type."""
    if isinstance(surface, CountSurface):
        return surface.sim.slot_state(victim)
    return surface.sim.states[victim]


class TestAdversaries:
    def test_registry_names(self):
        assert set(adversary_names()) == {
            "random",
            "leader",
            "max-rank",
            "clone",
            "clone-leader",
        }
        with pytest.raises(ValueError):
            make_adversary("nope")

    @pytest.mark.parametrize("name", adversary_names())
    @pytest.mark.parametrize("which", [0, 1], ids=["generic", "count"])
    def test_each_adversary_strikes_both_engines(self, name, which, rng):
        surface = _stable_ciw_pair(8)[which]
        struck = make_adversary(name).strike(surface, 3, rng)
        assert struck == 3
        assert surface.injected == 3

    def test_clone_leader_manufactures_rank_collision(self, rng):
        surface, _ = _stable_ciw_pair(8)
        adversary = Adversary("t", UniformVictims(), CloneCorruption("leader"))
        adversary.strike(surface, 3, rng)
        assert surface.sim.states.count(0) >= 3  # clones of the rank-1 state

    def test_strike_corrupts_exactly_k_distinct_agents(self):
        surface, _ = _stable_ciw_pair(8)
        victims = UniformVictims().select(surface, 3, make_rng(1, "strike"))
        assert len(set(victims)) == 3
        assert make_adversary("random").strike(surface, 3, make_rng(1, "strike")) == 3
        assert surface.injected == 3

    def test_strike_caps_at_population(self):
        surface, _ = _stable_ciw_pair(4)
        assert make_adversary("random").strike(surface, 99, make_rng(2, "strike")) == 4
        assert surface.injected == 4

    def test_strike_resynchronizes_monitors(self, rng):
        protocol = SilentNStateSSR(4)
        monitor = protocol.convergence_monitor()
        sim = Simulation(protocol, [0, 1, 2, 3], rng=rng, monitors=[monitor])
        assert monitor.correct
        surface = SimulationSurface(sim)
        adversary = make_adversary("random")
        strike_rng = make_rng(3, "strike")
        # Strike until the ranking actually breaks (some strikes may
        # happen to rewrite a state with its own value).
        for _ in range(50):
            adversary.strike(surface, 2, strike_rng)
            if not protocol.is_correct(sim.states):
                break
        assert monitor.correct == protocol.is_correct(sim.states) == surface.correct()

    def test_ranked_strikes_identical_across_engines(self):
        """Deterministic selectors: same seed -> same multiset, either engine.

        (Uniform selectors consume randomness engine-specifically, so
        only the distributions -- not individual strikes -- agree; that
        contract is covered by the KS test below.)
        """
        for name in ("leader", "max-rank"):
            generic, count = _stable_ciw_pair(8)
            make_adversary(name).strike(generic, 3, make_rng(5, name))
            make_adversary(name).strike(count, 3, make_rng(5, name))
            assert sorted(count.sim.expand_states()) == sorted(
                generic.sim.states
            ), name


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    both = sorted(set(a) | set(b))
    d = 0.0
    for x in both:
        fa = sum(1 for v in a if v <= x) / len(a)
        fb = sum(1 for v in b if v <= x) / len(b)
        d = max(d, abs(fa - fb))
    return d


class TestMeasureRecovery:
    def test_recovers_from_every_burst(self):
        protocol = OptimalSilentSSR(8)
        rng = make_rng(4, "recovery")
        report = measure_recovery(
            protocol,
            BurstProcess.periodic(period=50.0, agents=4, count=2),
            rng=rng,
            settle_time=50_000.0,
            max_recovery_time=50_000.0,
        )
        assert len(report.records) == 2
        assert all(record.recovered for record in report.records)
        assert [record.event.at for record in report.records] == [50.0, 100.0]
        assert report.worst_recovery > 0
        assert 0.0 < report.availability <= 1.0

    def test_unrecoverable_budget_reports_failure(self):
        protocol = SilentNStateSSR(8)
        report = measure_recovery(
            protocol,
            BurstProcess.periodic(period=1.0, agents=8, count=2),
            rng=make_rng(5, "recovery"),
            settle_time=100_000.0,
            max_recovery_time=0.5,  # absurdly small: recovery must fail
        )
        # The seed's full-population strike breaks the ranking, the
        # half-unit budget runs out, and the run stops at that strike.
        assert len(report.records) == 1
        record = report.records[0]
        assert record.broke_correctness
        assert not record.recovered
        assert math.isnan(record.recovery_time)
        assert math.isnan(report.worst_recovery)

    def test_settle_failure_raises(self):
        protocol = SilentNStateSSR(8)
        rng = make_rng(6, "recovery")
        with pytest.raises(RuntimeError):
            measure_recovery(
                protocol,
                BurstProcess.periodic(period=1.0, agents=1, count=1),
                rng=rng,
                initial_states=protocol.worst_case_configuration(),
                settle_time=0.5,  # cannot settle this fast
                max_recovery_time=10.0,
            )


class TestMeasureRecoveryEngines:
    def test_count_engine_rejects_ineligible_protocol(self, rng):
        with pytest.raises(ValueError):
            measure_recovery(
                SyncDictionarySSR(6),
                BurstProcess.periodic(period=8.0, agents=2, count=1),
                rng=rng,
                settle_time=100.0,
                max_recovery_time=100.0,
                engine="count",
            )

    def test_unknown_engine_rejected(self, rng):
        with pytest.raises(ValueError):
            measure_recovery(
                SilentNStateSSR(8),
                BurstProcess.periodic(period=8.0, agents=2, count=1),
                rng=rng,
                settle_time=10.0,
                max_recovery_time=10.0,
                engine="turbo",
            )

    @pytest.mark.parametrize("engine", ["generic", "count"])
    @pytest.mark.parametrize("adversary", adversary_names())
    def test_all_adversaries_recover_on_both_engines(self, engine, adversary):
        n = 16
        report = measure_recovery(
            SilentNStateSSR(n),
            BurstProcess.periodic(period=4.0 * n, agents=3, count=2),
            rng=make_rng(11, engine, adversary),
            initial_states=list(range(n)),
            settle_time=10.0,
            max_recovery_time=200.0 * n,
            engine=engine,
            adversary=adversary,
        )
        assert len(report.records) == 2
        assert all(record.recovered for record in report.records)
        assert all(record.injected == 3 for record in report.records)
        assert 0.0 < report.availability <= 1.0

    def test_poisson_process_drives_recovery(self):
        n = 12
        report = measure_recovery(
            SilentNStateSSR(n),
            PoissonProcess(0.1, agents=2, horizon=60.0),
            rng=make_rng(17, "poisson"),
            initial_states=list(range(n)),
            settle_time=10.0,
            max_recovery_time=200.0 * n,
        )
        assert report.records
        assert all(record.recovered for record in report.records)

    def test_fractional_availability_probe(self, rng):
        n = 12
        report = measure_recovery(
            SilentNStateSSR(n),
            BurstProcess.periodic(period=5.0, agents=n, count=1),
            rng=rng,
            initial_states=list(range(n)),
            settle_time=10.0,
            max_recovery_time=200.0 * n,
            engine="generic",
        )
        assert 0.0 < report.availability < 1.0
        assert report.total_time > 0

    @pytest.mark.slow
    def test_count_and_generic_recovery_distributions_agree(self):
        """KS test: same schedule, same adversary, both engines at n=64.

        The engines consume randomness differently, so individual runs
        differ; the *distributions* of recovery times must not.
        """
        n, trials = 64, 20
        schedule = BurstProcess.periodic(period=6.0 * n, agents=n // 4, count=2)

        def recoveries(engine):
            times = []
            for trial in range(trials):
                report = measure_recovery(
                    SilentNStateSSR(n),
                    schedule,
                    rng=make_rng(23, "ks", engine, trial),
                    initial_states=list(range(n)),
                    settle_time=10.0,
                    max_recovery_time=500.0 * n,
                    engine=engine,
                )
                times.extend(r.recovery_time for r in report.records)
                assert all(r.recovered for r in report.records)
            return times

        generic = recoveries("generic")
        count = recoveries("count")
        d = _ks_statistic(generic, count)
        m = len(generic)
        # alpha = 0.001 critical value for the two-sample KS test.
        critical = 1.949 * math.sqrt(2 / m)
        assert d < critical, f"KS statistic {d:.3f} >= {critical:.3f}"

    @pytest.mark.slow
    def test_optimal_silent_four_burst_recovery_wall_clock(self):
        """The acceptance workload, at the n the Python engine sustains.

        Four bursts against Optimal-Silent-SSR on the count engine;
        recovery is Theta(n^2) simulated events per reset, which caps
        the in-suite population at n=256 (see docs/robustness.md for
        measured scaling and the offline benchmark at larger n).
        """
        import time

        n = 256
        protocol = OptimalSilentSSR(n)
        started = time.monotonic()
        report = measure_recovery(
            protocol,
            BurstProcess.periodic(period=2.0 * n, agents=n // 8, count=4),
            rng=make_rng(31, "wall"),
            initial_states=protocol.ranked_configuration(),
            settle_time=10.0,
            max_recovery_time=50.0 * n,
            engine="count",
        )
        elapsed = time.monotonic() - started
        assert len(report.records) == 4
        assert all(record.recovered for record in report.records)
        assert elapsed < 60.0, f"4-burst recovery took {elapsed:.1f}s"
