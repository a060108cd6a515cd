"""Tests for repro.core.chaos and the engine-parity recovery contract.

Covers the fault streams and the named adversaries, the fault side
of the contract both the generic and the count engine keep, and
:func:`repro.core.chaos.measure_recovery`: its
recovery accounting, and the cross-engine contract of identical
semantics and statistically indistinguishable recovery-time
distributions.
"""

import math
import random

import pytest

from repro.core.chaos import (
    FaultEvent,
    adversary_names,
    measure_recovery,
    periodic_events,
    poisson_events,
    strike,
)
from repro.core.countsim import CountSimulation
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.experiments.chaos import _chaos_trial
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
        """A scripted burst list must be in time order."""
        n = 4
        with pytest.raises(ValueError, match="ordered by time"):
            measure_recovery(
                SilentNStateSSR(n),
                [FaultEvent(1.0, 1), FaultEvent(3.0, 1), FaultEvent(2.0, 1)],
                rng=make_rng(8, "order"),
                initial_states=list(range(n)),
                settle_time=10.0,
                max_recovery_time=200.0 * n,
            )

    def test_burst_process_keeps_ties_in_order(self):
        n = 4
        events = [FaultEvent(1.0, 1), FaultEvent(1.0, 2), FaultEvent(2.0, 1)]
        report = measure_recovery(
            SilentNStateSSR(n),
            events,
            rng=make_rng(8, "ties"),
            initial_states=list(range(n)),
            settle_time=10.0,
            max_recovery_time=200.0 * n,
        )
        assert [record.event for record in report.records] == events

    def test_periodic_factory(self):
        events = periodic_events(3.0, 2, 3)
        assert [e.at for e in events] == [3.0, 6.0, 9.0]
        assert all(e.agents == 2 for e in events)

    def test_periodic_rejects_nonpositive_period(self):
        with pytest.raises(ValueError):
            periodic_events(0, 1, 1)
        with pytest.raises(ValueError):
            periodic_events(-2.0, 1, 1)

    def test_periodic_validates_each_event(self):
        with pytest.raises(ValueError):
            periodic_events(1.0, 0, 2)

    def test_poisson_is_seed_reproducible_and_bounded(self):
        first = list(poisson_events(0.5, agents=3, horizon=40.0, rng=random.Random(7)))
        second = list(poisson_events(0.5, agents=3, horizon=40.0, rng=random.Random(7)))
        assert first == second
        assert first  # rate * horizon = 20 expected events
        times = [e.at for e in first]
        assert times == sorted(times)
        assert all(0 < t < 40.0 for t in times)
        assert all(e.agents == 3 for e in first)

    def test_poisson_draws_lazily(self):
        rng = random.Random(7)
        events = poisson_events(0.5, horizon=40.0, rng=rng)
        assert rng.random() == random.Random(7).random()  # nothing drawn yet
        next(events)

    def test_poisson_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            poisson_events(0.0, horizon=1.0, rng=rng)
        with pytest.raises(ValueError):
            poisson_events(1.0, horizon=0.0, rng=rng)
        with pytest.raises(ValueError):
            poisson_events(1.0, agents=0, horizon=1.0, rng=rng)


def _stable_ciw_pair(n):
    """A stabilized CIW population on both engines (states 0..n-1)."""
    states = list(range(n))
    sim = Simulation(SilentNStateSSR(n), states, rng=random.Random(1))
    count = CountSimulation(SilentNStateSSR(n), states, rng=random.Random(1))
    return sim, count


class TestFaultSurfaces:
    """The fault-injection half of the engine contract, on both engines."""

    @pytest.mark.parametrize("which", [0, 1], ids=["generic", "count"])
    def test_sample_victims_counts(self, which, rng):
        engine = _stable_ciw_pair(8)[which]
        victims = engine.sample_victims(3, rng)
        assert len(victims) == 3
        assert len(engine.sample_victims(99, rng)) == 8  # capped at n

    def test_count_engine_rejects_more_victims_than_agents(self, rng):
        """Asked for more agents than exist, the engine raises as
        ``rng.sample`` does; asked for all n, it takes every agent."""
        sim = _stable_ciw_pair(8)[1]
        with pytest.raises(ValueError, match="9 victims from 8 agents"):
            sim.sample_victim_slots(9, rng)
        assert sorted(sim.sample_victim_slots(8, rng)) == sorted(
            slot for slot, count in sim.occupied_slots() for _ in range(count)
        )

    @pytest.mark.parametrize("which", [0, 1], ids=["generic", "count"])
    def test_ranked_victims_target_leadership(self, which, rng):
        engine = _stable_ciw_pair(8)[which]
        low = engine.ranked_victims(2, highest=False)
        high = engine.ranked_victims(2, highest=True)
        # CIW rank(state) == state + 1, so leadership = states {0, 1},
        # max rank = states {7, 6} -- on either victim representation.
        rank_of = engine.protocol.rank_of
        assert sorted(rank_of(_state_of(engine, v)) for v in low) == [1, 2]
        assert sorted(rank_of(_state_of(engine, v)) for v in high) == [7, 8]

    @pytest.mark.parametrize("which", [0, 1], ids=["generic", "count"])
    def test_sample_live_state_leader(self, which, rng):
        engine = _stable_ciw_pair(8)[which]
        state = engine.sample_live_state(rng, leader=True)
        assert engine.protocol.rank_of(state) == 1

    def test_generic_overwrite_resyncs_monitors(self, rng):
        protocol = SilentNStateSSR(6)
        monitor = protocol.convergence_monitor()
        sim = Simulation(protocol, list(range(6)), rng=rng, monitors=[monitor])
        sim.run(1)
        assert monitor.correct
        sim.corrupt([0], [1])  # duplicate rank 2
        assert sim.states == [1, 1, 2, 3, 4, 5]  # exactly one agent overwritten
        assert not monitor.correct

    def test_count_overwrite_updates_multiset(self, rng):
        _, sim = _stable_ciw_pair(6)
        victims = sim.ranked_victims(1, highest=False)  # the leader slot
        sim.corrupt(victims, [3])
        assert sorted(sim.expand_states()) == [1, 2, 3, 3, 4, 5]
        assert not sim.correct

    def test_count_ranked_victims_expand_multiplicity(self, rng):
        # Three agents share state 2 -> the slot is returned three times.
        states = [2, 2, 2, 0, 1, 5]
        sim = CountSimulation(SilentNStateSSR(6), states, rng=random.Random(2))
        high = sim.ranked_victims(3, highest=True)
        assert [sim.slot_state(v) for v in high] == [5, 2, 2]

    @pytest.mark.parametrize("engine", ["generic", "count"])
    def test_advance_on_silent_correct_configuration(self, engine):
        """Silent dwell: the count engine skips it on its tick clock.

        Both engines advance ``ticks`` by exactly the requested
        interactions; only the generic engine actually simulates them.
        The count engine (in the active mode ``measure_recovery`` uses)
        returns at once from a provably silent configuration and
        credits the skipped null interactions to ``ticks`` alone.
        """
        n = 8
        protocol = SilentNStateSSR(n)
        if engine == "generic":
            sim = Simulation(protocol, list(range(n)), rng=random.Random(3))
        else:
            sim = CountSimulation(
                protocol, list(range(n)), rng=random.Random(3), mode="active"
            )
        assert sim.correct and sim.stabilized
        sim.advance(10 * n)
        sim.advance(5 * n)
        assert sim.ticks == 15 * n
        assert sim.interactions == (15 * n if engine == "generic" else 0)
        assert sim.correct and sim.stabilized
        # A strike ends the dwell: the count engine simulates again.
        sim.corrupt(sim.ranked_victims(1, highest=False), [3])
        assert not sim.correct and not sim.stabilized
        sim.advance(n)
        assert sim.ticks == 16 * n
        assert sim.interactions == (16 * n if engine == "generic" else n)
        assert sim.parallel_time == sim.interactions / n  # skipped dwell stays out


def _state_of(engine, victim):
    """Resolve a victim reference to a state on either engine."""
    if isinstance(engine, CountSimulation):
        return engine.slot_state(victim)
    return engine.states[victim]


class TestAdversaries:
    def test_registry_names(self):
        assert set(adversary_names()) == {
            "random",
            "leader",
            "max-rank",
            "clone",
            "clone-leader",
        }
        with pytest.raises(ValueError, match="unknown adversary 'nope'"):
            strike(_stable_ciw_pair(4)[0], "nope", 1, random.Random(0))

    @pytest.mark.parametrize("name", adversary_names())
    @pytest.mark.parametrize("which", [0, 1], ids=["generic", "count"])
    def test_each_adversary_strikes_both_engines(self, name, which, rng):
        engine = _stable_ciw_pair(8)[which]
        assert strike(engine, name, 3, rng) == 3

    def test_clone_leader_manufactures_rank_collision(self, rng):
        sim, _ = _stable_ciw_pair(8)
        assert strike(sim, "clone-leader", 3, rng) == 3
        assert sim.states.count(0) >= 3  # clones of the rank-1 state

    def test_strike_corrupts_exactly_k_distinct_agents(self):
        sim, _ = _stable_ciw_pair(8)
        victims = sim.sample_victims(3, make_rng(1, "strike"))
        assert len(set(victims)) == 3
        assert strike(sim, "random", 3, make_rng(1, "strike")) == 3

    def test_strike_caps_at_population(self):
        sim, _ = _stable_ciw_pair(4)
        assert strike(sim, "random", 99, make_rng(2, "strike")) == 4

    def test_strike_resynchronizes_monitors(self, rng):
        protocol = SilentNStateSSR(4)
        monitor = protocol.convergence_monitor()
        sim = Simulation(protocol, [0, 1, 2, 3], rng=rng, monitors=[monitor])
        assert monitor.correct
        strike_rng = make_rng(3, "strike")
        # Strike until the ranking actually breaks (some strikes may
        # happen to rewrite a state with its own value).
        for _ in range(50):
            assert strike(sim, "random", 2, strike_rng) == 2
            if not protocol.is_correct(sim.states):
                break
        assert monitor.correct == protocol.is_correct(sim.states) == sim.correct

    def test_ranked_strikes_identical_across_engines(self):
        """Deterministic selectors: same seed -> same multiset, either engine.

        (Uniform selectors consume randomness engine-specifically, so
        only the distributions -- not individual strikes -- agree; that
        contract is covered by the KS test below.)
        """
        for name in ("leader", "max-rank"):
            generic, count = _stable_ciw_pair(8)
            assert strike(generic, name, 3, make_rng(5, name)) == 3
            assert strike(count, name, 3, make_rng(5, name)) == 3
            assert sorted(count.expand_states()) == sorted(generic.states), name


#: ``(availability, [(at, agents, broke_correctness, recovered,
#: recovery_time, injected), ...])`` of one small chaos trial per
#: (protocol, adversary, engine, Poisson rate), n=8: two agents per
#: strike, three strikes 64 parallel time apart (or a Poisson stream
#: at rate 0.05 over the same horizon), a recovery budget of 400.
_PINNED_RECOVERIES = {
    ("ciw", "random", "generic", None): (0.9226804123711341, [
        (64.0, 2, True, True, 15.0, 2),
        (128.0, 2, False, True, 0.0, 2),
        (192.0, 2, True, True, 2.0, 2),
    ]),
    ("ciw", "random", "count", None): (0.7085427135678392, [
        (64.0, 2, True, True, 32.0, 2),
        (128.0, 2, True, True, 22.0, 2),
        (192.0, 2, True, True, 7.0, 2),
    ]),
    ("ciw", "leader", "generic", None): (0.7581395348837209, [
        (64.0, 2, True, True, 14.0, 2),
        (128.0, 2, True, True, 18.0, 2),
        (192.0, 2, True, True, 23.0, 2),
    ]),
    ("ciw", "leader", "count", None): (0.6811594202898551, [
        (64.0, 2, True, True, 26.0, 2),
        (128.0, 2, True, True, 28.0, 2),
        (192.0, 2, True, True, 15.0, 2),
    ]),
    ("ciw", "max-rank", "generic", None): (0.821256038647343, [
        (64.0, 2, True, True, 9.0, 2),
        (128.0, 2, True, True, 16.0, 2),
        (192.0, 2, True, True, 15.0, 2),
    ]),
    ("ciw", "max-rank", "count", None): (0.771689497716895, [
        (64.0, 2, True, True, 21.0, 2),
        (128.0, 2, True, True, 5.0, 2),
        (192.0, 2, True, True, 27.0, 2),
    ]),
    ("ciw", "clone", "generic", None): (0.8045454545454546, [
        (64.0, 2, True, True, 9.0, 2),
        (128.0, 2, True, True, 9.0, 2),
        (192.0, 2, True, True, 28.0, 2),
    ]),
    ("ciw", "clone", "count", None): (0.5208333333333334, [
        (64.0, 2, True, True, 26.0, 2),
        (128.0, 2, True, True, 44.0, 2),
        (192.0, 2, True, True, 48.0, 2),
    ]),
    ("ciw", "clone-leader", "generic", None): (0.6334841628959276, [
        (64.0, 2, True, True, 17.0, 2),
        (128.0, 2, True, True, 38.0, 2),
        (192.0, 2, True, True, 29.0, 2),
    ]),
    ("ciw", "clone-leader", "count", None): (0.7621359223300971, [
        (64.0, 2, True, True, 20.0, 2),
        (128.0, 2, True, True, 18.0, 2),
        (192.0, 2, True, True, 14.0, 2),
    ]),
    ("optimal-silent", "random", "generic", None): (0.5752212389380531, [
        (64.0, 2, True, True, 28.0, 2),
        (128.0, 2, True, True, 37.0, 2),
        (192.0, 2, True, True, 34.0, 2),
    ]),
    ("optimal-silent", "random", "count", None): (0.6205357142857143, [
        (64.0, 2, True, True, 31.0, 2),
        (128.0, 2, True, True, 25.0, 2),
        (192.0, 2, True, True, 32.0, 2),
    ]),
    ("optimal-silent", "leader", "generic", None): (0.43612334801762115, [
        (64.0, 2, True, True, 60.0, 2),
        (128.0, 2, True, True, 36.0, 2),
        (192.0, 2, True, True, 35.0, 2),
    ]),
    ("optimal-silent", "leader", "count", None): (0.5909090909090909, [
        (64.0, 2, True, True, 33.0, 2),
        (128.0, 2, True, True, 32.0, 2),
        (192.0, 2, True, True, 28.0, 2),
    ]),
    ("optimal-silent", "max-rank", "generic", None): (0.4392523364485981, [
        (64.0, 2, True, True, 61.0, 2),
        (128.0, 2, True, True, 40.0, 2),
        (192.0, 2, True, True, 22.0, 2),
    ]),
    ("optimal-silent", "max-rank", "count", None): (0.45739910313901344, [
        (64.0, 2, True, True, 29.0, 2),
        (128.0, 2, True, True, 70.0, 2),
        (192.0, 2, True, True, 25.0, 2),
    ]),
    ("optimal-silent", "clone", "generic", None): (0.6143497757847534, [
        (64.0, 2, True, True, 31.0, 2),
        (128.0, 2, True, True, 27.0, 2),
        (192.0, 2, True, True, 31.0, 2),
    ]),
    ("optimal-silent", "clone", "count", None): (0.5720720720720721, [
        (64.0, 2, True, True, 29.0, 2),
        (128.0, 2, True, True, 39.0, 2),
        (192.0, 2, True, True, 30.0, 2),
    ]),
    ("optimal-silent", "clone-leader", "generic", None): (0.6008771929824561, [
        (64.0, 2, True, True, 31.0, 2),
        (128.0, 2, True, True, 27.0, 2),
        (192.0, 2, True, True, 36.0, 2),
    ]),
    ("optimal-silent", "clone-leader", "count", None): (0.5796460176991151, [
        (64.0, 2, True, True, 35.0, 2),
        (128.0, 2, True, True, 29.0, 2),
        (192.0, 2, True, True, 34.0, 2),
    ]),
    ("ciw", "random", "generic", 0.05): (0.3137797454344217, [
        (1.7111041458877547, 2, True, True, 32.0, 2),
        (24.963073817581257, 2, True, True, 4.0, 2),
        (97.63553038871088, 2, True, True, 37.0, 2),
        (113.21991366919663, 2, True, True, 25.0, 2),
        (116.41016070394821, 2, True, True, 20.0, 2),
        (169.04950326249337, 2, True, True, 4.0, 2),
        (183.90312155902708, 2, True, True, 17.0, 2),
        (185.18163149422364, 2, True, True, 19.0, 2),
        (188.24874422850792, 2, True, True, 6.0, 2),
    ]),
    ("ciw", "random", "count", 0.05): (0.1323132313231323, [
        (12.300382104016938, 2, True, True, 17.0, 2),
        (21.507484537101362, 2, True, True, 8.0, 2),
        (46.78053584091391, 2, True, True, 25.0, 2),
        (48.37342511835476, 2, True, True, 32.0, 2),
        (56.85742377337309, 2, True, True, 7.0, 2),
        (59.35402938524681, 2, True, True, 24.0, 2),
        (62.05429769154281, 2, False, True, 0.0, 2),
        (76.81683718428397, 2, True, True, 9.0, 2),
        (80.05221200175676, 2, True, True, 6.0, 2),
        (98.19778688448312, 2, True, True, 27.0, 2),
        (100.30180281859336, 2, True, True, 11.0, 2),
        (124.01499289093636, 2, True, True, 6.0, 2),
        (141.7606539737216, 2, True, True, 4.0, 2),
        (144.58947684081173, 2, True, True, 36.0, 2),
        (163.9711017264251, 2, True, True, 18.0, 2),
        (170.80417212262472, 2, True, True, 26.0, 2),
    ]),
}


class TestPinnedRecoveries:
    """Per-seed outcomes of ``measure_recovery`` for every named adversary.

    The chaos goldens pin the default ``random`` adversary only, and
    through sweep aggregates; these pin every field of every
    :class:`~repro.core.chaos.RecoveryRecord` and the availability, on
    both engines, through the chaos sweep's own trial function.
    """

    @pytest.mark.parametrize(
        "case", list(_PINNED_RECOVERIES), ids=lambda case: "-".join(map(str, case))
    )
    def test_every_field_is_pinned(self, case):
        protocol, adversary, engine, rate = case
        report = _chaos_trial(
            protocol, 8, adversary, 2, 64.0, 3, rate, engine, 400.0,
            make_rng(38, "pin", protocol, adversary, engine, str(rate)),
        )
        availability, records = _PINNED_RECOVERIES[case]
        assert [
            (
                r.event.at,
                r.event.agents,
                r.broke_correctness,
                r.recovered,
                r.recovery_time,
                r.injected,
            )
            for r in report.records
        ] == records
        assert report.availability == availability


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
            periodic_events(50.0, 4, 2),
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
            periodic_events(1.0, 8, 2),
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
                periodic_events(1.0, 1, 1),
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
                periodic_events(8.0, 2, 1),
                rng=rng,
                settle_time=100.0,
                max_recovery_time=100.0,
                engine="count",
            )

    def test_unknown_engine_rejected(self, rng):
        with pytest.raises(ValueError):
            measure_recovery(
                SilentNStateSSR(8),
                periodic_events(8.0, 2, 1),
                rng=rng,
                settle_time=10.0,
                max_recovery_time=10.0,
                engine="turbo",
            )

    def test_unknown_adversary_rejected_before_running(self, rng):
        with pytest.raises(ValueError, match="unknown adversary"):
            measure_recovery(
                SilentNStateSSR(8),
                periodic_events(8.0, 2, 1),
                rng=rng,
                settle_time=0.5,  # would raise RuntimeError had it run
                max_recovery_time=10.0,
                adversary="nope",
            )

    @pytest.mark.parametrize("engine", ["generic", "count"])
    @pytest.mark.parametrize("adversary", adversary_names())
    def test_all_adversaries_recover_on_both_engines(self, engine, adversary):
        n = 16
        report = measure_recovery(
            SilentNStateSSR(n),
            periodic_events(4.0 * n, 3, 2),
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
        rng = make_rng(17, "poisson")
        report = measure_recovery(
            SilentNStateSSR(n),
            poisson_events(0.1, agents=2, horizon=60.0, rng=rng),
            rng=rng,
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
            periodic_events(5.0, n, 1),
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
        schedule = periodic_events(6.0 * n, n // 4, 2)

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
            periodic_events(2.0 * n, n // 8, 4),
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
