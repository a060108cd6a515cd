"""Tests for repro.core.adversary."""

import pytest

from repro.core.adversary import (
    adversarial_battery,
    corrupted_configuration,
    identical_configuration,
)
from repro.core.countsim import CountSimulation, count_engine_eligible
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.sublinear.protocol import SublinearTimeSSR
from repro.protocols.sync_dictionary import SyncDictionarySSR


class TestGenericConstructions:
    def test_identical_configuration_clones_independent(self, rng):
        protocol = OptimalSilentSSR(5)
        states = identical_configuration(protocol, rng)
        assert len(states) == 5
        assert len({id(s) for s in states}) == 5  # no aliasing
        summaries = {protocol.summarize(s) for s in states}
        assert len(summaries) == 1

    def test_corrupted_configuration_changes_at_most_k(self, rng):
        protocol = SilentNStateSSR(10)
        base = list(range(10))
        corrupted = corrupted_configuration(protocol, base, rng, corruptions=3)
        assert len(corrupted) == 10
        changed = sum(1 for a, b in zip(base, corrupted) if a != b)
        assert changed <= 3
        assert base == list(range(10))  # base untouched

    def test_corruptions_capped_at_n(self, rng):
        protocol = SilentNStateSSR(4)
        corrupted = corrupted_configuration(protocol, [0, 1, 2, 3], rng, corruptions=99)
        assert len(corrupted) == 4


class TestBattery:
    @pytest.mark.parametrize(
        "protocol_factory",
        [
            lambda: SilentNStateSSR(8),
            lambda: OptimalSilentSSR(8),
            lambda: SublinearTimeSSR(6, h=1),
            lambda: SyncDictionarySSR(6),
        ],
    )
    def test_all_entries_have_full_population(self, protocol_factory, rng):
        protocol = protocol_factory()
        battery = adversarial_battery(protocol, rng)
        assert {"clean", "identical", "random-0"} <= set(battery)
        for label, states in battery.items():
            assert len(states) == protocol.n, label

    def test_ciw_battery_has_worst_case(self, rng):
        battery = adversarial_battery(SilentNStateSSR(8), rng)
        assert battery["worst-case"] == [0] + list(range(7))

    def test_optimal_silent_traps_present(self, rng):
        battery = adversarial_battery(OptimalSilentSSR(8), rng)
        for label in ("duplicate-rank", "already-ranked", "starving-unsettled",
                      "all-dormant-leaders", "one-unsettled"):
            assert label in battery

    def test_sublinear_traps_present(self, rng):
        protocol = SublinearTimeSSR(6, h=1)
        battery = adversarial_battery(protocol, rng)
        for label in ("ghost-name", "name-collision", "already-ranked", "all-dormant"):
            assert label in battery
        # ghost-name: every roster contains a name no agent holds.
        ghosts = set.union(*(set(s.roster) for s in battery["ghost-name"]))
        names = {s.name for s in battery["ghost-name"]}
        assert ghosts - names

    def test_name_collision_trap_actually_collides(self, rng):
        protocol = SublinearTimeSSR(6, h=1)
        battery = adversarial_battery(protocol, rng)
        names = [s.name for s in battery["name-collision"]]
        assert len(set(names)) == len(names) - 1

    def test_already_ranked_is_correct(self, rng):
        protocol = SublinearTimeSSR(6, h=1)
        battery = adversarial_battery(protocol, rng)
        assert protocol.is_correct(battery["already-ranked"])


_TRAP_FACTORIES = [SilentNStateSSR, OptimalSilentSSR]


class TestTrapsStabilizeOnBothEngines:
    """Every battery trap stabilizes at small n on *both* engines.

    The battery is the static lint's input; here it doubles as a dynamic
    stress suite: from each trap the protocol must reach (and the count
    engine must certify) a correct silent configuration.
    """

    @pytest.mark.parametrize("factory", _TRAP_FACTORIES, ids=["ciw", "optimal"])
    def test_generic_engine(self, factory, rng):
        protocol = factory(8)
        battery = adversarial_battery(protocol, rng)
        for label, states in battery.items():
            sim = Simulation(
                protocol,
                [protocol.clone_state(state) for state in states],
                rng=make_rng(3, "trap", label),
            )
            assert sim.run_until_stable(800_000, 0), (
                f"{label}: not correct after {sim.interactions}"
            )

    @pytest.mark.parametrize("factory", _TRAP_FACTORIES, ids=["ciw", "optimal"])
    def test_count_engine(self, factory, rng):
        protocol = factory(8)
        assert count_engine_eligible(protocol)
        battery = adversarial_battery(protocol, rng)
        for label, states in battery.items():
            sim = CountSimulation(
                factory(8),
                [protocol.clone_state(state) for state in states],
                rng=make_rng(4, "trap", label),
            )
            for _ in range(40):
                if sim.correct and sim.silent:
                    break
                sim.run(20_000)
            assert sim.correct and sim.silent, (
                f"{label}: not stable after {sim.interactions}"
            )
