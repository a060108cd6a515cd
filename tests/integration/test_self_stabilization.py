"""The self-stabilization battery: the paper's headline property.

Every protocol must reach a stably correct ranking from *every*
configuration.  These integration tests drive each protocol from the
full adversarial battery (clean start, cloned states, uniform random
states, and the per-protocol hand-crafted traps) at small population
sizes, and additionally verify stability: once correct, the
configuration stays correct for a long tail of extra interactions.
"""

import math

import pytest

from repro.core.adversary import adversarial_battery
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.experiments.common import measure_convergence
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.direct_collision import DirectCollisionSSR
from repro.protocols.leader import has_unique_leader
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.sublinear.protocol import SublinearTimeSSR
from repro.protocols.sync_dictionary import SyncDictionarySSR

PROTOCOLS = {
    "ciw": lambda: SilentNStateSSR(8),
    "optimal-silent": lambda: OptimalSilentSSR(8),
    "direct-collision": lambda: DirectCollisionSSR(6),
    "sublinear-h0": lambda: SublinearTimeSSR(6, h=0),
    "sublinear-h1": lambda: SublinearTimeSSR(6, h=1),
    "sublinear-h2": lambda: SublinearTimeSSR(6, h=2),
    "sublinear-coin": lambda: SublinearTimeSSR(6, h=1, deterministic_names=True),
    "sync-dict": lambda: SyncDictionarySSR(6),
}


def battery_cases():
    for protocol_name, factory in PROTOCOLS.items():
        protocol = factory()
        labels = adversarial_battery(protocol, make_rng(0, "labels", protocol_name))
        for label in labels:
            yield pytest.param(protocol_name, label, id=f"{protocol_name}-{label}")


@pytest.mark.slow
@pytest.mark.parametrize("protocol_name,label", battery_cases())
def test_stabilizes_from_adversarial_configuration(protocol_name, label):
    factory = PROTOCOLS[protocol_name]
    protocol = factory()
    rng = make_rng(1, "battery", protocol_name, label)
    battery = adversarial_battery(protocol, make_rng(0, "labels", protocol_name))
    outcome = measure_convergence(
        protocol,
        battery[label],
        rng=rng,
        max_time=40_000.0,
        confirm_time=30.0 + 6.0 * math.log(protocol.n),
    )
    assert outcome.converged, f"{protocol_name} failed from {label!r}"


@pytest.mark.slow
@pytest.mark.parametrize(
    "protocol_name", ["ciw", "optimal-silent", "sublinear-h0", "direct-collision"]
)
def test_silent_protocols_actually_fall_silent(protocol_name):
    protocol = PROTOCOLS[protocol_name]()
    assert protocol.silent
    rng = make_rng(2, "silence", protocol_name)
    outcome = measure_convergence(
        protocol,
        protocol.random_configuration(rng),
        rng=rng,
        max_time=60_000.0,
    )
    assert outcome.converged
    assert outcome.silent_certified


@pytest.mark.slow
@pytest.mark.parametrize("protocol_name", list(PROTOCOLS))
def test_correctness_is_stable_once_reached(protocol_name):
    """After stabilization, the ranking (and the leader) never changes."""
    protocol = PROTOCOLS[protocol_name]()
    rng = make_rng(3, "stable", protocol_name)
    sim = Simulation(protocol, protocol.random_configuration(rng), rng=rng)
    assert sim.run_until_stable(60_000 * protocol.n, 0)
    regressions_at_convergence = sim.regressions
    streak_start = sim.streak_start
    ranks = sorted(protocol.rank_of(s) for s in sim.states)
    assert ranks == list(range(1, protocol.n + 1))
    sim.run(3_000 * protocol.n)
    assert sim.correct
    assert sim.regressions == regressions_at_convergence
    assert sim.streak_start == streak_start
    assert has_unique_leader(protocol, sim.states)


@pytest.mark.slow
def test_sublinear_survives_repeated_fault_injection():
    """Corrupt a stabilized population repeatedly; it re-stabilizes."""
    from repro.core.adversary import corrupted_configuration

    protocol = SublinearTimeSSR(6, h=1)
    rng = make_rng(4, "faults")
    states = protocol.unique_names_configuration(rng)
    for round_index in range(3):
        outcome = measure_convergence(
            protocol, states, rng=rng, max_time=40_000.0
        )
        assert outcome.converged, f"round {round_index}"
        # Re-run to get the stabilized states (measure_convergence does
        # not return them), then corrupt a third of the population.
        sim = Simulation(protocol, states, rng=rng)
        assert sim.run_until_stable(10**8, 0)
        states = corrupted_configuration(protocol, sim.states, rng, corruptions=2)
