"""Tests for the runtime invariant checkers.

The main payoff: run every protocol from clean *and* adversarial starts
with a strict InvariantMonitor attached and assert the protocol's own
writes never leave the declared state space.
"""

import pytest

from repro.core.invariants import (
    InvariantMonitor,
    InvariantViolation,
    check_configuration,
    check_schema,
    invariant_for,
)
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentAgent, OptimalSilentSSR, Role
from repro.protocols.parameters import calibrated_reset_log_delay
from repro.protocols.propagate_reset import ResetTimingProtocol
from repro.protocols.sublinear.history_tree import HistoryTree
from repro.protocols.sublinear.protocol import (
    SubRole,
    SublinearAgent,
    SublinearTimeSSR,
)
from repro.protocols.sync_dictionary import SyncDictionarySSR


class TestCheckers:
    def test_resolution(self):
        # Resolution is schema-driven: every registered protocol gets the
        # generic schema-validating checker, and subclasses resolve via
        # the registry's MRO walk.
        assert invariant_for(SilentNStateSSR(4)).__name__ == "check_schema"
        assert invariant_for(OptimalSilentSSR(4)).__name__ == "check_schema"
        assert invariant_for(SublinearTimeSSR(4, h=1)).__name__ == "check_schema"
        with pytest.raises(KeyError):

            class Foreign(SilentNStateSSR):
                pass

            # Subclass still resolves (isinstance); a truly foreign type fails.
            from repro.core.protocol import PopulationProtocol

            class Alien(PopulationProtocol):
                def transition(self, a, b, rng):
                    return a, b

                def initial_state(self, rng):
                    return 0

                def random_state(self, rng):
                    return 0

                def is_correct(self, states):
                    return True

                def summarize(self, state):
                    return state

            invariant_for(Alien(2))

    def test_optimal_silent_flags_leaked_fields(self):
        protocol = OptimalSilentSSR(6)
        bad = OptimalSilentAgent(role=Role.UNSETTLED, errorcount=5, rank=3)
        problems = check_schema(protocol, bad)
        assert any("leaked" in p for p in problems)

    def test_optimal_silent_flags_out_of_range_rank(self):
        protocol = OptimalSilentSSR(6)
        bad = OptimalSilentAgent(role=Role.SETTLED, rank=7)
        assert check_schema(protocol, bad)

    def test_sublinear_flags_deep_tree(self):
        protocol = SublinearTimeSSR(4, h=1)
        tree = HistoryTree.singleton("0" * 6)
        child = HistoryTree.singleton("1" * 6)
        grandchild = HistoryTree.singleton("10" * 3)
        child.graft(grandchild, sync=1, expires=1)
        tree.graft(child, sync=1, expires=1)
        bad = SublinearAgent(
            role=SubRole.COLLECTING,
            name="0" * 6,
            roster=frozenset(("0" * 6,)),
            tree=tree,
        )
        problems = check_schema(protocol, bad)
        assert any("depth" in p for p in problems)

    def test_sublinear_flags_mismatched_root(self):
        protocol = SublinearTimeSSR(4, h=1)
        bad = SublinearAgent(
            role=SubRole.COLLECTING,
            name="0" * 6,
            roster=frozenset(("0" * 6,)),
            tree=HistoryTree.singleton("1" * 6),
        )
        assert any("root" in p for p in check_schema(protocol, bad))

    def test_check_configuration_prefixes_agent_index(self):
        protocol = SilentNStateSSR(3)
        problems = check_configuration(protocol, [0, 99, 1])
        assert problems == ["agent 1: rank 99 outside 0..2"]


class TestInvariantMonitor:
    def test_strict_monitor_raises(self, rng):
        protocol = SilentNStateSSR(3)

        class Broken(SilentNStateSSR):
            def transition(self, a, b, rng):
                return a, 99  # out of domain

        broken = Broken(3)
        monitor = InvariantMonitor(broken)
        sim = Simulation(broken, [0, 1, 2], rng=rng, monitors=[monitor])
        with pytest.raises(InvariantViolation):
            sim.run(10)

    def test_lenient_monitor_collects(self, rng):
        class Broken(SilentNStateSSR):
            def transition(self, a, b, rng):
                return a, 99

        broken = Broken(3)
        monitor = InvariantMonitor(broken, strict=False)
        sim = Simulation(broken, [0, 1, 2], rng=rng, monitors=[monitor])
        sim.run(5)
        assert len(monitor.violations) >= 5

    def test_adversarial_start_not_flagged(self, rng):
        # Initial garbage is allowed; only the protocol's writes count.
        protocol = OptimalSilentSSR(6)
        bad_start = [
            OptimalSilentAgent(role=Role.UNSETTLED, errorcount=5, rank=3)
            for _ in range(6)
        ]
        monitor = InvariantMonitor(protocol)
        Simulation(protocol, bad_start, rng=rng, monitors=[monitor])  # on_start only


PROTOCOLS = [
    ("ciw", lambda: SilentNStateSSR(8), 4000),
    ("optimal-silent", lambda: OptimalSilentSSR(8), 30_000),
    ("sublinear-h0", lambda: SublinearTimeSSR(6, h=0), 20_000),
    ("sublinear-h1", lambda: SublinearTimeSSR(6, h=1), 20_000),
    ("sublinear-h2", lambda: SublinearTimeSSR(6, h=2), 12_000),
    ("sync-dict", lambda: SyncDictionarySSR(6), 20_000),
    ("reset-timing", lambda: ResetTimingProtocol(8, calibrated_reset_log_delay(8)), 8000),
]


@pytest.mark.slow
@pytest.mark.parametrize("name,factory,steps", PROTOCOLS, ids=[p[0] for p in PROTOCOLS])
class TestProtocolsRespectTheirStateSpace:
    def test_from_clean_start(self, name, factory, steps):
        protocol = factory()
        rng = make_rng(10, "inv-clean", name)
        monitor = InvariantMonitor(protocol)
        sim = Simulation(protocol, rng=rng, monitors=[monitor])
        sim.run(steps)  # raises on any violation

    def test_from_adversarial_start(self, name, factory, steps):
        protocol = factory()
        rng = make_rng(11, "inv-adv", name)
        monitor = InvariantMonitor(protocol)
        sim = Simulation(
            protocol, protocol.random_configuration(rng), rng=rng, monitors=[monitor]
        )
        sim.run(steps)
