"""Protocols keep to their declared state spaces while they run.

The main payoff: run every protocol from clean *and* adversarial starts
with its transition wrapped in a strict schema check and assert the
protocol's own writes never leave the declared state space.  The check
validates through :func:`repro.statics.schema.schema_for`, the same
schema the sanitizer's ``schema-escape`` rule and the count engine use.
"""

import pytest

from repro.core.protocol import PopulationProtocol
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
from repro.statics.schema import has_schema, schema_for


def checked(protocol: PopulationProtocol) -> PopulationProtocol:
    """``protocol`` with its transition wrapped to fail on the first
    output state outside the declared schema.

    Initial configurations may be adversarial on purpose, so only the
    protocol's own writes (the transition's outputs) are checked.
    """
    schema = schema_for(protocol)
    transition = protocol.transition
    calls = 0

    def checked_transition(a, b, rng):
        nonlocal calls
        calls += 1
        outputs = transition(a, b, rng)
        for role, state in zip(("initiator", "responder"), outputs):
            problems = schema.validate(state)
            assert not problems, f"interaction {calls}, {role}: {problems}"
        return outputs

    protocol.transition = checked_transition
    return protocol


class TestCheckers:
    def test_resolution(self):
        # Resolution walks the registry by MRO: subclasses inherit their
        # parent's schema, and a foreign protocol type has none.
        class Foreign(SilentNStateSSR):
            pass

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

        assert schema_for(Foreign(4)).validate(3) == []
        assert not has_schema(Alien(2))
        with pytest.raises(KeyError):
            schema_for(Alien(2))

    def test_optimal_silent_flags_leaked_fields(self):
        protocol = OptimalSilentSSR(6)
        bad = OptimalSilentAgent(role=Role.UNSETTLED, errorcount=5, rank=3)
        problems = schema_for(protocol).validate(bad)
        assert any("leaked" in p for p in problems)

    def test_optimal_silent_flags_out_of_range_rank(self):
        protocol = OptimalSilentSSR(6)
        bad = OptimalSilentAgent(role=Role.SETTLED, rank=7)
        assert schema_for(protocol).validate(bad)

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
        problems = schema_for(protocol).validate(bad)
        assert any("depth" in p for p in problems)

    def test_sublinear_flags_mismatched_root(self):
        protocol = SublinearTimeSSR(4, h=1)
        bad = SublinearAgent(
            role=SubRole.COLLECTING,
            name="0" * 6,
            roster=frozenset(("0" * 6,)),
            tree=HistoryTree.singleton("1" * 6),
        )
        assert any("root" in p for p in schema_for(protocol).validate(bad))


class TestInvariantMonitor:
    def test_strict_monitor_raises(self, rng):
        # The check below must be able to fail: an out-of-domain write
        # is caught on the step that makes it.
        class Broken(SilentNStateSSR):
            def transition(self, a, b, rng):
                return a, 99  # out of domain

        sim = Simulation(checked(Broken(3)), [0, 1, 2], rng=rng)
        with pytest.raises(AssertionError, match="rank 99 outside 0..2"):
            sim.run(10)
        assert sim.interactions == 0

    def test_adversarial_start_not_flagged(self, rng):
        # Initial garbage is allowed; only the protocol's writes count.
        protocol = OptimalSilentSSR(6)
        bad_start = [
            OptimalSilentAgent(role=Role.UNSETTLED, errorcount=5, rank=3)
            for _ in range(6)
        ]
        sim = Simulation(checked(protocol), bad_start, rng=rng)
        assert sim.states == bad_start  # loading a configuration runs no check


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
        sim = Simulation(checked(protocol), rng=rng)
        sim.run(steps)  # raises on any violation

    def test_from_adversarial_start(self, name, factory, steps):
        protocol = factory()
        rng = make_rng(11, "inv-adv", name)
        sim = Simulation(checked(protocol), protocol.random_configuration(rng), rng=rng)
        sim.run(steps)
