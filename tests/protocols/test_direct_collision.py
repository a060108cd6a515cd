"""Tests for DirectCollisionSSR (the named H = 0 silent variant)."""

import pytest

from repro.core.configuration import is_silent
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.experiments.hsweep import collision_start
from repro.protocols.direct_collision import DirectCollisionSSR
from repro.protocols.parameters import calibrated_sublinear
from repro.protocols.sublinear.protocol import SublinearTimeSSR


class TestConstruction:
    def test_is_the_h0_protocol(self):
        protocol = DirectCollisionSSR(8)
        assert protocol.h == 0
        assert protocol.silent
        assert isinstance(protocol, SublinearTimeSSR)

    def test_rejects_nonzero_h_params(self):
        params = calibrated_sublinear(8, h=1)
        with pytest.raises(ValueError):
            DirectCollisionSSR(8, params=params)

    def test_accepts_h0_params(self):
        params = calibrated_sublinear(8, h=0)
        assert DirectCollisionSSR(8, params=params).params is params


class TestBehaviour:
    def test_trees_never_grow(self):
        protocol = DirectCollisionSSR(6)
        rng = make_rng(1, "dc")
        sim = Simulation(protocol, protocol.unique_names_configuration(rng), rng=rng)
        sim.run(2000)
        assert all(s.tree.size() == 1 for s in sim.states)

    def test_stabilizes_to_silence_from_planted_collision(self):
        protocol = DirectCollisionSSR(6)
        rng = make_rng(2, "dc")
        sim = Simulation(protocol, collision_start(protocol, rng), rng=rng)
        budget = 2_000_000
        assert sim.run_until_stable(budget, confirm_interactions=budget)
        assert protocol.is_correct(sim.states) and is_silent(protocol, sim.states)

    def test_detection_needs_direct_meeting(self):
        """The duplicates' first meeting is the trigger -- nobody else's."""
        from repro.protocols.sublinear.protocol import SubRole

        protocol = DirectCollisionSSR(8)
        rng = make_rng(3, "dc")
        sim = Simulation(protocol, collision_start(protocol, rng), rng=rng)
        # Track that the first Resetting agents are exactly the duplicates.
        duplicate_name = sim.states[0].name
        assert sim.states[1].name == duplicate_name
        while not any(s.role is SubRole.RESETTING for s in sim.states):
            sim.step()
        resetting = [i for i, s in enumerate(sim.states) if s.role is SubRole.RESETTING]
        assert set(resetting) == {0, 1}
