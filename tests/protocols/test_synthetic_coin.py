"""Tests for the synthetic-coin derandomization (paper footnotes 5-6)."""

import math

import pytest

from repro.core.rng import make_rng
from repro.experiments.common import measure_convergence
from repro.protocols.sublinear.protocol import SubRole, SublinearTimeSSR
from repro.protocols.synthetic_coin import (
    measure_coin_bias,
    partner_coin_bit,
    toggle,
)


class TestPrimitives:
    def test_toggle(self):
        assert toggle(0) == 1
        assert toggle(1) == 0

    def test_partner_coin_bit_masks(self):
        assert partner_coin_bit(0) == 0
        assert partner_coin_bit(1) == 1

    def test_measure_validation(self, rng):
        with pytest.raises(ValueError):
            measure_coin_bias(1, 100, rng)
        with pytest.raises(ValueError):
            measure_coin_bias(8, 10, rng, sample_after=10)


class TestBiasDecay:
    def test_bias_small_after_mixing(self):
        n = 64
        rng = make_rng(3, "coin-mix")
        burn_in = int(4 * n * math.log(n))
        bias = measure_coin_bias(n, burn_in + 40_000, rng, sample_after=burn_in)
        assert bias < 0.02

    def test_worst_case_start_is_biased_early(self):
        # From all-zeros, the earliest observations are mostly 0s (an
        # observed coin is 1 only if its owner already interacted an odd
        # number of times).
        n = 64
        rng = make_rng(4, "coin-early")
        bias = measure_coin_bias(n, 8, rng, sample_after=0)
        assert bias > 0.2


class TestDerandomizedNames:
    def test_flag_disables_silence(self):
        assert SublinearTimeSSR(6, h=0).silent
        assert not SublinearTimeSSR(6, h=0, deterministic_names=True).silent

    def test_coins_flip_each_interaction(self, rng):
        p = SublinearTimeSSR(4, h=1, deterministic_names=True)
        a = p.initial_state(rng)
        b = p.initial_state(rng)
        coins = (a.coin, b.coin)
        p.transition(a, b, rng)
        assert (a.coin, b.coin) == (coins[0] ^ 1, coins[1] ^ 1)

    def test_default_protocol_keeps_coins_static(self, rng):
        p = SublinearTimeSSR(4, h=1)
        a, b = p.initial_state(rng), p.initial_state(rng)
        p.transition(a, b, rng)
        assert (a.coin, b.coin) == (0, 0)

    def test_dormant_agents_grow_names_from_partner_coins(self, rng):
        from repro.protocols.sublinear.protocol import SublinearAgent

        p = SublinearTimeSSR(4, h=1, deterministic_names=True)
        a = SublinearAgent(
            role=SubRole.RESETTING, name="", resetcount=0, delaytimer=50, coin=0
        )
        b = SublinearAgent(
            role=SubRole.RESETTING, name="", resetcount=0, delaytimer=50, coin=1
        )
        p.transition(a, b, rng)
        assert a.name == "1"  # b's pre-flip coin
        assert b.name == "0"  # a's pre-flip coin

    @pytest.mark.slow
    def test_derandomized_protocol_still_stabilizes(self):
        p = SublinearTimeSSR(6, h=1, deterministic_names=True)
        rng = make_rng(6, "coin-stab")
        outcome = measure_convergence(
            p,
            p.random_configuration(rng),
            rng=rng,
            max_time=60_000.0,
            confirm_time=40.0,
        )
        assert outcome.converged

    @pytest.mark.slow
    def test_derandomized_names_are_diverse_after_reset(self):
        """A forced reset regrows names with real entropy (no all-equal)."""
        from repro.core.simulation import Simulation
        from repro.experiments.hsweep import collision_start

        p = SublinearTimeSSR(6, h=1, deterministic_names=True)
        rng = make_rng(7, "coin-names")
        states = collision_start(p, rng)
        # Randomize coins so the wave starts with ambient entropy.
        for index, state in enumerate(states):
            state.coin = index % 2
        monitor = p.convergence_monitor()
        sim = Simulation(p, states, rng=rng, monitors=[monitor])
        budget = 400_000
        while not (
            monitor.correct
            and monitor.correct_streak(sim.interactions) > 40 * p.n
        ):
            assert sim.interactions < budget
            sim.step()
        names = {s.name for s in sim.states}
        assert len(names) == p.n
