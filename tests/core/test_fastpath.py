"""Tests for repro.core.fastpath.

The headline requirement: the exact-jump simulator's interaction counts
must match the sequential engine's *in distribution* -- verified here by
comparing sample means over matched trial batches, alongside unit and
property tests of the Fenwick tree primitive.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fastpath import (
    CiwJumpSimulator,
    uniform_random_ciw_counts,
    worst_case_ciw_counts,
)
from repro.core.fenwick import FenwickTree
from repro.core.simulation import Simulation
from repro.protocols.cai_izumi_wada import SilentNStateSSR


class TestFenwickTree:
    def test_set_and_total(self):
        tree = FenwickTree(5)
        tree.set(0, 3)
        tree.set(4, 2)
        assert tree.total() == 5
        tree.set(0, 1)
        assert tree.total() == 3
        assert tree.weight(0) == 1

    def test_rejects_bad_sizes_and_weights(self):
        with pytest.raises(ValueError):
            FenwickTree(0)
        tree = FenwickTree(3)
        with pytest.raises(ValueError):
            tree.set(1, -1)

    def test_sample_respects_weights(self, rng):
        tree = FenwickTree(4)
        tree.set(1, 3)
        tree.set(3, 1)
        counts = Counter(tree.sample(rng) for _ in range(4000))
        assert set(counts) == {1, 3}
        assert abs(counts[1] / 4000 - 0.75) < 0.05

    def test_sample_all_zero_raises(self, rng):
        with pytest.raises(ValueError):
            FenwickTree(3).sample(rng)

    @given(
        weights=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=40),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_prefix_sums(self, weights, data):
        tree = FenwickTree(len(weights))
        for index, weight in enumerate(weights):
            tree.set(index, weight)
        assert tree.total() == sum(weights)
        if sum(weights) > 0:
            sample_rng = random.Random(data.draw(st.integers(0, 2**32)))
            index = tree.sample(sample_rng)
            assert weights[index] > 0


class TestNotableConfigurations:
    def test_worst_case_counts(self):
        counts = worst_case_ciw_counts(6)
        assert counts == [2, 1, 1, 1, 1, 0]
        assert sum(counts) == 6

    def test_worst_case_rejects_tiny(self):
        with pytest.raises(ValueError):
            worst_case_ciw_counts(1)

    def test_uniform_random_counts_sum_to_n(self, rng):
        counts = uniform_random_ciw_counts(9, rng)
        assert sum(counts) == 9
        assert len(counts) == 9


class TestCiwJumpSimulator:
    def test_rejects_malformed_counts(self, rng):
        with pytest.raises(ValueError):
            CiwJumpSimulator([2, 1], rng)  # sums to 3, domain size 2
        with pytest.raises(ValueError):
            CiwJumpSimulator([1, -1, 2], rng)

    def test_already_converged(self, rng):
        sim = CiwJumpSimulator([1, 1, 1], rng)
        assert sim.converged
        assert sim.run_to_convergence() == 0
        with pytest.raises(ValueError):
            sim.step_event()

    def test_mass_conservation_and_domain(self, rng):
        sim = CiwJumpSimulator(worst_case_ciw_counts(8), rng)
        while not sim.converged:
            sim.step_event()
            assert sum(sim.counts) == 8
            assert all(c >= 0 for c in sim.counts)
        assert sim.counts == [1] * 8

    def test_worst_case_event_count_is_deterministic(self, rng):
        # From the paper's witness, exactly n - 1 bottleneck events occur.
        n = 12
        sim = CiwJumpSimulator(worst_case_ciw_counts(n), rng)
        sim.run_to_convergence()
        assert sim.events == n - 1

    def test_max_events_guard(self, rng):
        sim = CiwJumpSimulator(worst_case_ciw_counts(16), rng)
        with pytest.raises(RuntimeError):
            sim.run_to_convergence(max_events=1)

    @pytest.mark.slow
    def test_distribution_matches_generic_engine(self):
        """Jump-chain interaction counts match the sequential engine."""
        n, trials = 8, 300
        protocol = SilentNStateSSR(n)

        def generic_time(seed: int) -> int:
            rng = random.Random(seed)
            sim = Simulation(protocol, protocol.worst_case_configuration(), rng=rng)
            assert sim.run_until_stable(10**8, 0)
            return sim.streak_start  # correct configurations are silent

        def jump_time(seed: int) -> int:
            rng = random.Random(seed)
            sim = CiwJumpSimulator(worst_case_ciw_counts(n), rng)
            return sim.run_to_convergence()

        generic = [generic_time(1000 + t) for t in range(trials)]
        jump = [jump_time(2000 + t) for t in range(trials)]
        mean_generic = sum(generic) / trials
        mean_jump = sum(jump) / trials
        # Means agree within 15% (both ~ Theta(n^3) interactions here).
        assert abs(mean_generic - mean_jump) / mean_generic < 0.15
