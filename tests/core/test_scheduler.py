"""Tests for repro.core.scheduler."""

from collections import Counter

import pytest

from repro.core.scheduler import (
    CallbackScheduler,
    ScriptedScheduler,
    UniformRandomScheduler,
)


class TestUniformRandomScheduler:
    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            UniformRandomScheduler(1)

    def test_pairs_are_distinct_and_in_range(self, rng):
        scheduler = UniformRandomScheduler(5)
        for _ in range(500):
            i, j = scheduler.next_pair(rng)
            assert i != j
            assert 0 <= i < 5
            assert 0 <= j < 5

    def test_ordered_pairs_roughly_uniform(self, rng):
        n, draws = 4, 24_000
        scheduler = UniformRandomScheduler(n)
        counts = Counter(scheduler.next_pair(rng) for _ in range(draws))
        assert len(counts) == n * (n - 1)
        expected = draws / (n * (n - 1))
        for pair, count in counts.items():
            assert abs(count - expected) < 6 * expected**0.5, pair

    def test_both_orderings_occur(self, rng):
        scheduler = UniformRandomScheduler(2)
        pairs = {scheduler.next_pair(rng) for _ in range(100)}
        assert pairs == {(0, 1), (1, 0)}


class TestScriptedScheduler:
    def test_replays_in_order(self, rng):
        script = [(0, 1), (2, 3), (1, 0)]
        scheduler = ScriptedScheduler(script)
        assert [scheduler.next_pair(rng) for _ in range(3)] == script

    def test_exhaustion_raises_stop_iteration(self, rng):
        scheduler = ScriptedScheduler([(0, 1)])
        scheduler.next_pair(rng)
        with pytest.raises(StopIteration):
            scheduler.next_pair(rng)


class TestCallbackScheduler:
    def test_delegates_to_callback(self, rng):
        calls = []

        def choose(step_rng):
            calls.append(step_rng)
            return (3, 1)

        scheduler = CallbackScheduler(choose)
        assert scheduler.next_pair(rng) == (3, 1)
        assert calls == [rng]

