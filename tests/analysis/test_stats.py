"""Tests for repro.analysis.stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    mean,
    quantile,
    sample_std,
    summarize_trials,
    tail_fraction,
)


class TestBasics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_sample_std(self):
        assert sample_std([5.0]) == 0.0
        assert sample_std([2.0, 4.0]) == pytest.approx(2.0**0.5)
        with pytest.raises(ValueError):
            sample_std([])

    def test_quantile_interpolation(self):
        data = [1.0, 2.0, 3.0, 4.0]
        assert quantile(data, 0.0) == 1.0
        assert quantile(data, 1.0) == 4.0
        assert quantile(data, 0.5) == 2.5
        with pytest.raises(ValueError):
            quantile(data, 1.5)
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_quantile_order_independent(self):
        assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0


class TestSummarizeTrials:
    def test_fields(self):
        summary = summarize_trials([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.median == 2.5

    def test_singleton_has_infinite_ci(self):
        assert summarize_trials([3.0]).ci95_halfwidth == float("inf")

    def test_str_is_compact(self):
        text = str(summarize_trials([1.0, 2.0]))
        assert "mean=" in text and "x2" in text

    @given(st.lists(st.floats(0.1, 1e6), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, values):
        summary = summarize_trials(values)
        assert summary.minimum <= summary.median <= summary.maximum
        assert summary.median <= summary.q90 <= summary.q99 <= summary.maximum
        assert summary.minimum <= summary.mean <= summary.maximum


class TestTailAndGeometricMean:
    def test_tail_fraction(self):
        assert tail_fraction([1, 2, 3, 4], 3) == 0.5
        with pytest.raises(ValueError):
            tail_fraction([], 1)

