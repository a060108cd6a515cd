"""Summaries of repeated stochastic trials.

The experiments report both *expected* time (sample mean with a
confidence interval) and *with-high-probability* time (upper sample
quantiles), matching the two columns of Table 1.  Everything here is
dependency-free, deterministic given an RNG, and tested against closed
forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("cannot average an empty sample")
    # Clamp into [min, max]: float summation can round the mean one ULP
    # past the extremes (e.g. averaging several copies of the same value),
    # which would break the min <= mean <= max invariant downstream.
    return min(max(sum(values) / len(values), min(values)), max(values))


def sample_std(values: Sequence[float]) -> float:
    """Unbiased (n-1) sample standard deviation; 0.0 for singletons."""
    if not values:
        raise ValueError("cannot take the std of an empty sample")
    if len(values) == 1:
        return 0.0
    m = mean(values)
    return math.sqrt(sum((v - m) ** 2 for v in values) / (len(values) - 1))


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile (same convention as numpy default)."""
    if not values:
        raise ValueError("cannot take a quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return ordered[low]
    fraction = position - low
    # a + f * (b - a) rather than (1-f)*a + f*b: exact when a == b.
    return ordered[low] + fraction * (ordered[high] - ordered[low])


@dataclass(frozen=True)
class TrialSummary:
    """Descriptive statistics of one experimental cell."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    q90: float
    q99: float
    maximum: float
    #: Normal-approximation 95% confidence half-width of the mean.
    ci95_halfwidth: float

    def __str__(self) -> str:
        return (
            f"mean={self.mean:.3g}+/-{self.ci95_halfwidth:.2g} "
            f"median={self.median:.3g} q90={self.q90:.3g} max={self.maximum:.3g} "
            f"(x{self.count})"
        )


def summarize_trials(values: Sequence[float]) -> TrialSummary:
    """Summarize repeated measurements of one quantity."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    m = mean(values)
    s = sample_std(values)
    halfwidth = 1.96 * s / math.sqrt(len(values)) if len(values) > 1 else float("inf")
    return TrialSummary(
        count=len(values),
        mean=m,
        std=s,
        minimum=min(values),
        median=quantile(values, 0.5),
        q90=quantile(values, 0.9),
        q99=quantile(values, 0.99),
        maximum=max(values),
        ci95_halfwidth=halfwidth,
    )


def tail_fraction(values: Sequence[float], threshold: float) -> float:
    """Empirical probability that a measurement is >= ``threshold``.

    This is how the Observation 2.2 experiment estimates
    ``P[time >= alpha * n * ln n]``.
    """
    if not values:
        raise ValueError("cannot take a tail fraction of an empty sample")
    return sum(1 for v in values if v >= threshold) / len(values)

