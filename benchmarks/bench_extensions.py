"""Benchmarks for the extension experiments: faults, ablations, coins.

These go beyond the paper's numbered artifacts (see EXPERIMENTS.md):
recovery under sustained fault bursts, the design-constant ablations,
and the synthetic-coin derandomization of the renaming step.
"""

import pytest

from repro.core.chaos import measure_recovery, periodic_events
from repro.core.rng import make_rng
from repro.experiments.ablation import run as run_ablation
from repro.experiments.faults import run as run_faults
from repro.experiments.loose import run as run_loose
from repro.experiments.whp import stabilization_times
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.synthetic_coin import measure_coin_bias


@pytest.mark.benchmark(group="faults")
def test_recovery_from_total_corruption(benchmark, seed):
    """One full-corruption burst against Optimal-Silent-SSR, n = 24."""

    def cell():
        protocol = OptimalSilentSSR(24)
        rng = make_rng(seed, "bench-recovery")
        report = measure_recovery(
            protocol,
            periodic_events(100.0, 24, 1),
            rng=rng,
            settle_time=20_000.0,
            max_recovery_time=20_000.0,
        )
        assert report.records[0].recovered
        return report.records[0].recovery_time

    time = benchmark.pedantic(cell, rounds=3, iterations=1)
    assert time > 0


@pytest.mark.benchmark(group="faults")
def test_faults_full_experiment(benchmark, seed):
    report = benchmark.pedantic(
        lambda: run_faults(seed=seed, quick=True), rounds=1, iterations=1
    )
    failed = [name for name, check in report.checks.items() if not check.passed]
    assert not failed, failed


@pytest.mark.benchmark(group="ablation")
def test_ablation_full_experiment(benchmark, seed):
    report = benchmark.pedantic(
        lambda: run_ablation(seed=seed, quick=True), rounds=1, iterations=1
    )
    failed = [name for name, check in report.checks.items() if not check.passed]
    assert not failed, failed


@pytest.mark.benchmark(group="whp")
def test_fast_optimal_silent_n256(benchmark, seed):
    """One n = 256 stabilization on the array-based fast path."""

    def cell():
        return stabilization_times(256, trials=1, seed=seed)[0]

    time = benchmark.pedantic(cell, rounds=3, iterations=1)
    assert 0 < time < 50_000


@pytest.mark.benchmark(group="loose")
def test_loose_full_experiment(benchmark, seed):
    report = benchmark.pedantic(
        lambda: run_loose(seed=seed, quick=True), rounds=1, iterations=1
    )
    failed = [name for name, check in report.checks.items() if not check.passed]
    assert not failed, failed


@pytest.mark.benchmark(group="synthetic-coin")
def test_coin_mixing(benchmark, seed):
    """Bias of partner-observed synthetic coins after mixing (n = 128)."""

    def cell():
        rng = make_rng(seed, "bench-coin")
        return measure_coin_bias(128, 60_000, rng, sample_after=10_000)

    bias = benchmark.pedantic(cell, rounds=3, iterations=1)
    assert bias < 0.02


def bench_suite():
    """The ``extensions`` suite for ``repro bench``: faults and coins."""
    from repro.obs.bench import BenchSuite

    def total_corruption(seed, repeat):
        protocol = OptimalSilentSSR(24)
        rng = make_rng(seed, "bench-recovery")
        report = measure_recovery(
            protocol,
            periodic_events(100.0, 24, 1),
            rng=rng,
            settle_time=20_000.0,
            max_recovery_time=20_000.0,
        )
        assert report.records[0].recovered
        return None  # harness-timed

    def coin_mixing(seed, repeat):
        rng = make_rng(seed, "bench-coin")
        measure_coin_bias(128, 20_000, rng, sample_after=5_000)
        return None

    suite = BenchSuite(
        "extensions",
        description="fault recovery and synthetic-coin mixing workloads",
    )
    suite.cell("recovery-total-corruption-n24", total_corruption, repeats=2)
    suite.cell("coin-mixing-n128", coin_mixing, repeats=2)
    return suite
