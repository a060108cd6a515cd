"""Benchmarks for Table 1 row 4: Sublinear-Time-SSR's H sweep.

One cell per history depth H, all at the planted-collision start whose
detection time is the Theta(H * n^(1/(H+1))) quantity, plus the
cross-validation cell for the sync-dictionary warm-up and the full
quick-mode sweep with its shape checks.  The ``repro bench`` suite also
times Table 1's Sublinear row per layer: one random-start trial at
H = ceil(log2 n), in interactions per second.
"""

import math
import time

import pytest

from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.experiments.hsweep import (
    collision_start,
    dict_collision_start,
    run as run_hsweep,
)
from repro.experiments.common import measure_convergence
from repro.protocols.sublinear.protocol import SubRole, SublinearTimeSSR
from repro.protocols.sync_dictionary import SyncDictionarySSR


def _sublinear_log_rate(n: int, seed: int) -> float:
    """Interactions/s of one Table 1 Sublinear trial (random start, H = ceil(log2 n))."""
    rng = make_rng(seed, f"bench-sublinear-log-n{n}")
    protocol = SublinearTimeSSR(n, h=max(1, (n - 1).bit_length()))
    states = protocol.random_configuration(rng)
    start = time.perf_counter()
    outcome = measure_convergence(
        protocol,
        states,
        rng=rng,
        max_time=4000.0 + 400.0 * math.log(n),
        confirm_time=25.0 + 4.0 * math.log(n),
    )
    return outcome.interactions / (time.perf_counter() - start)


def _detection_cell(n: int, h: int, seed: int, label: str) -> float:
    rng = make_rng(seed, label)
    protocol = SublinearTimeSSR(n, h=h)
    sim = Simulation(protocol, collision_start(protocol, rng), rng=rng)
    while not any(s.role is SubRole.RESETTING for s in sim.states):
        sim.step()
    return sim.parallel_time


@pytest.mark.benchmark(group="hsweep-detection")
@pytest.mark.parametrize("h,n", [(0, 32), (1, 32), (2, 16)])
def test_detection_cell(benchmark, seed, h, n):
    time = benchmark.pedantic(
        lambda: _detection_cell(n, h, seed, f"bench-h{h}"), rounds=3, iterations=1
    )
    assert 0 < time < 40 * n


@pytest.mark.benchmark(group="hsweep-detection")
def test_sync_dictionary_cell(benchmark, seed):
    def cell():
        rng = make_rng(seed, "bench-dict")
        protocol = SyncDictionarySSR(32)
        outcome = measure_convergence(
            protocol,
            dict_collision_start(protocol, rng),
            rng=rng,
            max_time=20_000.0,
        )
        assert outcome.converged
        return outcome.convergence_time

    time = benchmark.pedantic(cell, rounds=3, iterations=1)
    assert time > 0


@pytest.mark.benchmark(group="hsweep-experiment")
def test_hsweep_full_experiment(benchmark, seed):
    report = benchmark.pedantic(
        lambda: run_hsweep(seed=seed, quick=True), rounds=1, iterations=1
    )
    failed = [name for name, check in report.checks.items() if not check.passed]
    assert not failed, failed


def bench_suite():
    """The ``hsweep`` suite for ``repro bench``: collision detection."""
    from repro.obs.bench import BenchSuite

    suite = BenchSuite(
        "hsweep",
        description="Sublinear-Time-SSR planted-collision detection and Table 1 trials",
    )
    suite.cell(
        "detection-h0-n32",
        lambda seed, repeat: (_detection_cell(32, 0, seed, "bench-h0"), None)[1],
        repeats=3,
    )
    suite.cell(
        "detection-h1-n32",
        lambda seed, repeat: (_detection_cell(32, 1, seed, "bench-h1"), None)[1],
        repeats=3,
    )
    for n, repeats in ((8, 3), (12, 2), (16, 1)):
        suite.cell(
            f"sublinear-log-n{n}",
            lambda seed, repeat, n=n: _sublinear_log_rate(n, seed),
            repeats=repeats,
            metric="interactions_per_second",
            higher_is_better=True,
        )
    return suite
