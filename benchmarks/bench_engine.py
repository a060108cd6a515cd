"""Engine-throughput benchmarks (not a paper artifact).

These quantify the simulator itself: interactions/second of the generic
sequential engine on each protocol, effective interactions/second of the
exact-jump fast path and the count-based engine, and the history-tree
operations that dominate Sublinear-Time-SSR's cost.  They are the
numbers that justify the fast-path design (see DESIGN.md, "repro_why"
note, and docs/performance.md).

Three entry points:

* ``pytest benchmarks/ --benchmark-only`` — full pytest-benchmark run.
* ``python benchmarks/bench_engine.py --json BENCH_engine.json`` — quick
  smoke (repeated timed passes per cell, reporting mean/stdev) that
  records interactions/second per engine and the count/generic speedup
  ratio; CI runs this and fails if the count engine falls below 50x
  the generic engine on SilentNStateSSR at n=1024.
* ``repro bench --suite engine`` — the ledgered harness entry point
  (:func:`bench_suite` below): the same cells with repeats, gated
  statistically against a stored baseline by
  ``repro bench --suite engine --compare-baseline``.
"""

import argparse
import json
import random
import statistics
import sys
import time

import pytest

from repro.core.countsim import CountSimulation
from repro.core.fastpath import CiwJumpSimulator, worst_case_ciw_counts
from repro.core.kernel import numpy_available, select_count_engine
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.parameters import calibrated_sublinear
from repro.protocols.sublinear.detect_collision import find_collision, merge_histories
from repro.protocols.sublinear.protocol import SublinearTimeSSR

STEPS = 20_000
SMOKE_SEED = 1234
MIN_COUNT_SPEEDUP = 50.0
#: The vector kernel must beat the count engine by at least this factor
#: at n=8192 (ISSUE acceptance: bootstrap-CI separated, not just means).
MIN_VECTOR_SPEEDUP = 10.0
#: Interleaved unrecorded/recorded pass pairs behind the smoke's
#: recording-overhead figure.
RECORDING_PAIRS = 10


@pytest.mark.benchmark(group="engine-throughput")
def test_generic_engine_ciw(benchmark, seed):
    protocol = SilentNStateSSR(64)
    rng = make_rng(seed, "eng-ciw")
    sim = Simulation(protocol, protocol.random_configuration(rng), rng=rng)
    benchmark(lambda: sim.run(STEPS))


@pytest.mark.benchmark(group="engine-throughput")
def test_generic_engine_optimal_silent(benchmark, seed):
    protocol = OptimalSilentSSR(64)
    rng = make_rng(seed, "eng-os")
    sim = Simulation(protocol, protocol.random_configuration(rng), rng=rng)
    benchmark(lambda: sim.run(STEPS))


@pytest.mark.benchmark(group="engine-throughput")
def test_generic_engine_sublinear_h1(benchmark, seed):
    protocol = SublinearTimeSSR(32, h=1)
    rng = make_rng(seed, "eng-sub")
    sim = Simulation(protocol, protocol.unique_names_configuration(rng), rng=rng)
    benchmark(lambda: sim.run(2_000))


@pytest.mark.benchmark(group="engine-throughput")
def test_fastpath_effective_interactions(benchmark, seed):
    """The jump simulator accounts for millions of interactions per call."""

    def converge():
        sim = CiwJumpSimulator(worst_case_ciw_counts(512), make_rng(seed, "fp"))
        return sim.run_to_convergence()

    interactions = benchmark(converge)
    assert interactions > 10_000_000  # Theta(n^3) accounted in milliseconds


def _count_engine_convergence(n: int, seed: int) -> int:
    """Run the count engine to silence from the CIW worst case."""
    protocol = SilentNStateSSR(n)
    states = protocol.counts_to_configuration(worst_case_ciw_counts(n))
    sim = CountSimulation(
        protocol, states, rng=make_rng(seed, "count-eng", n), mode="jump"
    )
    sim.run_until_silent()
    return sim.interactions


@pytest.mark.benchmark(group="engine-throughput")
def test_count_engine_ciw_1024(benchmark, seed):
    """Count engine accounts Theta(n^3) interactions from the worst case."""
    interactions = benchmark(_count_engine_convergence, 1024, seed)
    assert interactions > 100_000_000


@pytest.mark.benchmark(group="engine-throughput")
def test_count_engine_ciw_8192(benchmark, seed):
    """Large-n cell; cost is dominated by one-time pair classification."""
    interactions = benchmark.pedantic(
        _count_engine_convergence, args=(8192, seed), rounds=1, iterations=1
    )
    assert interactions > 10_000_000_000


def _vector_engine_convergence(n: int, seed: int) -> int:
    """Run the vector kernel to silence from the CIW worst case.

    Same seed derivation as :func:`_count_engine_convergence`, and jump
    mode is scalar in both engines, so the two benchmarks account for
    the *identical* trajectory -- the rate ratio is a pure engine
    comparison with zero workload variance.
    """
    protocol = SilentNStateSSR(n)
    states = protocol.counts_to_configuration(worst_case_ciw_counts(n))
    engine_cls = select_count_engine("vector")
    sim = engine_cls(protocol, states, rng=make_rng(seed, "count-eng", n), mode="jump")
    sim.run_until_silent()
    return sim.interactions


@pytest.mark.benchmark(group="engine-throughput")
@pytest.mark.skipif(not numpy_available(), reason="vector kernel needs numpy")
def test_vector_engine_ciw_8192(benchmark, seed):
    """The class-pruned kernel removes the O(k^2) classification cost."""
    interactions = benchmark.pedantic(
        _vector_engine_convergence, args=(8192, seed), rounds=1, iterations=1
    )
    assert interactions > 10_000_000_000


@pytest.mark.benchmark(group="tree-ops")
def test_history_tree_merge_cost(benchmark, seed):
    """Steady-state Protocol 7 merges on well-grown depth-2 trees."""
    params = calibrated_sublinear(24, h=2)

    class Carrier:
        def __init__(self, name):
            self.name = name
            from repro.protocols.sublinear.history_tree import HistoryTree

            self.tree = HistoryTree.singleton(name)
            self.clock = 0

    rng = make_rng(seed, "tree-ops")
    agents = [Carrier(format(i, "015b")) for i in range(24)]
    for _ in range(2_000):  # grow realistic trees
        i, j = rng.sample(range(24), 2)
        if not find_collision(agents[i], agents[j]):
            merge_histories(agents[i], agents[j], params, rng)

    def one_merge():
        i, j = rng.sample(range(24), 2)
        if not find_collision(agents[i], agents[j]):
            merge_histories(agents[i], agents[j], params, rng)

    benchmark(one_merge)


# --------------------------------------------------------------------------
# Smoke mode: quick single-pass measurements written to BENCH_engine.json.
# --------------------------------------------------------------------------


def _smoke_generic(n: int, steps: int, seed: int) -> dict:
    """Time the generic agent-array engine for a fixed interaction budget."""
    protocol = SilentNStateSSR(n)
    rng = make_rng(seed, "smoke-generic", n)
    sim = Simulation(protocol, protocol.random_configuration(rng), rng=rng)
    start = time.perf_counter()
    sim.run(steps)
    elapsed = time.perf_counter() - start
    return {
        "engine": "generic",
        "protocol": "SilentNStateSSR",
        "n": n,
        "interactions": sim.interactions,
        "seconds": round(elapsed, 6),
        "interactions_per_second": sim.interactions / elapsed,
    }


def _smoke_count(n: int, seed: int, recorder=None) -> dict:
    """Time the count engine to silence from the CIW worst case.

    The timed region includes construction (pair classification is the
    one-time O(k^2) cost that dominates at large n), so the reported
    rate is a conservative end-to-end figure.
    """
    protocol = SilentNStateSSR(n)
    states = protocol.counts_to_configuration(worst_case_ciw_counts(n))
    rng = make_rng(seed, "smoke-count", n)
    start = time.perf_counter()
    sim = CountSimulation(protocol, states, rng=rng, mode="jump", recorder=recorder)
    sim.run_until_silent()
    elapsed = time.perf_counter() - start
    return {
        "engine": "count",
        "protocol": "SilentNStateSSR",
        "n": n,
        "recording": recorder is not None,
        "interactions": sim.interactions,
        "events": sim.events,
        "seconds": round(elapsed, 6),
        "interactions_per_second": sim.interactions / elapsed,
    }


def _smoke_vector(n: int, seed: int) -> dict:
    """Time the vector kernel to silence from the CIW worst case.

    Same seed labels as :func:`_smoke_count`, and jump mode is scalar
    in both engines, so both cells account for the identical trajectory
    (same interaction total); the rate ratio is the engine speedup with
    no workload noise.  Without numpy the kernel falls back to the
    count engine -- the cell document records which one actually ran.
    """
    protocol = SilentNStateSSR(n)
    states = protocol.counts_to_configuration(worst_case_ciw_counts(n))
    rng = make_rng(seed, "smoke-count", n)
    engine_cls = select_count_engine("vector")
    start = time.perf_counter()
    sim = engine_cls(protocol, states, rng=rng, mode="jump")
    sim.run_until_silent()
    elapsed = time.perf_counter() - start
    return {
        "engine": "vector",
        "numpy": numpy_available(),
        "protocol": "SilentNStateSSR",
        "n": n,
        "interactions": sim.interactions,
        "events": sim.events,
        "seconds": round(elapsed, 6),
        "interactions_per_second": sim.interactions / elapsed,
    }


def _smoke_count_recording(n: int, seed: int) -> dict:
    """The n=1024 count cell re-run with a live metrics recorder.

    Same seed and workload as the unrecorded cell (the run is
    bit-identical: recording never consumes engine randomness), so the
    throughput delta is exactly the observability overhead.
    """
    from repro.obs import MetricsRecorder

    recorder = MetricsRecorder(sample_every=4096)
    cell = _smoke_count(n, seed, recorder=recorder)
    cell["recorder_aggregates"] = recorder.aggregates()
    return cell


def _summarize(cell: dict, rates: list) -> dict:
    """Fold per-repeat rates into ``cell`` (the last repeat's document:
    the interaction counts are identical across repeats -- same seed,
    same work) as the variance summary a single timing cannot provide."""
    cell["repeats"] = len(rates)
    cell["interactions_per_second_values"] = rates
    cell["interactions_per_second"] = sum(rates) / len(rates)
    cell["interactions_per_second_stdev"] = (
        statistics.stdev(rates) if len(rates) > 1 else 0.0
    )
    return cell


def _repeat_cell(fn, repeats: int) -> dict:
    """Run one smoke cell ``repeats`` times; report per-repeat rates."""
    rates = []
    cell = {}
    for _ in range(repeats):
        cell = fn()
        rates.append(cell["interactions_per_second"])
    return _summarize(cell, rates)


def _paired_recording_cells(n: int, seed: int, pairs: int):
    """The unrecorded and recorded count cells, timed in interleaved pairs.

    Each pair runs both variants back to back in a random order, so
    neither side systematically inherits the warmer process state --
    timing every recorded pass after every unrecorded one once reported
    a -51% overhead, impossible since recording only adds work.
    Returns ``(unrecorded_cell, recorded_cell, overhead_pct, ci95)``:
    the overhead is the recorded/unrecorded mean wall-time ratio minus
    one, with its bootstrap CI (both runs replay the same trajectory,
    so the wall-time ratio is the whole observability cost).
    """
    from repro.obs.bench import bootstrap_ratio_ci

    order = random.Random(seed)
    runs = {False: _smoke_count, True: _smoke_count_recording}
    cells: dict = {}
    rates: dict = {False: [], True: []}
    seconds: dict = {False: [], True: []}
    for _ in range(pairs):
        variants = [False, True]
        order.shuffle(variants)
        for recorded in variants:
            cell = cells[recorded] = runs[recorded](n, seed)
            rate = cell["interactions_per_second"]
            rates[recorded].append(rate)
            seconds[recorded].append(cell["interactions"] / rate)
    ratio = statistics.mean(seconds[True]) / statistics.mean(seconds[False])
    low, high = bootstrap_ratio_ci(seconds[False], seconds[True])
    return (
        _summarize(cells[False], rates[False]),
        _summarize(cells[True], rates[True]),
        100.0 * (ratio - 1.0),
        (100.0 * (low - 1.0), 100.0 * (high - 1.0)),
    )


def bench_suite():
    """The ``engine`` suite for ``repro bench`` (see repro.obs.bench)."""
    from repro.obs.bench import BenchSuite

    suite = BenchSuite(
        "engine",
        description="engine throughput: generic vs count, recorded overhead",
    )
    suite.cell(
        "generic-ciw-n1024",
        lambda seed, repeat: _smoke_generic(1024, 200_000, seed)[
            "interactions_per_second"
        ],
        repeats=3,
        metric="interactions_per_second",
        higher_is_better=True,
    )
    suite.cell(
        "count-ciw-n1024",
        lambda seed, repeat: _smoke_count(1024, seed)["interactions_per_second"],
        repeats=3,
        metric="interactions_per_second",
        higher_is_better=True,
    )
    suite.cell(
        "count-ciw-n8192",
        lambda seed, repeat: _smoke_count(8192, seed)["interactions_per_second"],
        repeats=2,
        metric="interactions_per_second",
        higher_is_better=True,
    )
    suite.cell(
        "count-ciw-n1024-recorded",
        lambda seed, repeat: _smoke_count_recording(1024, seed)[
            "interactions_per_second"
        ],
        repeats=3,
        metric="interactions_per_second",
        higher_is_better=True,
    )
    if numpy_available():
        # Vector-kernel cells are registered only when numpy is present:
        # the fallback would silently re-run the count engine (fine at
        # n=8192, catastrophic at n=10^6 where the O(k^2) classification
        # is the very cost the kernel removes).
        suite.cell(
            "vector-ciw-n8192",
            lambda seed, repeat: _smoke_vector(8192, seed)[
                "interactions_per_second"
            ],
            repeats=2,
            metric="interactions_per_second",
            higher_is_better=True,
        )
        suite.cell(
            "vector-ciw-n1e6",
            lambda seed, repeat: _smoke_vector(10**6, seed)[
                "interactions_per_second"
            ],
            repeats=1,
            metric="interactions_per_second",
            higher_is_better=True,
        )
    return suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Quick engine-throughput smoke; writes a JSON summary."
    )
    parser.add_argument(
        "--json",
        default="BENCH_engine.json",
        help="output path for the JSON summary (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=SMOKE_SEED, help="root seed (default: %(default)s)"
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed passes per cell (default: %(default)s; the count n=8192 "
        "cell always runs twice, the vector n=10^6 cell once, and the "
        f"n=1024 count cells run {RECORDING_PAIRS} recorded/unrecorded pairs)",
    )
    args = parser.parse_args(argv)

    from repro.obs.provenance import run_stamp

    # Informational: the hard gate stays the count/generic speedup
    # ratio (recording overhead would sink it long before users noticed
    # anything else).  The statistically gated numbers live in
    # `repro bench --suite engine`.
    count_cell, recorded_cell, recording_overhead_pct, recording_ci = (
        _paired_recording_cells(1024, args.seed, RECORDING_PAIRS)
    )
    # The count n=8192 cell runs twice so the vector-vs-count speedup
    # below has per-repeat samples on both sides for the bootstrap CI.
    cells = [
        _repeat_cell(lambda: _smoke_generic(1024, 200_000, args.seed), args.repeats),
        count_cell,
        _repeat_cell(lambda: _smoke_count(8192, args.seed), 2),
        recorded_cell,
        _repeat_cell(lambda: _smoke_vector(8192, args.seed), max(2, args.repeats)),
        _repeat_cell(lambda: _smoke_vector(10**6, args.seed), 1),
    ]
    generic_rate = cells[0]["interactions_per_second"]
    count_rate = cells[1]["interactions_per_second"]
    speedup = count_rate / generic_rate

    # Vector-vs-count at n=8192: both cells replay the identical
    # trajectory (same seed, scalar jump mode), so the rate ratio is a
    # pure engine comparison; the acceptance bar is the whole bootstrap
    # CI of the ratio clearing MIN_VECTOR_SPEEDUP, not just the means.
    from repro.obs.bench import bootstrap_ratio_ci

    vector_speedup = (
        cells[4]["interactions_per_second"] / cells[2]["interactions_per_second"]
    )
    vector_ci = bootstrap_ratio_ci(
        cells[2]["interactions_per_second_values"],
        cells[4]["interactions_per_second_values"],
    )
    vector_gated = numpy_available()
    vector_passed = (not vector_gated) or vector_ci[0] >= MIN_VECTOR_SPEEDUP

    summary = {
        "benchmark": "engine-throughput-smoke",
        "schema_version": 2,
        **run_stamp(),
        "seed": args.seed,
        "cells": cells,
        "count_vs_generic_speedup_n1024": speedup,
        "min_required_speedup": MIN_COUNT_SPEEDUP,
        "speedup_check_passed": speedup >= MIN_COUNT_SPEEDUP,
        "recording_overhead_pct_n1024": round(recording_overhead_pct, 2),
        "recording_overhead_pct_ci95_n1024": [round(v, 2) for v in recording_ci],
        "recording_pairs": RECORDING_PAIRS,
        "numpy_available": numpy_available(),
        "vector_vs_count_speedup_n8192": vector_speedup,
        "vector_vs_count_speedup_ci95_n8192": list(vector_ci),
        "min_required_vector_speedup": MIN_VECTOR_SPEEDUP,
        "vector_speedup_check_passed": vector_passed,
    }
    with open(args.json, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for cell in cells:
        print(
            f"{cell['engine']:>7} n={cell['n']:>7}: "
            f"{cell['interactions_per_second']:.3e} interactions/s "
            f"(stdev {cell['interactions_per_second_stdev']:.2e}, "
            f"n={cell['repeats']})"
        )
    print(f"count/generic speedup at n=1024: {speedup:.1f}x (required >= {MIN_COUNT_SPEEDUP:.0f}x)")
    print(
        f"recording overhead at n=1024: {recording_overhead_pct:+.1f}% "
        f"(CI95 [{recording_ci[0]:+.1f}, {recording_ci[1]:+.1f}]%, "
        f"{RECORDING_PAIRS} interleaved pairs)"
    )
    print(
        f"vector/count speedup at n=8192: {vector_speedup:.1f}x "
        f"(CI95 [{vector_ci[0]:.1f}, {vector_ci[1]:.1f}], "
        f"required CI-low >= {MIN_VECTOR_SPEEDUP:.0f}x"
        + ("" if vector_gated else "; ungated: numpy unavailable, fallback ran")
        + ")"
    )
    if speedup < MIN_COUNT_SPEEDUP:
        print("FAIL: count engine below required speedup", file=sys.stderr)
        return 1
    if not vector_passed:
        print(
            "FAIL: vector kernel speedup CI does not clear "
            f"{MIN_VECTOR_SPEEDUP:.0f}x at n=8192",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
