"""Chaos-recovery benchmarks (not a paper artifact).

These measure what fault-injection workloads the count engine sustains:
wall-clock time for a multi-burst recovery run per protocol and
population size.  They quantify the scaling discussion in
docs/robustness.md: both Table-1 protocols pay Theta(n^2)-ish simulated
work per recovery -- Silent-n-state-SSR because its rank walk takes
Theta(n^2) *parallel time* even for one displaced agent,
Optimal-Silent-SSR because its global Propagate-Reset touches every
agent over Theta(n) parallel time -- which caps affordable chaos
populations around n=512-1024 in pure Python.  (The count engine's
large-n wins are in *dwell*, stabilization counting, and silent-skip
workloads; see docs/performance.md.)

Two entry points:

* ``pytest benchmarks/bench_chaos.py --benchmark-only`` -- full
  pytest-benchmark run of the per-cell recovery workloads.
* ``python benchmarks/bench_chaos.py --json BENCH_chaos.json`` -- quick
  single-pass smoke recording recovery wall times per cell; exits
  nonzero only if a strike fails to recover (wall-clock numbers are
  reported, not gated).
"""

import argparse
import json
import sys
import time

import pytest

from repro.core.chaos import measure_recovery, periodic_events
from repro.core.rng import make_rng
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentSSR

SMOKE_SEED = 1234


def _recovery_run(protocol_name: str, n: int, seed: int):
    """One chaos workload: two periodic bursts, count engine.

    Cell shapes differ because recovery costs differ: CIW's rank walk
    is Theta(n^2) parallel time even for a *single* displaced agent, so
    its cells strike 8 agents under a 2000n budget; Optimal-Silent's
    reset makes recovery Theta(n) parallel time, so its cells afford
    n/8 victims under a 50n budget (its cost is per-event wall time,
    not parallel time).
    """
    if protocol_name == "ciw":
        protocol = SilentNStateSSR(n)
        initial = list(range(n))
        agents, budget = 8, 2000.0 * n
    else:
        protocol = OptimalSilentSSR(n)
        initial = protocol.ranked_configuration()
        agents, budget = max(1, n // 8), 50.0 * n
    report = measure_recovery(
        protocol,
        periodic_events(2.0 * n, agents, 2),
        rng=make_rng(seed, "bench-chaos", protocol_name, n),
        initial_states=initial,
        settle_time=10.0,
        max_recovery_time=budget,
        engine="count",
    )
    assert all(record.recovered for record in report.records)
    return report


@pytest.mark.benchmark(group="chaos-recovery")
def test_ciw_recovery_n512(benchmark, seed):
    report = benchmark.pedantic(
        _recovery_run, args=("ciw", 512, seed), rounds=1, iterations=1
    )
    assert report.availability > 0


@pytest.mark.benchmark(group="chaos-recovery")
def test_ciw_recovery_n1024(benchmark, seed):
    report = benchmark.pedantic(
        _recovery_run, args=("ciw", 1024, seed), rounds=1, iterations=1
    )
    assert report.availability > 0


@pytest.mark.benchmark(group="chaos-recovery")
def test_optimal_silent_recovery_n256(benchmark, seed):
    report = benchmark.pedantic(
        _recovery_run, args=("optimal", 256, seed), rounds=1, iterations=1
    )
    assert report.availability > 0


# --------------------------------------------------------------------------
# Smoke mode: quick single-pass measurements written to BENCH_chaos.json.
# --------------------------------------------------------------------------


def _smoke_cell(protocol_name: str, n: int, seed: int) -> dict:
    start = time.perf_counter()
    report = _recovery_run(protocol_name, n, seed)
    elapsed = time.perf_counter() - start
    return {
        "protocol": protocol_name,
        "n": n,
        "strikes": len(report.records),
        "recovered": sum(1 for record in report.records if record.recovered),
        "worst_recovery_time": report.worst_recovery,
        "availability": report.availability,
        "seconds": round(elapsed, 3),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Quick chaos-recovery smoke; writes a JSON summary."
    )
    parser.add_argument(
        "--json",
        default="BENCH_chaos.json",
        help="output path for the JSON summary (default: %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=SMOKE_SEED, help="root seed (default: %(default)s)"
    )
    parser.add_argument(
        "--large",
        action="store_true",
        help="add the slow cells (ciw n=1024, optimal-silent n=512)",
    )
    args = parser.parse_args(argv)

    cells = [
        _smoke_cell("ciw", 512, args.seed),
        _smoke_cell("optimal", 256, args.seed),
    ]
    if args.large:
        cells.append(_smoke_cell("ciw", 1024, args.seed))
        cells.append(_smoke_cell("optimal", 512, args.seed))

    all_recovered = all(cell["recovered"] == cell["strikes"] for cell in cells)
    summary = {
        "benchmark": "chaos-recovery-smoke",
        "seed": args.seed,
        "cells": cells,
        "all_recovered": all_recovered,
    }
    with open(args.json, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for cell in cells:
        print(
            f"{cell['protocol']:>8} n={cell['n']:>5}: "
            f"{cell['recovered']}/{cell['strikes']} recovered, "
            f"worst {cell['worst_recovery_time']:.1f} parallel time, "
            f"{cell['seconds']:.2f}s wall"
        )
    if not all_recovered:
        print("FAIL: a strike did not recover", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())


def bench_suite():
    """The ``chaos`` suite for ``repro bench``: recovery wall time."""
    from repro.obs.bench import BenchSuite

    def recovery(protocol_name, n):
        def cell(seed, repeat):
            _recovery_run(protocol_name, n, seed)
            return None  # harness-timed: the metric is wall seconds

        return cell

    suite = BenchSuite(
        "chaos",
        description="multi-burst fault recovery wall time (count engine)",
    )
    suite.cell("ciw-recovery-n256", recovery("ciw", 256), repeats=2)
    suite.cell("optimal-recovery-n128", recovery("optimal", 128), repeats=2)
    return suite
