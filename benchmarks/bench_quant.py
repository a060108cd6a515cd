"""Exact-solver benchmarks: chain construction and hitting-time solves.

Quantifies :mod:`repro.statics.quant` -- the wall time of building the
explicit configuration chain and solving the expected-hitting-time
system, as a function of the configuration-set size.  These are the
numbers that bound how far ``repro verify`` / ``repro synth`` scale,
and the ``repro bench --suite quant`` cells put the solver under the
statistical regression gate alongside the engines it validates.

Cells (sizes chosen to finish in seconds while spanning two orders of
magnitude in configuration count):

* ``solve-ciw-n6``        -- Silent-n-state-SSR, full space (462 configs);
* ``solve-ciw-n8``        -- same, 6435 configs (sparse solve dominates);
* ``solve-optimal-n3``    -- optimal silent protocol, full space
  (2024 configs; the pair table is the interesting cost here);
* ``solve-ciw-n6-fallback`` -- the pure-python Gauss-Seidel fallback on
  the n=6 space, so the no-scipy path is under the same gate;
* ``distribution-ciw-n5`` -- transient powering of the full hitting-time
  pmf to a 1e-9 tail;
* ``witness-ciw-n64``     -- the reachable chain of the paper's
  Omega(n^2) witness at n=64 (pair table, chain, both moments): the
  exact oracle ``repro run table1 --quick`` pays once per pass.

Entry points::

    python benchmarks/bench_quant.py --json BENCH_quant.json   # smoke
    repro bench --suite quant                                  # ledgered
"""

import argparse
import json
import statistics
import sys
import time

from repro.core.fastpath import worst_case_ciw_counts
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.parameters import OptimalSilentParameters, ResetParameters
from repro.statics.quant import build_chain, hitting_distribution, hitting_moments

SMOKE_SEED = 1234


def _tiny_optimal(n: int) -> OptimalSilentSSR:
    return OptimalSilentSSR(
        n, OptimalSilentParameters(reset=ResetParameters(r_max=2, d_max=2), e_max=2)
    )


def _solve_cell(protocol, *, solver: str = "auto", label: str) -> dict:
    """Build the full chain and solve both hitting moments, timed."""
    start = time.perf_counter()
    chain = build_chain(protocol)
    built = time.perf_counter()
    moments = hitting_moments(chain, solver=solver)
    elapsed = time.perf_counter() - start
    worst, _ = moments.worst_case()
    return {
        "cell": label,
        "solver": moments.solver,
        "configs": chain.size,
        "worst_case_interactions": worst,
        "build_seconds": round(built - start, 6),
        "seconds": round(elapsed, 6),
        "configs_per_second": chain.size / elapsed,
    }


def _witness_cell(n: int) -> dict:
    """Build the witness's reachable chain and solve both moments, timed."""
    protocol = SilentNStateSSR(n)
    states = protocol.counts_to_configuration(worst_case_ciw_counts(n))
    start = time.perf_counter()
    chain = build_chain(protocol, starts=[states])
    built = time.perf_counter()
    moments = hitting_moments(chain)
    elapsed = time.perf_counter() - start
    return {
        "cell": f"witness-ciw-n{n}",
        "solver": moments.solver,
        "configs": chain.size,
        "worst_case_interactions": moments.expected_from_states(states),
        "build_seconds": round(built - start, 6),
        "seconds": round(elapsed, 6),
        "configs_per_second": chain.size / elapsed,
    }


def _distribution_cell(n: int) -> dict:
    """Transient powering of the full pmf from the worst-case start."""
    protocol = SilentNStateSSR(n)
    start_states = protocol.worst_case_configuration()
    chain = build_chain(protocol, starts=[start_states])
    start = time.perf_counter()
    distribution = hitting_distribution(chain, chain.config_of(start_states))
    elapsed = time.perf_counter() - start
    return {
        "cell": f"distribution-ciw-n{n}",
        "configs": chain.size,
        "pmf_steps": len(distribution.pmf),
        "tail": distribution.tail,
        "seconds": round(elapsed, 6),
        "steps_per_second": len(distribution.pmf) / elapsed,
    }


def _repeat_cell(fn, repeats: int) -> dict:
    """Repeat one timed cell; report the mean rate and its spread."""
    values = []
    cell = {}
    rate_key = None
    for _ in range(repeats):
        cell = fn()
        rate_key = "configs_per_second" if "configs_per_second" in cell else "steps_per_second"
        values.append(cell[rate_key])
    cell["repeats"] = repeats
    cell[f"{rate_key}_values"] = values
    cell[rate_key] = sum(values) / len(values)
    cell[f"{rate_key}_stdev"] = statistics.stdev(values) if len(values) > 1 else 0.0
    return cell


def bench_suite():
    """The ``quant`` suite for ``repro bench`` (see repro.obs.bench)."""
    from repro.obs.bench import BenchSuite

    suite = BenchSuite(
        "quant",
        description="exact chain build + hitting-time solve wall time vs size",
    )
    suite.cell(
        "solve-ciw-n6",
        lambda seed, repeat: _solve_cell(SilentNStateSSR(6), label="solve-ciw-n6")[
            "configs_per_second"
        ],
        repeats=3,
        metric="configs_per_second",
        higher_is_better=True,
    )
    suite.cell(
        "solve-ciw-n8",
        lambda seed, repeat: _solve_cell(SilentNStateSSR(8), label="solve-ciw-n8")[
            "configs_per_second"
        ],
        repeats=2,
        metric="configs_per_second",
        higher_is_better=True,
    )
    suite.cell(
        "solve-optimal-n3",
        lambda seed, repeat: _solve_cell(_tiny_optimal(3), label="solve-optimal-n3")[
            "configs_per_second"
        ],
        repeats=2,
        metric="configs_per_second",
        higher_is_better=True,
    )
    suite.cell(
        "solve-ciw-n6-fallback",
        lambda seed, repeat: _solve_cell(
            SilentNStateSSR(6), solver="gauss-seidel", label="solve-ciw-n6-fallback"
        )["configs_per_second"],
        repeats=2,
        metric="configs_per_second",
        higher_is_better=True,
    )
    suite.cell(
        "distribution-ciw-n5",
        lambda seed, repeat: _distribution_cell(5)["steps_per_second"],
        repeats=3,
        metric="steps_per_second",
        higher_is_better=True,
    )
    suite.cell(
        "witness-ciw-n64",
        lambda seed, repeat: _witness_cell(64)["configs_per_second"],
        repeats=2,
        metric="configs_per_second",
        higher_is_better=True,
    )
    return suite


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Quick exact-solver smoke; writes a JSON summary."
    )
    parser.add_argument(
        "--json",
        default="BENCH_quant.json",
        help="output path for the JSON summary (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="timed passes per cell (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    from repro.obs.provenance import run_stamp

    cells = [
        _repeat_cell(
            lambda: _solve_cell(SilentNStateSSR(6), label="solve-ciw-n6"),
            args.repeats,
        ),
        _repeat_cell(
            lambda: _solve_cell(SilentNStateSSR(8), label="solve-ciw-n8"), 1
        ),
        _repeat_cell(
            lambda: _solve_cell(_tiny_optimal(3), label="solve-optimal-n3"),
            args.repeats,
        ),
        _repeat_cell(
            lambda: _solve_cell(
                SilentNStateSSR(6),
                solver="gauss-seidel",
                label="solve-ciw-n6-fallback",
            ),
            args.repeats,
        ),
        _repeat_cell(lambda: _distribution_cell(5), args.repeats),
        _repeat_cell(lambda: _witness_cell(64), args.repeats),
    ]

    summary = {
        "benchmark": "quant-solver-smoke",
        "schema_version": 1,
        **run_stamp(),
        "cells": cells,
    }
    with open(args.json, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for cell in cells:
        rate = cell.get("configs_per_second") or cell.get("steps_per_second")
        print(
            f"{cell['cell']:>22}: {cell['configs']:>5} configs, "
            f"{cell['seconds']:.3f}s ({rate:.0f}/s, repeats={cell['repeats']})"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
