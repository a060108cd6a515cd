"""Engine-throughput benchmarks (not a paper artifact).

These quantify the simulator itself: interactions/second of the generic
sequential engine on each protocol, effective events/second and
construction/run wall seconds of the count-based engines' jump mode,
wall seconds of the Optimal-Silent-SSR array simulator behind ``repro
run whp``, the history-tree operations that dominate
Sublinear-Time-SSR's cost, and the cold start every ``repro`` command
pays (peak RSS and wall seconds of a fresh ``import
repro.experiments.cli``).  A jump-mode cell also records the
interactions it accounted for, as context: that figure grows with the
jump length, not with engine speed, so it is never a rate.  They
are the numbers that justify the fast-path design (see DESIGN.md,
"repro_why" note, and docs/performance.md).

Three entry points:

* ``pytest benchmarks/ --benchmark-only`` — full pytest-benchmark run.
* ``python benchmarks/bench_engine.py --json BENCH_engine.json`` — quick
  smoke (repeated timed passes per cell, reporting mean/stdev) that
  records each cell's rate and the count/generic speedup (the wall-time
  ratio for the same accounted interactions); CI runs this and fails if
  the count engine falls below 50x the generic engine on
  SilentNStateSSR at n=1024, if class-pruned pair classification
  falls below 10x a full scan at n=8192, if the count engine holds
  more than 250 traced bytes per slot after a jump-mode witness run at
  n=8192, or if a fresh ``import repro.experiments.cli`` loads numpy.
* ``repro bench --suite engine`` — the ledgered harness entry point
  (:func:`bench_suite` below): the same cells with repeats, gated
  statistically against a stored baseline by
  ``repro bench --suite engine --compare-baseline``.
"""

import argparse
import copy
import json
import os
import random
import statistics
import subprocess
import sys
import time
import tracemalloc

import pytest

import repro
from repro.core.countsim import CountSimulation, ProbeTable
from repro.core.fastpath import CiwJumpSimulator, worst_case_ciw_counts
from repro.core.fastpath_optimal_silent import OptimalSilentFastSim
from repro.core.rng import make_rng
from repro.core.simulation import Simulation
from repro.protocols.cai_izumi_wada import SilentNStateSSR
from repro.protocols.optimal_silent import OptimalSilentSSR
from repro.protocols.parameters import calibrated_sublinear
from repro.protocols.sublinear.detect_collision import find_collision, merge_histories
from repro.protocols.sublinear.protocol import SublinearTimeSSR
from repro.statics.oracle import _initial_start, _tiny_optimal

STEPS = 20_000
SMOKE_SEED = 1234
MIN_COUNT_SPEEDUP = 50.0
#: Class-pruned pair classification must beat a full scan by at least
#: this factor at n=8192 (bootstrap-CI separated, not just means).
MIN_PRUNING_SPEEDUP = 10.0
#: Most tracemalloc-traced bytes per slot the count engine may hold
#: after a jump-mode run from the CIW witness at n=8192: the reading,
#: ~208 in a fresh process, plus a 20% margin.  (Slots keyed by key
#: tuples read ~376; the earlier per-slot tuples and lists ~673.)
MAX_BYTES_PER_SLOT = 250
#: Interleaved unrecorded/recorded pass pairs behind the smoke's
#: recording-overhead figure.
RECORDING_PAIRS = 10
#: Random-start trials per pass of the Optimal-Silent fast-simulator cell.
FASTSIM_TRIALS = 10
#: Trials per pass of the probe-table series cell: one ``repro verify``
#: count estimate.
SERIES_TRIALS = 100
#: Fresh interpreters timed by the cold-start cell.
COLD_START_REPEATS = 3
#: The cold-start child: import the CLI, then print its own peak RSS in
#: KiB and whether numpy got loaded.  Linux's ``VmHWM`` is preferred to
#: ``ru_maxrss``, which a child spawned by vfork + exec inherits from
#: the parent's resident set (a 200 MB parent makes a 24 MB child read
#: 219 MB).
_COLD_START = """\
import sys
import repro.experiments.cli
try:
    with open("/proc/self/status") as status:
        kib = next(int(line.split()[1]) for line in status if line.startswith("VmHWM"))
except OSError:
    import resource
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib //= 1024 if sys.platform == "darwin" else 1
print(kib, "numpy" in sys.modules)
"""


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


def _witness_counts(n: int) -> list:
    """The CIW worst case as the ``(rank, count)`` pairs
    :meth:`CountSimulation.from_counts` takes."""
    return [(rank, count) for rank, count in enumerate(worst_case_ciw_counts(n)) if count]


def _count_engine_convergence(n: int, seed: int) -> int:
    """Run the count engine to silence from the CIW worst case."""
    sim = CountSimulation.from_counts(
        SilentNStateSSR(n), _witness_counts(n), rng=make_rng(seed, "count-eng", n),
        mode="jump",
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
    """Large-n cell; class-pruned classification keeps entry cost O(k)."""
    interactions = benchmark.pedantic(
        _count_engine_convergence, args=(8192, seed), rounds=1, iterations=1
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


class FullScanSilentNStateSSR(SilentNStateSSR):
    """SilentNStateSSR without its class partition, so the count engine
    classifies pairs by a full O(k^2) scan -- the baseline of the
    pruning gate.  Same pairs, same order, same trajectory."""

    silent_class = None


def _smoke_jump(n: int, seed: int, recorder=None, full_scan: bool = False) -> dict:
    """Time the count engine in jump mode from the CIW worst case to silence.

    Construction (slot tables and pair classification) and the run are
    timed separately; ``events_per_second`` is events over run seconds,
    the rate of the jump loop itself.  ``full_scan`` drops the
    ``silent_class`` pruning; both variants use the same seed labels
    and replay the identical trajectory, so their wall-time ratio is
    the pruning's gain alone.
    """
    protocol = (FullScanSilentNStateSSR if full_scan else SilentNStateSSR)(n)
    counts = _witness_counts(n)
    rng = make_rng(seed, "smoke-count", n)
    start = time.perf_counter()
    sim = CountSimulation.from_counts(
        protocol, counts, rng=rng, mode="jump", recorder=recorder
    )
    built = time.perf_counter()
    sim.run_until_silent()
    done = time.perf_counter()
    return {
        "engine": "count-full-scan" if full_scan else "count",
        "protocol": "SilentNStateSSR",
        "n": n,
        "recording": recorder is not None,
        "interactions": sim.interactions,
        "events": sim.events,
        "construct_seconds": round(built - start, 6),
        "run_seconds": round(done - built, 6),
        "seconds": round(done - start, 6),
        "events_per_second": sim.events / (done - built),
    }


#: The count-engine loops, each on the workload that uses it:
#: ``(protocol, n, mode, trials, batched)`` per cell name.  Active mode
#: is what chaos runs of the silent protocols (and so every service
#: chaos job) execute; interaction mode is the ``auto`` opening before
#: the switch to jump mode; the batched ``auto`` cell is the vector
#: engine at ``repro verify``'s scale.
MODE_CELLS = {
    "count-active-ciw-n16": ("ciw", 16, "active", 200, False),
    "count-interaction-optimal-n64": ("optimal-silent", 64, "interaction", 5, False),
    "vector-auto-optimal-n4": ("optimal-silent", 4, "auto", 200, True),
}


def _smoke_mode(cell: str, seed: int) -> dict:
    """Time one count-engine loop from random starts.

    Each trial builds the engine on a seed-pinned random configuration
    and runs it until the ranking is correct (for these silent
    protocols, silent too): unbatched, ``n`` interactions at a time, as
    ``measure_recovery`` does; batched, in one ``run_until_silent``, as
    ``repro verify`` does.  ``events_per_second`` is events over run
    seconds; the events are the same on every pass.
    """
    name, n, mode, trials, batched = MODE_CELLS[cell]
    protocol = (SilentNStateSSR if name == "ciw" else OptimalSilentSSR)(n)
    if batched:
        try:
            import numpy  # noqa: F401 -- else trial 0's first draw pays the import
        except ImportError:
            pass  # batched=True takes the scalar path
    events = 0
    run_seconds = 0.0
    start = time.perf_counter()
    for trial in range(trials):
        rng = make_rng(seed, "smoke-mode", cell, trial)
        sim = CountSimulation(
            protocol, protocol.random_configuration(rng), rng=rng, mode=mode,
            batched=batched,
        )
        began = time.perf_counter()
        if batched:
            sim.run_until_silent()
        else:
            while not sim.correct:
                sim.run(n)
        run_seconds += time.perf_counter() - began
        events += sim.events
    return {
        "engine": f"{'vector' if batched else 'count'}-{mode}",
        "protocol": type(protocol).__name__,
        "n": n,
        "trials": trials,
        "events": events,
        "run_seconds": round(run_seconds, 6),
        "seconds": round(time.perf_counter() - start, 6),
        "events_per_second": events / run_seconds,
    }


def _smoke_series(seed: int) -> dict:
    """Time a series of count-engine trials that share one probe table.

    ``repro verify``'s count estimate for its tiny Optimal-Silent target
    at n=4: ``SERIES_TRIALS`` fresh engines from the target's initial
    start, each run to silence, all on one protocol instance and one
    :class:`~repro.core.countsim.ProbeTable`, as ``verify_target`` runs
    them.  ``seconds`` is the whole series, construction included;
    ``events_per_second`` is events over run seconds.
    """
    protocol = _tiny_optimal(4)
    states = _initial_start(protocol)
    table = ProbeTable(protocol)
    events = 0
    run_seconds = 0.0
    start = time.perf_counter()
    for trial in range(SERIES_TRIALS):
        rng = make_rng(seed, "smoke-series", trial)
        sim = CountSimulation(
            protocol, copy.deepcopy(states), rng=rng, probe_table=table
        )
        began = time.perf_counter()
        sim.run_until_silent()
        run_seconds += time.perf_counter() - began
        events += sim.events
    return {
        "engine": "count-series",
        "protocol": type(protocol).__name__,
        "n": protocol.n,
        "trials": SERIES_TRIALS,
        "events": events,
        "table_hits": table.hits,
        "table_entries": len(table),
        "run_seconds": round(run_seconds, 6),
        "seconds": round(time.perf_counter() - start, 6),
        "events_per_second": events / run_seconds,
    }


def _smoke_memory(n: int, seed: int) -> dict:
    """Traced bytes per slot the count engine holds after a jump-mode
    run from the CIW worst case to silence.

    The configuration and the RNG are built before tracing starts, so
    the figure is what the engine itself allocates and keeps: slot
    tables, memo, pair columns and Fenwick trees.  tracemalloc counts
    requested bytes, so the figure repeats exactly in a given process
    state; tuples reused from CPython's free lists are not traced, so a
    process that has already run other cells reads up to ~15 B/slot
    lower than a fresh one.
    """
    protocol = SilentNStateSSR(n)
    counts = _witness_counts(n)
    rng = make_rng(seed, "smoke-memory", n)
    tracemalloc.start()
    try:
        sim = CountSimulation.from_counts(protocol, counts, rng=rng, mode="jump")
        sim.run_until_silent()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    slots = len(sim._reps)
    return {
        "engine": "count",
        "protocol": "SilentNStateSSR",
        "n": n,
        "slots": slots,
        "traced_bytes": traced,
        "bytes_per_slot": traced / slots,
    }


def _smoke_fastsim(n: int, seed: int) -> dict:
    """Time ``OptimalSilentFastSim`` over seed-pinned random-start trials.

    The workload of ``repro run whp`` and Table 1 row 2: each trial runs
    to a correct ranking, one simulated interaction at a time, so the
    interaction total is the same on every pass and wall seconds are the
    gated figure.
    """
    start = time.perf_counter()
    interactions = 0
    for trial in range(FASTSIM_TRIALS):
        sim = OptimalSilentFastSim(n, make_rng(seed, "smoke-fastsim", n, trial))
        sim.random_start()
        interactions += sim.run_to_convergence(50_000 * n * n)
    elapsed = time.perf_counter() - start
    return {
        "engine": "fastsim",
        "protocol": "OptimalSilentSSR",
        "n": n,
        "trials": FASTSIM_TRIALS,
        "interactions": interactions,
        "seconds": round(elapsed, 6),
        "interactions_per_second": interactions / elapsed,
    }


def _cold_start_cli() -> dict:
    """Peak RSS and wall seconds of ``import repro.experiments.cli`` in
    a fresh interpreter -- what every ``repro`` command pays before it
    does any work.  numpy belongs to the batched sampler's first draw,
    so ``numpy_loaded`` must stay False."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    start = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-c", _COLD_START],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout
    elapsed = time.perf_counter() - start
    kib, numpy_loaded = out.split()
    return {
        "command": "python -c 'import repro.experiments.cli'",
        "seconds": round(elapsed, 6),
        "peak_rss_mb": round(int(kib) / 1024, 3),
        "numpy_loaded": numpy_loaded == "True",
    }


def _smoke_cold_start(repeats: int) -> dict:
    """``repeats`` fresh cold starts, per-repeat seconds and peak RSS."""
    runs = [_cold_start_cli() for _ in range(repeats)]
    return {
        "command": runs[0]["command"],
        "repeats": repeats,
        "seconds_values": [run["seconds"] for run in runs],
        "peak_rss_mb_values": [run["peak_rss_mb"] for run in runs],
        "numpy_loaded": any(run["numpy_loaded"] for run in runs),
    }


def _smoke_count(n: int, seed: int) -> dict:
    return _smoke_jump(n, seed)


def _smoke_count_recording(n: int, seed: int) -> dict:
    """The n=1024 count cell re-run with a live metrics recorder.

    Same seed and workload as the unrecorded cell (the run is
    bit-identical: recording never consumes engine randomness), so the
    throughput delta is exactly the observability overhead.
    """
    from repro.obs import MetricsRecorder

    recorder = MetricsRecorder(sample_every=4096)
    cell = _smoke_jump(n, seed, recorder=recorder)
    cell["recorder_aggregates"] = recorder.aggregates()
    return cell


def _rate(cell: dict) -> str:
    """The cell's headline rate: events/s for jump mode, where accounted
    interactions are not work, and interactions/s otherwise."""
    return "events_per_second" if "events_per_second" in cell else "interactions_per_second"


def _summarize(cell: dict, rates: list, seconds: list) -> dict:
    """Fold per-repeat rates and wall seconds into ``cell`` (the last
    repeat's document: the work is identical across repeats -- same
    seed, same trajectory) as the variance summary a single timing
    cannot provide."""
    metric = _rate(cell)
    cell["repeats"] = len(rates)
    cell[f"{metric}_values"] = rates
    cell[metric] = sum(rates) / len(rates)
    cell[f"{metric}_stdev"] = statistics.stdev(rates) if len(rates) > 1 else 0.0
    cell["seconds_values"] = seconds
    return cell


def _repeat_cell(fn, repeats: int) -> dict:
    """Run one smoke cell ``repeats`` times; report per-repeat rates and
    wall seconds."""
    rates = []
    seconds = []
    cell = {}
    for _ in range(repeats):
        cell = fn()
        rates.append(cell[_rate(cell)])
        seconds.append(cell["seconds"])
    return _summarize(cell, rates, seconds)


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
            rates[recorded].append(cell["events_per_second"])
            seconds[recorded].append(cell["seconds"])
    ratio = statistics.mean(seconds[True]) / statistics.mean(seconds[False])
    low, high = bootstrap_ratio_ci(seconds[False], seconds[True])
    return (
        _summarize(cells[False], rates[False], seconds[False]),
        _summarize(cells[True], rates[True], seconds[True]),
        100.0 * (ratio - 1.0),
        (100.0 * (low - 1.0), 100.0 * (high - 1.0)),
    )


def bench_suite():
    """The ``engine`` suite for ``repro bench`` (see repro.obs.bench)."""
    from repro.obs.bench import BenchSuite

    suite = BenchSuite(
        "engine",
        description="engine throughput: generic interactions/s, jump-mode "
        "events/s, recorded overhead; count-engine bytes per slot; "
        "CLI cold-start peak RSS",
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
        "count-jump-n1024",
        lambda seed, repeat: _smoke_count(1024, seed)["events_per_second"],
        repeats=3,
        metric="events_per_second",
        higher_is_better=True,
    )
    suite.cell(
        "count-jump-n8192",
        lambda seed, repeat: _smoke_count(8192, seed)["events_per_second"],
        repeats=2,
        metric="events_per_second",
        higher_is_better=True,
    )
    for name in MODE_CELLS:
        suite.cell(
            name,
            lambda seed, repeat, name=name: _smoke_mode(name, seed)["events_per_second"],
            repeats=3,
            metric="events_per_second",
            higher_is_better=True,
        )
    suite.cell(
        "count-series-optimal-n4",
        lambda seed, repeat: _smoke_series(seed)["events_per_second"],
        repeats=3,
        metric="events_per_second",
        higher_is_better=True,
    )
    suite.cell(
        "count-memory-n8192",
        lambda seed, repeat: _smoke_memory(8192, seed)["bytes_per_slot"],
        repeats=1,
        metric="bytes_per_slot",
        higher_is_better=False,
    )
    suite.cell(
        "count-jump-n1024-recorded",
        lambda seed, repeat: _smoke_count_recording(1024, seed)["events_per_second"],
        repeats=3,
        metric="events_per_second",
        higher_is_better=True,
    )
    suite.cell(
        "fastsim-optimal-silent-n128",
        lambda seed, repeat: _smoke_fastsim(128, seed)["seconds"],
        repeats=3,
        metric="seconds",
        higher_is_better=False,
    )
    suite.cell(
        "cold-start-cli",
        lambda seed, repeat: _cold_start_cli()["peak_rss_mb"],
        repeats=COLD_START_REPEATS,
        metric="peak_rss_mb",
        higher_is_better=False,
    )
    suite.cell(
        "count-jump-n1e6",
        lambda seed, repeat: _smoke_count(10**6, seed)["events_per_second"],
        repeats=2,
        metric="events_per_second",
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
        help="timed passes per cell (default: %(default)s; the full-scan n=8192 "
        f"cell always runs twice, and the n=1024 count cells run {RECORDING_PAIRS} "
        "recorded/unrecorded pairs)",
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
    # Both n=8192 cells run at least twice so the pruning speedup below
    # has per-repeat samples on both sides for the bootstrap CI.
    cells = [
        _repeat_cell(lambda: _smoke_generic(1024, 200_000, args.seed), args.repeats),
        count_cell,
        _repeat_cell(lambda: _smoke_count(8192, args.seed), max(2, args.repeats)),
        recorded_cell,
        _repeat_cell(lambda: _smoke_jump(8192, args.seed, full_scan=True), 2),
        _repeat_cell(lambda: _smoke_fastsim(128, args.seed), max(3, args.repeats)),
    ]
    # Wall time for the same accounted interactions: how much longer the
    # generic engine would take to simulate the count cell's run.
    generic_rate = cells[0]["interactions_per_second"]
    count_rate = cells[1]["interactions"] / statistics.mean(cells[1]["seconds_values"])
    speedup = count_rate / generic_rate

    # Pruned-vs-full-scan at n=8192: both cells replay the identical
    # trajectory (same seed, same registered pairs in the same order),
    # so the ratio of their construct-plus-run wall seconds is the
    # pruning's gain alone (it is the O(k) classification, so run-only
    # events/s would miss it); the acceptance bar is the whole bootstrap
    # CI of the ratio clearing MIN_PRUNING_SPEEDUP, not just the means.
    from repro.obs.bench import bootstrap_ratio_ci

    pruning_speedup = statistics.mean(cells[4]["seconds_values"]) / statistics.mean(
        cells[2]["seconds_values"]
    )
    pruning_ci = bootstrap_ratio_ci(cells[2]["seconds_values"], cells[4]["seconds_values"])
    pruning_passed = pruning_ci[0] >= MIN_PRUNING_SPEEDUP

    # One pass: traced bytes do not vary between repeats.
    memory = _smoke_memory(8192, args.seed)
    memory_passed = memory["bytes_per_slot"] <= MAX_BYTES_PER_SLOT
    # After the memory pass, whose traced bytes depend on what ran
    # before it in this process (see _smoke_memory).
    cells += [
        _repeat_cell(lambda name=name: _smoke_mode(name, args.seed), args.repeats)
        for name in MODE_CELLS
    ]
    cells.append(_repeat_cell(lambda: _smoke_series(args.seed), args.repeats))

    cold_start = _smoke_cold_start(max(COLD_START_REPEATS, args.repeats))
    cold_start_passed = not cold_start["numpy_loaded"]

    summary = {
        "benchmark": "engine-throughput-smoke",
        "schema_version": 6,
        **run_stamp(),
        "seed": args.seed,
        "cells": cells,
        "count_vs_generic_speedup_n1024": speedup,
        "min_required_speedup": MIN_COUNT_SPEEDUP,
        "speedup_check_passed": speedup >= MIN_COUNT_SPEEDUP,
        "recording_overhead_pct_n1024": round(recording_overhead_pct, 2),
        "recording_overhead_pct_ci95_n1024": [round(v, 2) for v in recording_ci],
        "recording_pairs": RECORDING_PAIRS,
        "pruned_vs_full_scan_speedup_n8192": pruning_speedup,
        "pruned_vs_full_scan_speedup_ci95_n8192": list(pruning_ci),
        "min_required_pruning_speedup": MIN_PRUNING_SPEEDUP,
        "pruning_speedup_check_passed": pruning_passed,
        "count_memory_n8192": memory,
        "max_bytes_per_slot": MAX_BYTES_PER_SLOT,
        "memory_check_passed": memory_passed,
        "cold_start_cli": cold_start,
        "cold_start_check_passed": cold_start_passed,
    }
    with open(args.json, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")

    for cell in cells:
        metric = _rate(cell)
        unit = "events/s" if metric == "events_per_second" else "interactions/s"
        line = (
            f"{cell['engine']:>15} n={cell['n']:>7}: {cell[metric]:.3e} {unit} "
            f"(stdev {cell[f'{metric}_stdev']:.2e}, n={cell['repeats']})"
        )
        if "construct_seconds" in cell:
            line += (
                f"; last pass construct {cell['construct_seconds']:.3f} s, "
                f"run {cell['run_seconds']:.3f} s"
            )
        print(line)
    fastsim = cells[5]
    print(
        f"fastsim n={fastsim['n']}: {statistics.median(fastsim['seconds_values']):.2f} s "
        f"median wall for {fastsim['trials']} random-start trials "
        f"({fastsim['interactions']} interactions, n={fastsim['repeats']})"
    )
    print(f"count/generic speedup at n=1024: {speedup:.1f}x (required >= {MIN_COUNT_SPEEDUP:.0f}x)")
    print(
        f"recording overhead at n=1024: {recording_overhead_pct:+.1f}% "
        f"(CI95 [{recording_ci[0]:+.1f}, {recording_ci[1]:+.1f}]%, "
        f"{RECORDING_PAIRS} interleaved pairs)"
    )
    print(
        f"pruned/full-scan speedup at n=8192: {pruning_speedup:.1f}x "
        f"(CI95 [{pruning_ci[0]:.1f}, {pruning_ci[1]:.1f}], "
        f"required CI-low >= {MIN_PRUNING_SPEEDUP:.0f}x)"
    )
    print(
        f"count engine memory at n=8192: {memory['bytes_per_slot']:.0f} traced B/slot "
        f"over {memory['slots']} slots (required <= {MAX_BYTES_PER_SLOT})"
    )
    print(
        f"cold start ({cold_start['command']}): "
        f"{statistics.median(cold_start['seconds_values']):.3f} s, "
        f"{statistics.median(cold_start['peak_rss_mb_values']):.1f} MB peak RSS "
        f"(medians, n={cold_start['repeats']}); numpy loaded: {cold_start['numpy_loaded']}"
    )
    if speedup < MIN_COUNT_SPEEDUP:
        print("FAIL: count engine below required speedup", file=sys.stderr)
        return 1
    if not pruning_passed:
        print(
            "FAIL: class-pruned classification speedup CI does not clear "
            f"{MIN_PRUNING_SPEEDUP:.0f}x over a full scan at n=8192",
            file=sys.stderr,
        )
        return 1
    if not memory_passed:
        print(
            f"FAIL: count engine holds {memory['bytes_per_slot']:.0f} B/slot at n=8192, "
            f"above {MAX_BYTES_PER_SLOT}",
            file=sys.stderr,
        )
        return 1
    if not cold_start_passed:
        print(
            "FAIL: a fresh `import repro.experiments.cli` loads numpy; only "
            "the batched sampler's first draw may",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
