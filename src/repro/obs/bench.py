"""Unified benchmark harness with statistical regression gating.

The repo's ``benchmarks/bench_*.py`` scripts each declare a *smoke
suite* -- a handful of cheap, seeded cells -- via :func:`BenchSuite`.
This module discovers those suites, runs each cell ``repeats`` times
(mean/stdev instead of one noisy number), stores/loads per-suite
baselines under ``reports/ledger/``, and compares a fresh run against
the stored baseline with a bootstrap confidence interval so that only
changes *outside measurement noise* are flagged.

The gate flags a cell as regressed only when both hold:

* the mean moved past the relative threshold (default 20%) in the bad
  direction (slower for ``seconds`` cells, fewer ``*_per_second`` for
  rate cells), and
* the move is statistically distinguishable from noise -- the
  bootstrap CI of the current/baseline mean ratio excludes parity, or
  the means sit more than ``sigma`` pooled standard errors apart.
  (Cells with a single repeat have no variance estimate; for them the
  threshold alone decides.)

This is what the CI ``bench-gate`` job runs: ``repro bench --suite
engine --compare-baseline`` exits non-zero iff a regression is flagged,
and every invocation appends a ``bench`` entry to the run ledger so the
trajectory of numbers survives the run.
"""

from __future__ import annotations

import importlib.util
import json
import math
import os
import random
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.ledger import LEDGER_SCHEMA_VERSION
from repro.obs.log import get_logger
from repro.obs.provenance import run_stamp

__all__ = [
    "BenchCell",
    "BenchSuite",
    "baseline_path",
    "bootstrap_ratio_ci",
    "compare_suites",
    "discover_suites",
    "load_baseline",
    "run_suite",
    "save_baseline",
    "select_suites",
]

#: Version of the suite-result / baseline format; bump on changes.
BENCH_SCHEMA_VERSION = 1

#: Where per-suite baselines live, next to the run ledger.
DEFAULT_BASELINE_DIR = os.path.join("reports", "ledger")

#: Default per-cell repeat count when a cell does not set its own.
DEFAULT_REPEATS = 3

#: Relative mean shift (bad direction) below which nothing is flagged.
DEFAULT_REL_THRESHOLD = 0.20

#: Pooled-standard-error multiple for the z-style significance path.
DEFAULT_SIGMA = 3.0

#: Bootstrap resamples / CI confidence for the ratio interval.
BOOTSTRAP_SAMPLES = 2000
BOOTSTRAP_CONFIDENCE = 0.99

logger = get_logger("obs.bench")

#: A cell body: called with the root seed and the repeat index, returns
#: the metric value -- or ``None`` to use the harness wall timing.
CellFn = Callable[[int, int], Optional[float]]


class BenchCell:
    """One benchmark cell: a seeded callable measured ``repeats`` times.

    The harness times every call with ``perf_counter``; a cell that
    returns ``None`` is measured by that wall time (``metric`` stays
    ``"seconds"``, lower is better), while a cell returning a number
    reports that as its metric (e.g. ``interactions_per_second``,
    higher is better).
    """

    def __init__(
        self,
        name: str,
        fn: CellFn,
        *,
        repeats: int = DEFAULT_REPEATS,
        metric: str = "seconds",
        higher_is_better: bool = False,
        rel_threshold: Optional[float] = None,
    ):
        if repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {repeats}")
        self.name = name
        self.fn = fn
        self.repeats = repeats
        self.metric = metric
        self.higher_is_better = higher_is_better
        self.rel_threshold = rel_threshold


class BenchSuite:
    """A named collection of benchmark cells declared by one script."""

    def __init__(self, name: str, *, description: str = ""):
        self.name = name
        self.description = description
        self.cells: List[BenchCell] = []

    def cell(
        self,
        name: str,
        fn: CellFn,
        *,
        repeats: int = DEFAULT_REPEATS,
        metric: str = "seconds",
        higher_is_better: bool = False,
        rel_threshold: Optional[float] = None,
    ) -> "BenchSuite":
        """Register one cell; returns the suite for chaining."""
        if any(existing.name == name for existing in self.cells):
            raise ValueError(f"suite {self.name!r} already has a cell {name!r}")
        self.cells.append(BenchCell(
            name,
            fn,
            repeats=repeats,
            metric=metric,
            higher_is_better=higher_is_better,
            rel_threshold=rel_threshold,
        ))
        return self


# ---------------------------------------------------------------------------
# Suite discovery
# ---------------------------------------------------------------------------


def discover_suites(bench_dir: str = "benchmarks") -> Dict[str, BenchSuite]:
    """Import every ``bench_*.py`` and collect its declared suite.

    A script participates by defining a module-level ``bench_suite()``
    returning a :class:`BenchSuite`; scripts without one (or that fail
    to import in this environment) are skipped with a warning so one
    broken script cannot take down the whole harness.
    """
    suites: Dict[str, BenchSuite] = {}
    if not os.path.isdir(bench_dir):
        return suites
    for filename in sorted(os.listdir(bench_dir)):
        if not (filename.startswith("bench_") and filename.endswith(".py")):
            continue
        path = os.path.join(bench_dir, filename)
        module_name = f"_repro_bench_{filename[:-3]}"
        try:
            spec = importlib.util.spec_from_file_location(module_name, path)
            assert spec is not None and spec.loader is not None
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        except Exception as exc:
            logger.warning("bench: skipping %s (import failed: %s)", path, exc)
            continue
        factory = getattr(module, "bench_suite", None)
        if factory is None:
            continue
        try:
            suite = factory()
        except Exception as exc:
            logger.warning("bench: skipping %s (bench_suite() failed: %s)", path, exc)
            continue
        if suite.name in suites:
            logger.warning(
                "bench: duplicate suite %r from %s ignored", suite.name, path
            )
            continue
        suites[suite.name] = suite
    return suites


def select_suites(
    suites: Dict[str, BenchSuite],
    names: Sequence[str],
    cells: Optional[Sequence[str]] = None,
) -> List[BenchSuite]:
    """The suites called ``names``, each checked to hold every ``cells`` name.

    The one suite and cell lookup: ``repro bench`` and the job service
    (at submission and again at execution) resolve names here, so a
    name that cannot run is refused before any work starts.  Raises
    ``ValueError`` naming what is unknown.
    """
    unknown = [name for name in names if name not in suites]
    if unknown:
        raise ValueError(
            f"unknown suite(s) {', '.join(unknown)}; "
            f"discovered: {', '.join(sorted(suites)) or 'none'}"
        )
    selected = [suites[name] for name in names]
    for suite in selected:
        _check_cells(suite, cells)
    return selected


def _check_cells(suite: BenchSuite, cells: Optional[Sequence[str]]) -> None:
    if cells is None:
        return
    unknown = set(cells) - {cell.name for cell in suite.cells}
    if unknown:
        raise ValueError(
            f"suite {suite.name!r} has no cell(s) {sorted(unknown)}; "
            f"known: {[cell.name for cell in suite.cells]}"
        )


# ---------------------------------------------------------------------------
# Running a suite
# ---------------------------------------------------------------------------


def _cell_stats(values: Sequence[float]) -> Dict[str, float]:
    mean = sum(values) / len(values)
    stdev = statistics.stdev(values) if len(values) > 1 else 0.0
    return {"mean": mean, "stdev": stdev, "min": min(values), "max": max(values)}


def run_suite(
    suite: BenchSuite,
    *,
    seed: int,
    repeats: Optional[int] = None,
    cells: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Run every cell of ``suite``; returns the stamped result document.

    Each cell runs its declared repeat count (``repeats`` overrides all
    cells -- useful to shorten CI or deepen a local investigation) and
    reports the per-repeat values plus mean/stdev, which is what the
    bootstrap comparison consumes.
    """
    _check_cells(suite, cells)
    results: List[Dict[str, Any]] = []
    suite_started = time.perf_counter()
    for cell in suite.cells:
        if cells is not None and cell.name not in cells:
            continue
        count = repeats if repeats is not None else cell.repeats
        values: List[float] = []
        walls: List[float] = []
        for repeat in range(count):
            started = time.perf_counter()
            metric_value = cell.fn(seed, repeat)
            elapsed = time.perf_counter() - started
            walls.append(elapsed)
            values.append(elapsed if metric_value is None else float(metric_value))
        record: Dict[str, Any] = {
            "cell": cell.name,
            "metric": cell.metric,
            "higher_is_better": cell.higher_is_better,
            "repeats": count,
            "values": [round(value, 9) for value in values],
            "wall_seconds": round(sum(walls), 6),
        }
        record.update(
            {key: round(value, 9) for key, value in _cell_stats(values).items()}
        )
        if cell.rel_threshold is not None:
            record["rel_threshold"] = cell.rel_threshold
        results.append(record)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": suite.name,
        "description": suite.description,
        "seed": seed,
        "cells": results,
        "wall_seconds": round(time.perf_counter() - suite_started, 6),
        **run_stamp(),
    }


# ---------------------------------------------------------------------------
# Baselines
# ---------------------------------------------------------------------------


def baseline_path(suite_name: str, baseline_dir: str = DEFAULT_BASELINE_DIR) -> str:
    return os.path.join(baseline_dir, f"baseline_{suite_name}.json")


def save_baseline(
    result: Dict[str, Any], baseline_dir: str = DEFAULT_BASELINE_DIR
) -> str:
    path = baseline_path(result["suite"], baseline_dir)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_baseline(
    suite_name: str, baseline_dir: str = DEFAULT_BASELINE_DIR
) -> Optional[Dict[str, Any]]:
    path = baseline_path(suite_name, baseline_dir)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# Statistical comparison
# ---------------------------------------------------------------------------


def bootstrap_ratio_ci(
    baseline_values: Sequence[float],
    current_values: Sequence[float],
    *,
    samples: int = BOOTSTRAP_SAMPLES,
    confidence: float = BOOTSTRAP_CONFIDENCE,
    rng: Optional[random.Random] = None,
) -> Tuple[float, float]:
    """Bootstrap CI of ``mean(current) / mean(baseline)``.

    Resamples both sides with replacement (the standard two-sample
    percentile bootstrap); deterministic given ``rng``.  Degenerate
    inputs (a zero baseline mean resample) are skipped.
    """
    rng = rng or random.Random(0xBE7C)
    ratios: List[float] = []
    for _ in range(samples):
        base = [rng.choice(baseline_values) for _ in baseline_values]
        curr = [rng.choice(current_values) for _ in current_values]
        base_mean = sum(base) / len(base)
        if base_mean == 0:
            continue
        ratios.append((sum(curr) / len(curr)) / base_mean)
    if not ratios:
        return (float("nan"), float("nan"))
    ratios.sort()
    tail = (1.0 - confidence) / 2.0
    low_index = int(math.floor(tail * (len(ratios) - 1)))
    high_index = int(math.ceil((1.0 - tail) * (len(ratios) - 1)))
    return (ratios[low_index], ratios[high_index])


def _standard_error(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    return statistics.stdev(values) / math.sqrt(len(values))


def compare_cells(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    *,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    sigma: float = DEFAULT_SIGMA,
    rng: Optional[random.Random] = None,
) -> Dict[str, Any]:
    """Verdict for one cell: did the metric regress beyond noise?"""
    base_values = [float(v) for v in baseline["values"]]
    curr_values = [float(v) for v in current["values"]]
    base_mean = sum(base_values) / len(base_values)
    curr_mean = sum(curr_values) / len(curr_values)
    higher_is_better = bool(current.get("higher_is_better"))
    threshold = float(current.get("rel_threshold", rel_threshold))
    ratio = curr_mean / base_mean if base_mean else float("nan")
    # Positive change_pct always means "worse", whatever the metric's
    # direction, so report readers never have to re-derive polarity.
    if higher_is_better:
        change_worse = (base_mean - curr_mean) / base_mean if base_mean else 0.0
    else:
        change_worse = (curr_mean - base_mean) / base_mean if base_mean else 0.0
    verdict: Dict[str, Any] = {
        "cell": current["cell"],
        "metric": current["metric"],
        "higher_is_better": higher_is_better,
        "baseline_mean": round(base_mean, 9),
        "current_mean": round(curr_mean, 9),
        "ratio": round(ratio, 6),
        "change_worse_pct": round(100.0 * change_worse, 3),
        "rel_threshold_pct": round(100.0 * threshold, 3),
        "regression": False,
        "reason": None,
    }
    if change_worse <= threshold:
        return verdict
    # Past the threshold: is the move distinguishable from noise?
    have_variance = len(base_values) >= 2 or len(curr_values) >= 2
    ci_low, ci_high = bootstrap_ratio_ci(base_values, curr_values, rng=rng)
    verdict["ratio_ci"] = [round(ci_low, 6), round(ci_high, 6)]
    parity_outside_ci = (
        not math.isnan(ci_low) and not (ci_low <= 1.0 <= ci_high)
    )
    pooled_se = math.hypot(_standard_error(base_values), _standard_error(curr_values))
    z_separated = pooled_se > 0 and abs(curr_mean - base_mean) > sigma * pooled_se
    if not have_variance or parity_outside_ci or z_separated:
        verdict["regression"] = True
        verdict["reason"] = (
            f"{verdict['change_worse_pct']:+.1f}% worse "
            f"(> {verdict['rel_threshold_pct']:.0f}% threshold"
            + (", outside bootstrap CI" if parity_outside_ci else "")
            + (f", > {sigma:.0f} sigma" if z_separated else "")
            + ("" if have_variance else ", single repeat")
            + ")"
        )
    return verdict


def compare_suites(
    baseline: Dict[str, Any],
    current: Dict[str, Any],
    *,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
    sigma: float = DEFAULT_SIGMA,
) -> Dict[str, Any]:
    """Compare a fresh suite run against its stored baseline.

    Cells present on only one side are reported (``added`` /
    ``removed``) but never flagged -- renaming a cell must not trip the
    gate.  A cell whose ``metric`` changed is a different measurement
    under an old name: its two values are in unlike units, so it is
    reported as removed and added rather than compared.  The comparison
    RNG is fixed, so verdicts are reproducible for a given pair of
    result documents.
    """
    if baseline["suite"] != current["suite"]:
        raise ValueError(
            f"suite mismatch: baseline {baseline['suite']!r} "
            f"vs current {current['suite']!r}"
        )
    rng = random.Random(0xBE7C)
    baseline_cells = {
        (cell["cell"], cell["metric"]): cell for cell in baseline["cells"]
    }
    current_cells = {(cell["cell"], cell["metric"]): cell for cell in current["cells"]}
    verdicts = [
        compare_cells(
            baseline_cells[key],
            current_cells[key],
            rel_threshold=rel_threshold,
            sigma=sigma,
            rng=rng,
        )
        for key in current_cells
        if key in baseline_cells
    ]
    flagged = [verdict for verdict in verdicts if verdict["regression"]]
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": current["suite"],
        "baseline_git_sha": baseline.get("git_sha"),
        "current_git_sha": current.get("git_sha"),
        "cells": verdicts,
        "added": sorted(name for name, _ in set(current_cells) - set(baseline_cells)),
        "removed": sorted(name for name, _ in set(baseline_cells) - set(current_cells)),
        "regressions": len(flagged),
    }


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_suite_result(result: Dict[str, Any]) -> str:
    """Human-readable per-cell lines for one suite run."""
    lines = [
        f"suite {result['suite']}: {len(result['cells'])} cell(s), "
        f"seed={result['seed']}, {result['wall_seconds']:.2f}s wall"
    ]
    for cell in result["cells"]:
        lines.append(
            f"  {cell['cell']:<36} {cell['mean']:.6g} {cell['metric']}"
            f" (stdev {cell['stdev']:.2g}, n={cell['repeats']})"
        )
    return "\n".join(lines)


def render_comparison(comparison: Dict[str, Any]) -> str:
    """Human-readable verdict lines for one baseline comparison."""
    lines = [
        f"suite {comparison['suite']} vs baseline "
        f"{(comparison.get('baseline_git_sha') or 'unknown')[:12]}: "
        f"{comparison['regressions']} regression(s) flagged"
    ]
    for verdict in comparison["cells"]:
        marker = "REGRESSION" if verdict["regression"] else "ok"
        lines.append(
            f"  {marker:<10} {verdict['cell']:<36} "
            f"{verdict['baseline_mean']:.6g} -> {verdict['current_mean']:.6g} "
            f"{verdict['metric']} ({verdict['change_worse_pct']:+.1f}% worse)"
            + (f" [{verdict['reason']}]" if verdict["reason"] else "")
        )
    for name in comparison["added"]:
        lines.append(f"  new        {name} (no baseline yet)")
    for name in comparison["removed"]:
        lines.append(f"  gone       {name} (in baseline only)")
    return "\n".join(lines)


def ledger_fields(
    result: Dict[str, Any], comparison: Optional[Dict[str, Any]]
) -> Dict[str, Any]:
    """The ``bench`` ledger-entry payload for one suite invocation.

    The full per-repeat values live in the baseline files; the ledger
    keeps the compact trajectory (per-cell means plus the comparison
    verdict) so it stays cheap to append and scan.
    """
    assert LEDGER_SCHEMA_VERSION == 1  # revisit payload shape on bump
    fields: Dict[str, Any] = {
        "suite": result["suite"],
        "seed": result["seed"],
        "wall_seconds": result["wall_seconds"],
        "cells": {
            cell["cell"]: {
                "metric": cell["metric"],
                "mean": cell["mean"],
                "stdev": cell["stdev"],
                "repeats": cell["repeats"],
            }
            for cell in result["cells"]
        },
    }
    if comparison is not None:
        fields["regressions"] = comparison["regressions"]
        fields["flagged_cells"] = [
            verdict["cell"]
            for verdict in comparison["cells"]
            if verdict["regression"]
        ]
        fields["baseline_git_sha"] = comparison.get("baseline_git_sha")
    return fields
