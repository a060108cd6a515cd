"""Pure functions of the end-to-end benchmark: statistics, at-rest
factors, span self time, regression verdicts and the per-workload
output checkers.

Nothing here imports ``repro`` or starts a process, so ``run.py``, the
child and the harness tests share one implementation of every rule.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import os
import statistics
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentile levels a tail is reported at, highest first.
TAIL_LEVELS = (99.9, 99.0, 90.0, 50.0)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


# ---------------------------------------------------------------------------
# Distributions
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_level(count: int) -> Optional[float]:
    """The highest level in :data:`TAIL_LEVELS` with at least ten of
    ``count`` samples beyond it, or ``None`` when even the median has
    fewer (then the tail is the slowest sample)."""
    for level in TAIL_LEVELS:
        # The epsilon absorbs 100 - 99.9 not being exactly 0.1.
        if count * (100.0 - level) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return level
    return None


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """``(value, label)`` of the reported tail: ``p99`` and friends by
    :func:`tail_level`, else ``max``."""
    level = tail_level(len(values))
    if level is None:
        return max(values), "max"
    return percentile(values, level), f"p{level:g}"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


#: A run's own rest time: this percentile of its probe times, the
#: speed of the fastest moments of the run.
REST_PERCENTILE = 1.0


def rest_time(samples: Sequence[Tuple[float, float]], start: float, end: float
              ) -> Optional[float]:
    """The :data:`REST_PERCENTILE` of the probe times taken in
    ``[start, end]``, or ``None`` without samples there."""
    inside = [seconds for stamp, seconds in samples if start <= stamp <= end]
    return percentile(inside, REST_PERCENTILE) if inside else None


def rest_factors(
    samples: Sequence[Tuple[float, float]],
    spans: Sequence[Tuple[float, float]],
    pad: float,
    rest: float,
) -> List[float]:
    """Each span's at-rest factor: the share of its wall time that the
    probe loop would have taken had the CPU run at rest speed throughout.

    ``samples`` are ``(stamp, seconds)`` probe times (``probe.py``),
    ``spans`` ``(start, end)`` stamps of operations on the same clock,
    and ``rest`` the probe time at rest.  At a moment the probe took
    ``t`` seconds it ran at ``rest / t`` of rest speed, so a
    span's factor is the mean of ``min(1, rest / t)`` over the samples
    inside it, widened by ``pad`` so that a span shorter than the probe
    interval still has its neighbouring samples.  A span without
    samples keeps its wall time (factor 1).
    """
    samples = sorted(samples)
    stamps = [stamp for stamp, _ in samples]
    factors = []
    for start, end in spans:
        low = bisect.bisect_left(stamps, start - pad)
        high = bisect.bisect_right(stamps, end + pad)
        inside = [min(1.0, rest / seconds) for _, seconds in samples[low:high]]
        factors.append(sum(inside) / len(inside) if inside else 1.0)
    return factors


#: The operations slow down less than the probe loop: by about this
#: power of its slowdown.  Regressing log time on log factor over ten
#: runs of each workload gave 0.63-0.82.
SLOWDOWN_EXPONENT = 0.8


def at_rest(seconds: float, factor: float) -> float:
    """An operation's at-rest time from its wall time and factor."""
    return seconds * factor ** SLOWDOWN_EXPONENT


def at_rest_median(seconds: Sequence[float], factors: Sequence[float]) -> float:
    """Median :func:`at_rest` time of the half of the operations that
    ran with the highest factors, i.e. the least contention.

    The exponent is a fit, and the correction is least certain where it
    is largest; leaving the most contended operations out keeps a mostly
    contended run from reading high or low by that error.
    """
    ranked = sorted(zip(factors, seconds), reverse=True)
    kept = ranked[: max(1, math.ceil(len(ranked) / 2))]
    return statistics.median(at_rest(value, factor) for factor, value in kept)


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


def self_times(spans: Iterable[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Each span with ``self`` = its duration minus its children's.

    A span is ``{"id", "parent", "name", "start", "end", ...}``; the
    tracer nests children strictly inside their parent on one thread,
    so subtracting child durations leaves the time the span's own layer
    was busy.
    """
    spans = list(spans)
    child_time: Dict[Any, float] = {}
    for span in spans:
        if span.get("parent") is not None:
            child_time[span["parent"]] = child_time.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    return [
        {**span, "self": span["end"] - span["start"] - child_time.get(span["id"], 0.0)}
        for span in spans
    ]


def layer_totals(spans: Iterable[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed ``self`` seconds, call count and summed
    numeric attributes (work counts such as ``events``)."""
    totals: Dict[str, Dict[str, float]] = {}
    for span in self_times(spans):
        entry = totals.setdefault(span["name"], {"self": 0.0, "calls": 0.0})
        entry["self"] += span["self"]
        entry["calls"] += 1
        for key, value in (span.get("attrs") or {}).items():
            if isinstance(value, (int, float)):
                entry[key] = entry.get(key, 0.0) + value
    return totals


# ---------------------------------------------------------------------------
# Verdicts (--compare)
# ---------------------------------------------------------------------------


def _worse_by(base: float, change: float, better: str) -> float:
    """How much worse ``change`` is than ``base``, as a share of base."""
    delta = (change - base) / abs(base) if base else 0.0
    return delta if better == "lower" else -delta


def _beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def verdict(
    base: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
    pairs: Sequence[Tuple[float, float]] = (),
) -> str:
    """``improved`` / ``unchanged`` / ``worse`` / ``unresolved``.

    * ``unresolved``: the base runs spread wider than the bound, unless
      every change run beats every base run (then ``improved``).
    * ``worse``: the change median is worse than the base median by more
      than the bound.
    * ``improved``: the change wins at least nine tenths of the pairs
      (ties count for neither) and the medians differ by more than the
      base's inter-quartile distance.

    Without a bound (per-layer metrics) only ``improved`` and
    ``unchanged`` are possible.
    """
    q1, base_median, q3 = quartiles(base)
    change_median = quartiles(change)[1]
    everywhere_better = all(_beats(c, b, better) for c in change for b in base)
    if bound is not None and spread(base) > bound:
        return "improved" if everywhere_better else "unresolved"
    if bound is not None and _worse_by(base_median, change_median, better) > bound:
        return "worse"
    wins = sum(1 for b, c in pairs if _beats(c, b, better))
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and _beats(change_median, base_median, better)
        and abs(change_median - base_median) > q3 - q1
    ):
        return "improved"
    return "unchanged"


# ---------------------------------------------------------------------------
# Output checkers: each returns a list of problems (empty = correct)
# ---------------------------------------------------------------------------


def _read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf8") as handle:
        return list(csv.DictReader(handle))


def ciw_row_problems(rows: Sequence[Dict[str, Any]], z: float = 4.0) -> List[str]:
    """Table 1 CIW rows against the exact worst-case chain.

    From the witness the stabilization time is a sum of ``n - 1``
    geometric waits, so the exact mean is ``(n-1)^2 / 2`` and a trial's
    exact relative standard deviation is ``sqrt((1-p) / (n-1))`` with
    ``p = 2 / (n (n-1))``.  Each row's mean must lie within ``z`` exact
    standard errors, and so must the rows' pooled (Stouffer) score,
    which is what catches a uniform shift too small for any one row.
    The row's own ``ci95`` is a five-sample estimate: four of *those*
    standard errors would fail about one pass in twenty by chance.
    """
    problems: List[str] = []
    scores: List[float] = []
    for row in rows:
        n, trials, mean = int(row["n"]), int(row["trials"]), float(row["expected_time"])
        exact = (n - 1) ** 2 / 2.0
        p = 2.0 / (n * (n - 1))
        se = exact * math.sqrt((1.0 - p) / (n - 1)) / math.sqrt(trials)
        score = (mean - exact) / se
        scores.append(score)
        if abs(score) > z:
            problems.append(
                f"CIW n={n}: mean {mean:.4g} is {score:+.2f} SE from exact {exact:.4g}"
            )
    if scores:
        pooled = sum(scores) / math.sqrt(len(scores))
        if abs(pooled) > z:
            problems.append(f"CIW rows: pooled score {pooled:+.2f} SE from exact")
    return problems


def check_table1(outdir: str) -> Tuple[List[str], Dict[str, Any]]:
    """``repro run table1 --quick --csv``: all three rows, CIW vs exact.

    The quick preset's own shape checks are tiny-sample fits that fail
    on some seeds (1, 2 and 3 of the first six); they are returned as
    the informational ``checks_failed`` rather than counted as errors.
    """
    rows = _read_csv(os.path.join(outdir, "table1.csv"))
    checks = _read_csv(os.path.join(outdir, "table1.checks.csv"))
    problems: List[str] = []
    for prefix in ("Silent-n-state-SSR", "Optimal-Silent-SSR", "Sublinear-Time-SSR"):
        if not any(row["protocol"].startswith(prefix) for row in rows):
            problems.append(f"table1: no {prefix} row")
    problems += ciw_row_problems(
        [row for row in rows if row["protocol"].startswith("Silent-n-state-SSR")]
    )
    failed = [check["check"] for check in checks if check["passed"] != "True"]
    return problems, {"checks_failed": failed}


def check_report_csv(
    outdir: str, experiment: str, informational: Sequence[str] = ()
) -> Tuple[List[str], Dict[str, Any]]:
    """Every check in ``<experiment>.checks.csv`` passed (and there is one).

    Failed ``informational`` checks are returned as ``checks_failed``
    instead of as problems.
    """
    checks = _read_csv(os.path.join(outdir, f"{experiment}.checks.csv"))
    if not checks:
        return [f"{experiment}: no checks written"], {}
    failed = [check for check in checks if check["passed"] != "True"]
    return [
        f"{experiment}: check {check['check']} failed ({check['measured']})"
        for check in failed
        if check["check"] not in informational
    ], {"checks_failed": [c["check"] for c in failed if c["check"] in informational]}


def check_frontier(path: str) -> Tuple[List[str], Dict[str, Any]]:
    """The frontier report dumped by the child: its checks all pass."""
    with open(path, encoding="utf8") as handle:
        report = json.load(handle)
    problems = [
        f"frontier: check {name} failed ({check['measured']})"
        for name, check in report["checks"].items()
        if not check["passed"]
    ]
    if not report["checks"]:
        problems.append("frontier: no checks")
    return problems, {}


#: ``repro verify`` on the clean Table 1 protocols: two targets, each
#: estimated by three engines.
VERIFY_ESTIMATES = 6


def check_verify(exit_code: int, report_path: str) -> Tuple[List[str], Dict[str, Any]]:
    """Exit 0 and every engine estimate inside the exact z=4 band."""
    with open(report_path, encoding="utf8") as handle:
        text = handle.read()
    within = text.count(" is within the exact band")
    outside = text.count(" is OUTSIDE the exact band")
    problems: List[str] = []
    if exit_code != 0:
        problems.append(f"verify: exit code {exit_code}")
    if outside:
        problems.append(f"verify: {outside} estimate(s) outside the exact band")
    if within != VERIFY_ESTIMATES:
        problems.append(f"verify: {within} in-band estimates, expected {VERIFY_ESTIMATES}")
    return problems, {}


def check_cold_job(created: bool, state: Optional[str], ok: Optional[bool]) -> List[str]:
    """A cold job was admitted fresh, finished ``done`` and ``ok``."""
    problems = []
    if not created:
        problems.append("cold job answered by an existing job")
    if state != "done":
        problems.append(f"cold job ended {state!r}")
    if ok is not True:
        problems.append("cold job result not ok")
    return problems


def check_hit(
    job_id: str,
    created: bool,
    state: Optional[str],
    body: bytes,
    cold_id: str,
    cold_body: bytes,
) -> List[str]:
    """A hit returned the cold job, already done, byte-identical."""
    problems = []
    if created or job_id != cold_id:
        problems.append(f"hit re-admitted: got {job_id}, cold job was {cold_id}")
    if state != "done":
        problems.append(f"hit job state {state!r}")
    if body != cold_body:
        problems.append("hit result differs from the cold result")
    return problems
